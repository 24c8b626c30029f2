package jsonenc

import (
	"encoding/json"
	"testing"
)

// TestAppendStringMatchesEncodingJSON holds AppendString to
// json.Marshal's bytes on every branch of the escaper.
func TestAppendStringMatchesEncodingJSON(t *testing.T) {
	cases := []string{
		"",
		"plain",
		`with "quotes" and \backslashes\`,
		"newline\nreturn\rtab\tbackspace\bformfeed\f",
		"control\x00\x01\x1f\x7f bytes",
		"html <tags> & ampersands",
		"invalid utf8 \xff\xfe trailing",
		"truncated rune \xe2\x82",
		"unicode snowman ☃ and emoji 🜚",
		"line sep \u2028 here \u2029 there",
		"mixed ☃\x00<\xffok >",
	}
	for b := 0; b < 256; b++ {
		cases = append(cases, "x"+string([]byte{byte(b)})+"y")
	}
	for _, s := range cases {
		want, err := json.Marshal(s)
		if err != nil {
			t.Fatal(err)
		}
		if got := AppendString(nil, s); string(got) != string(want) {
			t.Errorf("AppendString(%q) = %s, encoding/json writes %s", s, got, want)
		}
	}
	// Appends after existing content, never over it.
	if got := AppendString([]byte("k:"), "v"); string(got) != `k:"v"` {
		t.Errorf("AppendString onto a prefix = %s", got)
	}
}
