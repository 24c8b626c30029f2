package jsonenc

import (
	"encoding/json"
	"math"
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

// TestAppendFloatMatchesEncodingJSON holds AppendFloat to json.Marshal's
// bytes on both sides of the exponent thresholds, at the extremes of the
// float64 range and on both signs.
func TestAppendFloatMatchesEncodingJSON(t *testing.T) {
	cases := []float64{
		0, math.Copysign(0, -1), 1, 0.5, 1.0 / 3, 123456.789, 2.5e6,
		1e-6, 1e-7, 9.99e-7, 1.5e-10, 1e20, 1e21, 9.99e20, 1.5e300,
		5e-324, math.SmallestNonzeroFloat64 * 3, math.MaxFloat64,
		float64(math.MaxInt64), 1 << 53,
	}
	for _, f := range cases {
		cases = append(cases, -f)
	}
	for _, f := range cases {
		want, err := json.Marshal(f)
		if err != nil {
			t.Fatal(err)
		}
		if got := AppendFloat(nil, f); string(got) != string(want) {
			t.Errorf("AppendFloat(%v) = %s, encoding/json writes %s", f, got, want)
		}
	}
	if got := AppendFloat([]byte("k:"), 1e-7); string(got) != "k:1e-7" {
		t.Errorf("AppendFloat onto a prefix = %s", got)
	}
}
