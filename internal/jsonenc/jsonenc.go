// Package jsonenc holds the append-style JSON primitives the hot paths
// use where encoding/json's reflection encoder costs more than the work
// being encoded. Every function here is byte-for-byte what encoding/json
// writes for the same value; the tests hold them to it differentially.
package jsonenc

import "unicode/utf8"

const hex = "0123456789abcdef"

// AppendString appends s as a JSON string literal exactly as
// encoding/json renders it with HTML escaping on (its Marshal and
// Encoder default): quote, backslash and control bytes escaped (the \b
// \f \n \r \t short forms, backslash-u00xx otherwise), the
// HTML-sensitive bytes '<' '>' '&' as backslash-u003c/e/6, invalid
// UTF-8 as the literal six-character escape backslash-ufffd, and
// U+2028/U+2029 as backslash-u2028/9.
func AppendString(b []byte, s string) []byte {
	b = append(b, '"')
	start := 0
	for i := 0; i < len(s); {
		if c := s[i]; c < utf8.RuneSelf {
			if c >= 0x20 && c != '"' && c != '\\' && c != '<' && c != '>' && c != '&' {
				i++
				continue
			}
			b = append(b, s[start:i]...)
			switch c {
			case '\\', '"':
				b = append(b, '\\', c)
			case '\b':
				b = append(b, '\\', 'b')
			case '\f':
				b = append(b, '\\', 'f')
			case '\n':
				b = append(b, '\\', 'n')
			case '\r':
				b = append(b, '\\', 'r')
			case '\t':
				b = append(b, '\\', 't')
			default:
				b = append(b, '\\', 'u', '0', '0', hex[c>>4], hex[c&0xF])
			}
			i++
			start = i
			continue
		}
		r, size := utf8.DecodeRuneInString(s[i:])
		if r == utf8.RuneError && size == 1 {
			b = append(b, s[start:i]...)
			b = append(b, '\\', 'u', 'f', 'f', 'f', 'd')
			i += size
			start = i
			continue
		}
		if r == '\u2028' || r == '\u2029' {
			b = append(b, s[start:i]...)
			b = append(b, '\\', 'u', '2', '0', '2', hex[r&0xF])
			i += size
			start = i
			continue
		}
		i += size
	}
	b = append(b, s[start:]...)
	return append(b, '"')
}
