package diagnose

import (
	"bytes"
	"fmt"
	"math"
	"sort"
	"strconv"
	"sync"

	"dayu/internal/jsonenc"
)

// EncodeJSON renders findings as an indented JSON array (an empty
// slice encodes as [], never null) terminated by a newline. The CLI
// `dayu diagnose -json`, the serve /v1/diagnose and
// /v1/live/diagnostics endpoints and the SSE event payload share this
// encoding, so their outputs are byte-identical for the same traces.
//
// The bytes are pinned: they are exactly what encoding/json's Encoder
// with SetIndent("", "  ") writes for the wire form
//
//	{kind, severity (by name), guideline, task?, file?, object?, detail, metrics?}
//
// (? = omitted when empty; metrics keys sorted), but appended directly
// instead of reflected and re-indented. TestEncodeJSONMatchesReference
// and FuzzEncodeJSON hold the two byte streams equal. A NaN or infinite
// metric is an error, as it is for encoding/json.
func EncodeJSON(findings []Finding) ([]byte, error) {
	if len(findings) == 0 {
		return []byte("[]\n"), nil
	}
	sc := encodeScratchPool.Get().(*encodeScratch)
	defer encodeScratchPool.Put(sc)
	if err := sc.appendElements(append(sc.buf[:0], '['), findings); err != nil {
		return nil, err
	}
	sc.buf = append(sc.buf, "\n]\n"...)
	// The scratch buffer goes back to the pool; the caller owns a copy.
	return bytes.Clone(sc.buf), nil
}

// EncodeJSON is EncodeJSON(v.Findings()) without the findings being
// copied out or, mostly, encoded: every group keeps the bytes of its
// own elements from the first time any view encoded it, so the body of
// a view that shares all but a few groups with its predecessor is one
// allocation and a concatenation.
func (v *View) EncodeJSON() ([]byte, error) {
	if v.n == 0 {
		return []byte("[]\n"), nil
	}
	size := len("[") + len(v.groups) - 1 + len("\n]\n")
	for _, g := range v.groups {
		g.enc.once.Do(g.encode)
		if g.enc.failed {
			// The flat encoder words the error, with the finding's index
			// in the whole body.
			return EncodeJSON(v.Findings())
		}
		size += len(g.enc.elements)
	}
	b := append(make([]byte, 0, size), '[')
	for i, g := range v.groups {
		if i > 0 {
			b = append(b, ',')
		}
		b = append(b, g.enc.elements...)
	}
	return append(b, "\n]\n"...), nil
}

// groupEncoding is a group's findings as array elements — what stands
// between the brackets, commas included — encoded at most once, by the
// first View.EncodeJSON that needs it: callers that never encode never
// pay.
type groupEncoding struct {
	once     sync.Once
	elements []byte
	failed   bool
}

func (g *group) encode() {
	sc := encodeScratchPool.Get().(*encodeScratch)
	defer encodeScratchPool.Put(sc)
	if sc.appendElements(sc.buf[:0], g.findings) != nil {
		g.enc.failed = true
		return
	}
	g.enc.elements = bytes.Clone(sc.buf)
}

// appendElements renders findings onto b as comma-separated array
// elements and leaves the result in sc.buf.
func (sc *encodeScratch) appendElements(b []byte, findings []Finding) error {
	defer func() { sc.buf = b }() // keep whatever the buffer grew to
	for i := range findings {
		f := &findings[i]
		if i > 0 {
			b = append(b, ',')
		}
		b = append(b, "\n  {\n    \"kind\": "...)
		b = jsonenc.AppendString(b, string(f.Kind))
		b = append(b, ",\n    \"severity\": "...)
		b = jsonenc.AppendString(b, f.Severity.String())
		b = append(b, ",\n    \"guideline\": "...)
		b = jsonenc.AppendString(b, string(f.Guideline))
		if f.Task != "" {
			b = append(b, ",\n    \"task\": "...)
			b = jsonenc.AppendString(b, f.Task)
		}
		if f.File != "" {
			b = append(b, ",\n    \"file\": "...)
			b = jsonenc.AppendString(b, f.File)
		}
		if f.Object != "" {
			b = append(b, ",\n    \"object\": "...)
			b = jsonenc.AppendString(b, f.Object)
		}
		b = append(b, ",\n    \"detail\": "...)
		b = jsonenc.AppendString(b, f.Detail)
		if len(f.Metrics) > 0 {
			b = append(b, ",\n    \"metrics\": {"...)
			sc.keys = sc.keys[:0]
			for k := range f.Metrics {
				sc.keys = append(sc.keys, k)
			}
			sort.Strings(sc.keys)
			for j, k := range sc.keys {
				if j > 0 {
					b = append(b, ',')
				}
				b = append(b, "\n      "...)
				b = jsonenc.AppendString(b, k)
				b = append(b, ": "...)
				v := f.Metrics[k]
				if math.IsNaN(v) || math.IsInf(v, 0) {
					return fmt.Errorf("diagnose: encode finding %d (%s): metric %q: unsupported value %v", i, f.Kind, k, v)
				}
				b = appendJSONFloat(b, v)
			}
			b = append(b, "\n    }"...)
		}
		b = append(b, "\n  }"...)
	}
	return nil
}

// encodeScratch is EncodeJSON's reusable working memory: the output
// under construction and the metric-key sort buffer.
type encodeScratch struct {
	buf  []byte
	keys []string
}

var encodeScratchPool = sync.Pool{New: func() any { return new(encodeScratch) }}

// appendJSONFloat appends a finite float64 as encoding/json formats it:
// ES6 number-to-string (shortest round-trip digits, exponent form
// below 1e-6 and from 1e21, the exponent never zero-padded).
func appendJSONFloat(b []byte, f float64) []byte {
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, f, format, -1, 64)
	if format == 'e' {
		// e-09 -> e-9, as encoding/json cleans it up.
		if n := len(b); n >= 4 && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
			b[n-2] = b[n-1]
			b = b[:n-1]
		}
	}
	return b
}
