package diagnose

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"slices"
	"sort"
	"sync"

	"dayu/internal/jsonenc"
)

// EncodeJSON renders findings as an indented JSON array (an empty
// slice encodes as [], never null) terminated by a newline. The CLI
// `dayu diagnose -json` and the serve /v1/diagnose and
// /v1/live/diagnostics endpoints share this encoding, so their outputs
// are byte-identical for the same traces; the SSE event carries its
// json.Compact (View.AppendCompactJSON).
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
	if err := sc.appendElements(append(sc.buf[:0], '['), findings, &indented); err != nil {
		return nil, err
	}
	sc.buf = append(sc.buf, "\n]\n"...)
	// The scratch buffer goes back to the pool; the caller owns a copy.
	return bytes.Clone(sc.buf), nil
}

// EncodeJSON is EncodeJSON(v.Findings()) without the findings being
// copied out or, mostly, encoded: it is json.Indent of
// AppendCompactJSON, which is what encoding/json's SetIndent does to
// its own compact output, so the bytes are the flat encoder's.
func (v *View) EncodeJSON() ([]byte, error) {
	if v.n == 0 {
		return []byte("[]\n"), nil
	}
	compact, err := v.AppendCompactJSON(nil)
	if err != nil {
		return nil, err
	}
	var b bytes.Buffer // json.Indent sizes it: twice the compact form
	if err := json.Indent(&b, compact, "", "  "); err != nil {
		return nil, err
	}
	b.WriteByte('\n')
	return b.Bytes(), nil
}

// AppendCompactJSON appends the view's findings to b as one line of
// JSON: exactly json.Compact of EncodeJSON's body, without its trailing
// newline. Every group keeps the bytes of its own elements from the
// first time any view encoded it, so the findings of a view that shares
// all but a few groups with its predecessor are a concatenation, and a
// warm call into a buffer with room allocates nothing. On error b is
// returned as it was given.
func (v *View) AppendCompactJSON(b []byte) ([]byte, error) {
	if v.n == 0 {
		return append(b, "[]"...), nil
	}
	size := len("[]") - 1
	for _, run := range v.groups {
		for _, g := range run {
			elements, ok := g.elements()
			if !ok {
				// The flat encoder words the error, with the finding's
				// index in the whole body.
				_, err := EncodeJSON(v.Findings())
				return b, err
			}
			size += len(elements) + 1
		}
	}
	b = append(slices.Grow(b, size), '[')
	first := true
	for _, run := range v.groups {
		for _, g := range run {
			if !first {
				b = append(b, ',')
			}
			first = false
			elements, _ := g.elements()
			b = append(b, elements...)
		}
	}
	return append(b, ']'), nil
}

// groupEncoding is a group's findings as compact array elements — what
// stands between the brackets, commas included — encoded at most once,
// by the first view that needs them: callers that never encode never
// pay.
type groupEncoding struct {
	elements []byte
	once     sync.Once
	failed   bool
}

// elements returns the group's compact elements; ok is false when a
// finding cannot be encoded.
func (g *group) elements() (elements []byte, ok bool) {
	e := &g.enc
	e.once.Do(func() {
		sc := encodeScratchPool.Get().(*encodeScratch)
		defer encodeScratchPool.Put(sc)
		if sc.appendElements(sc.buf[:0], g.findings, &compact) != nil {
			e.failed = true
			return
		}
		e.elements = bytes.Clone(sc.buf)
	})
	return e.elements, !e.failed
}

// layout is the punctuation and whitespace between an element's
// values: each field's lead-in (separator, name and colon), a metric's
// key prefix and colon, and the two closers. There is one encoder and
// two layouts of the same literals.
type layout struct {
	kind, severity, guideline, task, file, object, detail, metrics string
	metricKey, metricColon, metricsClose, elementClose             string
}

// indented is encoding/json's SetIndent("", "  ") layout, the bytes of
// the flat EncodeJSON.
var indented = layout{
	kind:         "\n  {\n    \"kind\": ",
	severity:     ",\n    \"severity\": ",
	guideline:    ",\n    \"guideline\": ",
	task:         ",\n    \"task\": ",
	file:         ",\n    \"file\": ",
	object:       ",\n    \"object\": ",
	detail:       ",\n    \"detail\": ",
	metrics:      ",\n    \"metrics\": {",
	metricKey:    "\n      ",
	metricColon:  ": ",
	metricsClose: "\n    }",
	elementClose: "\n  }",
}

// compact is indented with the insignificant whitespace gone: what
// json.Compact makes of it, and one line, because the strings escape
// every newline. Groups memoise their elements in it.
var compact = layout{
	kind:         `{"kind":`,
	severity:     `,"severity":`,
	guideline:    `,"guideline":`,
	task:         `,"task":`,
	file:         `,"file":`,
	object:       `,"object":`,
	detail:       `,"detail":`,
	metrics:      `,"metrics":{`,
	metricKey:    "",
	metricColon:  ":",
	metricsClose: "}",
	elementClose: "}",
}

// appendElements renders findings onto b as comma-separated array
// elements in layout l and leaves the result in sc.buf.
func (sc *encodeScratch) appendElements(b []byte, findings []Finding, l *layout) error {
	defer func() { sc.buf = b }() // keep whatever the buffer grew to
	for i := range findings {
		f := &findings[i]
		if i > 0 {
			b = append(b, ',')
		}
		b = append(b, l.kind...)
		b = jsonenc.AppendString(b, string(f.Kind))
		b = append(b, l.severity...)
		b = jsonenc.AppendString(b, f.Severity.String())
		b = append(b, l.guideline...)
		b = jsonenc.AppendString(b, string(f.Guideline))
		if f.Task != "" {
			b = append(b, l.task...)
			b = jsonenc.AppendString(b, f.Task)
		}
		if f.File != "" {
			b = append(b, l.file...)
			b = jsonenc.AppendString(b, f.File)
		}
		if f.Object != "" {
			b = append(b, l.object...)
			b = jsonenc.AppendString(b, f.Object)
		}
		b = append(b, l.detail...)
		b = jsonenc.AppendString(b, f.Detail)
		if len(f.Metrics) > 0 {
			b = append(b, l.metrics...)
			sc.keys = sc.keys[:0]
			for k := range f.Metrics {
				sc.keys = append(sc.keys, k)
			}
			sort.Strings(sc.keys)
			for j, k := range sc.keys {
				if j > 0 {
					b = append(b, ',')
				}
				b = append(b, l.metricKey...)
				b = jsonenc.AppendString(b, k)
				b = append(b, l.metricColon...)
				v := f.Metrics[k]
				if math.IsNaN(v) || math.IsInf(v, 0) {
					return fmt.Errorf("diagnose: encode finding %d (%s): metric %q: unsupported value %v", i, f.Kind, k, v)
				}
				b = jsonenc.AppendFloat(b, v)
			}
			b = append(b, l.metricsClose...)
		}
		b = append(b, l.elementClose...)
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
