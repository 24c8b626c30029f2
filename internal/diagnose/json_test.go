package diagnose

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"testing"

	"dayu/internal/analyzer"
	"dayu/internal/trace"
)

// referenceFinding and referenceEncodeJSON are the original
// encoding/json implementation of EncodeJSON, kept verbatim as the
// byte oracle: `dayu diagnose -json`, three serve endpoints and the
// SSE payload are all pinned to these bytes.
type referenceFinding struct {
	Kind      Kind               `json:"kind"`
	Severity  string             `json:"severity"`
	Guideline Guideline          `json:"guideline"`
	Task      string             `json:"task,omitempty"`
	File      string             `json:"file,omitempty"`
	Object    string             `json:"object,omitempty"`
	Detail    string             `json:"detail"`
	Metrics   map[string]float64 `json:"metrics,omitempty"`
}

func referenceEncodeJSON(findings []Finding) ([]byte, error) {
	out := make([]referenceFinding, 0, len(findings))
	for _, f := range findings {
		out = append(out, referenceFinding{
			Kind: f.Kind, Severity: f.Severity.String(), Guideline: f.Guideline,
			Task: f.Task, File: f.File, Object: f.Object,
			Detail: f.Detail, Metrics: f.Metrics,
		})
	}
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	if err := enc.Encode(out); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// checkAgainstReference encodes findings both ways and compares bytes
// (or that both refuse).
func checkAgainstReference(t *testing.T, name string, findings []Finding) {
	t.Helper()
	want, wantErr := referenceEncodeJSON(findings)
	got, err := EncodeJSON(findings)
	if (err != nil) != (wantErr != nil) {
		t.Fatalf("%s: EncodeJSON error = %v, encoding/json error = %v", name, err, wantErr)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("%s: EncodeJSON diverges from encoding/json\n got: %q\nwant: %q", name, got, want)
	}
	// The compact layout, through a view's memoised group: json.Compact
	// of the same reference bytes, on one line.
	v := &View{}
	v.add(groupOf(findings))
	gotCompact, err := v.AppendCompactJSON(nil)
	if (err != nil) != (wantErr != nil) {
		t.Fatalf("%s: AppendCompactJSON error = %v, encoding/json error = %v", name, err, wantErr)
	}
	if wantErr != nil {
		return
	}
	var wantCompact bytes.Buffer
	if err := json.Compact(&wantCompact, want); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(gotCompact, wantCompact.Bytes()) {
		t.Fatalf("%s: AppendCompactJSON diverges from json.Compact of encoding/json\n got: %q\nwant: %q", name, gotCompact, wantCompact.Bytes())
	}
	if bytes.IndexByte(gotCompact, '\n') >= 0 {
		t.Fatalf("%s: compact findings span lines: %q", name, gotCompact)
	}
	// The view's indented body is re-indented from the compact one.
	if gotView, err := v.EncodeJSON(); err != nil || !bytes.Equal(gotView, want) {
		t.Fatalf("%s: View.EncodeJSON diverges from encoding/json (err %v)\n got: %q\nwant: %q", name, err, gotView, want)
	}
}

var encodeStrings = []string{
	"",
	"plain",
	`html <b>&amp;</b> "quoted" \back\slash`,
	"controls \x00\x01\b\f\n\r\t\x1f\x7f",
	"invalid utf8 \xff\xfe and truncated \xe2\x82",
	"separators \u2028 and \u2029",
	"snowman ☃ emoji 🜚",
}

var encodeFloats = []float64{
	0, math.Copysign(0, -1), 3, -3, 1e21, 1e20, 1e-7, -2.5e-7, 1e-6, 123456.789,
	0.1, 1.0 / 3, math.MaxFloat64, math.SmallestNonzeroFloat64, 1e100, 5e-324, 1 << 53,
}

func TestEncodeJSONMatchesReference(t *testing.T) {
	checkAgainstReference(t, "nil findings", nil)
	checkAgainstReference(t, "empty findings", []Finding{})
	checkAgainstReference(t, "zero finding", []Finding{{}})

	// Every string in every string position, every float as a metric.
	var all []Finding
	for i, s := range encodeStrings {
		f := Finding{
			Kind: Kind(s), Severity: Severity(i % 4), Guideline: Guideline(s),
			Task: s, File: s, Object: s, Detail: s,
			Metrics: map[string]float64{},
		}
		for j, v := range encodeFloats {
			f.Metrics[fmt.Sprintf("m%02d%s", j, s)] = v
		}
		checkAgainstReference(t, fmt.Sprintf("strings[%d]", i), []Finding{f})
		all = append(all, f)
	}
	checkAgainstReference(t, "all strings together", all)

	// omitempty: nil and empty Metrics both vanish; each optional field
	// alone.
	checkAgainstReference(t, "nil metrics", []Finding{{Kind: DataReuse, Detail: "d"}})
	checkAgainstReference(t, "empty metrics", []Finding{{Kind: DataReuse, Detail: "d", Metrics: map[string]float64{}}})
	checkAgainstReference(t, "task only", []Finding{{Task: "t"}})
	checkAgainstReference(t, "file only", []Finding{{File: "f"}})
	checkAgainstReference(t, "object only", []Finding{{Object: "o"}})
	checkAgainstReference(t, "one metric", []Finding{{Metrics: map[string]float64{"only": 1}}})
	// Metric keys sort bytewise, and are escaped like any string.
	checkAgainstReference(t, "key order", []Finding{{Metrics: map[string]float64{
		"b": 2, "a": 1, "B": 3, "": 4, "a<b": 5, "é": 6, "\xff": 7, "a\nb": 8,
	}}})

	// What Analyze really emits.
	checkAgainstReference(t, "analyze output", Analyze(richTraces(), nil, Thresholds{}))
}

func TestEncodeJSONRejectsNonFiniteMetrics(t *testing.T) {
	for _, v := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		fs := []Finding{{Kind: DataReuse}, {Kind: DataScattering, Metrics: map[string]float64{"ok": 1, "bad": v}}}
		if _, err := referenceEncodeJSON(fs); err == nil {
			t.Fatalf("reference accepted %v", v)
		}
		if out, err := EncodeJSON(fs); err == nil {
			t.Errorf("EncodeJSON accepted metric %v: %q", v, out)
		}
		// A failed call must not poison the pooled scratch buffer.
		checkAgainstReference(t, "after error", []Finding{{Kind: DataReuse, Detail: "next"}})
	}
}

// richTraces is a small trace set that trips several rules, so the
// encoder is also compared on findings with real details and metrics.
func richTraces() []*trace.TaskTrace {
	return []*trace.TaskTrace{
		mkTrace("t1", 0, trace.FileRecord{File: "shared.h5", Writes: 2, BytesWritten: 100, DataOps: 2}),
		mkTrace("t2", 100,
			trace.FileRecord{File: "shared.h5", Reads: 2, BytesRead: 100, DataOps: 2},
			trace.FileRecord{File: "once.h5", Writes: 1, BytesWritten: 10, DataOps: 1}),
		mkTrace("t3", 200,
			trace.FileRecord{File: "shared.h5", Reads: 1, BytesRead: 100, DataOps: 1},
			trace.FileRecord{File: "once.h5", Reads: 1, BytesRead: 10, DataOps: 1}),
		mkTrace("reader", 300, trace.FileRecord{File: "tiny.h5",
			Reads: 100, BytesRead: 100 * 200, DataOps: 100, DataBytes: 100 * 200}),
	}
}

// TestEncodeJSONAllocBudget holds the append encoder to its contract:
// with the scratch pool warm a call allocates the returned slice and
// (rarely) pool bookkeeping — not per finding, not per metric.
func TestEncodeJSONAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not stable under the race detector")
	}
	for _, n := range []int{1, 50, 2000} {
		fs := make([]Finding, n)
		for i := range fs {
			fs[i] = Finding{
				Kind: SmallIORequests, Severity: Warning, Guideline: GuidelineLayout,
				Task: fmt.Sprintf("stage/task_%04d", i), File: "out.h5", Object: "/grp/dset",
				Detail:  "mean request of 512 B across 4096 ops",
				Metrics: map[string]float64{"mean_bytes": 512, "ops": 4096, "share": 0.125, "z": 1e-9},
			}
		}
		for i := 0; i < 4; i++ { // warm the pool so buffer growth is amortized out
			if _, err := EncodeJSON(fs); err != nil {
				t.Fatal(err)
			}
		}
		allocs := testing.AllocsPerRun(50, func() {
			if _, err := EncodeJSON(fs); err != nil {
				t.Fatal(err)
			}
		})
		if allocs > 3 {
			t.Errorf("EncodeJSON of %d findings allocates %.1f times per call with a warm pool, budget 3", n, allocs)
		}
	}
}

// TestAppendCompactJSONAllocatesNothing: once a view's groups hold
// their compact bytes, appending the view into a buffer with room
// allocates nothing — what lets an SSE connection frame a snapshot's
// findings straight into the buffer it reuses for every event.
func TestAppendCompactJSONAllocatesNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not stable under the race detector")
	}
	v := NewIndex(Thresholds{}).Apply(richTraces(), nil, analyzer.Change{})
	warm, err := v.AppendCompactJSON(nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(v.groups) < 2 {
		t.Fatalf("the view has %d groups; the test wants several", len(v.groups))
	}
	buf := make([]byte, 0, len(warm))
	allocs := testing.AllocsPerRun(50, func() {
		if buf, err = v.AppendCompactJSON(buf[:0]); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("a warm AppendCompactJSON into a sized buffer allocates %.1f times, want 0", allocs)
	}
	if !bytes.Equal(buf, warm) {
		t.Errorf("a warm AppendCompactJSON gives %q, the first %q", buf, warm)
	}
}

// FuzzEncodeJSON is the differential fuzz target: any (strings, float)
// tuple must encode to encoding/json's bytes, and its compact layout to
// their json.Compact, or be refused by both.
func FuzzEncodeJSON(f *testing.F) {
	for i, s := range encodeStrings {
		f.Add(s, s, "k"+s, encodeFloats[i%len(encodeFloats)], encodeFloats[(i+7)%len(encodeFloats)], uint8(i))
	}
	f.Add("t", "d", "k", math.NaN(), 1.0, uint8(2))
	f.Add("t", "d", "k", 1.0, math.Inf(-1), uint8(1))
	f.Fuzz(func(t *testing.T, task, detail, key string, v1, v2 float64, sev uint8) {
		findings := []Finding{
			{Kind: Kind(detail), Severity: Severity(sev % 4), Guideline: Guideline(key), Task: task, Detail: detail},
			{Kind: DataReuse, File: task, Object: key, Detail: detail, Metrics: map[string]float64{key: v1, key + task: v2, "fixed": v1 - v2}},
		}
		if d := v1 - v2; math.IsNaN(d) || math.IsInf(d, 0) {
			delete(findings[1].Metrics, "fixed")
		}
		checkAgainstReference(t, "fuzz", findings)
	})
}
