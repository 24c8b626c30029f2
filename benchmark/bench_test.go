package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
	"time"
)

func TestTailPercentile(t *testing.T) {
	for _, c := range []struct{ n, want int }{
		{0, 0}, {19, 0}, {20, 50}, {39, 50}, {40, 75}, {99, 75}, {100, 90}, {199, 90}, {200, 95}, {999, 95}, {1000, 99}, {50000, 99},
	} {
		if got := tailPercentile(c.n); got != c.want {
			t.Errorf("tailPercentile(%d) = p%d, want p%d", c.n, got, c.want)
		}
	}
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(i)
	}
	if s := summarize(xs); s.TailPct != 90 || s.Tail < 89 || s.Tail > 90 || s.N != 100 {
		t.Errorf("summarize(0..99) = %+v, want the p90 near 89.1", s)
	}
	if s := summarize(xs[:15]); s.TailPct != 0 || s.Tail != 0 {
		t.Errorf("15 samples support no tail percentile, got %+v", s)
	}
}

// The reported value of a probe series is the median over repetitions
// of each repetition's median: one slow repetition must not move it.
func TestMedianOfRepetitionMedians(t *testing.T) {
	res := newResult()
	for i, visible := range [][]float64{{1, 2, 300}, {4, 5, 6}, {7, 8, 9000}} {
		res.add(iter{i: i}, "wait_p50_ms", median(visible))
	}
	res.add(iter{i: 3, warm: true}, "wait_p50_ms", 1e9)         // warm-up is discarded
	res.add(iter{i: 4, rec: newRecorder()}, "wait_p50_ms", 1e9) // traced repetitions are kept apart
	res.setup = []float64{3, 1, 2}
	got := endToEndValues(res)
	if got["wait_p50_ms"] != 5 || got["setup_s"] != 2 {
		t.Errorf("endToEndValues = %v, want wait_p50_ms 5 and setup_s 2", got)
	}
	if n := len(res.tracedSamples["wait_p50_ms"]); n != 1 {
		t.Errorf("traced repetition landed in %d traced samples, want 1", n)
	}
}

func TestVerdict(t *testing.T) {
	base := []float64{100, 101, 99, 100, 102, 98}
	shift := func(f float64) []float64 {
		out := make([]float64, len(base))
		for i, v := range base {
			out[i] = v * f
		}
		return out
	}
	noisy := []float64{60, 100, 140, 80, 120, 100}
	for _, c := range []struct {
		name    string
		a, b    []float64
		lower   bool
		bound   float64
		inRun   float64
		verdict string
	}{
		{"same", base, base, true, 0.10, 0, "unchanged"},
		{"worse within bound", base, shift(1.05), true, 0.10, 0, "unchanged"},
		{"worse beyond bound", base, shift(1.20), true, 0.10, 0, "regressed"},
		{"better, all runs", base, shift(0.80), true, 0.10, 0, "improved"},
		{"better, overlapping runs", base, shift(0.985), true, 0.10, 0, "unchanged"},
		{"higher is better, dropped", base, shift(0.80), false, 0.10, 0, "regressed"},
		{"higher is better, rose", base, shift(1.20), false, 0.10, 0, "improved"},
		{"noise wider than bound", noisy, shift(1.2), true, 0.10, 0, "unresolved"},
		{"noise wider than bound, clean win", noisy, shift(0.5), true, 0.10, 0, "improved"},
		{"single run, in-run spread decides", base[:1], shift(1.2)[:1], true, 0.10, 0.30, "unresolved"},
		{"single run, quiet", base[:1], shift(1.2)[:1], true, 0.10, 0.02, "regressed"},
	} {
		if got, _ := verdict(c.a, c.b, c.lower, c.bound, c.inRun); got != c.verdict {
			t.Errorf("%s: verdict = %s, want %s", c.name, got, c.verdict)
		}
	}
}

func TestCompareFiles(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, wait float64, failed int) string {
		var f resultFile
		for i := 0; i < 5; i++ {
			f.Runs = append(f.Runs, runRecord{Workload: "batch_analyze", Attempted: 10, Failed: failed,
				EndToEnd: map[string]float64{"wait_p50_ms": wait + float64(i), "setup_s": 1}})
		}
		data, _ := json.Marshal(f)
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	a, slow, flaky := write("a.json", 100, 0), write("slow.json", 150, 0), write("flaky.json", 100, 1)
	var out bytes.Buffer
	if regressed, err := compareFiles(&out, "../BENCHMARK.json", a, a); err != nil || regressed {
		t.Errorf("a vs a: regressed=%v err=%v\n%s", regressed, err, out.String())
	}
	out.Reset()
	if regressed, err := compareFiles(&out, "../BENCHMARK.json", a, slow); err != nil || !regressed || !strings.Contains(out.String(), "regressed") {
		t.Errorf("a vs slow: regressed=%v err=%v\n%s", regressed, err, out.String())
	}
	if regressed, _ := compareFiles(&out, "../BENCHMARK.json", a, flaky); !regressed {
		t.Error("a vs flaky: more failed operations must count as a regression")
	}
}

func TestSelfTime(t *testing.T) {
	r := newRecorder()
	at := func(ms int) time.Time { return r.epoch.Add(time.Duration(ms) * time.Millisecond) }
	root := r.add("root", -1, "x", at(0), at(100))
	r.add("a", root, "x", at(10), at(40))
	r.add("b", root, "x", at(30), at(60)) // overlaps a: 10..60 is covered once
	self := r.selfMS()
	if got := self["root"][0]; got != 50 {
		t.Errorf("root self time = %v ms, want 50", got)
	}
	if got := self["a"][0]; got != 30 {
		t.Errorf("leaf self time = %v ms, want its duration 30", got)
	}
}

func inputsDigest(t *testing.T, seed uint64) (digest [sha256.Size]byte, tasks int) {
	t.Helper()
	traces, manifest, files, err := syntheticInputs(seed, 120)
	if err != nil {
		t.Fatal(err)
	}
	h := sha256.New()
	for _, f := range files {
		h.Write([]byte(f.name))
		h.Write(f.data)
	}
	m, _ := json.Marshal(manifest)
	h.Write(m)
	h.Write(seededBytes(seed, 4096))
	h.Sum(digest[:0])
	return digest, len(traces)
}

func TestSameSeedSameInputs(t *testing.T) {
	a, na := inputsDigest(t, 7)
	b, nb := inputsDigest(t, 7)
	c, nc := inputsDigest(t, 8)
	if a != b {
		t.Error("the same seed generated different input bytes")
	}
	if a == c {
		t.Error("different seeds generated identical input bytes")
	}
	if na != nb || na != nc {
		t.Errorf("task counts depend on the seed: %d %d %d", na, nb, nc)
	}
}

// declared reads the metric names BENCHMARK.json declares.
func declared(t *testing.T) (workloadNames, endToEnd, perLayer []string) {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var decl struct {
		Workloads []struct{ Name string }
		EndToEnd  []metricDef `json:"end_to_end"`
		PerLayer  []metricDef `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &decl); err != nil {
		t.Fatal(err)
	}
	for _, w := range decl.Workloads {
		workloadNames = append(workloadNames, w.Name)
	}
	for _, m := range decl.EndToEnd {
		endToEnd = append(endToEnd, m.Name+" "+m.Unit+" "+m.Better)
	}
	for _, m := range decl.PerLayer {
		perLayer = append(perLayer, m.Name+" "+m.Unit+" "+m.Better)
	}
	return
}

func TestDeclarationMatchesBenchmarkJSON(t *testing.T) {
	names, e2e, layers := declared(t)
	join := func(defs []metricDef) []string {
		var out []string
		for _, m := range defs {
			out = append(out, m.Name+" "+m.Unit+" "+m.Better)
		}
		return out
	}
	for _, c := range []struct {
		what      string
		got, want []string
	}{
		{"workloads", workloadNames(), names},
		{"end_to_end", join(endToEnd), e2e},
		{"per_layer", join(perLayer), layers},
	} {
		if strings.Join(c.got, "\n") != strings.Join(c.want, "\n") {
			t.Errorf("%s in the program:\n%s\nin BENCHMARK.json:\n%s", c.what, strings.Join(c.got, "\n"), strings.Join(c.want, "\n"))
		}
	}
}

// TestQuickSmoke runs every workload at tiny sizes with tracing off and
// one traced run (whose off-path passes touch every family), and checks
// that what is emitted is exactly what BENCHMARK.json declares.
func TestQuickSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the workloads")
	}
	keys := func(r report) []string {
		ks := sortedKeys(r.Metrics)
		sort.Strings(ks)
		return ks
	}
	names := func(defs []metricDef) []string {
		var out []string
		for _, m := range defs {
			out = append(out, m.Name)
		}
		sort.Strings(out)
		return out
	}
	for _, w := range allWorkloads {
		c := config{workload: w.name, seed: 3, budget: 300 * time.Millisecond, quick: true, scratch: t.TempDir()}
		res, _, err := runWorkload(c, nil)
		if err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		rep := buildReport(res, false)
		if !rep.Correct || rep.Attempted < 1 {
			t.Errorf("%s: correct=%v attempted=%d failed=%d notes=%v", w.name, rep.Correct, rep.Attempted, rep.Failed, res.notes)
		}
		if got, want := keys(rep), names(endToEnd); strings.Join(got, ",") != strings.Join(want, ",") {
			t.Errorf("%s emitted %v, declared %v", w.name, got, want)
		}
		for name, v := range rep.Metrics {
			if v.Value <= 0 {
				t.Errorf("%s: end-to-end metric %s = %v, must never be 0", w.name, name, v.Value)
			}
		}
	}

	rec := newRecorder()
	c := config{workload: "stream_loaded", seed: 3, budget: 300 * time.Millisecond, quick: true, traced: true, scratch: t.TempDir()}
	res, offPath, err := runWorkload(c, rec)
	if err != nil {
		t.Fatal(err)
	}
	rep := buildReport(res, true)
	if !rep.Correct {
		t.Errorf("traced run: failed=%d notes=%v", rep.Failed, res.notes)
	}
	if got, want := keys(rep), names(perLayer); strings.Join(got, ",") != strings.Join(want, ",") {
		t.Errorf("traced run emitted %v, declared %v", got, want)
	}
	for _, m := range perLayer {
		if _, ok := res.layer[m.Name]; !ok {
			t.Errorf("no workload produced per-layer metric %s", m.Name)
		}
	}
	if len(offPath) == 0 {
		t.Error("a stream workload exercises neither the tracer kernels nor the batch path; off-path readings expected")
	}
	spans := filepath.Join(t.TempDir(), "spans.json")
	if err := rec.writeChromeTrace(spans); err != nil {
		t.Fatal(err)
	}
	var doc struct{ TraceEvents []map[string]any }
	data, _ := os.ReadFile(spans)
	if err := json.Unmarshal(data, &doc); err != nil || len(doc.TraceEvents) == 0 {
		t.Errorf("span file: err=%v, %d events", err, len(doc.TraceEvents))
	}
}
