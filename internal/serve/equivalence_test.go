package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"
	"time"

	"dayu/internal/analyzer"
	"dayu/internal/diagnose"
	"dayu/internal/obs"
	"dayu/internal/optimizer"
	"dayu/internal/trace"
	"dayu/internal/workloads"
)

// testPlanOpts mirrors the batch CLI's `dayu plan` defaults.
var testPlanOpts = optimizer.LocalityOptions{FastTier: "nvme", Nodes: 2, StageOutDisposable: true}

// mustServer builds a server, failing the test on construction errors
// (only WAL open/recovery failures are construction errors).
func mustServer(t *testing.T, cfg Config) *Server {
	t.Helper()
	s, err := NewServer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// writeFixtureDir saves a small deterministic synthetic workflow.
func writeFixtureDir(t *testing.T) string {
	t.Helper()
	return writeSyntheticDir(t, workloads.SyntheticTraceConfig{
		Tasks: 24, Stages: 4, FilesPerStage: 3, DatasetsPerTask: 2,
	})
}

// writeSyntheticDir saves the synthetic workflow cfg describes, with its
// manifest.
func writeSyntheticDir(t *testing.T, cfg workloads.SyntheticTraceConfig) string {
	t.Helper()
	dir := t.TempDir()
	traces, m := workloads.GenerateSyntheticTraces(cfg)
	for _, tt := range traces {
		if _, err := tt.Save(dir); err != nil {
			t.Fatal(err)
		}
	}
	if err := trace.SaveManifest(dir, m); err != nil {
		t.Fatal(err)
	}
	bumpMtimes(t, dir, 0)
	return dir
}

// bumpMtimes pins every file's mtime to a distinct, generation-tagged
// instant so mutations are always visible to the stat-based scan
// regardless of filesystem timestamp granularity.
func bumpMtimes(t *testing.T, dir string, gen int) {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	base := time.Date(2024, 1, 1, 0, 0, 0, 0, time.UTC).Add(time.Duration(gen) * time.Hour)
	for i, e := range entries {
		path := filepath.Join(dir, e.Name())
		when := base.Add(time.Duration(i) * time.Second)
		if err := os.Chtimes(path, when, when); err != nil {
			t.Fatal(err)
		}
	}
}

// batchExpect renders every endpoint's body via the one-shot batch
// path: fresh LoadDir + batch builders, encoded exactly as the CLI
// writes them.
func batchExpect(t *testing.T, dir string) map[string][]byte {
	t.Helper()
	traces, err := trace.LoadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	m, err := trace.LoadManifest(dir)
	if err != nil {
		t.Fatal(err)
	}
	out := map[string][]byte{}

	ftg := analyzer.BuildFTG(traces, m)
	sdg := analyzer.BuildSDG(traces, m, analyzer.Options{})
	for name, g := range map[string]interface {
		DOT() string
		HTML() string
		SVG() string
	}{"ftg": ftg, "sdg": sdg} {
		js, err := json.MarshalIndent(g, "", " ")
		if err != nil {
			t.Fatal(err)
		}
		out["/v1/"+name] = js
		out["/v1/"+name+"?format=dot"] = []byte(g.DOT())
		out["/v1/"+name+"?format=html"] = []byte(g.HTML())
		out["/v1/"+name+"?format=svg"] = []byte(g.SVG())
	}

	findings := diagnose.Analyze(traces, m, diagnose.Thresholds{})
	diagJSON, err := diagnose.EncodeJSON(findings)
	if err != nil {
		t.Fatal(err)
	}
	out["/v1/diagnose"] = diagJSON

	plan := optimizer.PlanDataLocality(traces, m, testPlanOpts)
	planJSON, err := json.MarshalIndent(plan, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	out["/v1/plan"] = planJSON
	return out
}

func get(t *testing.T, srv *httptest.Server, path string) []byte {
	t.Helper()
	resp, err := http.Get(srv.URL + path)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s = %d: %s", path, resp.StatusCode, body)
	}
	return body
}

func checkAllEndpoints(t *testing.T, srv *httptest.Server, dir, phase string) {
	t.Helper()
	want := batchExpect(t, dir)
	for path, expected := range want {
		got := get(t, srv, path)
		if !bytes.Equal(got, expected) {
			t.Errorf("%s: GET %s differs from batch build (%d vs %d bytes)",
				phase, path, len(got), len(expected))
		}
	}
}

// TestServeEquivalence pins the acceptance criterion: serve responses
// are byte-identical to the batch path across add, modify and delete
// of task traces, and an unchanged directory answers with zero trace
// re-parses (asserted via the obs parse/cache counters).
func TestServeEquivalence(t *testing.T) {
	dir := writeFixtureDir(t)
	reg := obs.NewRegistry()
	s := mustServer(t, Config{Dir: dir, Registry: reg, PlanOptions: testPlanOpts})
	defer s.Close()
	srv := httptest.NewServer(s)
	defer srv.Close()

	parses := reg.Counter("dayu_serve_trace_parses_total")
	snapHits := reg.Counter(obs.Name("dayu_serve_cache_hits_total", "cache", "snapshot"))
	contribMisses := reg.Counter(obs.Name("dayu_serve_cache_misses_total", "cache", "contribution"))
	contribHits := reg.Counter(obs.Name("dayu_serve_cache_hits_total", "cache", "contribution"))

	checkAllEndpoints(t, srv, dir, "initial")
	if parses.Value() != 24 {
		t.Fatalf("initial ingest parsed %d traces, want 24", parses.Value())
	}

	// Unchanged directory: repeat requests re-parse nothing and hit the
	// snapshot cache on every refresh.
	parsesBefore, hitsBefore := parses.Value(), snapHits.Value()
	for i := 0; i < 3; i++ {
		get(t, srv, "/v1/ftg")
		get(t, srv, "/v1/sdg")
	}
	if parses.Value() != parsesBefore {
		t.Fatalf("unchanged directory re-parsed traces: %d -> %d", parsesBefore, parses.Value())
	}
	if snapHits.Value() < hitsBefore+6 {
		t.Fatalf("snapshot cache hits %d -> %d, want +6", hitsBefore, snapHits.Value())
	}

	// Modify one task without touching its object descriptions: exactly
	// one re-parse and exactly two contribution recomputes (its FTG and
	// SDG shares); every other contribution merges from cache.
	paths, err := filepath.Glob(filepath.Join(dir, "*.trace.json"))
	if err != nil || len(paths) == 0 {
		t.Fatalf("glob: %v (%d files)", err, len(paths))
	}
	victim := paths[3]
	tt, err := trace.Load(victim)
	if err != nil {
		t.Fatal(err)
	}
	tt.Files[0].BytesRead += 4096
	if _, err := tt.Save(dir); err != nil {
		t.Fatal(err)
	}
	bumpMtimes(t, dir, 1)

	parsesBefore = parses.Value()
	missesBefore, chitsBefore := contribMisses.Value(), contribHits.Value()
	checkAllEndpoints(t, srv, dir, "modify")
	if got := parses.Value() - parsesBefore; got != 1 {
		t.Errorf("modify: re-parsed %d traces, want exactly 1", got)
	}
	if got := contribMisses.Value() - missesBefore; got != 2 {
		t.Errorf("modify: recomputed %d contributions, want exactly 2 (FTG+SDG of the changed task)", got)
	}
	if got := contribHits.Value() - chitsBefore; got != 2*23 {
		t.Errorf("modify: %d contribution cache hits, want %d", got, 2*23)
	}

	// Add a new task trace (not in the manifest: ordered last, as in
	// the batch path).
	extra := &trace.TaskTrace{
		Task: "zz/task_extra", StartNS: 1 << 40, EndNS: 1<<40 + 1000,
		Files: []trace.FileRecord{{
			Task: "zz/task_extra", File: "extra_out.h5",
			OpenNS: 1<<40 + 10, CloseNS: 1<<40 + 900,
			Ops: 4, Writes: 4, BytesWritten: 1 << 14,
			MetaOps: 1, DataOps: 3, MetaBytes: 64, DataBytes: 1<<14 - 64,
		}},
	}
	if _, err := extra.Save(dir); err != nil {
		t.Fatal(err)
	}
	bumpMtimes(t, dir, 2)
	checkAllEndpoints(t, srv, dir, "add")

	// Delete a task trace.
	if err := os.Remove(victim); err != nil {
		t.Fatal(err)
	}
	bumpMtimes(t, dir, 3)
	checkAllEndpoints(t, srv, dir, "delete")

	// Touch without content change: re-hash, never re-parse, snapshot
	// unchanged.
	parsesBefore, hitsBefore = parses.Value(), snapHits.Value()
	bumpMtimes(t, dir, 4)
	get(t, srv, "/v1/ftg")
	if parses.Value() != parsesBefore {
		t.Errorf("touch: re-parsed traces")
	}
	if snapHits.Value() != hitsBefore+1 {
		t.Errorf("touch: snapshot hits %d -> %d, want +1", hitsBefore, snapHits.Value())
	}
}

// TestServeManifestChange pins equivalence when only the manifest
// (task ordering) changes: no trace re-parses, but a new snapshot with
// the new merge order.
func TestServeManifestChange(t *testing.T) {
	dir := writeFixtureDir(t)
	reg := obs.NewRegistry()
	s := mustServer(t, Config{Dir: dir, Registry: reg, PlanOptions: testPlanOpts})
	defer s.Close()
	srv := httptest.NewServer(s)
	defer srv.Close()
	checkAllEndpoints(t, srv, dir, "initial")

	m, err := trace.LoadManifest(dir)
	if err != nil {
		t.Fatal(err)
	}
	// Reverse the task order.
	for i, j := 0, len(m.TaskOrder)-1; i < j; i, j = i+1, j-1 {
		m.TaskOrder[i], m.TaskOrder[j] = m.TaskOrder[j], m.TaskOrder[i]
	}
	if err := trace.SaveManifest(dir, m); err != nil {
		t.Fatal(err)
	}
	bumpMtimes(t, dir, 1)

	parses := reg.Counter("dayu_serve_trace_parses_total")
	before := parses.Value()
	checkAllEndpoints(t, srv, dir, "manifest-reorder")
	if parses.Value() != before {
		t.Errorf("manifest change re-parsed %d traces, want 0", parses.Value()-before)
	}
}

// TestServeConcurrentRequestsDuringIngest drives every endpoint from
// many goroutines while trace files mutate and ingests run — the
// -race gate for the single-writer snapshot-swap model.
func TestServeConcurrentRequestsDuringIngest(t *testing.T) {
	dir := writeFixtureDir(t)
	s := mustServer(t, Config{Dir: dir, Registry: obs.NewRegistry(), PlanOptions: testPlanOpts})
	defer s.Close()
	srv := httptest.NewServer(s)
	defer srv.Close()

	stop := make(chan struct{})
	errs := make(chan error, 16)
	paths := []string{"/v1/ftg", "/v1/sdg?format=dot", "/v1/diagnose", "/v1/plan", "/v1/tasks", "/healthz", "/metrics"}
	for w := 0; w < 8; w++ {
		go func(w int) {
			client := srv.Client()
			for i := 0; ; i++ {
				select {
				case <-stop:
					errs <- nil
					return
				default:
				}
				resp, err := client.Get(srv.URL + paths[(w+i)%len(paths)])
				if err != nil {
					errs <- fmt.Errorf("worker %d: %w", w, err)
					return
				}
				_, _ = io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
			}
		}(w)
	}

	victims, err := filepath.Glob(filepath.Join(dir, "*.trace.json"))
	if err != nil || len(victims) == 0 {
		t.Fatal("no trace files")
	}
	deadline := time.Now().Add(500 * time.Millisecond)
	for gen := 1; time.Now().Before(deadline); gen++ {
		victim := victims[gen%len(victims)]
		tt, err := trace.Load(victim)
		if err != nil {
			t.Fatal(err)
		}
		tt.EndNS += int64(gen)
		if _, err := tt.Save(dir); err != nil {
			t.Fatal(err)
		}
		when := time.Date(2024, 1, 2, 0, 0, 0, 0, time.UTC).Add(time.Duration(gen) * time.Second)
		if err := os.Chtimes(victim, when, when); err != nil {
			t.Fatal(err)
		}
		if _, err := s.Ingest(); err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	for w := 0; w < 8; w++ {
		if err := <-errs; err != nil {
			t.Error(err)
		}
	}

	// After the dust settles the service still matches the batch path.
	checkAllEndpoints(t, srv, dir, "post-race")
}
