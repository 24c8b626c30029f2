package serve

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"dayu/internal/obs"
	"dayu/internal/trace"
)

func TestServeCorruptTraceReportsPath(t *testing.T) {
	dir := writeFixtureDir(t)
	s := mustServer(t, Config{Dir: dir, Registry: obs.NewRegistry(), PlanOptions: testPlanOpts})
	defer s.Close()
	srv := httptest.NewServer(s)
	defer srv.Close()
	get(t, srv, "/v1/ftg")

	// Corrupt one trace file in place.
	paths, _ := filepath.Glob(filepath.Join(dir, "*.trace.json"))
	corrupt := paths[0]
	if err := os.WriteFile(corrupt, []byte("{torn"), 0o644); err != nil {
		t.Fatal(err)
	}
	bumpMtimes(t, dir, 1)

	// Requests still answer from the last good snapshot...
	resp, err := http.Get(srv.URL + "/v1/ftg")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("request during corruption = %d, want 200 (stale snapshot)", resp.StatusCode)
	}

	// ...and /healthz names the corrupt file.
	hresp, err := http.Get(srv.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer hresp.Body.Close()
	var h Health
	if err := json.NewDecoder(hresp.Body).Decode(&h); err != nil {
		t.Fatal(err)
	}
	if h.Status != "degraded" {
		t.Errorf("health status = %q, want degraded", h.Status)
	}
	if !strings.Contains(h.LastIngestError, corrupt) {
		t.Errorf("health error %q does not name the corrupt file %s", h.LastIngestError, corrupt)
	}

	// Repairing the file clears the degradation.
	fixed := &trace.TaskTrace{Task: "repaired", StartNS: 1, EndNS: 2}
	if _, err := fixed.Save(dir); err != nil {
		t.Fatal(err)
	}
	if err := os.Remove(corrupt); err != nil {
		t.Fatal(err)
	}
	bumpMtimes(t, dir, 2)
	get(t, srv, "/v1/ftg")
	hresp2, err := http.Get(srv.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer hresp2.Body.Close()
	var h2 Health
	if err := json.NewDecoder(hresp2.Body).Decode(&h2); err != nil {
		t.Fatal(err)
	}
	if h2.Status != "ok" {
		t.Errorf("health after repair = %q, want ok", h2.Status)
	}
}

func TestServeBadRequests(t *testing.T) {
	dir := writeFixtureDir(t)
	s := mustServer(t, Config{Dir: dir, PlanOptions: testPlanOpts})
	defer s.Close()
	srv := httptest.NewServer(s)
	defer srv.Close()

	for path, want := range map[string]int{
		"/v1/ftg?format=pdf":  http.StatusBadRequest,
		"/v1/plan?nodes=zero": http.StatusBadRequest,
		"/v1/plan?nodes=-1":   http.StatusBadRequest,
		"/v1/plan?nodes=3abc": http.StatusBadRequest,
		"/nope":               http.StatusNotFound,
	} {
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != want {
			t.Errorf("GET %s = %d, want %d", path, resp.StatusCode, want)
		}
	}

	resp, err := http.Post(srv.URL+"/v1/ftg", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("POST /v1/ftg = %d, want 405", resp.StatusCode)
	}
}

func TestServeTasksAndMetrics(t *testing.T) {
	dir := writeFixtureDir(t)
	reg := obs.NewRegistry()
	s := mustServer(t, Config{Dir: dir, Registry: reg, PlanOptions: testPlanOpts})
	defer s.Close()
	srv := httptest.NewServer(s)
	defer srv.Close()

	var listing struct {
		Snapshot string     `json:"snapshot"`
		Tasks    []TaskInfo `json:"tasks"`
	}
	if err := json.Unmarshal(get(t, srv, "/v1/tasks"), &listing); err != nil {
		t.Fatal(err)
	}
	if len(listing.Tasks) != 24 {
		t.Fatalf("tasks = %d, want 24", len(listing.Tasks))
	}
	if listing.Snapshot == "" {
		t.Error("missing snapshot id")
	}
	for _, ti := range listing.Tasks {
		if ti.Task == "" || ti.Hash == "" || ti.File == "" || ti.Size <= 0 {
			t.Fatalf("incomplete task info: %+v", ti)
		}
	}

	get(t, srv, "/v1/ftg")
	get(t, srv, "/v1/ftg") // response-cache hit
	body := string(get(t, srv, "/metrics"))
	for _, want := range []string{
		"dayu_serve_trace_parses_total 24",
		`dayu_serve_cache_hits_total{cache="response"}`,
		`dayu_serve_cache_hits_total{cache="snapshot"}`,
		`dayu_serve_requests_total{path="/v1/ftg"} 2`,
		"dayu_serve_snapshot_tasks 24",
		"dayu_serve_ingests_total 1",
		"dayu_serve_inflight_requests 0",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
}

func TestServeBackgroundWatcher(t *testing.T) {
	dir := writeFixtureDir(t)
	reg := obs.NewRegistry()
	s := mustServer(t, Config{Dir: dir, Registry: reg, Poll: 5 * time.Millisecond, PlanOptions: testPlanOpts})
	s.Start()
	defer s.Close()

	// Add a task; the watcher must pick it up without any request.
	extra := &trace.TaskTrace{Task: "watched_task", StartNS: 5, EndNS: 10}
	if _, err := extra.Save(dir); err != nil {
		t.Fatal(err)
	}
	bumpMtimes(t, dir, 1)
	deadline := time.Now().Add(5 * time.Second)
	for {
		if snap := s.snap.Load(); snap != nil && len(snap.batch.tasks) == 25 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("watcher never ingested the new trace")
		}
		time.Sleep(2 * time.Millisecond)
	}
}

func TestServeMissingDirectory(t *testing.T) {
	s := mustServer(t, Config{Dir: filepath.Join(t.TempDir(), "nope")})
	defer s.Close()
	srv := httptest.NewServer(s)
	defer srv.Close()

	resp, err := http.Get(srv.URL + "/v1/ftg")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("missing dir GET /v1/ftg = %d, want 503", resp.StatusCode)
	}
	hresp, err := http.Get(srv.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	hresp.Body.Close()
	if hresp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("missing dir /healthz = %d, want 503", hresp.StatusCode)
	}
}

func TestServeEmptyDirectory(t *testing.T) {
	s := mustServer(t, Config{Dir: t.TempDir()})
	defer s.Close()
	srv := httptest.NewServer(s)
	defer srv.Close()
	// An empty directory is a valid (empty) snapshot, matching
	// BuildFTG(nil, nil).
	body := get(t, srv, "/v1/ftg")
	if !strings.Contains(string(body), "File-Task Graph") {
		t.Errorf("empty-dir FTG body: %s", body)
	}
}

// TestServeBinaryTraceDirEquivalent converts the fixture directory to
// dtb/v2 binary traces and asserts the server ingests it and answers
// every analysis endpoint with bytes identical to the JSON-backed
// server: the wire format must be invisible to downstream consumers.
func TestServeBinaryTraceDirEquivalent(t *testing.T) {
	jsonDir := writeFixtureDir(t)
	traces, err := trace.LoadDir(jsonDir)
	if err != nil {
		t.Fatal(err)
	}
	m, err := trace.LoadManifest(jsonDir)
	if err != nil {
		t.Fatal(err)
	}
	binDir := t.TempDir()
	for _, tt := range traces {
		if _, err := tt.SaveFormat(binDir, trace.FormatBinary); err != nil {
			t.Fatal(err)
		}
	}
	if err := trace.SaveManifest(binDir, m); err != nil {
		t.Fatal(err)
	}
	bumpMtimes(t, binDir, 0)

	js := mustServer(t, Config{Dir: jsonDir, Registry: obs.NewRegistry(), PlanOptions: testPlanOpts})
	defer js.Close()
	bs := mustServer(t, Config{Dir: binDir, Registry: obs.NewRegistry(), PlanOptions: testPlanOpts})
	defer bs.Close()
	jsrv := httptest.NewServer(js)
	defer jsrv.Close()
	bsrv := httptest.NewServer(bs)
	defer bsrv.Close()

	for _, path := range []string{"/v1/ftg", "/v1/sdg", "/v1/diagnose", "/v1/plan"} {
		want := get(t, jsrv, path)
		got := get(t, bsrv, path)
		if string(got) != string(want) {
			t.Errorf("%s over binary traces differs from JSON traces", path)
		}
	}
}
