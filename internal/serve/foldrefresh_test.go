package serve

import (
	"bytes"
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
	"dayu/internal/workloads"
)

// The folder refreshes the snapshot from the paths its folds wrote;
// every other refresh lists the directory. These tests pin both halves:
// a push stream lists nothing, and what the folder does not look at —
// a file another writer put in Dir, a corrupt file — is still seen by
// the next request or poll tick, exactly as a full listing sees it.

// waitSnapshot waits until the published snapshot satisfies ok. It
// loads the snapshot pointer only: unlike a request, it lists nothing.
func waitSnapshot(t *testing.T, s *Server, what string, ok func(*snapshot) bool) *snapshot {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		if snap := s.snap.Load(); snap != nil && ok(snap) {
			return snap
		}
		if time.Now().After(deadline) {
			t.Fatalf("the published snapshot never reached: %s", what)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// converged reports a snapshot of n final traces and no checkpoint.
func converged(n int) func(*snapshot) bool {
	return func(snap *snapshot) bool { return len(snap.batch.traces) == n && snap.partialTasks == 0 }
}

// pushAccepted posts one record and fails t unless it was accepted.
func pushAccepted(t *testing.T, srv *httptest.Server, what string, data []byte) {
	t.Helper()
	if status, pr, _ := postIngest(t, srv, data); status != http.StatusOK || pr.Status != "accepted" {
		t.Fatalf("push %s = %d %q", what, status, pr.Status)
	}
}

// pushTaskStream pushes one task the way a traced run streams it: a
// cumulative checkpoint, a delta onto it, then the final in format f.
// seq is the last checkpoint sequence used; the new one is returned.
func pushTaskStream(t *testing.T, srv *httptest.Server, tt *trace.TaskTrace, f trace.Format, seq uint64) uint64 {
	t.Helper()
	cp1 := sortedCheckpoint(checkpointTrace(tt, 0.34))
	cp2 := sortedCheckpoint(checkpointTrace(tt, 0.75))
	d, ok := trace.Diff(cp1, cp2)
	if !ok {
		t.Fatalf("no exact delta for %s", tt.Task)
	}
	pushAccepted(t, srv, tt.Task+" checkpoint", encodeCheckpoint(t, cp1, seq+1))
	pushAccepted(t, srv, tt.Task+" delta", encodeDelta(t, d, seq+2, seq+1))
	var buf bytes.Buffer
	if err := tt.EncodeFormat(&buf, f); err != nil {
		t.Fatal(err)
	}
	pushAccepted(t, srv, tt.Task+" final", buf.Bytes())
	return seq + 2
}

// TestFoldRefreshListsNoDirectory: on a server holding 100 tasks, a
// stream of checkpoints, deltas and finals (JSON and binary) folds
// and converges without one directory listing; the next request lists
// it exactly once, and the converged graphs are the batch build's.
func TestFoldRefreshListsNoDirectory(t *testing.T) {
	traces, m := workloads.GenerateSyntheticTraces(workloads.SyntheticTraceConfig{Tasks: 110})
	dir := t.TempDir()
	for _, tt := range traces[:100] {
		if _, err := tt.Save(dir); err != nil {
			t.Fatal(err)
		}
	}
	if err := trace.SaveManifest(dir, m); err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	env := newPushEnv(t, func(c *Config) { c.Dir, c.Registry, c.IngestQueue = dir, reg, 256 })
	scans := reg.Counter("dayu_serve_dir_scans_total")
	if got := scans.Value(); got != 1 {
		t.Fatalf("startup listed the directory %d times, want 1", got)
	}

	var seq uint64
	for i, tt := range traces[100:] {
		f := trace.FormatBinary
		if i%2 == 1 {
			f = trace.FormatJSON
		}
		seq = pushTaskStream(t, env.srv, tt, f, seq)
	}
	waitSnapshot(t, env.s, "110 finals, no checkpoint", converged(110))
	if got := scans.Value(); got != 1 {
		t.Errorf("folding the stream listed the directory %d times, want 0", got-1)
	}
	if !strings.Contains(string(get(t, env.srv, "/metrics")), "dayu_serve_dir_scans_total 1") {
		t.Error("/metrics does not export dayu_serve_dir_scans_total")
	}

	ftg := get(t, env.srv, "/v1/ftg")
	if got := scans.Value(); got != 2 {
		t.Errorf("one GET listed the directory %d times, want 1", got-1)
	}
	want := batchExpect(t, dir)
	if !bytes.Equal(ftg, want["/v1/ftg"]) {
		t.Error("/v1/ftg differs from BuildFTG of the directory")
	}
	if got := get(t, env.srv, "/v1/sdg"); !bytes.Equal(got, want["/v1/sdg"]) {
		t.Error("/v1/sdg differs from BuildSDG of the directory")
	}
}

// TestOutsideWriterSeenDuringPushStream: while tasks stream in, a
// trace file another writer puts in Dir is visible on the next
// request, and, with no request at all, on the next poll tick.
func TestOutsideWriterSeenDuringPushStream(t *testing.T) {
	outside := func(t *testing.T, dir, task string) {
		t.Helper()
		if _, err := liveTask(task).Save(dir); err != nil {
			t.Fatal(err)
		}
	}
	hasTask := func(task string) func(*snapshot) bool {
		return func(snap *snapshot) bool { return snap.batch.taskSet[task] }
	}

	t.Run("request", func(t *testing.T) {
		env := newPushEnv(t, func(c *Config) { c.Dir = writeFixtureDir(t) })
		pushAccepted(t, env.srv, "checkpoint", encodeCheckpoint(t, liveTask("streamed"), 1))
		waitSnapshot(t, env.s, "the checkpoint", func(snap *snapshot) bool { return snap.partialTasks == 1 })
		outside(t, env.dir, "outside")

		var listing struct {
			Tasks []TaskInfo `json:"tasks"`
		}
		if err := json.Unmarshal(get(t, env.srv, "/v1/tasks"), &listing); err != nil {
			t.Fatal(err)
		}
		seen := false
		for _, ti := range listing.Tasks {
			seen = seen || ti.Task == "outside"
		}
		if !seen || len(listing.Tasks) != 25 {
			t.Fatalf("the next request lists %d tasks (the outside writer's among them: %v), want 25", len(listing.Tasks), seen)
		}
		pushAccepted(t, env.srv, "final", makeTraceBytes(t, "streamed", trace.FormatBinary))
		waitSnapshot(t, env.s, "the final", converged(26))
		checkAllEndpoints(t, env.srv, env.dir, "after the stream")
	})

	t.Run("poll", func(t *testing.T) {
		env := newPushEnv(t, func(c *Config) { c.Dir, c.Poll = writeFixtureDir(t), 10*time.Millisecond })
		env.s.Start()
		pushAccepted(t, env.srv, "checkpoint", encodeCheckpoint(t, liveTask("streamed"), 1))
		waitSnapshot(t, env.s, "the checkpoint", func(snap *snapshot) bool { return snap.partialTasks == 1 })
		outside(t, env.dir, "outside")
		waitSnapshot(t, env.s, "the outside writer's file, by a poll tick", hasTask("outside"))
		pushAccepted(t, env.srv, "final", makeTraceBytes(t, "streamed", trace.FormatBinary))
		waitSnapshot(t, env.s, "the final", converged(26))
		checkAllEndpoints(t, env.srv, env.dir, "after the stream")
	})
}

// TestCorruptFileStaysNamedAcrossFolds extends
// TestServeCorruptTraceReportsPath with a push phase, for a corrupt
// trace file and a corrupt manifest: the folder's refresh re-checks the
// file on every burst, so /healthz keeps naming it and no snapshot is
// published past it, and only the revise that succeeds once the file is
// repaired clears the error.
func TestCorruptFileStaysNamedAcrossFolds(t *testing.T) {
	for _, tc := range []struct {
		name string
		// pick names the file to corrupt and what /healthz says of it.
		pick func(t *testing.T, dir string) (path, named string)
	}{
		{"trace", func(t *testing.T, dir string) (string, string) {
			paths, _ := filepath.Glob(filepath.Join(dir, "*.trace.json"))
			return paths[0], paths[0]
		}},
		{"manifest", func(t *testing.T, dir string) (string, string) {
			return filepath.Join(dir, "manifest.json"), "load manifest"
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			env, reg := fixtureEnv(t)
			scans := reg.Counter("dayu_serve_dir_scans_total")
			refreshErrors := reg.Counter("dayu_serve_ingest_errors_total")
			get(t, env.srv, "/v1/ftg")

			corrupt, named := tc.pick(t, env.dir)
			good, err := os.ReadFile(corrupt)
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(corrupt, []byte("{torn"), 0o644); err != nil {
				t.Fatal(err)
			}
			bumpMtimes(t, env.dir, 1)
			get(t, env.srv, "/v1/ftg") // the stale snapshot; the error is recorded
			held := env.s.snap.Load()
			checkHealth := func(phase, status string) {
				t.Helper()
				var h Health
				if err := json.Unmarshal(get(t, env.srv, "/healthz"), &h); err != nil {
					t.Fatal(err)
				}
				if h.Status != status {
					t.Errorf("%s: health status = %q, want %q", phase, h.Status, status)
				}
				if got := strings.Contains(h.LastIngestError, named); got != (status == "degraded") {
					t.Errorf("%s: health error %q, naming %q: %v", phase, h.LastIngestError, named, got)
				}
			}
			checkHealth("before the pushes", "degraded")

			scans0 := scans.Value()
			for i, task := range []string{"pushed_a", "pushed_b", "pushed_c"} {
				errs := refreshErrors.Value()
				pushAccepted(t, env.srv, task+" checkpoint", encodeCheckpoint(t, liveTask(task), uint64(i+1)))
				pushAccepted(t, env.srv, task+" final", makeTraceBytes(t, task, trace.FormatBinary))
				deadline := time.Now().Add(10 * time.Second)
				for refreshErrors.Value() == errs {
					if time.Now().After(deadline) {
						t.Fatalf("%s: the folder's refresh never re-checked the corrupt file", task)
					}
					time.Sleep(2 * time.Millisecond)
				}
				waitWALDrained(t, env.s)
				checkHealth("after folding "+task, "degraded")
				if env.s.snap.Load() != held {
					t.Fatalf("%s: a snapshot was published past the corrupt file", task)
				}
			}

			// Repaired in place: the next fold's refresh revises it again,
			// and that success is what clears the error.
			if err := os.WriteFile(corrupt, good, 0o644); err != nil {
				t.Fatal(err)
			}
			bumpMtimes(t, env.dir, 2)
			pushAccepted(t, env.srv, "pushed_d final", makeTraceBytes(t, "pushed_d", trace.FormatBinary))
			waitSnapshot(t, env.s, "every pushed task", converged(28))
			checkHealth("after the repair", "ok")
			if got := scans.Value(); got != scans0 {
				t.Errorf("the folds listed the directory %d times, want 0", got-scans0)
			}
			checkAllEndpoints(t, env.srv, env.dir, "after the repair")
		})
	}
}

// TestFoldRefreshDropsTwin: a JSON final and then a binary final for
// one task leave one file in Dir, and the folder's refresh drops the
// JSON twin from the cache without listing the directory. The snapshot
// it publishes serves the batch render of /v1/tasks and /v1/ftg.
func TestFoldRefreshDropsTwin(t *testing.T) {
	env, reg := fixtureEnv(t)
	scans := reg.Counter("dayu_serve_dir_scans_total")
	tt := liveTask("twin")
	jsonPath := filepath.Join(env.dir, trace.TraceFileName(tt.Task, trace.FormatJSON))
	binPath := filepath.Join(env.dir, trace.TraceFileName(tt.Task, trace.FormatBinary))
	fileOf := func(path string) func(*snapshot) bool {
		return func(snap *snapshot) bool {
			for _, ti := range snap.batch.tasks {
				if ti.Task == tt.Task {
					return ti.File == path
				}
			}
			return false
		}
	}

	pushAccepted(t, env.srv, "JSON final", makeTraceBytes(t, tt.Task, trace.FormatJSON))
	waitSnapshot(t, env.s, "the JSON final", fileOf(jsonPath))
	tt.EndNS++ // a different final, so the binary push is no duplicate
	var buf bytes.Buffer
	if err := tt.EncodeFormat(&buf, trace.FormatBinary); err != nil {
		t.Fatal(err)
	}
	pushAccepted(t, env.srv, "binary final", buf.Bytes())
	snap := waitSnapshot(t, env.s, "the binary final", fileOf(binPath))
	if got := scans.Value(); got != 1 {
		t.Errorf("the folds listed the directory %d times, want 0", got-1)
	}
	if _, err := os.Stat(jsonPath); !os.IsNotExist(err) {
		t.Fatalf("the JSON twin is still in Dir: %v", err)
	}
	if len(snap.batch.tasks) != 25 {
		t.Fatalf("snapshot holds %d tasks, want 25 (the twin dropped)", len(snap.batch.tasks))
	}

	// The folder's snapshot, before any request lists the directory,
	// against a fresh server over the same directory.
	fresh := mustServer(t, Config{Dir: env.dir, PlanOptions: testPlanOpts})
	defer fresh.Close()
	freshSrv := httptest.NewServer(fresh)
	defer freshSrv.Close()
	ftgBody, err := renderGraph(snap.batch.ftg, "json")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(ftgBody, batchExpect(t, env.dir)["/v1/ftg"]) {
		t.Error("the folder's snapshot: FTG differs from the batch build")
	}
	tasksBody, err := json.MarshalIndent(struct {
		Snapshot string     `json:"snapshot"`
		Tasks    []TaskInfo `json:"tasks"`
	}{Snapshot: snap.id, Tasks: snap.batch.tasks}, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	wantTasks := get(t, freshSrv, "/v1/tasks")
	if !bytes.Equal(tasksBody, wantTasks) {
		t.Error("the folder's snapshot: /v1/tasks differs from a fresh server's")
	}
	if got := get(t, env.srv, "/v1/tasks"); !bytes.Equal(got, wantTasks) {
		t.Error("GET /v1/tasks differs from a fresh server's")
	}
	checkAllEndpoints(t, env.srv, env.dir, "after the twin")
}
