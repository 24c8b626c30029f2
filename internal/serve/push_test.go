package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"dayu/internal/obs"
	"dayu/internal/serve/client"
	"dayu/internal/trace"
)

// pushEnv is one WAL-enabled server under test.
type pushEnv struct {
	s      *Server
	srv    *httptest.Server
	dir    string // watched trace directory
	walDir string
}

// newPushEnv builds a WAL-enabled server over an empty trace
// directory. mutate may adjust the config before construction.
func newPushEnv(t *testing.T, mutate func(*Config)) *pushEnv {
	t.Helper()
	cfg := Config{
		Dir:         t.TempDir(),
		WALDir:      t.TempDir(),
		WAL:         WALOptions{Fsync: FsyncNever},
		PlanOptions: testPlanOpts,
	}
	if mutate != nil {
		mutate(&cfg)
	}
	s := mustServer(t, cfg)
	srv := httptest.NewServer(s)
	t.Cleanup(func() { srv.Close(); s.Close() })
	return &pushEnv{s: s, srv: srv, dir: cfg.Dir, walDir: cfg.WALDir}
}

// makeTraceBytes encodes a small synthetic trace in the given format.
func makeTraceBytes(t *testing.T, task string, f trace.Format) []byte {
	t.Helper()
	tt := &trace.TaskTrace{
		Task: task, StartNS: 100, EndNS: 2000,
		Files: []trace.FileRecord{{
			Task: task, File: task + "_out.h5",
			OpenNS: 150, CloseNS: 1900,
			Ops: 3, Writes: 3, BytesWritten: 4096,
			MetaOps: 1, DataOps: 2, MetaBytes: 64, DataBytes: 4032,
		}},
	}
	var buf bytes.Buffer
	if err := tt.EncodeFormat(&buf, f); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// postIngest POSTs raw bytes to /v1/ingest and returns the status and
// decoded body (when 200).
func postIngest(t *testing.T, srv *httptest.Server, data []byte) (int, PushResponse, http.Header) {
	t.Helper()
	resp, err := http.Post(srv.URL+"/v1/ingest", "application/octet-stream", bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	var pr PushResponse
	if resp.StatusCode == http.StatusOK || resp.StatusCode == http.StatusConflict {
		if err := json.Unmarshal(body, &pr); err != nil {
			t.Fatalf("bad %d body %q: %v", resp.StatusCode, body, err)
		}
	}
	return resp.StatusCode, pr, resp.Header
}

// waitTasks rescans until the snapshot holds n tasks (folding is
// asynchronous behind the acknowledgement).
func waitTasks(t *testing.T, s *Server, n int) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		snap, _ := s.Ingest()
		if snap != nil && len(snap.batch.tasks) == n {
			return
		}
		if time.Now().After(deadline) {
			got := -1
			if snap != nil {
				got = len(snap.batch.tasks)
			}
			t.Fatalf("snapshot never reached %d tasks (at %d)", n, got)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// waitWALDrained waits until every acknowledged record has been
// folded and checkpointed.
func waitWALDrained(t *testing.T, s *Server) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for s.push.wal.Stats().Pending != 0 {
		if time.Now().After(deadline) {
			t.Fatalf("WAL never drained: %+v", s.push.wal.Stats())
		}
		time.Sleep(2 * time.Millisecond)
	}
}

func TestPushIngestDisabledWithoutWAL(t *testing.T) {
	s := mustServer(t, Config{Dir: t.TempDir(), PlanOptions: testPlanOpts})
	defer s.Close()
	srv := httptest.NewServer(s)
	defer srv.Close()
	status, _, _ := postIngest(t, srv, makeTraceBytes(t, "nope", trace.FormatJSON))
	if status != http.StatusNotImplemented {
		t.Fatalf("push without WAL = %d, want 501", status)
	}
}

func TestPushIngestAcceptFoldDedup(t *testing.T) {
	reg := obs.NewRegistry()
	env := newPushEnv(t, func(cfg *Config) { cfg.Registry = reg })

	jsonBytes := makeTraceBytes(t, "pushed_json", trace.FormatJSON)
	binBytes := makeTraceBytes(t, "pushed_bin", trace.FormatBinary)

	status, pr, _ := postIngest(t, env.srv, jsonBytes)
	if status != http.StatusOK || pr.Status != "accepted" {
		t.Fatalf("push = %d %q", status, pr.Status)
	}
	if pr.Task != "pushed_json" || pr.Hash != trace.HashBytes(jsonBytes) {
		t.Fatalf("ack names task %q hash %q", pr.Task, pr.Hash)
	}
	status, pr2, _ := postIngest(t, env.srv, binBytes)
	if status != http.StatusOK || pr2.Status != "accepted" {
		t.Fatalf("binary push = %d %q", status, pr2.Status)
	}
	if pr2.Seq != pr.Seq+1 {
		t.Fatalf("seqs %d then %d, want consecutive", pr.Seq, pr2.Seq)
	}

	waitTasks(t, env.s, 2)
	// Folded files carry the exact pushed bytes under the batch-loader
	// names, so the content hash (and dedup) survives restarts.
	for _, tc := range []struct {
		task string
		f    trace.Format
		data []byte
	}{{"pushed_json", trace.FormatJSON, jsonBytes}, {"pushed_bin", trace.FormatBinary, binBytes}} {
		path := filepath.Join(env.dir, trace.TraceFileName(tc.task, tc.f))
		got, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, tc.data) {
			t.Errorf("%s: folded bytes differ from pushed bytes", path)
		}
	}

	// Identical re-push: acknowledged as a duplicate, no new sequence.
	status, dup, _ := postIngest(t, env.srv, jsonBytes)
	if status != http.StatusOK || dup.Status != "duplicate" {
		t.Fatalf("re-push = %d %q, want 200 duplicate", status, dup.Status)
	}
	if dup.Seq != 0 {
		t.Errorf("duplicate carries seq %d", dup.Seq)
	}

	body := string(get(t, env.srv, "/metrics"))
	for _, want := range []string{
		`dayu_serve_push_total{result="accepted"} 2`,
		`dayu_serve_push_total{result="duplicate"} 1`,
	} {
		if !bytes.Contains([]byte(body), []byte(want)) {
			t.Errorf("/metrics missing %q", want)
		}
	}

	// /healthz surfaces the WAL state.
	waitWALDrained(t, env.s)
	var h Health
	healthBody := get(t, env.srv, "/healthz")
	if err := json.Unmarshal(healthBody, &h); err != nil {
		t.Fatal(err)
	}
	if h.Status != "ok" || bytes.Contains(healthBody, []byte("last_error_at")) {
		t.Errorf("healthy /healthz carries an error timestamp or is not ok: %s", healthBody)
	}
	if h.WAL == nil {
		t.Fatal("healthz missing wal section")
	}
	if h.WAL.NextSeq != 2 || h.WAL.FoldedSeq != 2 || h.WAL.PendingRecords != 0 {
		t.Errorf("wal health = %+v, want next=2 folded=2 pending=0", h.WAL)
	}
}

// TestHealthzDegradedOnStuckFold pins "failure is loud" for a fold that
// gives up: the record is acknowledged and stays in the WAL, but nothing
// short of a restart will make it visible, so /healthz says so — and
// keeps saying so across the successful scans that follow.
func TestHealthzDegradedOnStuckFold(t *testing.T) {
	env := newPushEnv(t, nil)
	// The fold's rename target is a non-empty directory.
	target := filepath.Join(env.dir, trace.TraceFileName("stuck_probe", trace.FormatJSON))
	if err := os.MkdirAll(filepath.Join(target, "occupied"), 0o755); err != nil {
		t.Fatal(err)
	}
	if status, pr, _ := postIngest(t, env.srv, makeTraceBytes(t, "stuck_probe", trace.FormatJSON)); status != http.StatusOK || pr.Status != "accepted" {
		t.Fatalf("push = %d %+v", status, pr)
	}
	var h Health
	for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(5 * time.Millisecond) {
		getJSON(t, env.srv, "/healthz", &h)
		if h.WAL.QueueDepth == 0 { // the folder is done with the record
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("the folder never gave up: %+v", h.WAL)
		}
	}
	if _, err := env.s.Ingest(); err != nil {
		t.Fatal(err)
	}
	getJSON(t, env.srv, "/healthz", &h)
	if h.Status != "degraded" {
		t.Errorf("status = %q with an acknowledged record stuck in the WAL, want degraded", h.Status)
	}
	if h.WAL.PendingRecords != 1 || !strings.HasPrefix(h.WAL.FoldError, "1 record(s) pending until restart") {
		t.Errorf("wal health = %+v, want one pending record and a fold_error counting one stuck record", h.WAL)
	}
}

// TestHealthzDegradedOnCheckpointFailure pins "failure is loud" for the
// WAL directory: a checkpoint that cannot be written turns /healthz
// degraded with the cause, while ingest itself keeps working.
func TestHealthzDegradedOnCheckpointFailure(t *testing.T) {
	walDir := t.TempDir()
	blockCheckpoint(t, filepath.Join(walDir, "shard-0"))
	env := newPushEnv(t, func(cfg *Config) { cfg.WALDir = walDir })

	if status, pr, _ := postIngest(t, env.srv, makeTraceBytes(t, "ckpt_probe", trace.FormatJSON)); status != http.StatusOK || pr.Status != "accepted" {
		t.Fatalf("push = %d %+v", status, pr)
	}
	waitTasks(t, env.s, 1)
	waitWALDrained(t, env.s)

	var h Health
	getJSON(t, env.srv, "/healthz", &h)
	if h.Status != "degraded" {
		t.Errorf("status = %q with an unwritable checkpoint, want degraded", h.Status)
	}
	if h.WAL == nil || !strings.Contains(h.WAL.CheckpointError, "shard-0") {
		t.Errorf("wal health = %+v, want a checkpoint_error naming shard-0", h.WAL)
	}
}

func TestPushDedupSurvivesRestart(t *testing.T) {
	dir, walDir := t.TempDir(), t.TempDir()
	cfg := Config{Dir: dir, WALDir: walDir, WAL: WALOptions{Fsync: FsyncNever}, PlanOptions: testPlanOpts}
	s := mustServer(t, cfg)
	srv := httptest.NewServer(s)
	data := makeTraceBytes(t, "restart_probe", trace.FormatBinary)
	if status, pr, _ := postIngest(t, srv, data); status != http.StatusOK || pr.Status != "accepted" {
		t.Fatalf("push = %d %q", status, pr.Status)
	}
	waitTasks(t, s, 1)
	srv.Close()
	s.Close()

	s2 := mustServer(t, cfg)
	defer s2.Close()
	srv2 := httptest.NewServer(s2)
	defer srv2.Close()
	status, pr, _ := postIngest(t, srv2, data)
	if status != http.StatusOK || pr.Status != "duplicate" {
		t.Fatalf("re-push after restart = %d %q, want 200 duplicate", status, pr.Status)
	}
}

func TestPushIngestBadRequests(t *testing.T) {
	reg := obs.NewRegistry()
	env := newPushEnv(t, func(cfg *Config) { cfg.MaxBodyBytes = 256; cfg.Registry = reg })

	if status, _, _ := postIngest(t, env.srv, []byte("not a trace")); status != http.StatusBadRequest {
		t.Errorf("garbage body = %d, want 400", status)
	}
	if status, _, _ := postIngest(t, env.srv, nil); status != http.StatusBadRequest {
		t.Errorf("empty body = %d, want 400", status)
	}
	if status, _, _ := postIngest(t, env.srv, bytes.Repeat([]byte{'x'}, 512)); status != http.StatusRequestEntityTooLarge {
		t.Errorf("oversize body = %d, want 413", status)
	}
	resp, err := http.Post(env.srv.URL+"/v1/ingest/manifest", "application/json", bytes.NewReader(bytes.Repeat([]byte{' '}, 512)))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Errorf("oversize manifest = %d, want 413", resp.StatusCode)
	}
	if got := reg.Counter(obs.Name("dayu_serve_push_total", "result", "rejected")).Value(); got != 2 {
		t.Errorf("the two oversize bodies counted %d rejected pushes, want 2", got)
	}

	// Non-POST methods are refused with an Allow header.
	resp, err = http.Get(env.srv.URL + "/v1/ingest")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET /v1/ingest = %d, want 405", resp.StatusCode)
	}
	if allow := resp.Header.Get("Allow"); allow != http.MethodPost {
		t.Errorf("Allow = %q, want POST", allow)
	}

	// Nothing above may have landed anything.
	if stats := env.s.push.wal.Stats(); stats.NextSeq != 0 {
		t.Errorf("bad requests appended %d records", stats.NextSeq)
	}
}

func TestPushIngestManifest(t *testing.T) {
	reg := obs.NewRegistry()
	env := newPushEnv(t, func(c *Config) { c.Registry = reg })
	m := trace.Manifest{Workflow: "pushed", TaskOrder: []string{"a", "b"}}
	body, err := json.Marshal(m)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(env.srv.URL+"/v1/ingest/manifest", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("manifest push = %d", resp.StatusCode)
	}
	got, err := trace.LoadManifest(env.dir)
	if err != nil || got == nil || got.Workflow != "pushed" || len(got.TaskOrder) != 2 {
		t.Fatalf("manifest did not land: %+v (%v)", got, err)
	}

	for _, bad := range []string{`{"workflow":`, `{"no_such_field":1}`} {
		resp, err := http.Post(env.srv.URL+"/v1/ingest/manifest", "application/json", bytes.NewReader([]byte(bad)))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("bad manifest %q = %d, want 400", bad, resp.StatusCode)
		}
	}

	// A scan error behind a manifest push still answers 200 (the
	// manifest is durable) and counts as exactly one ingest error.
	if err := os.WriteFile(filepath.Join(env.dir, "torn.trace.json"), []byte("{torn"), 0o644); err != nil {
		t.Fatal(err)
	}
	ingestErrors := reg.Counter("dayu_serve_ingest_errors_total")
	before := ingestErrors.Value()
	resp, err = http.Post(env.srv.URL+"/v1/ingest/manifest", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("manifest push over a torn directory = %d", resp.StatusCode)
	}
	if got := ingestErrors.Value() - before; got != 1 {
		t.Errorf("one failed scan moved ingest_errors_total by %d, want 1", got)
	}
}

// TestAckedHashesPruned pins that the dedup set does not grow with the
// stream: a task's checkpoints leave s.acked as newer ones (and finally
// the final) fold, while a retry of the final is still a duplicate.
func TestAckedHashesPruned(t *testing.T) {
	env := newPushEnv(t, nil)
	full := liveTask("long_task")
	const n = 12
	var prev *trace.TaskTrace
	for i := 1; i <= n; i++ {
		cp := sortedCheckpoint(checkpointTrace(full, float64(i)/n))
		rec := encodeCheckpoint(t, cp, uint64(i))
		// Alternate the framings: a delta's pushed bytes never appear
		// in a snapshot, so only supersession can retire its hash.
		if d, ok := trace.Diff(prev, cp); ok && i%2 == 0 {
			rec = encodeDelta(t, d, uint64(i), uint64(i-1))
		}
		if status, pr, _ := postIngest(t, env.srv, rec); status != http.StatusOK || pr.Status != "accepted" {
			t.Fatalf("checkpoint %d = %d %q", i, status, pr.Status)
		}
		prev = cp
	}
	var buf bytes.Buffer
	if err := full.EncodeFormat(&buf, trace.FormatBinary); err != nil {
		t.Fatal(err)
	}
	final := buf.Bytes()
	if status, pr, _ := postIngest(t, env.srv, final); status != http.StatusOK || pr.Status != "accepted" {
		t.Fatalf("final = %d %q", status, pr.Status)
	}
	waitWALDrained(t, env.s)
	waitLiveCounts(t, env.srv, 0, 1)

	// The folder prunes after its rescan, which may trail the drain.
	deadline := time.Now().Add(10 * time.Second)
	for {
		env.s.push.mu.Lock()
		left := len(env.s.push.acked)
		env.s.push.mu.Unlock()
		if left == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("%d acknowledged hashes retained after %d checkpoints + final folded, want 0", left, n)
		}
		time.Sleep(2 * time.Millisecond)
	}
	if status, pr, _ := postIngest(t, env.srv, final); status != http.StatusOK || pr.Status != "duplicate" {
		t.Errorf("retry of the final = %d %q, want duplicate", status, pr.Status)
	}
}

// TestPushBackpressure pins the 429 contract: with the fold pipeline
// stalled and the admission queue full, pushes are rejected with 429 +
// Retry-After before anything is written, and succeed once the queue
// drains.
func TestPushBackpressure(t *testing.T) {
	release := make(chan struct{})
	var once sync.Once
	env := newPushEnv(t, func(cfg *Config) {
		cfg.IngestQueue = 2
		cfg.retryAfter = 3 * time.Second
		cfg.foldHook = func(foldJob) { <-release }
	})
	defer once.Do(func() { close(release) })

	// Fill the queue: both accepted (the folder is stalled in the hook).
	for i := 0; i < 2; i++ {
		data := makeTraceBytes(t, fmt.Sprintf("bp_%d", i), trace.FormatJSON)
		if status, pr, _ := postIngest(t, env.srv, data); status != http.StatusOK || pr.Status != "accepted" {
			t.Fatalf("push %d = %d %q", i, status, pr.Status)
		}
	}

	overflow := makeTraceBytes(t, "bp_overflow", trace.FormatJSON)
	status, _, hdr := postIngest(t, env.srv, overflow)
	if status != http.StatusTooManyRequests {
		t.Fatalf("overflow push = %d, want 429", status)
	}
	secs, err := strconv.Atoi(hdr.Get("Retry-After"))
	if err != nil || secs != 3 {
		t.Fatalf("Retry-After = %q, want 3", hdr.Get("Retry-After"))
	}
	if stats := env.s.push.wal.Stats(); stats.NextSeq != 2 {
		t.Fatalf("rejected push appended: next seq %d, want 2", stats.NextSeq)
	}

	// Queue state is visible in /healthz while stalled.
	var h Health
	if err := json.Unmarshal(get(t, env.srv, "/healthz"), &h); err != nil {
		t.Fatal(err)
	}
	if h.WAL == nil || h.WAL.QueueDepth != 2 || h.WAL.QueueCapacity != 2 {
		t.Fatalf("healthz queue = %+v, want 2/2", h.WAL)
	}

	once.Do(func() { close(release) })
	// After the stall clears, the overflow record is deliverable.
	deadline := time.Now().Add(10 * time.Second)
	for {
		status, pr, _ := postIngest(t, env.srv, overflow)
		if status == http.StatusOK && pr.Status == "accepted" {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("overflow push never accepted after drain (last %d)", status)
		}
		time.Sleep(5 * time.Millisecond)
	}
	waitTasks(t, env.s, 3)
}

// TestPushClientDeliversThroughBackpressure drives the retrying client
// against a deliberately tiny, slowed-down queue: every record must
// land despite a stream of 429s.
func TestPushClientDeliversThroughBackpressure(t *testing.T) {
	env := newPushEnv(t, func(cfg *Config) {
		cfg.IngestQueue = 1
		cfg.retryAfter = time.Millisecond // rounds to Retry-After: 0 — client retries at its own backoff
		cfg.foldHook = func(foldJob) { time.Sleep(2 * time.Millisecond) }
	})
	c, err := client.New(env.srv.URL, client.Options{
		MaxAttempts:    50,
		InitialBackoff: 2 * time.Millisecond,
		MaxBackoff:     20 * time.Millisecond,
		Rand:           rand.New(rand.NewSource(1)),
	})
	if err != nil {
		t.Fatal(err)
	}

	const n = 12
	var wg sync.WaitGroup
	errs := make(chan error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			data := makeTraceBytes(t, fmt.Sprintf("client_bp_%02d", i), trace.FormatBinary)
			res, err := c.PushBytes(context.Background(), data)
			if err != nil {
				errs <- err
				return
			}
			if res.Status != "accepted" {
				errs <- fmt.Errorf("record %d: status %q", i, res.Status)
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	waitTasks(t, env.s, n)
}

// TestPushConcurrentIdenticalPayloads pins in-flight dedup: identical
// payloads racing through /v1/ingest must produce exactly one WAL
// record and one "accepted" acknowledgement — a twin either waits for
// the first append to settle and is answered "duplicate", or appends
// itself if that append failed. Never both, and never a "duplicate"
// for bytes that are not yet durable.
func TestPushConcurrentIdenticalPayloads(t *testing.T) {
	env := newPushEnv(t, nil)
	data := makeTraceBytes(t, "twin_probe", trace.FormatBinary)

	const n = 8
	var wg sync.WaitGroup
	results := make(chan string, n)
	errs := make(chan error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			status, pr, _ := postIngest(t, env.srv, data)
			if status != http.StatusOK {
				errs <- fmt.Errorf("status %d", status)
				return
			}
			results <- pr.Status
		}()
	}
	wg.Wait()
	close(results)
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	accepted, duplicates := 0, 0
	for st := range results {
		switch st {
		case "accepted":
			accepted++
		case "duplicate":
			duplicates++
		default:
			t.Errorf("unexpected status %q", st)
		}
	}
	if accepted != 1 || duplicates != n-1 {
		t.Fatalf("accepted=%d duplicates=%d, want 1 and %d", accepted, duplicates, n-1)
	}
	if stats := env.s.push.wal.Stats(); stats.NextSeq != 1 {
		t.Fatalf("identical payloads appended %d WAL records, want 1", stats.NextSeq)
	}
	waitTasks(t, env.s, 1)
}

// TestPushCrashRecoveryEquivalence is the in-process crash gate: a WAL
// left behind by a dead server — including a torn tail from a crash
// mid-append — replays on startup into a server whose endpoints are
// byte-identical to the batch CLI over the recovered trace set. The
// dead server's log is in the flat-root layout older servers wrote, so
// this is also the migration gate: the flat root replays as a legacy
// namespace, is left with no segments, and new appends land under
// shard-0/.
func TestPushCrashRecoveryEquivalence(t *testing.T) {
	fixture := writeFixtureDir(t)
	entries, err := os.ReadDir(fixture)
	if err != nil {
		t.Fatal(err)
	}

	// Simulate the durable half of a crashed server: acknowledged
	// records in the WAL, nothing folded, checkpoint never written.
	walDir := t.TempDir()
	w, _, err := OpenWAL(walDir, WALOptions{Fsync: FsyncNever, SegmentBytes: 8 << 10})
	if err != nil {
		t.Fatal(err)
	}
	var records int
	for _, e := range entries {
		if !trace.IsTraceFile(e.Name()) {
			continue
		}
		data, err := os.ReadFile(filepath.Join(fixture, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := w.Append(data); err != nil {
			t.Fatal(err)
		}
		records++
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	// Crash mid-append: a torn half-record at the tail of the last
	// segment. It was never acknowledged, so recovery must drop it.
	segs, err := filepath.Glob(filepath.Join(walDir, "wal-*.seg"))
	if err != nil || len(segs) == 0 {
		t.Fatalf("no segments (%v)", err)
	}
	var frame bytes.Buffer
	if _, err := trace.WriteWALRecord(&frame, []byte("unacknowledged torn record")); err != nil {
		t.Fatal(err)
	}
	f, err := os.OpenFile(segs[len(segs)-1], os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write(frame.Bytes()[:frame.Len()/2]); err != nil {
		t.Fatal(err)
	}
	f.Close()

	// The restarted server folds everything during construction.
	dir := t.TempDir()
	m, err := trace.LoadManifest(fixture)
	if err != nil {
		t.Fatal(err)
	}
	if err := trace.SaveManifest(dir, m); err != nil {
		t.Fatal(err)
	}
	s := mustServer(t, Config{
		Dir: dir, WALDir: walDir, WAL: WALOptions{Fsync: FsyncNever},
		Registry: obs.NewRegistry(), PlanOptions: testPlanOpts,
	})
	defer s.Close()
	srv := httptest.NewServer(s)
	defer srv.Close()

	waitTasks(t, s, records)
	// Every acknowledged record is recovered...
	var listing struct {
		Tasks []TaskInfo `json:"tasks"`
	}
	if err := json.Unmarshal(get(t, srv, "/v1/tasks"), &listing); err != nil {
		t.Fatal(err)
	}
	if len(listing.Tasks) != records {
		t.Fatalf("recovered %d tasks, want %d", len(listing.Tasks), records)
	}
	// ...and every endpoint is byte-identical to the batch CLI over the
	// recovered directory (which holds the exact fixture bytes).
	checkAllEndpoints(t, srv, dir, "crash-recovery")

	if segs, _ := filepath.Glob(filepath.Join(walDir, "wal-*.seg")); len(segs) != 0 {
		t.Errorf("flat root still holds %d segments after replay", len(segs))
	}
	if st := s.push.wal.Stats(); st.NextSeq != 0 {
		t.Errorf("replayed flat-root records were re-logged: shard-0 next seq = %d", st.NextSeq)
	}
	if status, pr, _ := postIngest(t, srv, makeTraceBytes(t, "zz/after_migration", trace.FormatBinary)); status != http.StatusOK || pr.Status != "accepted" {
		t.Fatalf("push after migration = %d %+v", status, pr)
	}
	waitTasks(t, s, records+1)
	if segs, _ := filepath.Glob(filepath.Join(walDir, "shard-0", "wal-*.seg")); len(segs) != 1 {
		t.Errorf("new append left %d segments under shard-0/, want 1", len(segs))
	}
	if segs, _ := filepath.Glob(filepath.Join(walDir, "wal-*.seg")); len(segs) != 0 {
		t.Errorf("new append landed in the flat root (%d segments)", len(segs))
	}
	checkAllEndpoints(t, srv, dir, "crash-recovery+append")

	// A second restart over the now-compacted WAL is a no-op.
	s2 := mustServer(t, Config{
		Dir: dir, WALDir: walDir, WAL: WALOptions{Fsync: FsyncNever}, PlanOptions: testPlanOpts,
	})
	s2.Close()
}

// TestPushGracefulCloseDrains pins the shutdown contract: Close
// returns only after every acknowledged record is folded, and pushes
// arriving after shutdown began are refused, not lost silently.
func TestPushGracefulCloseDrains(t *testing.T) {
	env := newPushEnv(t, func(cfg *Config) {
		cfg.foldHook = func(foldJob) { time.Sleep(2 * time.Millisecond) }
	})
	const n = 6
	for i := 0; i < n; i++ {
		data := makeTraceBytes(t, fmt.Sprintf("drain_%d", i), trace.FormatJSON)
		if status, pr, _ := postIngest(t, env.srv, data); status != http.StatusOK || pr.Status != "accepted" {
			t.Fatalf("push %d = %d %q", i, status, pr.Status)
		}
	}
	env.s.Close()

	// Every acknowledged record reached the trace directory...
	files, err := filepath.Glob(filepath.Join(env.dir, "*.trace.json"))
	if err != nil {
		t.Fatal(err)
	}
	if len(files) != n {
		t.Fatalf("after Close: %d trace files, want %d", len(files), n)
	}
	// ...and the WAL (the live namespace) was fully folded and
	// compacted.
	w, pending, err := OpenWAL(filepath.Join(env.walDir, "shard-0"), WALOptions{Fsync: FsyncNever})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	if len(pending) != 0 {
		t.Fatalf("WAL left %d pending records after graceful close", len(pending))
	}
	if st := w.Stats(); st.NextSeq != n || st.Folded != n {
		t.Fatalf("shard-0 WAL at next=%d folded=%d after graceful close, want %d/%d", st.NextSeq, st.Folded, n, n)
	}

	// Pushes after close are refused with 503.
	status, _, _ := postIngest(t, env.srv, makeTraceBytes(t, "late", trace.FormatJSON))
	if status != http.StatusServiceUnavailable {
		t.Fatalf("push after close = %d, want 503", status)
	}
}

// TestServePushPollQueryHammer is the race-enabled concurrent
// push/poll/query hammer: pushers, readers and the background watcher
// all run against one server.
func TestServePushPollQueryHammer(t *testing.T) {
	dir := writeFixtureDir(t)
	s := mustServer(t, Config{
		Dir: dir, WALDir: t.TempDir(), WAL: WALOptions{Fsync: FsyncNever},
		Registry: obs.NewRegistry(), Poll: 5 * time.Millisecond, PlanOptions: testPlanOpts,
	})
	s.Start()
	defer s.Close()
	srv := httptest.NewServer(s)
	defer srv.Close()

	stop := make(chan struct{})
	var wg sync.WaitGroup
	errs := make(chan error, 16)

	// Pushers: distinct tasks, alternating serializations.
	for p := 0; p < 3; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			hc := srv.Client()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				f := trace.FormatJSON
				if i%2 == 0 {
					f = trace.FormatBinary
				}
				data := makeTraceBytes(t, fmt.Sprintf("hammer/p%d_i%d", p, i%5), f)
				resp, err := hc.Post(srv.URL+"/v1/ingest", "application/octet-stream", bytes.NewReader(data))
				if err != nil {
					errs <- err
					return
				}
				_, _ = io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				switch resp.StatusCode {
				case http.StatusOK, http.StatusTooManyRequests:
				default:
					errs <- fmt.Errorf("pusher %d: status %d", p, resp.StatusCode)
					return
				}
			}
		}(p)
	}
	// Readers across every endpoint.
	paths := []string{"/v1/ftg", "/v1/sdg?format=dot", "/v1/tasks", "/v1/plan", "/healthz", "/metrics"}
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			hc := srv.Client()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				resp, err := hc.Get(srv.URL + paths[(r+i)%len(paths)])
				if err != nil {
					errs <- err
					return
				}
				_, _ = io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
			}
		}(r)
	}

	time.Sleep(400 * time.Millisecond)
	close(stop)
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}

	// Quiesced — every acknowledged record folded — the server still
	// matches the batch path over the union of directory and pushed
	// traces.
	waitWALDrained(t, s)
	if _, err := s.Ingest(); err != nil {
		t.Fatal(err)
	}
	checkAllEndpoints(t, srv, dir, "post-hammer")
}
