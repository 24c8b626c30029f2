package serve

import (
	"fmt"
	"io"
	"io/fs"
	"math/rand"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"dayu/internal/obs"
	"dayu/internal/trace"
)

// The folder publishes a burst before it persists it: the retained
// checkpoints' files and the WAL fold point are written after the
// snapshot that shows them. These tests pin that order from both ends:
// a record is visible while neither write has happened, a crash then
// loses nothing, and a landing that fails after publish keeps the
// record pending until a landing succeeds.

// copyTree copies the regular files and directories under src to dst:
// a crash image of a running server's directories.
func copyTree(t *testing.T, src, dst string) {
	t.Helper()
	err := filepath.WalkDir(src, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(src, path)
		if err != nil {
			return err
		}
		target := filepath.Join(dst, rel)
		if d.IsDir() {
			return os.MkdirAll(target, 0o755)
		}
		in, err := os.Open(path)
		if err != nil {
			return err
		}
		defer in.Close()
		out, err := os.Create(target)
		if err != nil {
			return err
		}
		if _, err := io.Copy(out, in); err != nil {
			out.Close()
			return err
		}
		return out.Close()
	})
	if err != nil {
		t.Fatal(err)
	}
}

// recordTask is the task a pushed record belongs to.
func recordTask(t *testing.T, data []byte) string {
	t.Helper()
	tt, _, err := trace.DecodeBytesMeta(data, trace.DecodeOptions{})
	if err != nil {
		t.Fatal(err)
	}
	return tt.Task
}

// waitHealth polls /healthz until ok accepts it.
func waitHealth(t *testing.T, srv *httptest.Server, what string, ok func(Health) bool) Health {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		var h Health
		getJSON(t, srv, "/healthz", &h)
		if h.WAL != nil && ok(h) {
			return h
		}
		if time.Now().After(deadline) {
			t.Fatalf("/healthz never reached: %s (at %+v)", what, h.WAL)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// blockPartial puts a non-empty directory where task's checkpoint file
// lands, so every landing fails at its rename; the returned func clears
// it.
func blockPartial(t *testing.T, walDir, task string) (path string, unblock func()) {
	t.Helper()
	path = filepath.Join(walDir, "partials", trace.TraceFileName(task, trace.FormatBinary))
	if err := os.MkdirAll(filepath.Join(path, "occupied"), 0o755); err != nil {
		t.Fatal(err)
	}
	return path, func() {
		if err := os.RemoveAll(path); err != nil {
			t.Fatal(err)
		}
	}
}

// TestPersistCrashWindow holds the folder between a burst's publish and
// its persist. The held record is visible in an SSE event and in
// /v1/live/ftg, and still pending in the WAL; a crash image taken then
// serves it after replay, and the rest of the stream converges to the
// batch bytes. A second image, taken after the record's landing failed,
// does the same: the fold point never passes a record whose checkpoint
// has no file.
func TestPersistCrashWindow(t *testing.T) {
	fixture := writeFixtureDir(t)
	deliveries, tasks := streamDeliveries(t, fixture)
	var armed atomic.Bool
	hold, entered := make(chan struct{}), make(chan struct{}, 1)
	env := newPushEnv(t, func(cfg *Config) {
		cfg.IngestQueue = 256
		cfg.persistHook = func() {
			if armed.Load() {
				entered <- struct{}{}
				<-hold
			}
		}
	})
	released := false
	release := func() {
		if !released {
			released = true
			armed.Store(false)
			close(hold)
		}
	}
	t.Cleanup(release) // before the server's Close, which waits for the folder

	// The first task streams and persists as usual.
	for _, d := range deliveries[:3] {
		pushAccepted(t, env.srv, d.name, d.data)
	}
	waitWALDrained(t, env.s)
	conn := dialSSE(t, env.srv, "")
	if ev := decodeEvent(t, conn.next(t)); ev.PartialTasks != 0 || ev.CompleteTasks != 1 {
		t.Fatalf("first event counts = %d partial / %d complete, want 0/1", ev.PartialTasks, ev.CompleteTasks)
	}

	// The probe, the second task's first checkpoint, is held after its
	// publish.
	probe := deliveries[3]
	task := recordTask(t, probe.data)
	armed.Store(true)
	pushAccepted(t, env.srv, probe.name, probe.data)
	select {
	case <-entered:
	case <-time.After(10 * time.Second):
		t.Fatal("the folder never reached the persist step")
	}
	ev := decodeEvent(t, conn.next(t))
	if ev.PartialTasks != 1 || ev.CompleteTasks != 1 {
		t.Fatalf("held record's event counts = %d partial / %d complete, want 1/1", ev.PartialTasks, ev.CompleteTasks)
	}
	body, hdr := getHdr(t, env.srv, "/v1/live/ftg")
	if hdr.Get("X-Dayu-Partial-Tasks") != "1" || hdr.Get("X-Dayu-Snapshot") != ev.Snapshot || !strings.Contains(string(body), task) {
		t.Fatalf("/v1/live/ftg while held: partial=%s snapshot=%s (event %s), names %s: %v",
			hdr.Get("X-Dayu-Partial-Tasks"), hdr.Get("X-Dayu-Snapshot"), ev.Snapshot, task, strings.Contains(string(body), task))
	}
	var h Health
	getJSON(t, env.srv, "/healthz", &h)
	if h.WAL.PendingRecords != 1 {
		t.Errorf("pending_records while held = %d, want 1", h.WAL.PendingRecords)
	}
	partial := filepath.Join(env.walDir, "partials", trace.TraceFileName(task, trace.FormatBinary))
	if _, err := os.Stat(partial); !os.IsNotExist(err) {
		t.Errorf("the held checkpoint's file exists before persist (%v)", err)
	}
	held := t.TempDir()
	copyTree(t, env.walDir, filepath.Join(held, "wal"))
	copyTree(t, env.dir, filepath.Join(held, "dir"))

	// The landing fails after publish: the record stays pending.
	blocker, unblock := blockPartial(t, env.walDir, task)
	release()
	h = waitHealth(t, env.srv, "a persist error", func(h Health) bool { return h.WAL.PersistError != "" })
	if h.Status != "degraded" || h.WAL.PendingRecords != 1 || !strings.Contains(h.WAL.PersistError, blocker) {
		t.Errorf("after a failed landing: status %q, wal %+v; want degraded, one pending, an error naming %s", h.Status, h.WAL, blocker)
	}
	failed := t.TempDir()
	copyTree(t, env.walDir, filepath.Join(failed, "wal"))
	copyTree(t, env.dir, filepath.Join(failed, "dir"))
	if err := os.RemoveAll(filepath.Join(failed, "wal", "partials", filepath.Base(blocker))); err != nil {
		t.Fatal(err)
	}
	unblock()

	for name, img := range map[string]string{"held": held, "failed-landing": failed} {
		t.Run(name, func(t *testing.T) {
			dir := filepath.Join(img, "dir")
			s := mustServer(t, Config{
				Dir: dir, WALDir: filepath.Join(img, "wal"), WAL: WALOptions{Fsync: FsyncNever},
				IngestQueue: 256, PlanOptions: testPlanOpts,
			})
			srv := httptest.NewServer(s)
			defer func() { srv.Close(); s.Close() }()
			body, hdr := getHdr(t, srv, "/v1/live/ftg")
			if hdr.Get("X-Dayu-Partial-Tasks") != "1" || !strings.Contains(string(body), task) {
				t.Fatalf("after replay /v1/live/ftg has %s partial tasks, names %s: %v",
					hdr.Get("X-Dayu-Partial-Tasks"), task, strings.Contains(string(body), task))
			}
			for _, d := range deliveries[4:] {
				pushAccepted(t, srv, d.name, d.data)
			}
			pushManifest(t, srv, fixture)
			waitTasks(t, s, tasks)
			waitWALDrained(t, s)
			checkLiveConverged(t, srv, dir, name)
		})
	}
}

// TestPersistBurst folds one burst — two checkpoints of task A, a
// checkpoint then the final of task B — and persists it once: only A's
// newest checkpoint lands, none of B's, and one fold-point write covers
// the burst.
func TestPersistBurst(t *testing.T) {
	reg := obs.NewRegistry()
	gate := make(chan struct{})
	env := newPushEnv(t, func(cfg *Config) {
		cfg.Registry = reg
		cfg.foldHook = func(foldJob) { <-gate }
	})
	a, b := liveTask("burst_a"), liveTask("burst_b")
	aNewest := encodeCheckpoint(t, checkpointTrace(a, 0.75), 2)
	for i, data := range [][]byte{
		encodeCheckpoint(t, checkpointTrace(a, 0.34), 1),
		aNewest,
		encodeCheckpoint(t, checkpointTrace(b, 0.5), 3),
		encodeFinal(t, b),
	} {
		pushAccepted(t, env.srv, fmt.Sprintf("record %d", i), data)
	}
	close(gate) // all four are queued: the folder drains them as one burst
	waitWALDrained(t, env.s)
	waitLiveCounts(t, env.srv, 1, 1)

	entries, err := os.ReadDir(filepath.Join(env.walDir, "partials"))
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, e := range entries {
		names = append(names, e.Name())
	}
	want := trace.TraceFileName("burst_a", trace.FormatBinary)
	if len(names) != 1 || names[0] != want {
		t.Fatalf("partials after the burst = %v, want only %s", names, want)
	}
	if got, err := os.ReadFile(filepath.Join(env.walDir, "partials", want)); err != nil || string(got) != string(aNewest) {
		t.Errorf("A's partial file is not its newest checkpoint (%v)", err)
	}
	if got := readCheckpoint(filepath.Join(env.walDir, liveWALNamespace)); got != 4 {
		t.Errorf("checkpoint file = %d, want 4 (the burst's next-unfolded seq)", got)
	}
	if got := reg.Histogram("dayu_serve_persist_ns", obs.LatencyBuckets()).Count(); got != 1 {
		t.Errorf("one burst observed %d persists, want 1", got)
	}
	if metrics := string(get(t, env.srv, "/metrics")); !strings.Contains(metrics, "dayu_serve_persist_ns_count 1") {
		t.Error("/metrics does not export dayu_serve_persist_ns")
	}
}

// TestPersistFailureAfterPublish: a checkpoint whose file cannot land is
// visible but pending, with /healthz degraded and naming the file. The
// next burst retries it: the first landing that succeeds clears the
// failure and advances the fold point, and the fifth failure gives up,
// counting the record in fold_error.
func TestPersistFailureAfterPublish(t *testing.T) {
	push := func(t *testing.T, env *pushEnv) (string, func()) {
		t.Helper()
		path, unblock := blockPartial(t, env.walDir, "fail_probe")
		pushAccepted(t, env.srv, "checkpoint", encodeCheckpoint(t, liveTask("fail_probe"), 1))
		h := waitHealth(t, env.srv, "a persist error", func(h Health) bool { return h.WAL.PersistError != "" })
		if h.Status != "degraded" || h.WAL.PendingRecords != 1 || h.WAL.FoldedSeq != 0 || !strings.Contains(h.WAL.PersistError, path) {
			t.Errorf("after a failed landing: status %q, wal %+v; want degraded, one pending, an error naming %s", h.Status, h.WAL, path)
		}
		waitLiveCounts(t, env.srv, 1, 0)
		return path, unblock
	}

	t.Run("recovers", func(t *testing.T) {
		env := newPushEnv(t, nil)
		path, unblock := push(t, env)
		unblock()
		pushAccepted(t, env.srv, "next burst", makeTraceBytes(t, "other", trace.FormatJSON))
		h := waitHealth(t, env.srv, "the fold point past both records", func(h Health) bool { return h.WAL.FoldedSeq == 2 })
		if h.Status != "ok" || h.WAL.PersistError != "" || h.WAL.PendingRecords != 0 {
			t.Errorf("after the landing succeeded: status %q, wal %+v; want ok, no error, none pending", h.Status, h.WAL)
		}
		if _, err := os.Stat(path); err != nil {
			t.Errorf("the retried checkpoint did not land: %v", err)
		}
	})

	t.Run("gives up", func(t *testing.T) {
		env := newPushEnv(t, nil)
		push(t, env)
		for i := 0; ; i++ {
			var h Health
			getJSON(t, env.srv, "/healthz", &h)
			if h.WAL.FoldError != "" {
				if !strings.HasPrefix(h.WAL.FoldError, "1 record(s) pending until restart") || h.WAL.PersistError != "" || h.WAL.FoldedSeq != 0 {
					t.Errorf("after giving up: wal %+v; want one stuck record, no persist error, the fold point held", h.WAL)
				}
				break
			}
			if i == 50 {
				t.Fatalf("the folder never gave up on the landing: %+v", h.WAL)
			}
			pushAccepted(t, env.srv, "next burst", makeTraceBytes(t, fmt.Sprintf("other_%d", i), trace.FormatJSON))
			waitHealth(t, env.srv, "the burst persisted", func(h Health) bool { return h.WAL.PendingRecords == 1 || h.WAL.FoldError != "" })
		}
	})
}

// TestWALMarkFoldedBurst marks a burst's seqs out of order in one call:
// the fold point advances over the contiguous prefix only, and a later
// call that fills the gap moves it over everything marked.
func TestWALMarkFoldedBurst(t *testing.T) {
	dir := t.TempDir()
	w, _ := openTestWAL(t, dir, WALOptions{Fsync: FsyncNever})
	defer w.Close()
	for i := 0; i < 5; i++ {
		if _, err := w.Append([]byte(fmt.Sprintf("rec-%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	w.MarkFolded()
	w.MarkFolded(3, 1, 0)
	if st := w.Stats(); st.Folded != 2 || st.Pending != 2 || readCheckpoint(dir) != 2 {
		t.Fatalf("after marking 3,1,0: folded=%d pending=%d checkpoint=%d, want 2,2,2", st.Folded, st.Pending, readCheckpoint(dir))
	}
	w.MarkFolded(4, 2, 1)
	if st := w.Stats(); st.Folded != 5 || st.Pending != 0 || readCheckpoint(dir) != 5 {
		t.Fatalf("after marking 4,2,1: folded=%d pending=%d checkpoint=%d, want 5,0,5", st.Folded, st.Pending, readCheckpoint(dir))
	}
}

// TestSnapshotIDResumesBatchState holds snapshotID, which resumes the
// batch view's hash state, to the hash of the whole preimage the ids
// have always had, over random checkpoint sets: history ids and
// Last-Event-ID resume stay valid across versions.
func TestSnapshotIDResumesBatchState(t *testing.T) {
	s := mustServer(t, Config{Dir: writeFixtureDir(t), PlanOptions: testPlanOpts})
	defer s.Close()
	snap, err := s.Ingest()
	if err != nil {
		t.Fatal(err)
	}
	preimage := "manifest:" + s.cache.manifest.hash
	for _, path := range s.cache.paths() {
		preimage += "\n" + filepath.Base(path) + "=" + s.cache.files[path].hash
	}
	if snap.id != trace.HashBytes([]byte(preimage)) {
		t.Fatal("the converged snapshot's id is not the hash of its preimage")
	}
	rng := rand.New(rand.NewSource(1))
	for round := 0; round < 200; round++ {
		partials := make([]*partialEntry, rng.Intn(8))
		lines := make([]string, len(partials))
		for i := range partials {
			pe := &partialEntry{
				seq:   rng.Uint64() >> uint(rng.Intn(64)),
				hash:  trace.HashBytes([]byte(fmt.Sprint(rng.Int63()))),
				trace: &trace.TaskTrace{Task: fmt.Sprintf("task_%d", rng.Intn(1000))},
			}
			partials[i] = pe
			lines[i] = fmt.Sprintf("partial:%s=%s@%d", pe.trace.Task, pe.hash, pe.seq)
		}
		sort.Strings(lines)
		want := preimage
		for _, line := range lines {
			want += "\n" + line
		}
		if got := snapshotID(snap.batch, partials); got != trace.HashBytes([]byte(want)) {
			t.Fatalf("round %d: snapshotID over %d checkpoints differs from the preimage hash", round, len(partials))
		}
	}
}
