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
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"dayu/internal/analyzer"
	"dayu/internal/graph"
	"dayu/internal/obs"
	"dayu/internal/serve/client"
	"dayu/internal/sim"
	"dayu/internal/trace"
	"dayu/internal/tracer"
	"dayu/internal/workflow"
	"dayu/internal/workloads"
)

// livePairs maps each live endpoint to the batch endpoint it must
// converge to byte-for-byte once every task has folded its final.
var livePairs = map[string]string{
	"/v1/live/ftg":         "/v1/ftg",
	"/v1/live/sdg":         "/v1/sdg",
	"/v1/live/diagnostics": "/v1/diagnose",
}

// getHdr is get plus the response headers (the live endpoints carry
// snapshot identity and partial/complete counts there).
func getHdr(t *testing.T, srv *httptest.Server, path string) ([]byte, http.Header) {
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
	return body, resp.Header
}

// keepFrac truncates a record-slice length to a fraction, clamped.
func keepFrac(n int, frac float64) int {
	k := int(float64(n) * frac)
	if k < 0 {
		k = 0
	}
	if k > n {
		k = n
	}
	return k
}

// checkpointTrace synthesizes the trace-so-far a mid-run checkpoint
// would carry: a prefix of the final's file table, plus only the
// object and mapped records that reference those files — the tracer
// grows all three tables from the same operations, so a checkpoint
// never holds mapped stats for a file it has not opened (Validate
// enforces exactly that join). Attempts/Failed are engine stamps that
// only exist on finals.
func checkpointTrace(tt *trace.TaskTrace, frac float64) *trace.TaskTrace {
	cp := *tt
	cp.Attempts = 0
	cp.Failed = false
	cp.Files = tt.Files[:keepFrac(len(tt.Files), frac)]
	kept := make(map[string]bool, len(cp.Files))
	for _, f := range cp.Files {
		kept[f.File] = true
	}
	cp.Objects = nil
	for _, o := range tt.Objects {
		if kept[o.File] {
			cp.Objects = append(cp.Objects, o)
		}
	}
	cp.Mapped = nil
	for _, ms := range tt.Mapped {
		if kept[ms.File] {
			cp.Mapped = append(cp.Mapped, ms)
		}
	}
	return &cp
}

// encodeCheckpoint renders one incremental dtb record.
func encodeCheckpoint(t *testing.T, tt *trace.TaskTrace, seq uint64) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := tt.EncodeBinaryOpts(&buf, trace.BinaryOptions{Incremental: true, CheckpointSeq: seq}); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// encodeDelta renders one delta checkpoint record.
func encodeDelta(t *testing.T, d *trace.TaskTrace, seq, baseSeq uint64) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := d.EncodeBinaryOpts(&buf, trace.BinaryOptions{
		Incremental: true, CheckpointSeq: seq, Delta: true, DeltaBaseSeq: baseSeq,
	}); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// sortedCheckpoint deep-copies a checkpoint's tables into the
// tracer's canonical sort orders — what real checkpoints look like,
// and what delta reassembly reproduces (trace.Diff requires it for an
// exact delta). The copy matters: checkpointTrace's slices alias the
// final's tables.
func sortedCheckpoint(cp *trace.TaskTrace) *trace.TaskTrace {
	out := *cp
	out.Objects = append([]trace.ObjectRecord(nil), cp.Objects...)
	out.Files = append([]trace.FileRecord(nil), cp.Files...)
	out.Mapped = append([]trace.MappedStat(nil), cp.Mapped...)
	sort.SliceStable(out.Objects, func(i, j int) bool {
		if out.Objects[i].File != out.Objects[j].File {
			return out.Objects[i].File < out.Objects[j].File
		}
		return out.Objects[i].Object < out.Objects[j].Object
	})
	sort.SliceStable(out.Files, func(i, j int) bool { return out.Files[i].File < out.Files[j].File })
	sort.SliceStable(out.Mapped, func(i, j int) bool {
		if out.Mapped[i].File != out.Mapped[j].File {
			return out.Mapped[i].File < out.Mapped[j].File
		}
		return out.Mapped[i].Object < out.Mapped[j].Object
	})
	return &out
}

// pushStreamMode streams the fixture with per-task checkpoint chains
// in the given framing mode — "delta" (cumulative first checkpoint,
// delta second), "mixed" (alternate tasks delta/cumulative), or
// "delta-gap" (a delta with a wrong base sequence that must be NACKed
// with 409/resync, then the cumulative resync push) — followed by the
// final's exact file bytes. Returns the task count.
func pushStreamMode(t *testing.T, env *pushEnv, fixture, mode string) int {
	t.Helper()
	entries, err := os.ReadDir(fixture)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, e := range entries {
		if trace.IsTraceFile(e.Name()) {
			names = append(names, e.Name())
		}
	}
	sort.Strings(names)
	var seq uint64
	for i, name := range names {
		path := filepath.Join(fixture, name)
		raw, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		tt, err := trace.Load(path)
		if err != nil {
			t.Fatal(err)
		}
		cp1 := sortedCheckpoint(checkpointTrace(tt, 0.34))
		cp2 := sortedCheckpoint(checkpointTrace(tt, 0.75))
		useDelta := mode != "mixed" || i%2 == 0

		seq++
		seq1 := seq
		if status, pr, _ := postIngest(t, env.srv, encodeCheckpoint(t, cp1, seq1)); status != http.StatusOK || pr.Status != "accepted" {
			t.Fatalf("%s: checkpoint 1 for %s = %d %q", mode, tt.Task, status, pr.Status)
		}
		seq++
		seq2 := seq
		if useDelta {
			d, ok := trace.Diff(cp1, cp2)
			if !ok {
				t.Fatalf("%s: no exact delta for %s (fixture checkpoints must admit deltas)", mode, tt.Task)
			}
			if mode == "delta-gap" {
				// Wrong base: the server never saw seq1+777, so it must
				// NACK before logging anything, reporting the sequence it
				// does have.
				status, pr, _ := postIngest(t, env.srv, encodeDelta(t, d, seq2, seq1+777))
				if status != http.StatusConflict || pr.Status != "resync" || pr.Seq != seq1 {
					t.Fatalf("%s: gapped delta for %s = %d %q seq=%d, want 409 resync seq=%d",
						mode, tt.Task, status, pr.Status, pr.Seq, seq1)
				}
				// Resync: the same checkpoint, cumulative, same sequence.
				if status, pr, _ := postIngest(t, env.srv, encodeCheckpoint(t, cp2, seq2)); status != http.StatusOK || pr.Status != "accepted" {
					t.Fatalf("%s: resync checkpoint for %s = %d %q", mode, tt.Task, status, pr.Status)
				}
			} else {
				if status, pr, _ := postIngest(t, env.srv, encodeDelta(t, d, seq2, seq1)); status != http.StatusOK || pr.Status != "accepted" {
					t.Fatalf("%s: delta checkpoint for %s = %d %q", mode, tt.Task, status, pr.Status)
				}
			}
		} else {
			if status, pr, _ := postIngest(t, env.srv, encodeCheckpoint(t, cp2, seq2)); status != http.StatusOK || pr.Status != "accepted" {
				t.Fatalf("%s: checkpoint 2 for %s = %d %q", mode, tt.Task, status, pr.Status)
			}
		}
		if status, _, _ := postIngest(t, env.srv, raw); status != http.StatusOK {
			t.Fatalf("%s: final %s = %d", mode, tt.Task, status)
		}
	}
	return len(names)
}

// streamDelivery is one record on the wire.
type streamDelivery struct {
	name string
	data []byte
}

// streamDeliveries turns a saved fixture into the record stream a
// live run would produce: per task, two cumulative checkpoints (with
// globally increasing sequence numbers, like the tracer's
// process-wide counter) followed by the final's exact file bytes.
func streamDeliveries(t *testing.T, fixture string) ([]streamDelivery, int) {
	t.Helper()
	entries, err := os.ReadDir(fixture)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, e := range entries {
		if trace.IsTraceFile(e.Name()) {
			names = append(names, e.Name())
		}
	}
	sort.Strings(names)
	var out []streamDelivery
	var seq uint64
	for _, name := range names {
		path := filepath.Join(fixture, name)
		raw, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		tt, err := trace.Load(path)
		if err != nil {
			t.Fatal(err)
		}
		for _, frac := range []float64{0.34, 0.75} {
			seq++
			out = append(out, streamDelivery{
				name: fmt.Sprintf("%s@cp%d", tt.Task, seq),
				data: encodeCheckpoint(t, checkpointTrace(tt, frac), seq),
			})
		}
		out = append(out, streamDelivery{name: tt.Task + "@final", data: raw})
	}
	return out, len(names)
}

// pushManifest posts the fixture's manifest bytes.
func pushManifest(t *testing.T, srv *httptest.Server, fixture string) {
	t.Helper()
	data, err := os.ReadFile(filepath.Join(fixture, "manifest.json"))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(srv.URL+"/v1/ingest/manifest", "application/json", bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("manifest push = %d", resp.StatusCode)
	}
}

// checkLiveConverged asserts every live endpoint answers with the
// exact bytes of its batch counterpart (computed by a fresh one-shot
// batch build over the folded directory) and reports zero partials.
func checkLiveConverged(t *testing.T, srv *httptest.Server, dir, phase string) map[string][]byte {
	t.Helper()
	want := batchExpect(t, dir)
	bodies := map[string][]byte{}
	for live, batch := range livePairs {
		body, hdr := getHdr(t, srv, live)
		if !bytes.Equal(body, want[batch]) {
			t.Errorf("%s: GET %s differs from batch %s (%d vs %d bytes)",
				phase, live, batch, len(body), len(want[batch]))
		}
		if got := hdr.Get("X-Dayu-Partial-Tasks"); got != "0" {
			t.Errorf("%s: GET %s partial tasks = %s, want 0", phase, live, got)
		}
		bodies[live] = body
	}
	// The batch endpoints agree with the one-shot build too, so live
	// and batch are pinned to the same bytes, not merely to each other.
	for _, batch := range []string{"/v1/ftg", "/v1/sdg", "/v1/diagnose"} {
		if got := get(t, srv, batch); !bytes.Equal(got, want[batch]) {
			t.Errorf("%s: GET %s differs from batch build", phase, batch)
		}
	}
	return bodies
}

// TestLiveStreamEquivalence pins the streaming acceptance gate: after
// a full streamed run (checkpoints then finals then manifest, all
// through /v1/ingest), the live endpoints answer byte-identically to
// the batch pipeline over the same traces — across three shuffled
// delivery orders, including finals overtaking their own checkpoints
// and checkpoints arriving after the final already folded.
func TestLiveStreamEquivalence(t *testing.T) {
	fixture := writeFixtureDir(t)
	var ref map[string][]byte
	for _, seed := range []int64{1, 2, 3} {
		seed := seed
		t.Run(fmt.Sprintf("order-%d", seed), func(t *testing.T) {
			env := newPushEnv(t, func(cfg *Config) { cfg.IngestQueue = 256 })
			deliveries, tasks := streamDeliveries(t, fixture)
			rand.New(rand.NewSource(seed)).Shuffle(len(deliveries), func(i, j int) {
				deliveries[i], deliveries[j] = deliveries[j], deliveries[i]
			})
			for _, d := range deliveries {
				if status, pr, _ := postIngest(t, env.srv, d.data); status != http.StatusOK || pr.Status != "accepted" {
					t.Fatalf("push %s = %d %q", d.name, status, pr.Status)
				}
			}
			pushManifest(t, env.srv, fixture)
			waitTasks(t, env.s, tasks)
			waitWALDrained(t, env.s)

			bodies := checkLiveConverged(t, env.srv, env.dir, fmt.Sprintf("order-%d", seed))
			if ref == nil {
				ref = bodies
			} else {
				for live, body := range bodies {
					if !bytes.Equal(body, ref[live]) {
						t.Errorf("order-%d: GET %s differs across delivery orders", seed, live)
					}
				}
			}
			// No partial survives convergence, in memory or on disk.
			leftovers, err := os.ReadDir(env.s.partialsDir())
			if err != nil {
				t.Fatal(err)
			}
			if len(leftovers) != 0 {
				t.Errorf("order-%d: %d partial files survive convergence", seed, len(leftovers))
			}
		})
	}
	// The framing matrix: the same workflow streamed with delta
	// checkpoints, mixed framing, and a forced gap-resync must converge
	// to the same bytes as the cumulative orders above.
	for _, mode := range []string{"delta", "mixed", "delta-gap"} {
		mode := mode
		t.Run("mode-"+mode, func(t *testing.T) {
			env := newPushEnv(t, func(cfg *Config) {
				cfg.IngestQueue = 256
				cfg.Registry = obs.NewRegistry()
			})
			tasks := pushStreamMode(t, env, fixture, mode)
			pushManifest(t, env.srv, fixture)
			waitTasks(t, env.s, tasks)
			waitWALDrained(t, env.s)
			bodies := checkLiveConverged(t, env.srv, env.dir, "mode-"+mode)
			for live, body := range bodies {
				if ref != nil && !bytes.Equal(body, ref[live]) {
					t.Errorf("mode-%s: GET %s differs from cumulative delivery", mode, live)
				}
			}
			if mode != "delta-gap" && env.s.deltaFolds.Value() == 0 {
				t.Errorf("mode-%s never folded a delta record", mode)
			}
			if mode == "delta-gap" && env.s.deltaResyncs.Value() == 0 {
				t.Error("delta-gap mode never exercised the resync NACK")
			}
		})
	}
	if !t.Failed() {
		t.Log("STREAM-EQUIVALENCE: live snapshot byte-identical to batch across 3 delivery orders and 3 delta framing modes")
	}
}

// TestLiveStreamSinkEquivalence is the streaming gate through the
// stock client: a DDMD run streamed by client.StreamSink, cumulative and
// delta, into a server whose folder is held back, so that pushes meet
// backpressure and queued checkpoints are superseded, converges to the
// bytes of the batch pipeline over the server's directory and over the
// traces the run itself returned. afterEachRecord is diagnose_test.go's.
func TestLiveStreamSinkEquivalence(t *testing.T) {
	for _, delta := range []bool{false, true} {
		delta := delta
		t.Run(fmt.Sprintf("delta=%v", delta), func(t *testing.T) {
			env := newPushEnv(t, func(cfg *Config) {
				cfg.IngestQueue = 1
				cfg.retryAfter = time.Millisecond // rounds to Retry-After: 0 — the client retries at its own backoff
				cfg.foldHook = func(foldJob) { time.Sleep(2 * time.Millisecond) }
			})
			cl, err := client.New(env.srv.URL, client.Options{
				MaxAttempts:    200,
				InitialBackoff: time.Millisecond,
				MaxBackoff:     5 * time.Millisecond,
				Rand:           rand.New(rand.NewSource(1)),
			})
			if err != nil {
				t.Fatal(err)
			}
			sink := client.NewStreamSinkOpts(context.Background(), cl, client.StreamOptions{Delta: delta})
			// Every third record waits for the queue to drain, so each task
			// gets several checkpoints through (deltas need two) while the
			// records between queue up behind one in flight.
			emitted := 0
			paced := afterEachRecord{sink, func() {
				if emitted++; emitted%3 == 0 {
					sink.Flush()
				}
			}}
			eng, err := workflow.NewEngine(workflow.Cluster{Machine: sim.MachineCPU, Nodes: 2}, nil,
				tracer.Config{Sink: paced, CheckpointOps: 8})
			if err != nil {
				t.Fatal(err)
			}
			spec, setup := workloads.DDMD(workloads.DDMDConfig{SimTasks: 2, ContactMapBytes: 32 << 10, SmallBytes: 4 << 10, Epochs: 2})
			if err := setup(eng); err != nil {
				t.Fatal(err)
			}
			res, err := eng.Run(spec)
			if err != nil {
				t.Fatal(err)
			}
			sink.Flush()
			local := t.TempDir()
			if err := res.SaveTraces(local, trace.FormatBinary); err != nil {
				t.Fatal(err)
			}
			pushManifest(t, env.srv, local)
			waitTasks(t, env.s, len(res.Traces))
			waitWALDrained(t, env.s)

			if err := sink.Err(); err != nil {
				t.Fatalf("sink error: %v", err)
			}
			checkpoints, finals, dropped := sink.Stats()
			deltas, _, _ := sink.DeltaStats()
			superseded := sink.Superseded()
			if dropped != 0 || finals != len(res.Traces) || superseded == 0 || delta != (deltas > 0) {
				t.Fatalf("sink sent %d checkpoints (%d deltas), %d finals, dropped %d, superseded %d; want %d finals, 0 dropped, some superseded, deltas only in delta mode",
					checkpoints, deltas, finals, dropped, superseded, len(res.Traces))
			}
			bodies := checkLiveConverged(t, env.srv, env.dir, fmt.Sprintf("delta=%v", delta))
			want := batchExpect(t, local)
			for live, batch := range livePairs {
				if !bytes.Equal(bodies[live], want[batch]) {
					t.Errorf("GET %s differs from the batch build over the run's own traces", live)
				}
			}
			t.Logf("%d checkpoints (%d deltas) and %d finals delivered, %d checkpoints superseded", checkpoints, deltas, finals, superseded)
		})
	}
	if !t.Failed() {
		t.Log("STREAM-EQUIVALENCE (sink): live snapshot byte-identical to batch and to BuildFTG/BuildSDG over the run's traces, cumulative and delta, with superseded checkpoints")
	}
}

// TestDeltaStreamMidFlightView pins the delta path before any final
// folds: a cumulative base plus a delta must produce the exact live
// view — body bytes and snapshot id — that pushing the second
// checkpoint cumulatively produces, because the server persists the
// reassembled cumulative form re-encoded deterministically.
func TestDeltaStreamMidFlightView(t *testing.T) {
	tt := liveTask("live_delta")
	cp1 := sortedCheckpoint(checkpointTrace(tt, 0.5))
	cp2 := sortedCheckpoint(checkpointTrace(tt, 1.0))
	d, ok := trace.Diff(cp1, cp2)
	if !ok {
		t.Fatal("no exact delta between the two checkpoints")
	}

	envDelta := newPushEnv(t, nil)
	if status, pr, _ := postIngest(t, envDelta.srv, encodeCheckpoint(t, cp1, 1)); status != http.StatusOK || pr.Status != "accepted" {
		t.Fatalf("base checkpoint = %d %q", status, pr.Status)
	}
	if status, pr, _ := postIngest(t, envDelta.srv, encodeDelta(t, d, 2, 1)); status != http.StatusOK || pr.Status != "accepted" {
		t.Fatalf("delta checkpoint = %d %q", status, pr.Status)
	}
	waitWALDrained(t, envDelta.s)
	// Folded is not yet visible, and the base checkpoint alone already
	// reads as one partial task: queue behind the folder's rescan.
	if _, err := envDelta.s.Ingest(); err != nil {
		t.Fatal(err)
	}
	waitLiveCounts(t, envDelta.srv, 1, 0)

	envCum := newPushEnv(t, nil)
	if status, _, _ := postIngest(t, envCum.srv, encodeCheckpoint(t, cp2, 2)); status != http.StatusOK {
		t.Fatalf("cumulative checkpoint = %d", status)
	}
	waitWALDrained(t, envCum.s)
	waitLiveCounts(t, envCum.srv, 1, 0)

	for _, path := range []string{"/v1/live/ftg", "/v1/live/sdg", "/v1/live/diagnostics"} {
		deltaBody, deltaHdr := getHdr(t, envDelta.srv, path)
		cumBody, cumHdr := getHdr(t, envCum.srv, path)
		if !bytes.Equal(deltaBody, cumBody) {
			t.Errorf("GET %s: delta-fed view differs from cumulative-fed view", path)
		}
		if dh, ch := deltaHdr.Get("X-Dayu-Snapshot"), cumHdr.Get("X-Dayu-Snapshot"); dh != ch {
			t.Errorf("GET %s: snapshot id %s != %s (reassembled partial must hash identically)", path, dh, ch)
		}
	}

	// And a restart rebuilds the same view from the persisted partial.
	envDelta.srv.Close()
	envDelta.s.Close()
	s2 := mustServer(t, Config{
		Dir: envDelta.dir, WALDir: envDelta.walDir, WAL: WALOptions{Fsync: FsyncNever},
		PlanOptions: testPlanOpts,
	})
	defer s2.Close()
	srv2 := httptest.NewServer(s2)
	defer srv2.Close()
	restartBody, _ := getHdr(t, srv2, "/v1/live/ftg")
	cumBody, _ := getHdr(t, envCum.srv, "/v1/live/ftg")
	if !bytes.Equal(restartBody, cumBody) {
		t.Error("restarted delta-fed server diverged from the cumulative-fed view")
	}
}

// TestLiveStreamRestartEquivalence pins the crash half of the gate: a
// server killed mid-stream with acknowledged records logged but none
// folded must, after restart, replay the WAL and converge to the same
// bytes as the batch pipeline once the remaining records arrive.
func TestLiveStreamRestartEquivalence(t *testing.T) {
	fixture := writeFixtureDir(t)
	deliveries, tasks := streamDeliveries(t, fixture)
	rand.New(rand.NewSource(7)).Shuffle(len(deliveries), func(i, j int) {
		deliveries[i], deliveries[j] = deliveries[j], deliveries[i]
	})
	dir, walDir := t.TempDir(), t.TempDir()

	// First incarnation: folds stall forever (as if the process froze
	// and was killed), so every phase-1 record is acknowledged and
	// durably logged but nothing reaches the trace directory.
	blocked := make(chan struct{}) // never closed
	s1 := mustServer(t, Config{
		Dir: dir, WALDir: walDir, WAL: WALOptions{Fsync: FsyncNever},
		IngestQueue: 256, PlanOptions: testPlanOpts,
		foldHook: func(foldJob) { <-blocked },
	})
	srv1 := httptest.NewServer(s1)
	cut := 2 * len(deliveries) / 3
	for _, d := range deliveries[:cut] {
		if status, pr, _ := postIngest(t, srv1, d.data); status != http.StatusOK || pr.Status != "accepted" {
			t.Fatalf("phase-1 push %s = %d %q", d.name, status, pr.Status)
		}
	}
	// kill -9: stop answering and abandon the server without Close, so
	// nothing is drained or checkpointed.
	srv1.Close()

	// Second incarnation replays the WAL during construction, then the
	// stream resumes where it left off.
	s2 := mustServer(t, Config{
		Dir: dir, WALDir: walDir, WAL: WALOptions{Fsync: FsyncNever},
		IngestQueue: 256, PlanOptions: testPlanOpts,
	})
	defer s2.Close()
	srv2 := httptest.NewServer(s2)
	defer srv2.Close()
	for _, d := range deliveries[cut:] {
		if status, _, _ := postIngest(t, srv2, d.data); status != http.StatusOK {
			t.Fatalf("phase-2 push %s = %d", d.name, status)
		}
	}
	pushManifest(t, srv2, fixture)
	waitTasks(t, s2, tasks)
	waitWALDrained(t, s2)
	checkLiveConverged(t, srv2, dir, "restart")
}

// liveTask builds a small two-file trace for the partial-view tests.
func liveTask(task string) *trace.TaskTrace {
	return &trace.TaskTrace{
		Task: task, StartNS: 100, EndNS: 2000,
		Files: []trace.FileRecord{
			{
				Task: task, File: task + "_a.h5",
				OpenNS: 150, CloseNS: 900,
				Ops: 3, Writes: 3, BytesWritten: 4096,
				MetaOps: 1, DataOps: 2, MetaBytes: 64, DataBytes: 4032,
			},
			{
				Task: task, File: task + "_b.h5",
				OpenNS: 950, CloseNS: 1900,
				Ops: 2, Reads: 2, BytesRead: 2048,
				MetaOps: 1, DataOps: 1, MetaBytes: 32, DataBytes: 2016,
			},
		},
	}
}

// waitLiveCounts polls the live FTG endpoint until its headers report
// the expected partial/complete task counts.
func waitLiveCounts(t *testing.T, srv *httptest.Server, partial, complete int) http.Header {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		_, hdr := getHdr(t, srv, "/v1/live/ftg")
		if hdr.Get("X-Dayu-Partial-Tasks") == strconv.Itoa(partial) &&
			hdr.Get("X-Dayu-Complete-Tasks") == strconv.Itoa(complete) {
			return hdr
		}
		if time.Now().After(deadline) {
			t.Fatalf("live counts never reached partial=%d complete=%d (at %s/%s)",
				partial, complete, hdr.Get("X-Dayu-Partial-Tasks"), hdr.Get("X-Dayu-Complete-Tasks"))
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// TestLivePartialLifecycle walks one stream through the in-flight
// states the equivalence test races past: checkpoints surface as
// partial tasks, stale and post-final checkpoints are dropped, window
// parameters validate, and finals retract their partials.
func TestLivePartialLifecycle(t *testing.T) {
	env := newPushEnv(t, nil)
	tasks := []*trace.TaskTrace{liveTask("live_a"), liveTask("live_b"), liveTask("live_c")}

	// Checkpoints only: every task is partial, none complete.
	for i, tt := range tasks {
		cp := encodeCheckpoint(t, checkpointTrace(tt, 0.5), uint64(10+i))
		if status, pr, _ := postIngest(t, env.srv, cp); status != http.StatusOK || pr.Status != "accepted" {
			t.Fatalf("checkpoint %s = %d %q", tt.Task, status, pr.Status)
		}
	}
	waitLiveCounts(t, env.srv, 3, 0)
	body, hdr := getHdr(t, env.srv, "/v1/live/ftg")
	if !bytes.Contains(body, []byte("live_a_a.h5")) {
		t.Errorf("live FTG misses the checkpointed file: %s", body)
	}
	snapBefore := hdr.Get("X-Dayu-Snapshot")

	// Health reports the in-flight tasks.
	resp, err := http.Get(env.srv.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	var health Health
	if err := json.NewDecoder(resp.Body).Decode(&health); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if health.WAL == nil || health.WAL.PartialTasks != 3 {
		t.Errorf("healthz misses partial tasks: %+v", health.WAL)
	}

	// A stale checkpoint (lower seq, different content) folds to a
	// drop: same snapshot, same bytes.
	stale := encodeCheckpoint(t, checkpointTrace(tasks[0], 1.0), 3)
	if status, _, _ := postIngest(t, env.srv, stale); status != http.StatusOK {
		t.Fatalf("stale checkpoint = %d", status)
	}
	waitWALDrained(t, env.s)
	body2, hdr2 := getHdr(t, env.srv, "/v1/live/ftg")
	if hdr2.Get("X-Dayu-Snapshot") != snapBefore {
		t.Errorf("stale checkpoint moved the snapshot: %s -> %s", snapBefore, hdr2.Get("X-Dayu-Snapshot"))
	}
	if !bytes.Equal(body2, body) {
		t.Errorf("stale checkpoint changed the live FTG")
	}

	// Window parameter: a positive window aggregates (and answers 200);
	// non-positive or malformed windows are rejected before any work.
	if wb, _ := getHdr(t, env.srv, "/v1/live/ftg?window=1h"); len(wb) == 0 {
		t.Error("windowed live FTG answered empty")
	}
	for _, bad := range []string{"0s", "-5s", "garbage"} {
		resp, err := http.Get(env.srv.URL + "/v1/live/ftg?window=" + bad)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("window=%q = %d, want 400", bad, resp.StatusCode)
		}
	}
	resp, err = http.Get(env.srv.URL + "/v1/live/diagnostics?horizon=-1s")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("horizon=-1s = %d, want 400", resp.StatusCode)
	}

	// Finals retract the partials and the live view snaps to batch.
	for _, tt := range tasks {
		var buf bytes.Buffer
		if err := tt.EncodeFormat(&buf, trace.FormatBinary); err != nil {
			t.Fatal(err)
		}
		if status, _, _ := postIngest(t, env.srv, buf.Bytes()); status != http.StatusOK {
			t.Fatalf("final %s = %d", tt.Task, status)
		}
	}
	waitLiveCounts(t, env.srv, 0, 3)
	liveBody, _ := getHdr(t, env.srv, "/v1/live/ftg")
	batchBody := get(t, env.srv, "/v1/ftg")
	if !bytes.Equal(liveBody, batchBody) {
		t.Errorf("converged live FTG differs from batch FTG")
	}

	// A late checkpoint for an already-final task is acknowledged
	// (durability first) but folds to a drop, not a resurrection.
	late := encodeCheckpoint(t, checkpointTrace(tasks[0], 0.5), 999)
	if status, _, _ := postIngest(t, env.srv, late); status != http.StatusOK {
		t.Fatalf("late checkpoint = %d", status)
	}
	waitWALDrained(t, env.s)
	waitLiveCounts(t, env.srv, 0, 3)
}

// TestLiveStreamHammer races concurrent checkpoint/final pushes (via
// the real retrying client) against live readers; run under -race in
// CI. Afterwards the stream must still converge to batch bytes.
func TestLiveStreamHammer(t *testing.T) {
	fixture := writeFixtureDir(t)
	finals, err := trace.LoadDir(fixture)
	if err != nil {
		t.Fatal(err)
	}
	env := newPushEnv(t, func(cfg *Config) { cfg.IngestQueue = 256 })
	c, err := client.New(env.srv.URL, client.Options{
		MaxAttempts: 12, InitialBackoff: time.Millisecond, MaxBackoff: 50 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()

	stop := make(chan struct{})
	var readers sync.WaitGroup
	for i := 0; i < 3; i++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			paths := []string{"/v1/live/ftg", "/v1/live/sdg", "/v1/live/diagnostics", "/healthz"}
			for {
				select {
				case <-stop:
					return
				default:
				}
				for _, p := range paths {
					resp, err := http.Get(env.srv.URL + p)
					if err != nil {
						t.Errorf("GET %s: %v", p, err)
						return
					}
					io.Copy(io.Discard, resp.Body)
					resp.Body.Close()
					if resp.StatusCode != http.StatusOK && p != "/healthz" {
						t.Errorf("GET %s = %d", p, resp.StatusCode)
						return
					}
				}
			}
		}()
	}

	var seq atomic.Uint64
	var writers sync.WaitGroup
	const pushers = 4
	per := (len(finals) + pushers - 1) / pushers
	for w := 0; w < pushers; w++ {
		lo, hi := w*per, (w+1)*per
		if hi > len(finals) {
			hi = len(finals)
		}
		writers.Add(1)
		go func(chunk []*trace.TaskTrace) {
			defer writers.Done()
			for _, tt := range chunk {
				for _, frac := range []float64{0.3, 0.6, 0.9} {
					if _, err := c.PushCheckpoint(ctx, checkpointTrace(tt, frac), seq.Add(1)); err != nil {
						t.Errorf("checkpoint %s: %v", tt.Task, err)
						return
					}
				}
				if _, err := c.PushTrace(ctx, tt, trace.FormatBinary); err != nil {
					t.Errorf("final %s: %v", tt.Task, err)
					return
				}
			}
		}(finals[lo:hi])
	}
	writers.Wait()
	close(stop)
	readers.Wait()
	if t.Failed() {
		return
	}

	pushManifest(t, env.srv, fixture)
	waitTasks(t, env.s, len(finals))
	waitWALDrained(t, env.s)
	checkLiveConverged(t, env.srv, env.dir, "hammer")
}

// TestLiveWindowedRenderMatchesAggregate pins the windowed live
// endpoints over successive snapshots: each body is the live graph's
// AggregateByTime rendered, and what a fresh server fed the same stream
// answers, byte for byte.
func TestLiveWindowedRenderMatchesAggregate(t *testing.T) {
	fixture := writeFixtureDir(t)
	onFixture := func(cfg *Config) { cfg.Dir = fixture }
	env := newPushEnv(t, onFixture)
	var pushed [][]byte
	for i, task := range []string{"win_a", "win_b", "win_c"} {
		cp := encodeCheckpoint(t, checkpointTrace(liveTask(task), 0.5), uint64(i+1))
		pushed = append(pushed, cp)
		if status, _, _ := postIngest(t, env.srv, cp); status != http.StatusOK {
			t.Fatalf("checkpoint %s = %d", task, status)
		}
		waitLiveCounts(t, env.srv, len(pushed), 24)
		snap := env.s.snap.Load()

		fresh := newPushEnv(t, onFixture)
		for _, cp := range pushed {
			if status, _, _ := postIngest(t, fresh.srv, cp); status != http.StatusOK {
				t.Fatalf("fresh checkpoint = %d", status)
			}
		}
		waitLiveCounts(t, fresh.srv, len(pushed), 24)

		for which, g := range map[string]*graph.Graph{"ftg": snap.live.ftg, "sdg": snap.live.sdg} {
			path := "/v1/live/" + which + "?window=1h"
			body, hdr := getHdr(t, env.srv, path)
			if hdr.Get("X-Dayu-Snapshot") != snap.id {
				t.Fatalf("%s served snapshot %s, want %s", path, hdr.Get("X-Dayu-Snapshot"), snap.id)
			}
			agg, err := analyzer.AggregateByTime(g, int64(time.Hour))
			if err != nil {
				t.Fatal(err)
			}
			want, err := renderGraph(agg, "json")
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(body, want) {
				t.Errorf("snapshot %d: %s differs from the rendered AggregateByTime of the live graph", i+1, path)
			}
			if freshBody, _ := getHdr(t, fresh.srv, path); !bytes.Equal(body, freshBody) {
				t.Errorf("snapshot %d: %s differs from a fresh server's", i+1, path)
			}
		}
	}
}

// TestLiveRenderCacheBounded pins the render cache against a client
// sweeping parameter values on an idle server: the snapshot keeps one
// body per parameterized endpoint, the latest, so its entry count stays
// constant, and repeating the last value is a response-cache hit.
func TestLiveRenderCacheBounded(t *testing.T) {
	reg := obs.NewRegistry()
	s := mustServer(t, Config{Dir: writeFixtureDir(t), PlanOptions: testPlanOpts, Registry: reg})
	defer s.Close()
	snap, err := s.current()
	if err != nil {
		t.Fatal(err)
	}
	get := func(path string) {
		t.Helper()
		rec := httptest.NewRecorder()
		s.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, path, nil))
		if rec.Code != http.StatusOK {
			t.Fatalf("GET %s = %d", path, rec.Code)
		}
		if got := rec.Header().Get("X-Dayu-Snapshot"); got != snap.id {
			t.Fatalf("GET %s served snapshot %s on an idle server, want %s", path, got, snap.id)
		}
	}
	entries := func() int {
		snap.live.rendered.mu.Lock()
		defer snap.live.rendered.mu.Unlock()
		return len(snap.live.rendered.entries)
	}
	get("/v1/live/diagnostics?horizon=1ns")
	get("/v1/live/ftg?window=1ns")
	want := entries()
	for h := 2; h <= 10000; h++ {
		get(fmt.Sprintf("/v1/live/diagnostics?horizon=%dns", h))
		if h <= 100 {
			get(fmt.Sprintf("/v1/live/ftg?window=%dns", h))
		}
	}
	if got := entries(); got != want {
		t.Errorf("live render cache holds %d entries after the sweep, want %d", got, want)
	}
	hits := reg.Counter(obs.Name("dayu_serve_cache_hits_total", "cache", "response"))
	before := hits.Value()
	get("/v1/live/diagnostics?horizon=10000ns")
	if hits.Value() != before+1 {
		t.Error("repeating the last horizon was not a response-cache hit")
	}
}

// TestFinishingTaskNeverAbsent folds finals over retained checkpoints
// while readers take snapshots on the request path. A final lands its
// file and then retracts the partial, so at every instant the task is
// in the directory, in the partial set, or both — and every snapshot
// must show it as one of the two. (refresh used to list the directory
// before it captured the partials; a final folding in between was in
// neither, and one snapshot and SSE event lost the task.)
func TestFinishingTaskNeverAbsent(t *testing.T) {
	const tasks = 96
	env := newPushEnv(t, func(cfg *Config) { cfg.IngestQueue = 2 * tasks })
	finals := make([][]byte, tasks)
	for i := range finals {
		tt := liveTask(fmt.Sprintf("finishing_%03d", i))
		if status, _, _ := postIngest(t, env.srv, encodeCheckpoint(t, checkpointTrace(tt, 0.5), 1)); status != http.StatusOK {
			t.Fatalf("checkpoint %s = %d", tt.Task, status)
		}
		var buf bytes.Buffer
		if err := tt.EncodeFormat(&buf, trace.FormatBinary); err != nil {
			t.Fatal(err)
		}
		finals[i] = buf.Bytes()
	}
	waitLiveCounts(t, env.srv, tasks, 0)

	stop := make(chan struct{})
	var readers sync.WaitGroup
	for r := 0; r < 2; r++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				snap, err := env.s.current()
				if err != nil {
					t.Errorf("current: %v", err)
					return
				}
				if got := len(snap.batch.tasks) + snap.partialTasks; got != tasks {
					t.Errorf("snapshot %s shows %d complete + %d partial tasks, want %d in all",
						snap.id, len(snap.batch.tasks), snap.partialTasks, tasks)
					return
				}
			}
		}()
	}
	for i, data := range finals {
		if status, _, _ := postIngest(t, env.srv, data); status != http.StatusOK {
			t.Fatalf("final %d = %d", i, status)
		}
	}
	waitWALDrained(t, env.s)
	close(stop)
	readers.Wait()
	waitLiveCounts(t, env.srv, 0, tasks)
}
