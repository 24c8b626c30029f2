package serve

import (
	"bytes"
	"fmt"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"testing"

	"dayu/internal/obs"
	"dayu/internal/trace"
	"dayu/internal/workloads"
)

// midTask is the one name the loaded servers' manifest ranks that no
// preloaded task holds, halfway through the preloaded order: a task
// streamed under it is inserted mid-order, as the tasks of a stream
// whose phases interleave in time are.
const midTask = "p_mid"

// loadedServer is a push-enabled server over a directory preloaded with
// n synthetic tasks and their manifest, as `stream_loaded` runs it; the
// manifest also ranks midTask. The tests below drive its folder's two
// steps — foldBytes, then the folder's refresh — themselves; nothing is
// pushed over HTTP.
func loadedServer(tb testing.TB, n int, reg *obs.Registry) *Server {
	tb.Helper()
	dir := tb.TempDir()
	traces, m := workloads.GenerateSyntheticTraces(workloads.SyntheticTraceConfig{Tasks: n})
	m.TaskOrder = slices.Insert(m.TaskOrder, n/2, midTask)
	for _, tt := range traces {
		if _, err := tt.SaveFormat(dir, trace.FormatBinary); err != nil {
			tb.Fatal(err)
		}
	}
	if err := trace.SaveManifest(dir, m); err != nil {
		tb.Fatal(err)
	}
	s, err := NewServer(Config{Dir: dir, WALDir: tb.TempDir(), WAL: WALOptions{Fsync: FsyncNever}, Registry: reg, PlanOptions: testPlanOpts})
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(s.Close)
	return s
}

// streamedTask is an in-flight task of a live stream: unranked by the
// preloaded manifest and started after every preloaded task, so it
// sorts last, writing four files of its own.
func streamedTask(task string) *trace.TaskTrace {
	tt := &trace.TaskTrace{Task: task, StartNS: 1 << 40, EndNS: 1<<40 + 5000}
	for i := 0; i < 4; i++ {
		file := fmt.Sprintf("%s_%d.h5", task, i)
		base := tt.StartNS + int64(i)*1000
		tt.Files = append(tt.Files, trace.FileRecord{
			Task: task, File: file, OpenNS: base, CloseNS: base + 900,
			Ops: 40, Writes: 30, Reads: 10, BytesWritten: 3 << 20, BytesRead: 1 << 20,
			MetaOps: 8, DataOps: 32, MetaBytes: 2048, DataBytes: 4<<20 - 2048, DataWrites: 24, DataReads: 8,
		})
		tt.Objects = append(tt.Objects, trace.ObjectRecord{
			Task: task, File: file, Object: "/data", Type: "dataset",
			Datatype: "float32", Layout: "chunked", Shape: []int64{256, 512}, ElemSize: 4,
			ChunkDims: []int64{64, 64}, Writes: 5, BytesWritten: 1 << 19,
		})
		tt.Mapped = append(tt.Mapped, trace.MappedStat{
			Task: task, File: file, Object: "/data",
			MetaOps: 1, DataOps: 5, MetaBytes: 256, DataBytes: 1<<19 - 256, Writes: 6,
			Regions: []trace.Extent{{Start: 0, End: 1 << 19}}, FirstNS: base + 10, LastNS: base + 800,
		})
	}
	return tt
}

// streamRecords is one streamed task's records as a live run pushes
// them: a cumulative checkpoint, a delta, a second cumulative
// checkpoint, and the final in format f. seq is the checkpoint sequence
// the stream has reached; it comes back advanced.
func streamRecords(tb testing.TB, task string, f trace.Format, seq *uint64) [][]byte {
	tb.Helper()
	tt := streamedTask(task)
	cps := []*trace.TaskTrace{
		sortedCheckpoint(checkpointTrace(tt, 0.25)),
		sortedCheckpoint(checkpointTrace(tt, 0.5)),
		sortedCheckpoint(checkpointTrace(tt, 0.75)),
	}
	var out [][]byte
	for i, cp := range cps {
		*seq++
		var buf bytes.Buffer
		opts := trace.BinaryOptions{Incremental: true, CheckpointSeq: *seq}
		if i == 1 {
			d, ok := trace.Diff(cps[0], cp)
			if !ok {
				tb.Fatalf("no exact delta for %s", task)
			}
			opts.Delta, opts.DeltaBaseSeq = true, *seq-1
			cp = d
		}
		if err := cp.EncodeBinaryOpts(&buf, opts); err != nil {
			tb.Fatal(err)
		}
		out = append(out, buf.Bytes())
	}
	var buf bytes.Buffer
	if err := tt.EncodeFormat(&buf, f); err != nil {
		tb.Fatal(err)
	}
	return append(out, buf.Bytes())
}

// foldRecord is the folder's step for one record, synchronously: apply
// it (foldBytes), then refresh from the paths it landed and publish.
func foldRecord(tb testing.TB, s *Server, data []byte) {
	tb.Helper()
	landed, _, err := s.foldBytes(data)
	if err != nil {
		tb.Fatal(err)
	}
	if _, err := s.ingest(false, landed); err != nil {
		tb.Fatal(err)
	}
}

// costCounters are what TestSnapshotCostIsChangeProportional reads per
// record: the three counters of O(state) snapshot work, and two of the
// work the change itself costs.
var costCounters = []string{
	"dayu_serve_snapshot_tasks_sorted_total",
	"dayu_serve_diagnose_scopes_walked_total",
	"dayu_serve_index_tasks_repositioned_total",
	obs.Name("dayu_serve_cache_misses_total", "cache", "contribution"),
	obs.Name("dayu_serve_diagnose_scopes_total", "result", "recomputed"),
}

// stateProportional is the explicit allow-list of snapshot work that
// grows with the state, each entry with its reason. Any other counter
// that grows fails TestSnapshotCostIsChangeProportional.
var stateProportional = map[string]string{
	// A final's batch view re-hashes the id lines of every trace file:
	// the snapshot id is a SHA-256 over them, in path order, and a new
	// file's line lands mid-preimage. Bytes hashed, no sort, no lookup.
	"dayu_serve_snapshot_id_bytes_hashed_total": "id-line bytes hashed on a final",
}

// insertProportional is the allow-list for the records that insert a
// task mid-order (midTask's): what grows with the tasks after the
// insert. The records that append or replace in place hold these
// counters equal too.
var insertProportional = map[string]string{
	// Both indexes keep each task's position, and every task after the
	// insert moves one place (an integer written; the task lists and
	// orders are memmoved, which no counter sees).
	"dayu_serve_index_tasks_repositioned_total": "tasks after a mid-order insert renumbered",
	// time-dependent-input names the position of a pure input's first
	// reader ("task #N"), so each pure input whose first reader moved is
	// recomputed.
	obs.Name("dayu_serve_diagnose_scopes_total", "result", "recomputed"): "pure inputs whose first reader moved recomputed",
}

// TestSnapshotCostIsChangeProportional is the counted gate on what a
// snapshot costs: over 100, 1000 and 3000 preloaded tasks, the same
// stream of 24 records — cumulative checkpoints, deltas and finals, in
// dtb and JSON, of five tasks that sort last and one, midTask, that
// sorts mid-order — costs each record the same sorted tasks, walked
// scopes, repositioned tasks, computed contributions and recomputed
// diagnose scopes. Only the allow-listed counters may grow
// with the state, and those of insertProportional only on midTask's
// records.
func TestSnapshotCostIsChangeProportional(t *testing.T) {
	if testing.Short() {
		t.Skip("preloads 3000 tasks")
	}
	sizes := []int{100, 1000, 3000}
	perRecord := make([]map[string][]int64, len(sizes))
	mid := 0 // midTask's first record
	for k, n := range sizes {
		reg := obs.NewRegistry()
		s := loadedServer(t, n, reg)
		var seq uint64
		// The first checkpoint builds the live graph index from the batch
		// one; a stream pays that once per server, not per record.
		for _, data := range streamRecords(t, "p_warmup", trace.FormatBinary, &seq) {
			foldRecord(t, s, data)
		}
		var records [][]byte
		for i := 0; i < 5; i++ {
			f := trace.FormatBinary
			if i%2 == 1 {
				f = trace.FormatJSON
			}
			records = append(records, streamRecords(t, fmt.Sprintf("p_stream_%d", i), f, &seq)...)
			if i == 2 {
				mid = len(records)
				records = append(records, streamRecords(t, midTask, trace.FormatBinary, &seq)...)
			}
		}
		perRecord[k] = map[string][]int64{}
		names := append(slices.Clone(costCounters), "dayu_serve_snapshot_id_bytes_hashed_total")
		for _, data := range records {
			before := make([]int64, len(names))
			for i, name := range names {
				before[i] = reg.Counter(name).Value()
			}
			foldRecord(t, s, data)
			for i, name := range names {
				perRecord[k][name] = append(perRecord[k][name], reg.Counter(name).Value()-before[i])
			}
		}
		snap := s.snap.Load()
		if got := len(snap.batch.traces); got != n+7 || snap.partialTasks != 0 {
			t.Fatalf("%d tasks: after the stream the snapshot holds %d finals and %d partials, want %d and 0", n, got, snap.partialTasks, n+7)
		}
		if at := slices.IndexFunc(snap.batch.ordered, func(tt *trace.TaskTrace) bool { return tt.Task == midTask }); at != n/2 {
			t.Fatalf("%d tasks: %s sits at %d in task order, want %d", n, midTask, at, n/2)
		}
		if k == 0 {
			srv := httptest.NewServer(s)
			checkAllEndpoints(t, srv, s.cfg.Dir, fmt.Sprintf("%d tasks after the stream", n))
			srv.Close()
		}
	}
	for _, name := range costCounters {
		for k := 1; k < len(sizes); k++ {
			got, want := slices.Clone(perRecord[k][name]), slices.Clone(perRecord[0][name])
			if _, ok := insertProportional[name]; ok {
				// midTask's records are held apart: compared below, not here.
				got, want = slices.Delete(got, mid, mid+4), slices.Delete(want, mid, mid+4)
			}
			if !slices.Equal(got, want) {
				t.Errorf("%s per record: %v over %d tasks, %v over %d", name, perRecord[0][name], sizes[0], perRecord[k][name], sizes[k])
			}
		}
	}
	for name, why := range insertProportional {
		var of [3][]int64
		for k := range sizes {
			of[k] = perRecord[k][name][mid : mid+4]
		}
		// An insert costs something, and no more than the tasks after it
		// in each of the two indexes it edits.
		for k, n := range sizes {
			if of[k][0] == 0 || of[k][0] > 2*int64(n) {
				t.Errorf("%s over %s's records: %v / %v / %v", name, midTask, of[0], of[1], of[2])
			}
		}
		t.Logf("allowed to grow with the tasks after a mid-order insert (%s): %s over %s's records %v / %v / %v", why, name, midTask, of[0], of[1], of[2])
	}
	for name, why := range stateProportional {
		t.Logf("allowed to grow with the state (%s): %s per record %v / %v / %v", why, name, perRecord[0][name], perRecord[1][name], perRecord[2][name])
	}
}

// BenchmarkSnapshot is what one folded record costs the folder on a
// loaded server — foldBytes, then the refresh that builds and publishes
// the snapshot — for a checkpoint of an in-flight task and for a
// task's final, over 100, 1000 and 3000 preloaded tasks. Each final's
// task is streamed in first and its file removed afterwards, untimed,
// so the state stays the preloaded size.
func BenchmarkSnapshot(b *testing.B) {
	for _, n := range []int{100, 1000, 3000} {
		// One server per size, closed before the next is built: each
		// case's heap, and so its GC work, is its own state's.
		b.Run(fmt.Sprintf("tasks=%d", n), func(b *testing.B) {
			s := loadedServer(b, n, obs.NewRegistry())
			var seq uint64
			for _, data := range streamRecords(b, "p_warmup", trace.FormatBinary, &seq) {
				foldRecord(b, s, data)
			}
			b.Run("checkpoint", func(b *testing.B) {
				cp := sortedCheckpoint(checkpointTrace(streamedTask("p_inflight"), 0.5))
				records := make([][]byte, b.N)
				for i := range records {
					seq++
					var buf bytes.Buffer
					if err := cp.EncodeBinaryOpts(&buf, trace.BinaryOptions{Incremental: true, CheckpointSeq: seq}); err != nil {
						b.Fatal(err)
					}
					records[i] = buf.Bytes()
				}
				runtime.GC()
				b.ReportAllocs()
				b.ResetTimer()
				for _, data := range records {
					foldRecord(b, s, data)
				}
			})
			b.Run("final", func(b *testing.B) {
				runtime.GC()
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					b.StopTimer()
					task := fmt.Sprintf("p_final_%06d", i)
					records := streamRecords(b, task, trace.FormatBinary, &seq)
					for _, data := range records[:3] {
						foldRecord(b, s, data)
					}
					b.StartTimer()
					foldRecord(b, s, records[3])
					b.StopTimer()
					path := filepath.Join(s.cfg.Dir, trace.TraceFileName(task, trace.FormatBinary))
					if err := os.Remove(path); err != nil {
						b.Fatal(err)
					}
					if _, err := s.ingest(false, []string{path}); err != nil {
						b.Fatal(err)
					}
					b.StartTimer()
				}
			})
		})
	}
}
