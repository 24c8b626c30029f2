package diagnose

import (
	"bytes"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"dayu/internal/analyzer"
	"dayu/internal/trace"
	"dayu/internal/workloads"
)

// chooser is where an edit sequence gets its decisions: a seeded PRNG
// in the metamorphic test, the fuzzer's bytes in FuzzIndexEdits.
type chooser interface {
	intn(n int) int
	done() bool
}

type randChooser struct {
	rng   *rand.Rand
	steps int
}

func (c *randChooser) intn(n int) int { return c.rng.Intn(n) }
func (c *randChooser) done() bool     { c.steps--; return c.steps < 0 }

type byteChooser struct{ data []byte }

func (c *byteChooser) intn(n int) int {
	if len(c.data) == 0 {
		return 0
	}
	b := c.data[0]
	c.data = c.data[1:]
	return int(b) % n
}
func (c *byteChooser) done() bool { return len(c.data) == 0 }

func pick[T any](c chooser, from ...T) T { return from[c.intn(len(from))] }

// editThresholds are low enough for a handful of random records to trip
// every rule.
var editThresholds = Thresholds{ScatterMinDatasets: 2, SmallAccessMinOps: 4, VLenLargeBytes: 1 << 10}

// editState is a trace set under edit. Traces and manifests are never
// written after they are built — an edit swaps pointers — which is the
// contract Index.Sync relies on.
type editState struct {
	c       chooser
	traces  []*trace.TaskTrace
	m       *trace.Manifest
	serial  int
	started int64
	dup     *trace.TaskTrace // the second trace under one name, if the last edit added one
}

var (
	editFiles   = []string{"a.h5", "b.h5", "c.h5", "d.h5", "e.h5", "f.h5"}
	editObjects = []string{"", "/x", "/y", "/z", "/grp/w"}
)

// randomTrace draws a task whose records are small enough to collide
// with other tasks' (shared files, shared objects, repeated records of
// one file) and varied enough to land on both sides of every rule.
func (s *editState) randomTrace(task string, start int64) *trace.TaskTrace {
	c := s.c
	tt := &trace.TaskTrace{Task: task, StartNS: start, EndNS: start + 100}
	if len(s.traces) > 0 && c.intn(4) == 0 {
		// A stage-mate: the same file records as the task before it.
		for _, fr := range s.traces[len(s.traces)-1].Files {
			fr.Task = task
			tt.Files = append(tt.Files, fr)
		}
	}
	for n := c.intn(7); n > 0; n-- {
		fr := trace.FileRecord{
			Task: task, File: pick(c, editFiles...),
			Reads: pick[int64](c, 0, 1, 40), Writes: pick[int64](c, 0, 1, 24),
			DataOps: pick[int64](c, 0, 4, 40), MetaOps: pick[int64](c, 0, 1, 90),
			DataBytes: pick[int64](c, 0, 512, 1<<20), SequentialOps: pick[int64](c, 0, 3, 40),
		}
		fr.Ops = fr.DataOps + fr.MetaOps
		fr.DataReads, fr.DataWrites = fr.Reads*int64(c.intn(2)), fr.Writes*int64(c.intn(2))
		tt.Files = append(tt.Files, fr)
	}
	for n := c.intn(5); n > 0; n-- {
		tt.Mapped = append(tt.Mapped, trace.MappedStat{
			Task: task, File: pick(c, editFiles...), Object: pick(c, editObjects...),
			Reads: pick[int64](c, 0, 3), MetaOps: pick[int64](c, 0, 2),
			DataOps: pick[int64](c, 0, 5), DataBytes: pick[int64](c, 0, 100, 4096, 1<<21),
		})
	}
	for n := c.intn(4); n > 0; n-- {
		tt.Objects = append(tt.Objects, trace.ObjectRecord{
			Task: task, File: pick(c, editFiles...), Object: pick(c, editObjects...),
			Type: pick(c, "dataset", "dataset", "group"), Datatype: pick(c, "", "float32", "vlen"),
			Layout: pick(c, "chunked", "contiguous"), Shape: pick(c, nil, []int64{10}, []int64{600, 600}),
			ElemSize: pick[int64](c, 0, 4), BytesWritten: pick[int64](c, 0, 1<<12),
		})
	}
	return tt
}

func (s *editState) newName() string {
	s.serial++
	return fmt.Sprintf("task_%03d", s.serial)
}

// randomManifest ranks and stages a random subset of the current tasks
// (all of them when full), with a few one-task stages for fan-in and a
// name no trace carries.
func (s *editState) randomManifest(full bool) *trace.Manifest {
	m := &trace.Manifest{Workflow: "edits", Stages: map[string][]string{}}
	names := make([]string, 0, len(s.traces)+1)
	for _, tt := range s.traces {
		if full || s.c.intn(2) == 0 {
			names = append(names, tt.Task)
		}
	}
	if !full {
		names = append(names, "ghost")
	}
	// Stages group neighbours in creation order; the rank order is its
	// own shuffle.
	m.TaskOrder = slices.Clone(names)
	for i := len(names) - 1; i > 0; i-- {
		j := s.c.intn(i + 1)
		m.TaskOrder[i], m.TaskOrder[j] = m.TaskOrder[j], m.TaskOrder[i]
	}
	for i := 0; i < len(names); {
		stage := fmt.Sprintf("stage_%d", len(m.StageOrder))
		n := min(1+s.c.intn(3), len(names)-i)
		m.StageOrder = append(m.StageOrder, stage)
		m.Stages[stage] = names[i : i+n]
		i += n
	}
	return m
}

// edit applies one random edit and names it.
func (s *editState) edit() string {
	c := s.c
	if s.dup != nil {
		// Two traces under one name make the index rebuild on every Sync;
		// let that last one Sync, so most of a run patches.
		s.traces = slices.DeleteFunc(slices.Clone(s.traces), func(tt *trace.TaskTrace) bool { return tt == s.dup })
		s.dup = nil
		return "drop the duplicate"
	}
	at := 0
	if len(s.traces) > 0 {
		at = c.intn(len(s.traces))
	}
	switch op := c.intn(12); {
	case op <= 1 || len(s.traces) == 0:
		s.started += int64(1 + c.intn(50))
		s.traces = append(s.traces, s.randomTrace(s.newName(), s.started))
		return "add"
	case op <= 3: // a checkpoint that grew: same task, more of everything
		old := s.traces[at]
		grown := s.randomTrace(old.Task, old.StartNS)
		grown.Files = append(slices.Clone(old.Files), grown.Files...)
		grown.Mapped = append(slices.Clone(old.Mapped), grown.Mapped...)
		grown.Objects = append(slices.Clone(old.Objects), grown.Objects...)
		s.traces[at] = grown
		return "grow " + old.Task
	case op <= 5: // one that shrank
		old := s.traces[at]
		shrunk := *old
		shrunk.Files = old.Files[:len(old.Files)/2]
		shrunk.Mapped = old.Mapped[:len(old.Mapped)/2]
		shrunk.Objects = old.Objects[:len(old.Objects)/2]
		s.traces[at] = &shrunk
		return "shrink " + old.Task
	case op <= 7:
		gone := s.traces[at].Task
		s.traces = slices.Delete(slices.Clone(s.traces), at, at+1)
		return "remove " + gone
	case op == 8:
		switch c.intn(3) {
		case 0:
			s.m = nil
			return "manifest nil"
		case 1:
			s.m = s.randomManifest(false)
			return "manifest partial"
		}
		s.m = s.randomManifest(true)
		return "manifest full"
	case op == 9: // sorts before every unranked task
		first := s.randomTrace(s.newName(), -int64(s.serial))
		s.traces = append(s.traces, first)
		return "insert first " + first.Task
	case op == 10: // a second trace under a name already taken
		s.dup = s.randomTrace(s.traces[at].Task, s.traces[at].StartNS+int64(c.intn(3)))
		s.traces = append(s.traces, s.dup)
		return "duplicate " + s.dup.Task
	default: // the input order must not matter
		j := c.intn(len(s.traces))
		s.traces[at], s.traces[j] = s.traces[j], s.traces[at]
		return "swap input order"
	}
}

// checkIndexAgainstFresh drives one long-lived index through an edit
// sequence and after every edit holds its view to a fresh Analyze of
// the same set: same findings, same bytes.
func checkIndexAgainstFresh(t *testing.T, c chooser) (syncs, patched int) {
	t.Helper()
	s := &editState{c: c}
	ix := NewIndex(editThresholds)
	var history []string
	for !c.done() && len(history) < 200 {
		history = append(history, s.edit())
		view := ix.Sync(analyzer.OrderTasks(s.traces, s.m), s.m)
		if syncs++; view.Reused > 0 {
			patched++
		}
		fresh := Analyze(s.traces, s.m, editThresholds)
		want, err := EncodeJSON(fresh)
		if err != nil {
			t.Fatal(err)
		}
		got, err := view.EncodeJSON()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("after %v the index encodes %d findings to %d bytes, a fresh Analyze %d findings to %d bytes\nindex: %s\nfresh: %s",
				history, len(view.Findings()), len(got), len(fresh), len(want), got, want)
		}
		flat, err := EncodeJSON(view.Findings())
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(flat, want) {
			t.Fatalf("after %v View.Findings() disagrees with View.EncodeJSON()", history)
		}
		for i := 1; i < len(fresh); i++ {
			a, b := fresh[i-1], fresh[i]
			if a.Severity < b.Severity || (a.Severity == b.Severity && a.Kind > b.Kind) {
				t.Fatalf("after %v findings %d and %d are out of order: %s/%s before %s/%s",
					history, i-1, i, a.Severity, a.Kind, b.Severity, b.Kind)
			}
		}
	}
	return syncs, patched
}

// TestIndexMatchesFreshAnalyze is the metamorphic gate for the
// incremental path: whatever sequence of adds, grown and shrunk
// replacements, removals, manifest swaps, front inserts and name
// collisions an index has been through, it answers as a fresh one does.
func TestIndexMatchesFreshAnalyze(t *testing.T) {
	syncs, patched := 0, 0
	for seed := int64(1); seed <= 40; seed++ {
		n, p := checkIndexAgainstFresh(t, &randChooser{rng: rand.New(rand.NewSource(seed)), steps: 80})
		syncs, patched = syncs+n, patched+p
	}
	// The gate means nothing if the edits keep knocking the index back
	// to a rebuild (manifest swaps, reorders and duplicates all do).
	if patched < syncs/2 {
		t.Errorf("only %d of %d syncs patched the index; the rest rebuilt it", patched, syncs)
	}
}

// FuzzIndexEdits is the same gate with the edit sequence, and every
// record in it, read off the fuzzer's bytes.
func FuzzIndexEdits(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte("\x00\x03\x01\x02\x01\x01\x01\x01\x00\x01\x02\x00\x04\x02\x01\x01\x03\x00"))
	f.Add(bytes.Repeat([]byte{0, 4, 1, 2, 3, 1, 0, 2, 1, 1, 5, 3, 2, 1, 4, 2, 6, 1, 3, 0}, 12))
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 4; i++ {
		seed := make([]byte, 600)
		rng.Read(seed)
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		checkIndexAgainstFresh(t, &byteChooser{data: data})
	})
}

// TestAnalyzeIndependentOfInputOrder: a manifest that ranks only some
// tasks — what a live stream into a manifest-bearing directory produces
// — must not let the input order leak into "task order". Ranked tasks
// come first by rank, the rest follow by start time.
func TestAnalyzeIndependentOfInputOrder(t *testing.T) {
	rw := func(task string, start int64) *trace.TaskTrace {
		return mkTrace(task, start, trace.FileRecord{File: "shared.h5",
			Reads: 2, Writes: 2, BytesRead: 10, BytesWritten: 10, DataOps: 4})
	}
	a, b, u := rw("a", 100), rw("b", 10), rw("u", 50)
	m := &trace.Manifest{Workflow: "w", TaskOrder: []string{"a", "b"}}
	var want []byte
	for _, traces := range [][]*trace.TaskTrace{
		{a, b, u}, {a, u, b}, {b, a, u}, {b, u, a}, {u, a, b}, {u, b, a},
	} {
		findings := Analyze(traces, m, Thresholds{})
		got, err := EncodeJSON(findings)
		if err != nil {
			t.Fatal(err)
		}
		if want == nil {
			want = got
		}
		if !bytes.Equal(got, want) {
			t.Errorf("input order %s,%s,%s changes the findings:\n%s\nwant:\n%s",
				traces[0].Task, traces[1].Task, traces[2].Task, got, want)
		}
		// a is ranked first: it re-reads its own output, b and u update
		// what a wrote upstream.
		if raw := ByKind(findings, ReadAfterWrite); len(raw) != 1 || raw[0].Task != "a" {
			t.Errorf("read-after-write = %+v, want task a alone (ranked before b)", raw)
		}
		if war := ByKind(findings, WriteAfterRead); len(war) != 2 || war[0].Task != "b" || war[1].Task != "u" {
			t.Errorf("write-after-read = %+v, want tasks b and u", war)
		}
	}
}

// syncCounts syncs and returns what the Sync recomputed.
func syncCounts(ix *Index, traces []*trace.TaskTrace, m *trace.Manifest) (recomputed, reused int) {
	v := ix.Sync(analyzer.OrderTasks(traces, m), m)
	return v.Recomputed, v.Reused
}

// TestSyncCostFollowsTheChange counts scopes instead of timing them:
// folding a checkpoint of one in-flight task recomputes the same scopes
// whether the index holds 100 tasks or 400, a final that lands after the
// ranked tasks moves nobody's position, and an insert at the front pays
// for exactly the findings that quote a position.
func TestSyncCostFollowsTheChange(t *testing.T) {
	inflight := func(ops int64) *trace.TaskTrace { return liveLikeTrace("zz_inflight", ops) }
	var perFold, perFinal []int
	for _, preload := range []int{100, 400} {
		traces, m := workloads.GenerateSyntheticTraces(workloads.SyntheticTraceConfig{Tasks: preload})
		ix := NewIndex(Thresholds{})
		if recomputed, reused := syncCounts(ix, traces, m); reused != 0 || recomputed == 0 {
			t.Fatalf("building %d tasks from empty: %d recomputed, %d reused", preload, recomputed, reused)
		}
		if recomputed, _ := syncCounts(ix, traces, m); recomputed != 0 {
			t.Errorf("an unchanged set of %d tasks recomputed %d scopes", preload, recomputed)
		}
		// The in-flight task is unranked: it sorts after the manifest's.
		live := append(append([]*trace.TaskTrace(nil), traces...), inflight(8))
		syncCounts(ix, live, m)
		live[len(live)-1] = inflight(16)
		fold, reused := syncCounts(ix, live, m)
		if reused < preload {
			t.Errorf("a fold over %d tasks reused only %d scopes", preload, reused)
		}
		perFold = append(perFold, fold)

		live = append(live, liveLikeTrace("zz_landed", 4))
		final, _ := syncCounts(ix, live, m)
		perFinal = append(perFinal, final)

		// A task that sorts first shifts every position: the pure inputs'
		// "task #N" texts are redone — because they must be — and nothing
		// else is.
		first := *m
		first.TaskOrder = append([]string{"aa_first"}, m.TaskOrder...)
		syncCounts(ix, traces, &first) // a new manifest rebuilds; settle on it
		shifted, kept := syncCounts(ix, append([]*trace.TaskTrace{liveLikeTrace("aa_first", 4)}, traces...), &first)
		if shifted <= final || shifted >= kept {
			t.Errorf("an insert at the front of %d tasks recomputed %d scopes and kept %d; an append recomputes %d", preload, shifted, kept, final)
		}
	}
	if perFold[0] != perFold[1] {
		t.Errorf("one fold recomputes %d scopes over 100 tasks and %d over 400", perFold[0], perFold[1])
	}
	if perFinal[0] != perFinal[1] {
		t.Errorf("one appended final recomputes %d scopes over 100 tasks and %d over 400", perFinal[0], perFinal[1])
	}
	if perFold[0] > 8 || perFinal[0] > 8 {
		t.Errorf("scopes recomputed: %d per fold, %d per appended final; a task with two files and two objects has 7", perFold[0], perFinal[0])
	}
}

// liveLikeTrace is a task that writes its own output file with two
// chunked datasets and reads one shared synthetic input.
func liveLikeTrace(task string, ops int64) *trace.TaskTrace {
	out := task + ".h5"
	in := "stage_00/shared_000.h5"
	tt := &trace.TaskTrace{Task: task, StartNS: 1 << 40, EndNS: 1<<40 + 100,
		Files: []trace.FileRecord{
			{Task: task, File: in, Ops: ops, Reads: ops, DataReads: ops, DataOps: ops, DataBytes: ops << 12},
			{Task: task, File: out, Ops: ops, Writes: ops, DataWrites: ops, DataOps: ops, DataBytes: ops << 12},
		}}
	for _, obj := range []string{"/a", "/b"} {
		tt.Objects = append(tt.Objects, trace.ObjectRecord{Task: task, File: out, Object: obj, Type: "dataset",
			Datatype: "float32", Layout: "chunked", Shape: []int64{ops, 16}, ElemSize: 4, Writes: ops, BytesWritten: ops << 6})
		tt.Mapped = append(tt.Mapped, trace.MappedStat{Task: task, File: out, Object: obj,
			DataOps: ops, DataBytes: ops << 6, Writes: ops})
	}
	return tt
}
