package analyzer

import (
	"bytes"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"dayu/internal/graph"
	"dayu/internal/trace"
)

// chooser is where an edit sequence gets its decisions: a seeded PRNG
// in the differential test, the fuzzer's bytes in FuzzGraphIndexEdits.
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

// graphEdits is a trace set under edit: traces and manifests are never
// written once built — an edit swaps pointers — which is the contract
// Change relies on. Some tasks are in flight: the batch index
// sees the others, the live index all of them, and each takes
// contributions from the other.
type graphEdits struct {
	c        chooser
	traces   []*trace.TaskTrace
	inflight map[*trace.TaskTrace]bool
	m        *trace.Manifest
	serial   int
	started  int64
}

// Small pools, so that tasks share files, datasets and address
// regions, readers come and go one at a time, and descriptions of one
// object compete.
var (
	graphEditFiles   = []string{"a.h5", "b.h5", "c.h5", "d.h5"}
	graphEditObjects = []string{"", "/x", "/y", "/grp/z"}
)

func (s *graphEdits) randomTrace(task string, start int64) *trace.TaskTrace {
	c := s.c
	tt := &trace.TaskTrace{Task: task, StartNS: start, EndNS: start + int64(c.intn(200))}
	files := map[string]bool{}
	addFile := func(file string) {
		fr := trace.FileRecord{
			Task: task, File: file, OpenNS: pick(c, 0, start+1, start+7), CloseNS: start + int64(c.intn(90)),
			Reads: pick[int64](c, 0, 1, 40), Writes: pick[int64](c, 0, 1, 24),
			BytesRead: pick[int64](c, 0, 512, 1<<20), BytesWritten: pick[int64](c, 0, 4096),
			MetaOps: pick[int64](c, 0, 3), DataOps: pick[int64](c, 0, 8),
		}
		tt.Files = append(tt.Files, fr)
		files[file] = true
	}
	for n := c.intn(4); n > 0; n-- {
		addFile(pick(c, graphEditFiles...))
	}
	for n := c.intn(5); n > 0; n-- {
		ms := trace.MappedStat{
			Task: task, File: pick(c, graphEditFiles...), Object: pick(c, graphEditObjects...),
			Reads: pick[int64](c, 0, 0, 3), Writes: pick[int64](c, 0, 2),
			MetaOps: pick[int64](c, 0, 2), DataOps: pick[int64](c, 0, 5),
			MetaBytes: pick[int64](c, 0, 64), DataBytes: pick[int64](c, 0, 100, 1<<13),
			FirstNS: pick(c, 0, start+3), LastNS: start + int64(c.intn(150)),
		}
		for r := c.intn(3); r > 0; r-- {
			lo := int64(c.intn(4)) * 3000
			ms.Regions = append(ms.Regions, trace.Extent{Start: lo, End: lo + int64(1+c.intn(9000))})
		}
		// A contribution adds an edge's endpoints before the edge.
		if !files[ms.File] {
			addFile(ms.File)
		}
		tt.Mapped = append(tt.Mapped, ms)
	}
	for n := c.intn(3); n > 0; n-- {
		tt.Objects = append(tt.Objects, trace.ObjectRecord{
			Task: task, File: pick(c, graphEditFiles...), Object: pick(c, graphEditObjects...),
			Type: "dataset", Datatype: pick(c, "", "float32", "int8"), Layout: pick(c, "chunked", "contiguous"),
			Shape: pick(c, nil, []int64{10}, []int64{4, 4}), Reads: pick[int64](c, 0, 1),
		})
	}
	return tt
}

// redescribe is the same trace with one description changed in what
// the SDG reads of it, or, every other time, in a field it does not.
func (s *graphEdits) redescribe(old *trace.TaskTrace) *trace.TaskTrace {
	cp := *old
	cp.Objects = slices.Clone(old.Objects)
	if len(cp.Objects) == 0 {
		cp.Objects = append(cp.Objects, trace.ObjectRecord{Task: old.Task, File: pick(s.c, graphEditFiles...), Object: "/x"})
	}
	o := &cp.Objects[s.c.intn(len(cp.Objects))]
	if s.c.intn(2) == 0 {
		o.Datatype += "+"
	} else {
		o.Writes++
	}
	return &cp
}

func (s *graphEdits) newName() string {
	s.serial++
	return fmt.Sprintf("task_%03d", s.serial)
}

// edit applies one edit and names it: each adds, replaces or removes a
// task, or swaps the manifest.
func (s *graphEdits) edit() string {
	c := s.c
	at := 0
	if len(s.traces) > 0 {
		at = c.intn(len(s.traces))
	}
	replace := func(tt *trace.TaskTrace) {
		if s.inflight[s.traces[at]] {
			delete(s.inflight, s.traces[at])
			s.inflight[tt] = c.intn(3) > 0 // a checkpoint, or the final
		}
		s.traces = slices.Clone(s.traces)
		s.traces[at] = tt
	}
	switch op := c.intn(14); {
	case op <= 2 || len(s.traces) == 0:
		s.started += int64(1 + c.intn(50))
		tt := s.randomTrace(s.newName(), s.started)
		s.traces = append(s.traces, tt)
		s.inflight[tt] = c.intn(3) == 0
		return "add " + tt.Task
	case op <= 4: // the next checkpoint: the same task grown
		old := s.traces[at]
		grown := s.randomTrace(old.Task, old.StartNS)
		grown.Files = append(slices.Clone(old.Files), grown.Files...)
		grown.Mapped = append(slices.Clone(old.Mapped), grown.Mapped...)
		grown.Objects = append(slices.Clone(old.Objects), grown.Objects...)
		replace(grown)
		return "grow " + old.Task
	case op <= 6:
		replace(s.redescribe(s.traces[at]))
		return "redescribe " + s.traces[at].Task
	case op == 7: // the same content, a new trace
		cp := *s.traces[at]
		replace(&cp)
		return "recopy " + cp.Task
	case op <= 9:
		gone := s.traces[at]
		delete(s.inflight, gone)
		s.traces = slices.Delete(slices.Clone(s.traces), at, at+1)
		return "remove " + gone.Task
	case op == 10: // sorts before every unranked task: first occurrences move
		first := s.randomTrace(s.newName(), -int64(s.serial))
		s.traces = append(s.traces, first)
		s.inflight[first] = false
		return "insert first " + first.Task
	case op == 11: // a second trace under a name already taken
		dup := s.randomTrace(s.traces[at].Task, s.traces[at].StartNS+int64(c.intn(3)))
		s.traces = append(s.traces, dup)
		s.inflight[dup] = c.intn(2) == 0
		return "duplicate " + dup.Task
	case op == 12: // a manifest: a new task order
		s.m = nil
		if c.intn(3) > 0 {
			s.m = &trace.Manifest{Workflow: "edits"}
			for _, tt := range s.traces {
				if c.intn(3) > 0 {
					s.m.TaskOrder = append(s.m.TaskOrder, tt.Task)
				}
			}
			for i := len(s.m.TaskOrder) - 1; i > 0; i-- {
				j := c.intn(i + 1)
				s.m.TaskOrder[i], s.m.TaskOrder[j] = s.m.TaskOrder[j], s.m.TaskOrder[i]
			}
		}
		return "manifest"
	default: // the input order must not matter
		j := c.intn(len(s.traces))
		s.traces = slices.Clone(s.traces)
		s.traces[at], s.traces[j] = s.traces[j], s.traces[at]
		return "swap input order"
	}
}

// renderGraphs is the bytes the differential test compares: DOT, JSON
// and SVG (the one renderer that reads the graph's adjacency).
func renderGraphs(t *testing.T, gs ...*graph.Graph) []string {
	t.Helper()
	var out []string
	for _, g := range gs {
		js, err := g.MarshalJSON()
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, g.DOT(), string(js), g.SVG())
	}
	return out
}

// graphFeed drives an index as `dayu serve` does: a TaskSet keeps the
// set's orders, and the index is told the change from the set it was
// last given (a copy: the edits write lists in place).
type graphFeed struct {
	name string
	ix   *GraphIndex
	set  TaskSet
	prev []*trace.TaskTrace
}

func (d *graphFeed) apply(traces []*trace.TaskTrace, m *trace.Manifest) Graphs {
	ch, _, ok := d.set.Apply(setChange(d.prev, traces), m)
	if !ok {
		d.set.Reset(traces, m)
	}
	d.prev = slices.Clone(traces)
	return d.ix.Apply(d.set.Ordered(), m, ch)
}

// checkGraphIndexAgainstFresh drives two peered indexes — one over the
// whole set, one over the tasks not in flight — through an edit
// sequence, and after every edit holds each to the batch builders over
// its set, and every earlier step's graphs to their bytes at that step.
func checkGraphIndexAgainstFresh(t *testing.T, c chooser) (applies, patched int) {
	t.Helper()
	s := &graphEdits{c: c, inflight: map[*trace.TaskTrace]bool{}}
	opts := pick(c, Options{}, Options{IncludeRegions: true, IncludeFileMetadata: true, PageSize: 4096})
	batch := &graphFeed{name: "batch", ix: NewGraphIndex(opts, nil)}
	live := &graphFeed{name: "live", ix: NewGraphIndex(opts, batch.ix)}
	type published struct {
		gs    []*graph.Graph
		bytes []string
	}
	var history []string
	var earlier []published // this step's and the step before's
	for !c.done() && len(history) < 200 {
		history = append(history, s.edit())
		finals := slices.DeleteFunc(slices.Clone(s.traces), func(tt *trace.TaskTrace) bool { return s.inflight[tt] })
		for _, side := range []struct {
			*graphFeed
			traces []*trace.TaskTrace
		}{{batch, finals}, {live, s.traces}} {
			gs := side.apply(side.traces, s.m)
			if applies++; gs.Reused > 0 {
				patched++
			}
			// The name order is what serve hands the batch builders.
			got := renderGraphs(t, gs.FTG, gs.SDG)
			want := renderGraphs(t, BuildFTG(side.set.Traces(), s.m), BuildSDG(side.set.Traces(), s.m, opts))
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("after %v the %s index's %s differs from a fresh build:\nindex: %s\nfresh: %s",
						history, side.name, [...]string{"FTG DOT", "FTG JSON", "FTG SVG", "SDG DOT", "SDG JSON", "SDG SVG"}[i], got[i], want[i])
				}
			}
			earlier = append(earlier, published{[]*graph.Graph{gs.FTG, gs.SDG}, got})
		}
		// The graphs of the step before must not have moved.
		for _, p := range earlier[:len(earlier)-2] {
			if again := renderGraphs(t, p.gs...); !slices.Equal(again, p.bytes) {
				t.Fatalf("after %v a graph an index returned the step before renders differently", history)
			}
		}
		earlier = earlier[len(earlier)-2:]
	}
	return applies, patched
}

// TestGraphIndexMatchesFreshBuild is the differential gate for the
// incremental graphs: whatever adds, grown and re-described
// replacements, removals, front inserts, name collisions and manifest
// swaps two peered indexes have been told, they answer as the batch
// builders do, and no graph they returned has changed since.
func TestGraphIndexMatchesFreshBuild(t *testing.T) {
	applies, patched := 0, 0
	for seed := int64(1); seed <= 40; seed++ {
		n, p := checkGraphIndexAgainstFresh(t, &randChooser{rng: rand.New(rand.NewSource(seed)), steps: 60})
		applies, patched = applies+n, patched+p
	}
	// The gate means nothing if the edits keep knocking the indexes back
	// to a build from empty (manifest swaps and name collisions do).
	if patched < applies/2 {
		t.Errorf("only %d of %d applies patched the index; the rest built it from empty", patched, applies)
	}
}

// TestGraphIndexApplyMatchesFreshBuild holds two peered indexes, told
// each edit through a TaskSet and Apply as `dayu serve` drives them, to
// the batch builders over each set in the order the edits left it — the
// directory order `dayu analyze` reads — rather than the name order
// TestGraphIndexMatchesFreshBuild hands them. Most edits patch rather
// than build from empty.
func TestGraphIndexApplyMatchesFreshBuild(t *testing.T) {
	applies, patched := 0, 0
	for seed := int64(1); seed <= 30; seed++ {
		c := &randChooser{rng: rand.New(rand.NewSource(seed)), steps: 60}
		s := &graphEdits{c: c, inflight: map[*trace.TaskTrace]bool{}}
		batch := &graphFeed{name: "batch", ix: NewGraphIndex(Options{}, nil)}
		live := &graphFeed{name: "live", ix: NewGraphIndex(Options{}, batch.ix)}
		var history []string
		for !c.done() {
			history = append(history, s.edit())
			finals := slices.DeleteFunc(slices.Clone(s.traces), func(tt *trace.TaskTrace) bool { return s.inflight[tt] })
			for _, side := range []struct {
				*graphFeed
				traces []*trace.TaskTrace
			}{{batch, finals}, {live, s.traces}} {
				gs := side.apply(side.traces, s.m)
				if applies++; gs.Reused > 0 {
					patched++
				}
				got := renderGraphs(t, gs.FTG, gs.SDG)
				want := renderGraphs(t, BuildFTG(side.traces, s.m), BuildSDG(side.traces, s.m, Options{}))
				if !slices.Equal(got, want) {
					t.Fatalf("seed %d: after %v the %s index differs from a fresh build", seed, history, side.name)
				}
			}
		}
	}
	if patched < applies/2 {
		t.Errorf("only %d of %d applies patched the index; the rest built it from empty", patched, applies)
	}
}

func FuzzGraphIndexEdits(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte("\x01\x00\x03\x01\x02\x01\x05\x01\x01\x00\x08\x02\x00\x04\x02\x0a\x01\x03\x00"))
	f.Add(bytes.Repeat([]byte{0, 4, 1, 2, 3, 1, 0, 2, 1, 1, 5, 3, 2, 1, 4, 2, 6, 1, 3, 0, 9, 11, 12}, 12))
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 4; i++ {
		seed := make([]byte, 600)
		rng.Read(seed)
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		checkGraphIndexAgainstFresh(t, &byteChooser{data: data})
	})
}

// TestGraphIndexDescriptionDependents pins what a description change
// costs: re-describing an object in what the SDG reads recomputes the
// SDG contributions of the tasks that map it and nothing else; a change
// the SDG does not read, or to an object no task maps, recomputes only
// the changed task's own two.
func TestGraphIndexDescriptionDependents(t *testing.T) {
	traces, m := syntheticTraces(28)
	d := &graphFeed{ix: NewGraphIndex(Options{}, nil)}
	if got := d.apply(traces, m).Recomputed; got != 2*len(traces) {
		t.Fatalf("a build from empty computed %d contributions, want %d", got, 2*len(traces))
	}
	// The last task of the order describes its shared input, which other
	// tasks also map: it holds the winning description. Each step edits
	// the one before.
	last := traces[len(traces)-1]
	if len(last.Objects) == 0 || last.Objects[0].File != last.Mapped[0].File {
		t.Fatal("synthetic trace does not describe its shared input")
	}
	key := last.Objects[0].Key()
	readers := 0
	for _, tt := range traces {
		for _, ms := range tt.Mapped {
			if ms.Key() == key {
				readers++
				break
			}
		}
	}
	step := func(what string, want int, edit func(*trace.TaskTrace)) {
		t.Helper()
		cp := *traces[len(traces)-1]
		cp.Objects = slices.Clone(cp.Objects)
		edit(&cp)
		traces[len(traces)-1] = &cp
		gs := d.apply(traces, m)
		if gs.Recomputed != want || gs.Reused != 2*len(traces)-want {
			t.Errorf("%s: %d recomputed / %d reused, want %d / %d", what, gs.Recomputed, gs.Reused, want, 2*len(traces)-want)
		}
		if got, fresh := renderGraphs(t, gs.SDG), renderGraphs(t, BuildSDG(traces, m, Options{})); !slices.Equal(got, fresh) {
			t.Errorf("%s: the SDG differs from a fresh build", what)
		}
	}
	step("re-described datatype", 2+readers-1, func(tt *trace.TaskTrace) { tt.Objects[0].Datatype = "H5T_MUTATED" })
	step("re-described shape", 2+readers-1, func(tt *trace.TaskTrace) { tt.Objects[0].Shape = []int64{3} })
	step("a field the SDG does not read", 2, func(tt *trace.TaskTrace) { tt.Objects[0].Reads++ })
	step("an object no task maps", 2, func(tt *trace.TaskTrace) {
		tt.Objects = append(tt.Objects, trace.ObjectRecord{File: "no-such-file.h5", Object: "no-such-object", Datatype: "int8"})
	})
	step("the description withdrawn", 2+readers-1, func(tt *trace.TaskTrace) { tt.Objects = tt.Objects[1:] })
}
