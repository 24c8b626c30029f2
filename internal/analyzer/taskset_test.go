package analyzer

import (
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"dayu/internal/graph"
	"dayu/internal/trace"
)

// checkTaskSetAgainstSort drives a TaskSet through an edit sequence of
// adds, replacements and removals — with equal start times, names the
// manifest does not rank, duplicate names and manifest swaps — and
// after every step holds both of its orders to trace.LoadDir's sort and
// OrderTasks over the same directory, and the orders of the step before
// to what they were. It returns how many steps the set applied without
// a reset.
func checkTaskSetAgainstSort(t *testing.T, c chooser) (steps, applied int) {
	t.Helper()
	var (
		dir     []*trace.TaskTrace // directory order
		m       *trace.Manifest
		set     TaskSet
		history []string
		serial  int
	)
	set.Reset(nil, nil)
	prevNames, prevOrder := set.Traces(), set.Ordered()
	prevNamesCopy, prevOrderCopy := slices.Clone(prevNames), slices.Clone(prevOrder)
	start := func() int64 { return int64(c.intn(6)) } // few values: ties
	for !c.done() && len(history) < 300 {
		var ch Change
		nm := m
		at := 0
		if len(dir) > 0 {
			at = c.intn(len(dir))
		}
		switch op := c.intn(12); {
		case op <= 3 || len(dir) == 0:
			serial++
			tt := &trace.TaskTrace{Task: fmt.Sprintf("t%03d", serial*7%1000), StartNS: start()}
			if slices.ContainsFunc(dir, func(d *trace.TaskTrace) bool { return d.Task == tt.Task }) {
				tt.Task += "x"
			}
			dir = append(dir, tt)
			ch.Added = []*trace.TaskTrace{tt}
			history = append(history, "add "+tt.Task)
		case op <= 5: // a newer checkpoint or the final: same name, same start
			old := dir[at]
			tt := &trace.TaskTrace{Task: old.Task, StartNS: old.StartNS, EndNS: old.EndNS + 1}
			dir = slices.Clone(dir)
			dir[at] = tt
			ch = Change{Removed: []*trace.TaskTrace{old}, Added: []*trace.TaskTrace{tt}}
			history = append(history, "replace "+tt.Task)
		case op == 6: // a replacement whose start moved
			old := dir[at]
			tt := &trace.TaskTrace{Task: old.Task, StartNS: start()}
			dir = slices.Clone(dir)
			dir[at] = tt
			ch = Change{Removed: []*trace.TaskTrace{old}, Added: []*trace.TaskTrace{tt}}
			history = append(history, "move "+tt.Task)
		case op <= 8:
			old := dir[at]
			dir = slices.Delete(slices.Clone(dir), at, at+1)
			ch.Removed = []*trace.TaskTrace{old}
			history = append(history, "remove "+old.Task)
		case op == 9 && dupAt(dir) >= 0: // the second trace of a name leaves
			at = dupAt(dir)
			old := dir[at]
			dir = slices.Delete(slices.Clone(dir), at, at+1)
			ch.Removed = []*trace.TaskTrace{old}
			history = append(history, "remove duplicate "+old.Task)
		case op == 9: // a second trace under a name already taken
			tt := &trace.TaskTrace{Task: dir[at].Task, StartNS: start()}
			dir = append(slices.Clone(dir), tt)
			ch.Added = []*trace.TaskTrace{tt}
			history = append(history, "duplicate "+tt.Task)
		case op == 10: // several at once: two adds and a removal
			old := dir[at]
			dir = slices.Delete(slices.Clone(dir), at, at+1)
			ch.Removed = []*trace.TaskTrace{old}
			for k := 0; k < 2; k++ {
				serial++
				tt := &trace.TaskTrace{Task: fmt.Sprintf("u%03d", serial), StartNS: start()}
				dir = append(dir, tt)
				ch.Added = append(ch.Added, tt)
			}
			history = append(history, "batch")
		default: // a new manifest: a task order over some of the names
			nm = nil
			if c.intn(3) > 0 {
				nm = &trace.Manifest{Workflow: "taskset"}
				for _, tt := range dir {
					if c.intn(3) > 0 {
						nm.TaskOrder = append(nm.TaskOrder, tt.Task)
					}
				}
				for i := len(nm.TaskOrder) - 1; i > 0; i-- {
					j := c.intn(i + 1)
					nm.TaskOrder[i], nm.TaskOrder[j] = nm.TaskOrder[j], nm.TaskOrder[i]
				}
			}
			history = append(history, "manifest")
		}
		m = nm
		steps++
		if _, _, ok := set.Apply(ch, m); ok {
			applied++
		} else {
			set.Reset(dir, m)
		}

		want := slices.Clone(dir)
		sort.SliceStable(want, func(i, j int) bool { return want[i].Task < want[j].Task })
		if !slices.Equal(set.Traces(), want) {
			t.Fatalf("after %v the name order is %v, want %v", history, names(set.Traces()), names(want))
		}
		if got, want := set.Ordered(), OrderTasks(want, m); !slices.Equal(got, want) {
			t.Fatalf("after %v the task order is %v, want %v", history, names(got), names(want))
		}
		if !slices.Equal(prevNames, prevNamesCopy) || !slices.Equal(prevOrder, prevOrderCopy) {
			t.Fatalf("after %v an order the set returned the step before changed", history)
		}
		prevNames, prevOrder = set.Traces(), set.Ordered()
		prevNamesCopy, prevOrderCopy = slices.Clone(prevNames), slices.Clone(prevOrder)
	}
	return steps, applied
}

// dupAt is the position of a trace whose name an earlier one holds, or
// -1.
func dupAt(dir []*trace.TaskTrace) int {
	seen := map[string]bool{}
	for i, tt := range dir {
		if seen[tt.Task] {
			return i
		}
		seen[tt.Task] = true
	}
	return -1
}

func names(traces []*trace.TaskTrace) []string {
	out := make([]string, len(traces))
	for i, tt := range traces {
		out[i] = fmt.Sprintf("%s@%d", tt.Task, tt.StartNS)
	}
	return out
}

// TestTaskSetMatchesSort is the differential gate for the incremental
// orders, over seeded edit sequences; most steps must apply without a
// reset, or the gate tests the fallback alone.
func TestTaskSetMatchesSort(t *testing.T) {
	steps, applied := 0, 0
	for seed := int64(1); seed <= 60; seed++ {
		n, a := checkTaskSetAgainstSort(t, &randChooser{rng: rand.New(rand.NewSource(seed)), steps: 80})
		steps, applied = steps+n, applied+a
	}
	if applied < steps/2 {
		t.Errorf("only %d of %d steps applied without a reset", applied, steps)
	}
}

func FuzzTaskSetOrder(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte("\x00\x01\x00\x02\x04\x01\x07\x03\x09\x00\x0b\x02\x01\x06\x05"))
	rng := rand.New(rand.NewSource(11))
	for i := 0; i < 4; i++ {
		seed := make([]byte, 400)
		rng.Read(seed)
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		checkTaskSetAgainstSort(t, &byteChooser{data: data})
	})
}

// TestTaskSetApplySortsNothing: under an unchanged manifest, adding,
// replacing or removing one task passes no trace through a sort,
// whatever the set's size.
func TestTaskSetApplySortsNothing(t *testing.T) {
	for _, n := range []int{10, 1000} {
		traces, m := syntheticTraces(n)
		var set TaskSet
		if sorted := set.Reset(traces, m); sorted == 0 {
			t.Fatal("a reset sorted nothing")
		}
		last := traces[n-1]
		next := *last
		extra := &trace.TaskTrace{Task: "zz_inflight", StartNS: 1}
		for _, ch := range []Change{
			{Added: []*trace.TaskTrace{extra}},
			{Removed: []*trace.TaskTrace{last}, Added: []*trace.TaskTrace{&next}},
			{Removed: []*trace.TaskTrace{extra}},
		} {
			_, sorted, ok := set.Apply(ch, m)
			if !ok || sorted != 0 {
				t.Fatalf("%d tasks: Apply(%d removed, %d added) = (%d sorted, %v), want (0, true)", n, len(ch.Removed), len(ch.Added), sorted, ok)
			}
		}
		if !slices.Equal(set.Ordered(), OrderTasks(set.Traces(), m)) {
			t.Fatalf("%d tasks: the task order is not OrderTasks'", n)
		}
	}
}

// setChange is the edit from one trace list to another, by pointer.
func setChange(from, to []*trace.TaskTrace) Change {
	var ch Change
	for _, tt := range from {
		if !slices.Contains(to, tt) {
			ch.Removed = append(ch.Removed, tt)
		}
	}
	for _, tt := range to {
		if !slices.Contains(from, tt) {
			ch.Added = append(ch.Added, tt)
		}
	}
	return ch
}

// TestGraphIndexChunksMatchFreshBuild edits a set large enough for the
// graph index's chunks to split and empty — inserts at the front, in
// the middle and at the end, removals and replacements — and holds each
// Apply to the batch builders, and the graphs of the step before to
// their bytes.
func TestGraphIndexChunksMatchFreshBuild(t *testing.T) {
	traces, _ := syntheticTraces(240)
	rng := rand.New(rand.NewSource(5))
	var set TaskSet
	set.Reset(traces, nil)
	ix := NewGraphIndex(Options{}, nil)
	ix.Apply(set.Ordered(), nil, Change{})
	var prev []*graph.Graph
	var prevBytes []string
	serial := 0
	for step := 0; step < 150; step++ {
		cur := set.Traces()
		var ch Change
		op := rng.Intn(4)
		if step >= 110 {
			op = 4 // a run of tasks that start together: one node gathers occurrences
		}
		switch op {
		case 0, 1, 4: // a new task anywhere in the order, by start time
			serial++
			tt := *cur[rng.Intn(len(cur))]
			tt.Task = fmt.Sprintf("new_%03d", serial)
			tt.StartNS = int64(rng.Intn(250_000))
			if op == 4 {
				tt = *traces[0]
				tt.Task, tt.StartNS = fmt.Sprintf("run_%03d", serial), 123_456
			}
			ch.Added = []*trace.TaskTrace{&tt}
		case 2:
			ch.Removed = []*trace.TaskTrace{cur[rng.Intn(len(cur))]}
		default:
			old := cur[rng.Intn(len(cur))]
			tt := *old
			tt.EndNS++
			ch = Change{Removed: []*trace.TaskTrace{old}, Added: []*trace.TaskTrace{&tt}}
		}
		ch, _, ok := set.Apply(ch, nil)
		if !ok {
			t.Fatalf("step %d: the set refused the edit", step)
		}
		gs := ix.Apply(set.Ordered(), nil, ch)
		if gs.Reused == 0 {
			t.Fatalf("step %d: the index rebuilt", step)
		}
		got := renderGraphs(t, gs.FTG, gs.SDG)
		want := renderGraphs(t, BuildFTG(set.Traces(), nil), BuildSDG(set.Traces(), nil, Options{}))
		if !slices.Equal(got, want) {
			t.Fatalf("step %d: the index's graphs differ from a fresh build", step)
		}
		if prev != nil && !slices.Equal(renderGraphs(t, prev...), prevBytes) {
			t.Fatalf("step %d: a graph of the step before changed", step)
		}
		prev, prevBytes = []*graph.Graph{gs.FTG, gs.SDG}, got
	}
	if len(ix.chunks) < 4 {
		t.Fatalf("the index ended in %d chunks; the test wants splits", len(ix.chunks))
	}
}
