package analyzer

import (
	"cmp"
	"slices"
	"strings"

	"dayu/internal/trace"
)

// TaskSet is a trace set kept in both of its orders as it changes: the
// name order trace.LoadDir gives (a stable sort by task name over
// directory order) and the task order OrderTasks gives over it
// (manifest rank, then StartNS, stable over the name order). An edit
// costs what it changed: each removed trace is found by binary search
// and each added one placed by binary search, in both orders, and the
// new orders are copies of the old ones spliced at those positions —
// a pointer copy, no comparison per task. The orders a TaskSet hands
// out are never written again, so a published snapshot keeps them.
//
// With unique task names the task order is a sort by (rank or StartNS,
// name), which is what makes a binary-search position OrderTasks'
// position. Two tasks under one name are ordered by the directory,
// which the set does not know: Apply then refuses and the caller
// resets the set from a directory-ordered list. That and a new manifest
// are the only edits that sort the whole set.
//
// A TaskSet is not safe for concurrent use; the orders it returns are.
type TaskSet struct {
	manifest *trace.Manifest
	// rank is the manifest's TaskOrder rank of each name (the last
	// listing wins, as in OrderTasks), nil without one.
	rank    map[string]int
	byName  []*trace.TaskTrace
	ordered []*trace.TaskTrace
	dups    bool // two traces share a task name
}

// Change is one edit of a trace set, in the traces' own terms: the
// traces that left it and the ones that joined it. A task whose trace
// was replaced (a newer checkpoint, its final) is one of each. Traces
// are immutable and compared by pointer.
type Change struct {
	Removed, Added []*trace.TaskTrace
	// At is, when known, where each of Added sits in the new task
	// order, ascending: TaskSet.Apply returns the change with At filled
	// in, and an index told it edits its task list by position, with no
	// pass over the tasks that stay. Without it an index builds from
	// empty.
	At []int
}

// Traces is the set in trace.LoadDir order.
func (s *TaskSet) Traces() []*trace.TaskTrace { return s.byName }

// Ordered is the set in OrderTasks order.
func (s *TaskSet) Ordered() []*trace.TaskTrace { return s.ordered }

// Manifest is the manifest the task order is under.
func (s *TaskSet) Manifest() *trace.Manifest { return s.manifest }

// Reset makes the set traces, given in directory order, under manifest
// m: the fallback, which sorts. It returns the number of traces it
// passed through a sort.
func (s *TaskSet) Reset(traces []*trace.TaskTrace, m *trace.Manifest) (sorted int) {
	byName := slices.Clone(traces)
	slices.SortStableFunc(byName, compareNames)
	s.dups = false
	for i := 1; i < len(byName); i++ {
		if byName[i].Task == byName[i-1].Task {
			s.dups = true
			break
		}
	}
	s.byName = byName
	s.setManifest(m)
	s.ordered = OrderTasks(byName, m)
	return 2 * len(byName)
}

// Apply edits the set by ch under manifest m and returns the change
// as applied: Added in task order, with At. Under the set's manifest it
// sorts nothing but ch.Added, when there are several; under a new one
// it re-sorts the task order, as OrderTasks does (and At stays nil). It
// reports false, leaving the set as it was, when the set holds or would
// hold two traces under one name, or when a removed trace is not in the
// set: the caller then resets it. sorted counts the traces it passed
// through a sort.
func (s *TaskSet) Apply(ch Change, m *trace.Manifest) (applied Change, sorted int, ok bool) {
	applied = Change{Removed: ch.Removed, Added: ch.Added}
	if s.dups {
		return applied, 0, false
	}
	if len(ch.Removed) == 0 && len(ch.Added) == 0 && m == s.manifest {
		applied.At = []int{}
		return applied, 0, true
	}
	added := ch.Added
	if len(added) > 1 {
		added = slices.Clone(added)
		slices.SortFunc(added, compareNames)
		sorted += len(added)
	}
	gone, ok := positions(s.byName, ch.Removed, compareNames)
	if !ok {
		return applied, sorted, false
	}
	byName, at := splice(s.byName, gone, added, compareNames)
	for _, i := range at {
		if i > 0 && byName[i-1].Task == byName[i].Task || i+1 < len(byName) && byName[i+1].Task == byName[i].Task {
			return applied, sorted, false
		}
	}

	var ordered []*trace.TaskTrace
	if m != s.manifest {
		s.setManifest(m)
		ordered = OrderTasks(byName, m)
		sorted += len(byName)
	} else {
		if len(added) > 1 {
			slices.SortFunc(added, s.compareOrder)
			sorted += len(added)
		}
		if gone, ok = positions(s.ordered, ch.Removed, s.compareOrder); !ok {
			return applied, sorted, false
		}
		ordered, applied.At = splice(s.ordered, gone, added, s.compareOrder)
		applied.Added = added
	}
	s.byName, s.ordered = byName, ordered
	return applied, sorted, true
}

func (s *TaskSet) setManifest(m *trace.Manifest) {
	s.manifest, s.rank = m, nil
	if m != nil && len(m.TaskOrder) > 0 {
		s.rank = make(map[string]int, len(m.TaskOrder))
		for i, t := range m.TaskOrder {
			s.rank[t] = i
		}
	}
}

// compareNames is the name order's comparison.
func compareNames(a, b *trace.TaskTrace) int { return strings.Compare(a.Task, b.Task) }

// compareOrder is the task order's comparison for unique names:
// OrderTasks' key, then the name its stable sort falls back on.
func (s *TaskSet) compareOrder(a, b *trace.TaskTrace) int {
	if s.rank != nil {
		ra, oka := s.rank[a.Task]
		rb, okb := s.rank[b.Task]
		switch {
		case oka && okb:
			if c := cmp.Compare(ra, rb); c != 0 {
				return c
			}
			return compareNames(a, b)
		case oka:
			return -1
		case okb:
			return 1
		}
	}
	if c := cmp.Compare(a.StartNS, b.StartNS); c != 0 {
		return c
	}
	return compareNames(a, b)
}

// positions finds each of traces in sorted by binary search and returns
// the positions, ascending; ok is false when one is missing.
func positions(sorted, traces []*trace.TaskTrace, compare func(a, b *trace.TaskTrace) int) (at []int, ok bool) {
	at = make([]int, 0, len(traces))
	for _, tt := range traces {
		i, _ := slices.BinarySearchFunc(sorted, tt, compare)
		for i < len(sorted) && sorted[i] != tt && compare(sorted[i], tt) == 0 {
			i++
		}
		if i == len(sorted) || sorted[i] != tt {
			return nil, false
		}
		at = append(at, i)
	}
	slices.Sort(at)
	for k := 1; k < len(at); k++ {
		if at[k] == at[k-1] {
			return nil, false // removed twice
		}
	}
	return at, true
}

// splice returns a copy of sorted without the elements at the
// positions gone (ascending, distinct) and with ins, sorted by compare,
// each placed after the elements compare does not put after it, and the
// positions the inserted elements took. Between those positions it
// copies runs of pointers.
func splice(sorted []*trace.TaskTrace, gone []int, ins []*trace.TaskTrace, compare func(a, b *trace.TaskTrace) int) (out []*trace.TaskTrace, at []int) {
	out = make([]*trace.TaskTrace, 0, len(sorted)-len(gone)+len(ins))
	at = make([]int, 0, len(ins))
	i, g := 0, 0
	for _, tt := range ins {
		// The first element compare puts after tt, searched from i: the
		// inserts are sorted, so no earlier position can qualify.
		p, _ := slices.BinarySearchFunc(sorted[i:], tt, func(e, t *trace.TaskTrace) int {
			if compare(e, t) <= 0 {
				return -1
			}
			return 1
		})
		p += i
		for g < len(gone) && gone[g] < p {
			out = append(out, sorted[i:gone[g]]...)
			i = gone[g] + 1
			g++
		}
		out = append(out, sorted[i:p]...)
		i = p
		at = append(at, len(out))
		out = append(out, tt)
	}
	for ; g < len(gone); g++ {
		out = append(out, sorted[i:gone[g]]...)
		i = gone[g] + 1
	}
	return append(out, sorted[i:]...), at
}

// EditList edits an index's task list, *tasks, by ch, which made the
// indexed set ordered: the leaving tasks, at positions gone, go, and a
// zero T marks where each added trace goes, at ch.At. It checks only
// the added places. Only the tasks at positions from up to to may
// differ from the old list's, and the task at to may have a new
// predecessor. From empty every task is added, wherever ch says. ok is
// false, the list untouched, when ch does not say where or ordered is
// not the edit: the index then builds from empty.
func EditList[T any](tasks *[]T, ordered []*trace.TaskTrace, ch Change, gone []int, indexed func(*trace.TaskTrace) bool) (from, to int, ok bool) {
	if len(*tasks) == 0 && len(gone) == 0 {
		*tasks = make([]T, len(ordered))
		return 0, len(ordered), true
	}
	if ch.At == nil || len(ch.At) != len(ch.Added) || len(*tasks)-len(gone)+len(ch.Added) != len(ordered) {
		return 0, 0, false
	}
	for k, at := range ch.At {
		if ordered[at] != ch.Added[k] || indexed(ch.Added[k]) {
			return 0, 0, false
		}
	}
	slices.Sort(gone)
	from, to = len(ordered), len(ordered)
	if len(gone) > 0 {
		from = gone[0]
	}
	if len(ch.At) > 0 {
		from = min(from, ch.At[0])
	}
	var zero T
	next := *tasks
	if slices.Equal(gone, ch.At) {
		// Replacements in place: nothing moves.
		for _, at := range gone {
			next[at] = zero
		}
		if len(gone) > 0 {
			to = min(len(next), gone[len(gone)-1]+2)
		}
		return from, to, true
	}
	for k := len(gone) - 1; k >= 0; k-- {
		next = slices.Delete(next, gone[k], gone[k]+1)
	}
	for _, at := range ch.At {
		next = slices.Insert(next, at, zero)
	}
	*tasks = next
	return from, to, true
}
