package diagnose

import (
	"slices"
	"sort"
)

// runMax bounds a run of an emission list: an edit copies at most a
// run, and a view holds one header per run.
const runMax = 128

// runList is one emission list kept in runs, which views share: the
// runs a view holds are never written again, so an edit copies the run
// it changes (once per view) and leaves the others to every view
// since. gens stamps each run with the epoch it was copied in; a run of
// an older epoch is shared.
type runList struct {
	runs [][]*group
	gens []uint64
}

// own makes run r writable in epoch.
func (l *runList) own(r int, epoch uint64) {
	if l.gens[r] != epoch {
		l.runs[r] = slices.Grow(slices.Clone(l.runs[r]), 1)
		l.gens[r] = epoch
	}
}

// search is the first position whose group before reports false, as a
// run and an index in it; past the end it is the end of the last run.
func (l *runList) search(before func(g *group) bool) (r, i int) {
	r = sort.Search(len(l.runs), func(r int) bool { run := l.runs[r]; return !before(run[len(run)-1]) })
	if r == len(l.runs) {
		if r == 0 {
			return 0, 0
		}
		return r - 1, len(l.runs[r-1])
	}
	run := l.runs[r]
	return r, sort.Search(len(run), func(i int) bool { return !before(run[i]) })
}

// find is the position of g, at or after the first position whose
// group before reports false.
func (l *runList) find(g *group, before func(g *group) bool) (r, i int) {
	r, i = l.search(before)
	for l.runs[r][i] != g {
		if i++; i == len(l.runs[r]) {
			r, i = r+1, 0
		}
	}
	return r, i
}

func (l *runList) set(r, i int, g *group, epoch uint64) {
	l.own(r, epoch)
	l.runs[r][i] = g
}

func (l *runList) delete(r, i int, epoch uint64) {
	if len(l.runs[r]) == 1 {
		l.runs = slices.Delete(l.runs, r, r+1)
		l.gens = slices.Delete(l.gens, r, r+1)
		return
	}
	l.own(r, epoch)
	l.runs[r] = slices.Delete(l.runs[r], i, i+1)
}

func (l *runList) insert(r, i int, g *group, epoch uint64) {
	if len(l.runs) == 0 {
		l.runs, l.gens = append(l.runs, []*group{g}), append(l.gens, epoch)
		return
	}
	l.own(r, epoch)
	run := slices.Insert(l.runs[r], i, g)
	if len(run) <= runMax {
		l.runs[r] = run
		return
	}
	half := len(run) / 2
	l.runs[r] = run[:half:half]
	l.runs = slices.Insert(l.runs, r+1, slices.Clone(run[half:]))
	l.gens = slices.Insert(l.gens, r+1, epoch)
}

// reset makes the list groups, cut into runs of half the maximum.
func (l *runList) reset(groups []*group, epoch uint64) {
	l.runs, l.gens = l.runs[:0], l.gens[:0]
	for len(groups) > 0 {
		n := min(len(groups), runMax/2)
		l.runs = append(l.runs, groups[:n:n])
		l.gens = append(l.gens, epoch)
		groups = groups[n:]
	}
}
