package diagnose

import (
	"math/rand"
	"slices"
	"testing"
)

// TestRunListMatchesFlat drives a run list through random inserts,
// replacements and deletions by position — enough to split runs and
// empty them — against a flat slice, publishing now and then: the runs
// always concatenate to the flat list, and every published set of runs
// still reads as it did.
func TestRunListMatchesFlat(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	var l runList
	var flat []*group
	var epoch uint64
	type published struct{ runs, want [][]*group }
	var views []published
	concat := func(runs [][]*group) []*group {
		var out []*group
		for _, run := range runs {
			if len(run) == 0 {
				t.Fatal("an empty run")
			}
			out = append(out, run...)
		}
		return out
	}
	// at finds flat position p as a run and an index in it.
	at := func(p int) (r, i int) {
		for r = range l.runs {
			if p <= len(l.runs[r]) && (p < len(l.runs[r]) || r == len(l.runs)-1) {
				return r, p
			}
			p -= len(l.runs[r])
		}
		return 0, 0
	}
	for step := 0; step < 20000; step++ {
		switch op := rng.Intn(10); {
		case op < 5 || len(flat) == 0:
			p := rng.Intn(len(flat) + 1)
			g := &group{}
			r, i := at(p)
			l.insert(r, i, g, epoch)
			flat = slices.Insert(flat, p, g)
		case op < 7:
			p := rng.Intn(len(flat))
			g := &group{}
			r, i := at(p)
			l.set(r, i, g, epoch)
			flat[p] = g
		default:
			p := rng.Intn(len(flat))
			r, i := at(p)
			l.delete(r, i, epoch)
			flat = slices.Delete(flat, p, p+1)
		}
		if got := concat(l.runs); !slices.Equal(got, flat) {
			t.Fatalf("step %d: the runs hold %d groups, the flat list %d, or another order", step, len(got), len(flat))
		}
		if rng.Intn(50) == 0 {
			runs := slices.Clone(l.runs)
			want := make([][]*group, len(runs))
			for k, run := range runs {
				want[k] = slices.Clone(run)
			}
			views = append(views, published{runs, want})
			epoch++
		}
	}
	if len(l.runs) < 4 {
		t.Fatalf("the list ended in %d runs; the test wants splits", len(l.runs))
	}
	for k, v := range views {
		for r := range v.runs {
			if !slices.Equal(v.runs[r], v.want[r]) {
				t.Fatalf("published view %d: run %d changed", k, r)
			}
		}
	}
}
