package analyzer

import (
	"reflect"
	"testing"
)

func countOccurrences(contribs []Contribution) (nodes, edges int) {
	for i := range contribs {
		nodes += len(contribs[i].nodes)
		edges += len(contribs[i].edges)
	}
	return nodes, edges
}

// TestBuildersEndToEndAcrossParallelism drives the full public
// builders across parallelism settings on colliding-key synthetic
// traces, covering arena dispatch plus merge plus decoration in one
// pass. (TestSerialParallelEquivalence covers this too; this variant
// adds the region/metadata options and odd parallelism values.)
func TestBuildersEndToEndAcrossParallelism(t *testing.T) {
	traces, m := syntheticTraces(130)
	opts := Options{IncludeRegions: true, IncludeFileMetadata: true}
	serialFTG := renderAll(t, BuildFTGOpts(traces, m, Options{Parallelism: 1}))
	serialOpts := opts
	serialOpts.Parallelism = 1
	serialSDG := renderAll(t, BuildSDG(traces, m, serialOpts))
	for _, par := range []int{2, 3, 5, 0} {
		ftgOpts := Options{Parallelism: par}
		if got := renderAll(t, BuildFTGOpts(traces, m, ftgOpts)); !reflect.DeepEqual(got, serialFTG) {
			t.Errorf("FTG parallelism %d diverges from serial", par)
		}
		sdgOpts := opts
		sdgOpts.Parallelism = par
		if got := renderAll(t, BuildSDG(traces, m, sdgOpts)); !reflect.DeepEqual(got, serialSDG) {
			t.Errorf("SDG parallelism %d diverges from serial", par)
		}
	}
}

// TestFTGMergeAllocBudget bounds the fold of contributions into a
// fresh graph. The graph is sized from the occurrence counts and edges
// are carved from slab chunks, so what is left per occurrence is the
// clone of each distinct node and the adjacency-index appends of each
// edge. An allocation per edge again, or maps growing by rehash, fails
// here instead of surfacing as a BENCH number.
func TestFTGMergeAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not stable under the race detector")
	}
	traces, m := syntheticTraces(64)
	ordered := OrderTasks(traces, m)
	contribs := make([]Contribution, len(ordered))
	for i, tt := range ordered {
		contribs[i] = FTGContribution(tt)
	}
	nodes, edges := countOccurrences(contribs)
	allocs := testing.AllocsPerRun(100, func() {
		mergeContributions("m", contribs)
	})
	t.Logf("%.1f allocs for %d node and %d edge occurrences", allocs, nodes, edges)
	budget := float64(nodes + 2*edges + 16)
	if allocs > budget {
		t.Errorf("merging %d FTG contributions allocates %.1f times per run, budget %.0f (%d node and %d edge occurrences)",
			len(contribs), allocs, budget, nodes, edges)
	}
}
