package analyzer

import (
	"sync"
	"sync/atomic"

	"dayu/internal/graph"
	"dayu/internal/trace"
)

// buildContributions computes one contribution per ordered trace, in
// task order. Workers — the caller and up to parallelism-1 goroutines —
// claim contiguous chunks off an atomic counter: small enough to
// balance uneven tasks, large enough that the claim is noise.
func buildContributions(ordered []*trace.TaskTrace, parallelism int, build func(*trace.TaskTrace) Contribution) []Contribution {
	out := make([]Contribution, len(ordered))
	chunk := min(max(len(ordered)/(parallelism*8), 1), 256)
	var next atomic.Int64
	work := func() {
		for {
			lo := int(next.Add(int64(chunk))) - chunk
			if lo >= len(ordered) {
				return
			}
			for i := lo; i < min(lo+chunk, len(ordered)); i++ {
				out[i] = build(ordered[i])
			}
		}
	}
	var wg sync.WaitGroup
	for w := 1; w < parallelism && w*chunk < len(ordered); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			work()
		}()
	}
	work()
	wg.Wait()
	return out
}

// mergeContributions folds contributions into a new graph in task
// order: the sequence of AddNode/AddEdge calls a build visiting the
// tasks one by one performs, into a graph sized from the occurrence
// counts. It is the analyzer's only graph assembly — batch builds and
// serve's batch and live views all end here — and serial on
// purpose: sharding it across workers measured 0.92x of this fold on
// two cores and allocated more (DESIGN.md, "Graph builders").
func mergeContributions(name string, contribs []Contribution) *graph.Graph {
	var nodes, edges int
	for i := range contribs {
		nodes += len(contribs[i].nodes)
		edges += len(contribs[i].edges)
	}
	g := graph.NewSized(name, nodes, edges)
	for i := range contribs {
		for _, n := range contribs[i].nodes {
			g.AddNode(n)
		}
		for _, e := range contribs[i].edges {
			if _, err := g.AddEdge(e); err != nil {
				// A contribution adds an edge's endpoints before the edge.
				panic(err)
			}
		}
	}
	return g
}
