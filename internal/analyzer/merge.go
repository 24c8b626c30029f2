package analyzer

import (
	"sync"
	"sync/atomic"

	"dayu/internal/graph"
	"dayu/internal/trace"
)

// buildContributions computes one contribution per ordered trace, in
// task order, on parallelism workers (forEach).
func buildContributions(ordered []*trace.TaskTrace, parallelism int, build func(*trace.TaskTrace) Contribution) []*Contribution {
	backing := make([]Contribution, len(ordered))
	out := make([]*Contribution, len(ordered))
	forEach(len(ordered), parallelism, func(i int) {
		backing[i] = build(ordered[i])
		out[i] = &backing[i]
	})
	return out
}

// forEach calls do for every index below n. Workers — the caller and up
// to parallelism-1 goroutines — claim contiguous chunks off an atomic
// counter: small enough to balance uneven tasks, large enough that the
// claim is noise.
func forEach(n, parallelism int, do func(i int)) {
	chunk := min(max(n/(parallelism*8), 1), 256)
	var next atomic.Int64
	work := func() {
		for {
			lo := int(next.Add(int64(chunk))) - chunk
			if lo >= n {
				return
			}
			for i := lo; i < min(lo+chunk, n); i++ {
				do(i)
			}
		}
	}
	var wg sync.WaitGroup
	for w := 1; w < parallelism && w*chunk < n; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			work()
		}()
	}
	work()
	wg.Wait()
}

// mergeContributions folds contributions into a new graph in task
// order: the sequence of AddNode/AddEdge calls a build visiting the
// tasks one by one performs, into a graph sized from the occurrence
// counts. It is the batch builders' fold — a GraphIndex keeps its
// result equal without running it (graphindex.go) — and serial on
// purpose: sharding it across workers measured 0.92x of this fold on
// two cores and allocated more (DESIGN.md, "Graph builders").
func mergeContributions(name string, contribs []*Contribution) *graph.Graph {
	var nodes, edges int
	for _, c := range contribs {
		nodes += len(c.nodes)
		edges += len(c.edges)
	}
	g := graph.NewSized(name, nodes, edges)
	for _, c := range contribs {
		for _, n := range c.nodes {
			g.AddNode(n)
		}
		for _, e := range c.edges {
			if _, err := g.AddEdge(e); err != nil {
				// A contribution adds an edge's endpoints before the edge.
				panic(err)
			}
		}
	}
	return g
}
