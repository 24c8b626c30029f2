package analyzer

import (
	"slices"

	"dayu/internal/graph"
)

// Contribution is one task's share of a graph: the nodes and edges a
// build visiting the tasks one by one adds while at that task, in the
// order it adds them. A contribution is never changed once built, so a
// GraphIndex and its peer may hold the same one.
type Contribution struct {
	nodes []graph.Node
	edges []graph.Edge
}

func (c *Contribution) addNode(n graph.Node) { c.nodes = append(c.nodes, n) }
func (c *Contribution) addEdge(e graph.Edge) { c.edges = append(c.edges, e) }

// shape is what tells the two graphs apart once the contributions are
// built: the name, and the node kinds whose read edges markReuse flags.
type shape struct {
	name  string
	reuse []graph.Kind
}

var (
	ftgShape = &shape{name: "File-Task Graph", reuse: []graph.Kind{graph.KindFile}}
	sdgShape = &shape{name: "Semantic Dataflow Graph", reuse: []graph.Kind{graph.KindFile, graph.KindDataset}}
)

// fold assembles the graph from per-task contributions in task order
// (see OrderTasks) and applies the decoration pass: the batch build.
func (s *shape) fold(contribs []*Contribution) *graph.Graph {
	g := mergeContributions(s.name, contribs)
	markReuse(g, s.reuse)
	return g
}

// flags reports whether markReuse flags the read edges of a node of
// kind k once two distinct tasks read it.
func (s *shape) flags(k graph.Kind) bool { return slices.Contains(s.reuse, k) }
