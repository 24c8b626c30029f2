// Package graph provides the typed multigraph underlying DaYu's
// File-Task Graphs and Semantic Dataflow Graphs, with DOT, SVG, HTML
// and JSON emission. Nodes carry event timing and volume so renderers
// can arrange them by start/end time and scale widths by data volume,
// as the paper's Figure 3 describes.
package graph

import (
	"fmt"
	"sort"
)

// Kind classifies nodes.
type Kind string

// Node kinds used by the analyzer.
const (
	KindFile    Kind = "file"
	KindTask    Kind = "task"
	KindDataset Kind = "dataset"
	KindRegion  Kind = "region" // file address region
	KindMeta    Kind = "meta"   // file-metadata pseudo-dataset
	KindStage   Kind = "stage"  // aggregated stage node
)

// Node is one graph vertex.
type Node struct {
	ID    string
	Kind  Kind
	Label string
	// StartNS and EndNS bound the node's activity; renderers arrange
	// nodes vertically by start and horizontally by end (Figure 3).
	StartNS int64
	EndNS   int64
	// Volume is the node's total data volume in bytes (drives size).
	Volume int64
	// Attrs carries free-form annotations shown in interactive output.
	Attrs map[string]string
}

// EdgeOp is the operation an edge represents.
type EdgeOp string

// Edge operations.
const (
	OpRead  EdgeOp = "read"
	OpWrite EdgeOp = "write"
	OpMap   EdgeOp = "map" // structural relation (dataset->region, etc.)
)

// Edge is one directed edge, decorated with the access statistics the
// paper attaches to FTG/SDG edges (volume, counts, bandwidth, metadata
// vs data split).
type Edge struct {
	From string
	To   string
	Op   EdgeOp
	// Volume is bytes moved; Bandwidth is bytes/second (drives color).
	Volume    int64
	Bandwidth float64
	// Operation counts split by class.
	Ops     int64
	MetaOps int64
	DataOps int64
	// AvgSize is the mean access size in bytes.
	AvgSize int64
	// Reused marks data-reuse edges (highlighted in the figures).
	Reused bool
	Attrs  map[string]string
}

// Graph is a directed multigraph with stable insertion order. Forward
// and reverse adjacency indexes are maintained on every AddEdge, so
// per-node edge queries cost O(deg) instead of scanning all edges;
// Edges() still reports global insertion order, and the per-node index
// slices preserve that order among a node's own edges.
type Graph struct {
	Name  string
	nodes map[string]*Node
	order []string
	edges []*Edge
	out   map[string][]*Edge
	in    map[string][]*Edge
	// slab is the chunk AddEdge carves edges from: one allocation per
	// chunk instead of one per edge. A chunk is never reallocated, so
	// the *Edge pointers into it stay valid.
	slab []Edge
}

// New returns an empty graph.
func New(name string) *Graph { return NewSized(name, 0, 0) }

// NewSized returns an empty graph with room for about the given number
// of nodes and edges, for builders that know the counts up front (the
// analyzer's merge sums them over its contributions).
func NewSized(name string, nodes, edges int) *Graph {
	return &Graph{
		Name:  name,
		nodes: make(map[string]*Node, nodes),
		order: make([]string, 0, nodes),
		edges: make([]*Edge, 0, edges),
		out:   make(map[string][]*Edge, nodes),
		in:    make(map[string][]*Edge, nodes),
	}
}

// maxEdgeChunk caps the slab's chunks, which otherwise double with the
// graph so that a three-edge graph does not pay for a large one's chunk.
const maxEdgeChunk = 512

// AddNode inserts or updates a node. Updating merges volume and widens
// the time window.
func (g *Graph) AddNode(n Node) *Node {
	if existing, ok := g.nodes[n.ID]; ok {
		existing.Volume += n.Volume
		if n.StartNS != 0 && (existing.StartNS == 0 || n.StartNS < existing.StartNS) {
			existing.StartNS = n.StartNS
		}
		if n.EndNS > existing.EndNS {
			existing.EndNS = n.EndNS
		}
		for k, v := range n.Attrs {
			if existing.Attrs == nil {
				existing.Attrs = map[string]string{}
			}
			existing.Attrs[k] = v
		}
		return existing
	}
	cp := n
	// Clone the attribute map so the graph never aliases caller-owned
	// state: contributions cached across incremental rebuilds must not
	// be mutated when a later AddNode merges attrs into this node.
	if n.Attrs != nil {
		cp.Attrs = make(map[string]string, len(n.Attrs))
		for k, v := range n.Attrs {
			cp.Attrs[k] = v
		}
	}
	g.nodes[n.ID] = &cp
	g.order = append(g.order, n.ID)
	return &cp
}

// Node returns a node by ID, or nil.
func (g *Graph) Node(id string) *Node { return g.nodes[id] }

// Nodes returns all nodes in insertion order.
func (g *Graph) Nodes() []*Node {
	out := make([]*Node, len(g.order))
	for i, id := range g.order {
		out[i] = g.nodes[id]
	}
	return out
}

// NodesOfKind returns nodes of one kind in insertion order.
func (g *Graph) NodesOfKind(k Kind) []*Node {
	var out []*Node
	for _, id := range g.order {
		if n := g.nodes[id]; n.Kind == k {
			out = append(out, n)
		}
	}
	return out
}

// AddEdge appends an edge; endpoints must exist.
func (g *Graph) AddEdge(e Edge) (*Edge, error) {
	if g.nodes[e.From] == nil {
		return nil, fmt.Errorf("graph: edge from unknown node %q", e.From)
	}
	if g.nodes[e.To] == nil {
		return nil, fmt.Errorf("graph: edge to unknown node %q", e.To)
	}
	if len(g.slab) == cap(g.slab) {
		g.slab = make([]Edge, 0, min(max(len(g.edges), 4), maxEdgeChunk))
	}
	g.slab = append(g.slab, e)
	cp := &g.slab[len(g.slab)-1]
	if e.Attrs != nil {
		cp.Attrs = make(map[string]string, len(e.Attrs))
		for k, v := range e.Attrs {
			cp.Attrs[k] = v
		}
	}
	g.edges = append(g.edges, cp)
	g.out[cp.From] = append(g.out[cp.From], cp)
	g.in[cp.To] = append(g.in[cp.To], cp)
	return cp, nil
}

// Edges returns all edges in insertion order.
func (g *Graph) Edges() []*Edge { return g.edges }

// OutEdges returns edges leaving the node in insertion order. The
// returned slice is the graph's index; callers must not append to or
// reorder it.
func (g *Graph) OutEdges(id string) []*Edge { return g.out[id] }

// InEdges returns edges entering the node in insertion order. The
// returned slice is the graph's index; callers must not append to or
// reorder it.
func (g *Graph) InEdges(id string) []*Edge { return g.in[id] }

// OutDegree counts distinct successors of the node.
func (g *Graph) OutDegree(id string) int {
	seen := map[string]bool{}
	for _, e := range g.out[id] {
		seen[e.To] = true
	}
	return len(seen)
}

// NumNodes and NumEdges report graph size.
func (g *Graph) NumNodes() int { return len(g.order) }

// NumEdges reports the edge count.
func (g *Graph) NumEdges() int { return len(g.edges) }

// Ranks computes a longest-path topological rank for each node (cycles
// are broken by insertion order), used for layered rendering.
func (g *Graph) Ranks() map[string]int {
	ranks := make(map[string]int, len(g.order))
	// Kahn-style longest path; fall back gracefully on cycles.
	indeg := map[string]int{}
	for _, e := range g.edges {
		if e.From == e.To {
			continue
		}
		indeg[e.To]++
	}
	var queue []string
	for _, id := range g.order {
		if indeg[id] == 0 {
			queue = append(queue, id)
		}
	}
	processed := 0
	for len(queue) > 0 {
		id := queue[0]
		queue = queue[1:]
		processed++
		for _, e := range g.out[id] {
			if e.From == e.To {
				continue
			}
			next := e.To
			if r := ranks[id] + 1; r > ranks[next] {
				ranks[next] = r
			}
			indeg[next]--
			if indeg[next] == 0 {
				queue = append(queue, next)
			}
		}
	}
	if processed < len(g.order) {
		// Cycle: give remaining nodes their current best rank.
		for _, id := range g.order {
			if _, ok := ranks[id]; !ok {
				ranks[id] = 0
			}
		}
	}
	return ranks
}

// TotalVolume sums edge volumes.
func (g *Graph) TotalVolume() int64 {
	var v int64
	for _, e := range g.edges {
		v += e.Volume
	}
	return v
}

// Filter returns the subgraph induced by the nodes keep accepts: kept
// nodes plus every edge whose two endpoints were kept.
func (g *Graph) Filter(name string, keep func(*Node) bool) *Graph {
	out := New(name)
	for _, n := range g.Nodes() {
		if keep(n) {
			out.AddNode(*n)
		}
	}
	for _, e := range g.edges {
		if out.Node(e.From) != nil && out.Node(e.To) != nil {
			if _, err := out.AddEdge(*e); err != nil {
				panic(err) // endpoints verified above
			}
		}
	}
	return out
}

// Neighborhood returns the subgraph of the given node plus everything
// within the given number of hops (edges treated as undirected).
func (g *Graph) Neighborhood(name, center string, hops int) *Graph {
	dist := map[string]int{center: 0}
	frontier := []string{center}
	for d := 0; d < hops; d++ {
		var next []string
		visit := func(other string) {
			if _, seen := dist[other]; !seen {
				dist[other] = d + 1
				next = append(next, other)
			}
		}
		for _, id := range frontier {
			for _, e := range g.out[id] {
				visit(e.To)
			}
			for _, e := range g.in[id] {
				visit(e.From)
			}
		}
		frontier = next
	}
	return g.Filter(name, func(n *Node) bool {
		_, ok := dist[n.ID]
		return ok
	})
}

// SortedNodeIDs returns node IDs sorted lexically (for deterministic
// reports).
func (g *Graph) SortedNodeIDs() []string {
	ids := append([]string(nil), g.order...)
	sort.Strings(ids)
	return ids
}
