// Package graph provides the typed multigraph underlying DaYu's
// File-Task Graphs and Semantic Dataflow Graphs, with DOT, SVG, HTML
// and JSON emission. Nodes carry event timing and volume so renderers
// can arrange them by start/end time and scale widths by data volume,
// as the paper's Figure 3 describes.
package graph

import (
	"fmt"
	"sort"
	"sync"
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

// Graph is a directed multigraph with stable insertion order. Nodes()
// and Edges() report insertion order; the lookup by ID and the forward
// and reverse adjacency (Node, OutEdges, InEdges, Ranks) come from an
// index that AddNode and AddEdge keep as they go, so per-node edge
// queries cost O(deg), and whose per-node slices preserve the global
// order among a node's own edges. A graph Assemble makes whole builds
// that index on its first lookup instead: the renderers other than SVG
// and HTML walk the two lists and never need it.
type Graph struct {
	Name string
	// The node and edge lists in insertion order, each held as runs:
	// one run for a graph AddNode and AddEdge build, the runs it was
	// given for a graph Assemble makes.
	nodes          [][]*Node
	edges          [][]*Edge
	nNodes, nEdges int

	ixOnce sync.Once
	ix     *lookup
	// slab is the chunk AddEdge carves edges from: one allocation per
	// chunk instead of one per edge. A chunk is never reallocated, so
	// the *Edge pointers into it stay valid.
	slab []Edge
}

// lookup is a graph's index by node ID.
type lookup struct {
	byID    map[string]*Node
	out, in map[string][]*Edge
}

func newLookup(nodes, edges int) *lookup {
	return &lookup{
		byID: make(map[string]*Node, nodes),
		out:  make(map[string][]*Edge, nodes),
		in:   make(map[string][]*Edge, nodes),
	}
}

func (ix *lookup) addEdge(e *Edge) {
	ix.out[e.From] = append(ix.out[e.From], e)
	ix.in[e.To] = append(ix.in[e.To], e)
}

// index returns the graph's lookup, building it from the node and edge
// lists the first time a graph without one is asked. Safe for
// concurrent readers.
func (g *Graph) index() *lookup {
	g.ixOnce.Do(func() {
		if g.ix != nil {
			return
		}
		ix := newLookup(g.nNodes, g.nEdges)
		for _, run := range g.nodes {
			for _, n := range run {
				ix.byID[n.ID] = n
			}
		}
		for _, run := range g.edges {
			for _, e := range run {
				ix.addEdge(e)
			}
		}
		g.ix = ix
	})
	return g.ix
}

// New returns an empty graph.
func New(name string) *Graph { return NewSized(name, 0, 0) }

// NewSized returns an empty graph with room for about the given number
// of nodes and edges, for builders that know the counts up front (the
// analyzer's merge sums them over its contributions).
func NewSized(name string, nodes, edges int) *Graph {
	g := &Graph{
		Name:  name,
		nodes: [][]*Node{make([]*Node, 0, nodes)},
		edges: [][]*Edge{make([]*Edge, 0, edges)},
		ix:    newLookup(nodes, edges),
	}
	g.index() // marks the index built
	return g
}

// Assemble returns the graph whose node and edge lists, in insertion
// order, are the concatenations of the given runs, with the lookup by
// ID built on first use. The graph keeps the runs: neither the slices
// nor the values they point to may change afterwards, and other graphs
// may share them. Node IDs must be distinct and every edge's endpoints
// among the nodes.
func Assemble(name string, nodes [][]*Node, edges [][]*Edge) *Graph {
	g := &Graph{Name: name, nodes: nodes, edges: edges}
	for _, run := range nodes {
		g.nNodes += len(run)
	}
	for _, run := range edges {
		g.nEdges += len(run)
	}
	return g
}

// maxEdgeChunk caps the slab's chunks, which otherwise double with the
// graph so that a three-edge graph does not pay for a large one's chunk.
const maxEdgeChunk = 512

// Clone returns a copy of n that shares no attribute map with it: what
// AddNode stores for the first occurrence of an ID.
func (n Node) Clone() *Node {
	// Clone the attribute map so the graph never aliases caller-owned
	// state: contributions cached across incremental rebuilds must not
	// be mutated when a later Merge folds attrs into this node.
	if n.Attrs != nil {
		attrs := make(map[string]string, len(n.Attrs))
		for k, v := range n.Attrs {
			attrs[k] = v
		}
		n.Attrs = attrs
	}
	return &n
}

// Merge folds a later occurrence o of the same node into n, as AddNode
// does for an ID already present: volumes add, the time window widens
// (a zero start is unknown, not early) and o's attributes overwrite.
func (n *Node) Merge(o *Node) {
	n.Volume += o.Volume
	if o.StartNS != 0 && (n.StartNS == 0 || o.StartNS < n.StartNS) {
		n.StartNS = o.StartNS
	}
	if o.EndNS > n.EndNS {
		n.EndNS = o.EndNS
	}
	for k, v := range o.Attrs {
		if n.Attrs == nil {
			n.Attrs = map[string]string{}
		}
		n.Attrs[k] = v
	}
}

// AddNode inserts or updates a node. Updating merges volume and widens
// the time window (Merge).
func (g *Graph) AddNode(n Node) *Node {
	ix := g.index()
	if existing, ok := ix.byID[n.ID]; ok {
		existing.Merge(&n)
		return existing
	}
	cp := n.Clone()
	ix.byID[n.ID] = cp
	if len(g.nodes) == 0 {
		g.nodes = [][]*Node{nil}
	}
	last := len(g.nodes) - 1
	g.nodes[last] = append(g.nodes[last], cp)
	g.nNodes++
	return cp
}

// Node returns a node by ID, or nil.
func (g *Graph) Node(id string) *Node { return g.index().byID[id] }

// Nodes returns all nodes in insertion order.
func (g *Graph) Nodes() []*Node {
	out := make([]*Node, 0, g.nNodes)
	for _, run := range g.nodes {
		out = append(out, run...)
	}
	return out
}

// NodesOfKind returns nodes of one kind in insertion order.
func (g *Graph) NodesOfKind(k Kind) []*Node {
	var out []*Node
	for _, run := range g.nodes {
		for _, n := range run {
			if n.Kind == k {
				out = append(out, n)
			}
		}
	}
	return out
}

// AddEdge appends an edge; endpoints must exist.
func (g *Graph) AddEdge(e Edge) (*Edge, error) {
	ix := g.index()
	if ix.byID[e.From] == nil {
		return nil, fmt.Errorf("graph: edge from unknown node %q", e.From)
	}
	if ix.byID[e.To] == nil {
		return nil, fmt.Errorf("graph: edge to unknown node %q", e.To)
	}
	if len(g.slab) == cap(g.slab) {
		g.slab = make([]Edge, 0, min(max(g.nEdges, 4), maxEdgeChunk))
	}
	g.slab = append(g.slab, e)
	cp := &g.slab[len(g.slab)-1]
	if e.Attrs != nil {
		cp.Attrs = make(map[string]string, len(e.Attrs))
		for k, v := range e.Attrs {
			cp.Attrs[k] = v
		}
	}
	if len(g.edges) == 0 {
		g.edges = [][]*Edge{nil}
	}
	last := len(g.edges) - 1
	g.edges[last] = append(g.edges[last], cp)
	g.nEdges++
	ix.addEdge(cp)
	return cp, nil
}

// Edges returns all edges in insertion order. The returned slice may be
// the graph's own; callers must not append to or reorder it.
func (g *Graph) Edges() []*Edge {
	if len(g.edges) == 1 {
		return g.edges[0]
	}
	if g.edges == nil {
		return nil
	}
	out := make([]*Edge, 0, g.nEdges)
	for _, run := range g.edges {
		out = append(out, run...)
	}
	return out
}

// OutEdges returns edges leaving the node in insertion order. The
// returned slice is the graph's index; callers must not append to or
// reorder it.
func (g *Graph) OutEdges(id string) []*Edge { return g.index().out[id] }

// InEdges returns edges entering the node in insertion order. The
// returned slice is the graph's index; callers must not append to or
// reorder it.
func (g *Graph) InEdges(id string) []*Edge { return g.index().in[id] }

// OutDegree counts distinct successors of the node.
func (g *Graph) OutDegree(id string) int {
	seen := map[string]bool{}
	for _, e := range g.OutEdges(id) {
		seen[e.To] = true
	}
	return len(seen)
}

// NumNodes and NumEdges report graph size.
func (g *Graph) NumNodes() int { return g.nNodes }

// NumEdges reports the edge count.
func (g *Graph) NumEdges() int { return g.nEdges }

// Ranks computes a longest-path topological rank for each node (cycles
// are broken by insertion order), used for layered rendering.
func (g *Graph) Ranks() map[string]int {
	out := g.index().out
	nodes := g.Nodes()
	ranks := make(map[string]int, len(nodes))
	// Kahn-style longest path; fall back gracefully on cycles.
	indeg := map[string]int{}
	for _, run := range g.edges {
		for _, e := range run {
			if e.From == e.To {
				continue
			}
			indeg[e.To]++
		}
	}
	var queue []string
	for _, n := range nodes {
		if indeg[n.ID] == 0 {
			queue = append(queue, n.ID)
		}
	}
	processed := 0
	for len(queue) > 0 {
		id := queue[0]
		queue = queue[1:]
		processed++
		for _, e := range out[id] {
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
	if processed < len(nodes) {
		// Cycle: give remaining nodes their current best rank.
		for _, n := range nodes {
			if _, ok := ranks[n.ID]; !ok {
				ranks[n.ID] = 0
			}
		}
	}
	return ranks
}

// TotalVolume sums edge volumes.
func (g *Graph) TotalVolume() int64 {
	var v int64
	for _, run := range g.edges {
		for _, e := range run {
			v += e.Volume
		}
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
	for _, e := range g.Edges() {
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
		ix := g.index()
		for _, id := range frontier {
			for _, e := range ix.out[id] {
				visit(e.To)
			}
			for _, e := range ix.in[id] {
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
	ids := make([]string, 0, g.nNodes)
	for _, run := range g.nodes {
		for _, n := range run {
			ids = append(ids, n.ID)
		}
	}
	sort.Strings(ids)
	return ids
}
