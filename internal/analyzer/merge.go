package analyzer

// Parallel graph assembly: worker-owned contribution arenas and the
// shard-then-stitch merge.
//
// PR 3 parallelized per-task contribution *compute* but still paid a
// goroutine/channel round-trip per task and folded every contribution
// into the graph serially; on the 3000-task synthetic workflow that
// made the "parallel" build slower than the serial one (PR 5's record:
// 0.91x). This file wins the path back in three moves:
//
//  1. Contributions are built in contiguous chunks claimed off an
//     atomic counter — one atomic op per chunk instead of a channel
//     send per task — into worker-owned arenas (pooled node/edge
//     backing arrays), so a task's contribution is two slice headers
//     into the arena rather than two fresh allocations.
//  2. The merge shards by node key: occurrence shards are assigned in
//     parallel, then one worker per shard folds every occurrence of
//     its nodes — in global occurrence order, so the fold sequence per
//     node is exactly the serial AddNode sequence — and builds the
//     adjacency index entries for its keys. Edge clones land in one
//     shared array at their global positions.
//  3. The stitch is the only serial part: per-shard first-occurrence
//     lists are merged back into global insertion order (positions are
//     unique integers, so the order is total and deterministic) and
//     the assembled state is handed to graph.InstallBulk in O(nodes).
//
// Determinism argument: every output the serial merge produces is a
// function of (a) node first-occurrence order, (b) the per-node fold
// sequence, (c) global edge order, and (d) per-endpoint adjacency
// order. All four are derived here from the global occurrence index —
// a schedule-independent quantity — so any shard count, including the
// serial path, yields byte-identical renderings. The property tests in
// parallel_test.go and the replica table in internal/workloads hold
// this to account.

import (
	"sort"
	"sync"
	"sync/atomic"

	"dayu/internal/graph"
	"dayu/internal/trace"
)

// contribArena is a worker-owned backing store for contribution node
// and edge slices. Arenas are pooled: a build borrows one per worker,
// hands out sub-slices of its arrays as contributions, and returns it
// once the graph has copied everything out.
type contribArena struct {
	nodes []graph.Node
	edges []graph.Edge
}

var arenaPool = sync.Pool{New: func() any { return new(contribArena) }}

// maxPooledArenaCap bounds the entry capacity an arena may keep when
// returned to the pool, so one huge build does not pin its peak
// footprint forever.
const maxPooledArenaCap = 1 << 16

func getArena() *contribArena { return arenaPool.Get().(*contribArena) }

// putArena clears the arena (dropping attr-map references held by
// stale entries) and pools it for reuse. Callers must guarantee no
// Contribution handed out by this arena is referenced afterwards.
func putArena(a *contribArena) {
	if cap(a.nodes) > maxPooledArenaCap || cap(a.edges) > maxPooledArenaCap {
		return
	}
	a.nodes = a.nodes[:cap(a.nodes)]
	clear(a.nodes)
	a.nodes = a.nodes[:0]
	a.edges = a.edges[:cap(a.edges)]
	clear(a.edges)
	a.edges = a.edges[:0]
	arenaPool.Put(a)
}

func releaseArenas(arenas []*contribArena) {
	for _, a := range arenas {
		putArena(a)
	}
}

// contribution builds one task's contribution into the arena and
// returns a capacity-capped window onto the arena's arrays. Growth is
// adopted back into the arena, so consecutive contributions pack into
// the same backing store.
func (a *contribArena) contribution(t *trace.TaskTrace, build func(*trace.TaskTrace, *Contribution)) Contribution {
	c := Contribution{nodes: a.nodes, edges: a.edges}
	nlo, elo := len(a.nodes), len(a.edges)
	build(t, &c)
	a.nodes, a.edges = c.nodes, c.edges
	return Contribution{
		nodes: c.nodes[nlo:len(c.nodes):len(c.nodes)],
		edges: c.edges[elo:len(c.edges):len(c.edges)],
	}
}

// contributionChunk sizes the work chunks contribution workers claim:
// small enough to balance uneven tasks, large enough that the atomic
// claim is noise.
func contributionChunk(n, workers int) int {
	c := n / (workers * 8)
	if c < 1 {
		return 1
	}
	if c > 256 {
		return 256
	}
	return c
}

// buildContributions computes per-task contributions for the ordered
// traces into pooled arenas and returns them in task order together
// with the arenas backing them. The caller must releaseArenas once the
// contributions are dead (merged into a graph).
func buildContributions(ordered []*trace.TaskTrace, parallelism int, build func(*trace.TaskTrace, *Contribution)) ([]Contribution, []*contribArena) {
	out := make([]Contribution, len(ordered))
	if parallelism > len(ordered) {
		parallelism = len(ordered)
	}
	if parallelism <= 1 {
		a := getArena()
		for i, t := range ordered {
			out[i] = a.contribution(t, build)
		}
		return out, []*contribArena{a}
	}
	arenas := make([]*contribArena, parallelism)
	chunk := contributionChunk(len(ordered), parallelism)
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < parallelism; w++ {
		arenas[w] = getArena()
		wg.Add(1)
		go func(a *contribArena) {
			defer wg.Done()
			for {
				lo := int(next.Add(int64(chunk))) - chunk
				if lo >= len(ordered) {
					return
				}
				hi := lo + chunk
				if hi > len(ordered) {
					hi = len(ordered)
				}
				for i := lo; i < hi; i++ {
					out[i] = a.contribution(ordered[i], build)
				}
			}
		}(arenas[w])
	}
	wg.Wait()
	return out, arenas
}

// serialMerge folds contributions into the graph in task order — the
// same sequence of AddNode/AddEdge calls a fully serial build performs.
// It is the reference the sharded merge must match byte-for-byte, and
// the path taken when parallelism or input size makes sharding not
// worth it.
func serialMerge(g *graph.Graph, contribs []Contribution) {
	for i := range contribs {
		for _, n := range contribs[i].nodes {
			g.AddNode(n)
		}
		for _, e := range contribs[i].edges {
			mustAdd(g, e)
		}
	}
}

// parallelMergeMinOccurrences gates the sharded merge: below this many
// node+edge occurrences the fan-out costs more than it saves.
const parallelMergeMinOccurrences = 4096

// maxMergeShards bounds the shard count (shard assignments are stored
// as bytes; contention past a few dozen shards is all stitch anyway).
const maxMergeShards = 64

// mergeContributions folds contributions into the empty graph g,
// sharding across min(parallelism, maxMergeShards) workers when the
// input is large enough. Output bytes are identical at every setting.
func mergeContributions(g *graph.Graph, contribs []Contribution, parallelism int) {
	var nodeOccs, edgeCount int
	for i := range contribs {
		nodeOccs += len(contribs[i].nodes)
		edgeCount += len(contribs[i].edges)
	}
	if parallelism <= 1 || nodeOccs+edgeCount < parallelMergeMinOccurrences {
		serialMerge(g, contribs)
		return
	}
	shards := parallelism
	if shards > maxMergeShards {
		shards = maxMergeShards
	}
	shardMerge(g, contribs, shards, nodeOccs, edgeCount)
}

// shardOf assigns a node key to a shard by FNV-1a hash. The assignment
// only affects work distribution, never output: all occurrences of a
// key land in one shard, and stitching is position-ordered.
func shardOf(id string, shards int) uint8 {
	const offset32, prime32 = 2166136261, 16777619
	h := uint32(offset32)
	for i := 0; i < len(id); i++ {
		h ^= uint32(id[i])
		h *= prime32
	}
	return uint8(h % uint32(shards))
}

// nodeAt pins a folded node to the global occurrence position of its
// first appearance — the serial build's insertion position.
type nodeAt struct {
	pos  int
	node *graph.Node
}

// shardState is one shard worker's output: its keys' folded nodes in
// first-occurrence order and the adjacency index entries for its keys.
type shardState struct {
	nodes []nodeAt
	out   map[string][]*graph.Edge
	in    map[string][]*graph.Edge
}

func shardMerge(g *graph.Graph, contribs []Contribution, shards, nodeOccs, edgeCount int) {
	// Global occurrence positions: prefix sums over contribution sizes.
	nodeBase := make([]int, len(contribs)+1)
	edgeBase := make([]int, len(contribs)+1)
	for i := range contribs {
		nodeBase[i+1] = nodeBase[i] + len(contribs[i].nodes)
		edgeBase[i+1] = edgeBase[i] + len(contribs[i].edges)
	}

	nodeShard := make([]uint8, nodeOccs)
	edgeVals := make([]graph.Edge, edgeCount)
	edgePtrs := make([]*graph.Edge, edgeCount)
	edgeFromShard := make([]uint8, edgeCount)
	edgeToShard := make([]uint8, edgeCount)

	// Phase 1 — parallel over contribution chunks: hash every node key
	// once, and clone every edge (attrs included, matching AddEdge)
	// into its global slot.
	chunk := contributionChunk(len(contribs), shards)
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < shards; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				lo := int(next.Add(int64(chunk))) - chunk
				if lo >= len(contribs) {
					return
				}
				hi := lo + chunk
				if hi > len(contribs) {
					hi = len(contribs)
				}
				for ci := lo; ci < hi; ci++ {
					c := &contribs[ci]
					nb, eb := nodeBase[ci], edgeBase[ci]
					for ni := range c.nodes {
						nodeShard[nb+ni] = shardOf(c.nodes[ni].ID, shards)
					}
					for ei := range c.edges {
						e := &c.edges[ei]
						pos := eb + ei
						cp := *e
						if e.Attrs != nil {
							m := make(map[string]string, len(e.Attrs))
							for k, v := range e.Attrs {
								m[k] = v
							}
							cp.Attrs = m
						}
						edgeVals[pos] = cp
						edgePtrs[pos] = &edgeVals[pos]
						edgeFromShard[pos] = shardOf(e.From, shards)
						edgeToShard[pos] = shardOf(e.To, shards)
					}
				}
			}
		}()
	}
	wg.Wait()

	// Phase 2 — one worker per shard: fold node occurrences of this
	// shard's keys in global order (exactly the serial AddNode merge
	// sequence per node) and build the adjacency slices for its keys,
	// again in global edge order.
	states := make([]shardState, shards)
	for s := 0; s < shards; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			st := &states[s]
			byID := make(map[string]*graph.Node)
			for ci := range contribs {
				c := &contribs[ci]
				nb := nodeBase[ci]
				for ni := range c.nodes {
					if nodeShard[nb+ni] != uint8(s) {
						continue
					}
					n := &c.nodes[ni]
					if ex, ok := byID[n.ID]; ok {
						foldNode(ex, n)
						continue
					}
					cp := *n
					if n.Attrs != nil {
						m := make(map[string]string, len(n.Attrs))
						for k, v := range n.Attrs {
							m[k] = v
						}
						cp.Attrs = m
					}
					byID[n.ID] = &cp
					st.nodes = append(st.nodes, nodeAt{pos: nb + ni, node: &cp})
				}
			}
			st.out = make(map[string][]*graph.Edge, len(byID))
			st.in = make(map[string][]*graph.Edge, len(byID))
			for pos, e := range edgePtrs {
				if edgeFromShard[pos] == uint8(s) {
					st.out[e.From] = append(st.out[e.From], e)
				}
				if edgeToShard[pos] == uint8(s) {
					st.in[e.To] = append(st.in[e.To], e)
				}
			}
		}(s)
	}
	wg.Wait()

	// Phase 3 — stitch: restore global insertion order across shards
	// (positions are unique, so the sort is a total deterministic
	// order), union the disjoint per-shard adjacency maps, and install.
	var distinct int
	for s := range states {
		distinct += len(states[s].nodes)
	}
	merged := make([]nodeAt, 0, distinct)
	for s := range states {
		merged = append(merged, states[s].nodes...)
	}
	sort.Slice(merged, func(i, j int) bool { return merged[i].pos < merged[j].pos })
	nodes := make([]*graph.Node, len(merged))
	for i := range merged {
		nodes[i] = merged[i].node
	}
	out := make(map[string][]*graph.Edge, distinct)
	in := make(map[string][]*graph.Edge, distinct)
	for s := range states {
		for k, v := range states[s].out {
			out[k] = v
		}
		for k, v := range states[s].in {
			in[k] = v
		}
	}
	g.InstallBulk(nodes, edgePtrs, out, in)
}

// foldNode applies graph.AddNode's update semantics to an existing
// folded node: volume accumulates, the time window widens (zero start
// timestamps never clobber real ones), attrs overwrite key-wise.
func foldNode(ex, n *graph.Node) {
	ex.Volume += n.Volume
	if n.StartNS != 0 && (ex.StartNS == 0 || n.StartNS < ex.StartNS) {
		ex.StartNS = n.StartNS
	}
	if n.EndNS > ex.EndNS {
		ex.EndNS = n.EndNS
	}
	for k, v := range n.Attrs {
		if ex.Attrs == nil {
			ex.Attrs = map[string]string{}
		}
		ex.Attrs[k] = v
	}
}
