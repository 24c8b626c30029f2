package analyzer

import (
	"cmp"
	"slices"

	"dayu/internal/graph"
	"dayu/internal/trace"
)

// GraphIndex is the FTG and SDG builders in incremental form: a
// stateful index over an ordered trace set that, when the set changes,
// recomputes the contributions the change touches and patches both
// graphs instead of folding every contribution again. `dayu serve`
// keeps two, one per view, and applies every snapshot's change of its
// trace sets to them, so a folded checkpoint costs what it changed
// rather than a pass over the state. An Apply returns what BuildFTG and
// BuildSDG return for the same ordered set, byte for byte in every
// renderer.
//
// What a graph is a function of, and what the index keeps for it:
//
//   - a task's contributions: its trace and, for the SDG, the winning
//     description of every object it maps. Each (file, object) key has
//     a scope listing its describing tasks in task order (the last
//     wins) and the tasks that map it; when a winner's decoration
//     changes (sameForSDG), those tasks' SDG contributions are
//     recomputed.
//   - a node: the AddNode fold of its occurrences in task order. The
//     node's scope lists them and refolds when one arrives or leaves —
//     AddNode keeps a minimum, a maximum and last-writer attributes, so
//     an occurrence cannot be subtracted.
//   - node order: first-occurrence order. Each task's part lists the
//     nodes whose first occurrence it holds, by index in its
//     contribution, and the node list is those lists concatenated in
//     task order; a node whose first occurrence moves changes lists.
//   - the edges: the per-task edge lists concatenated in task order,
//     each edge a copy of its contribution's with Reused decided.
//   - the graph: graph.Assemble over runs of node and edge lists. The
//     tasks are cut into chunks of consecutive tasks, and a chunk's
//     runs are its tasks' lists concatenated, so a patch copies the
//     lists of the chunks its tasks are in and publishes one run per
//     chunk; the other chunks' runs are shared with every graph since
//     the last change to them.
//   - Reused: a read edge is flagged when its source node's kind is one
//     markReuse flags and at least two distinct tasks read that node.
//     The index counts each node's read edges per reading task, and
//     copies a node's read edges only when it crosses two readers.
//
// Apply takes the change as the caller knows it — `dayu serve` gets it
// from the fold, through its TaskSets — and costs what changed: the
// removed tasks are looked up by trace and the task list is edited at
// their positions and at the added ones' (Change.At). A build from
// empty is the same patch with every task added: a first call, one
// under a new manifest and one whose change does not say where its
// tasks go start from empty. Nothing is keyed by task name, so tasks
// sharing a name need no special case.
//
// Published graphs are immutable: renders of an older snapshot run
// while the index moves on. A patch therefore builds new node and edge
// lists, shares every *graph.Node and *graph.Edge it did not change,
// and replaces, never mutates, the ones it did.
//
// A GraphIndex is not safe for concurrent use; the graphs it returns
// are.
type GraphIndex struct {
	opts Options
	// peer is an index over an overlapping trace set that contributions
	// are taken from instead of computed: the FTG contribution of the
	// same trace, or its SDG contribution when every object the task
	// maps is described alike in both (sameForSDG).
	peer *GraphIndex

	manifest *trace.Manifest
	tasks    []*graphTask // task order
	byTrace  map[*trace.TaskTrace]*graphTask
	gen      uint64 // stamps the tasks a patch removes

	descs      map[trace.RowKey]*descScope
	dirtyDescs []*descScope
	// restale are the retained tasks whose SDG contribution read a
	// description that moved.
	restale []*graphTask

	layers       [2]layer // the FTG and the SDG
	chunks       []*taskChunk
	recomputed   int
	repositioned int
}

// chunkMax bounds a chunk's tasks: a patch copies the lists of the
// chunks it touches, and a graph holds a run per chunk.
const chunkMax = 32

// taskChunk is a run of consecutive tasks in task order and, per
// layer, their node and edge lists concatenated: the runs the layer's
// graph is assembled from. Published runs are never written again.
type taskChunk struct {
	n    int // tasks in the chunk
	runs [2]chunkRuns
}

type chunkRuns struct {
	nodes []*graph.Node
	edges []*graph.Edge
	stale bool // the tasks' lists changed since nodes and edges were cut
}

// Graphs is what one Apply returns.
type Graphs struct {
	FTG, SDG *graph.Graph
	// Recomputed counts the contributions the Apply computed; Reused the
	// ones it kept or took from the peer.
	Recomputed, Reused int
	// Repositioned counts the retained tasks the edit moved: every task
	// after an insert or a removal that is not a replacement in place.
	Repositioned int
}

const (
	lFTG = iota
	lSDG
)

type graphTask struct {
	trace *trace.TaskTrace
	pos   int
	gen   uint64
	chunk *taskChunk
	// describes has a scope per Objects record; refs a scope per object
	// the task maps, once each.
	describes, refs []*descScope
	restale         bool
	parts           [2]part
}

// part is a task's share of one graph: its contribution, the
// contribution's edges as published (nil while it awaits publishing),
// and the nodes whose first occurrence it holds, in contribution order,
// as scopes and as published. The published lists are runs of graphs
// already returned: a change replaces them, never writes into them.
type part struct {
	c      *Contribution
	edges  []*graph.Edge
	firsts []*nodeScope
	nodes  []*graph.Node
	stale  bool // nodes no longer matches firsts
}

type descScope struct {
	key   trace.RowKey
	descs []objDesc // task order, then Objects order: the last wins
	refs  []*graphTask
	won   *trace.ObjectRecord // the winner the refs' contributions read
	dirty bool
	// Most objects have one describer and one reader, which these hold
	// without a second allocation.
	desc1 [1]objDesc
	ref1  [1]*graphTask
}

type objDesc struct {
	task *graphTask
	rec  *trace.ObjectRecord
}

type layer struct {
	shape *shape
	nodes map[string]*nodeScope
	dirty []*nodeScope
	stale []*graphTask // tasks whose node list must be rebuilt
	out   *graph.Graph
}

type nodeScope struct {
	id   string
	occ  []occurrence // task order, then index in the contribution
	occ1 [1]occurrence
	node *graph.Node // the fold of occ, as published
	// first is the occurrence whose part lists the node: occ[0] when
	// the node was folded, zero once that part left.
	first occurrence
	// readers counts the node's read edges by reading task node.
	readers map[string]int
	reused  bool
	dirty   bool
}

type occurrence struct {
	task *graphTask
	i    int
}

func (o occurrence) node(k int) *graph.Node { return &o.task.parts[k].c.nodes[o.i] }

// NewGraphIndex returns an empty index building graphs with opts. A
// non-nil peer, which must use the same opts, becomes the new index's
// peer and the new index the peer's: each takes contributions from the
// other.
func NewGraphIndex(opts Options, peer *GraphIndex) *GraphIndex {
	ix := &GraphIndex{opts: opts.withDefaults(), peer: peer}
	if peer != nil {
		peer.peer = ix
	}
	ix.reset(nil)
	return ix
}

// reset empties the index and installs manifest m, the one its task
// order is under.
func (ix *GraphIndex) reset(m *trace.Manifest) {
	*ix = GraphIndex{
		opts:     ix.opts,
		peer:     ix.peer,
		manifest: m,
		byTrace:  map[*trace.TaskTrace]*graphTask{},
		descs:    map[trace.RowKey]*descScope{},
		layers: [2]layer{
			{shape: ftgShape, nodes: map[string]*nodeScope{}},
			{shape: sdgShape, nodes: map[string]*nodeScope{}},
		},
	}
}

// Apply brings the index to ordered — the indexed set edited by ch, in
// OrderTasks order under m — and returns its FTG and SDG. It costs the
// change: the removed tasks are found by trace and the added ones put
// where ch.At says, with no lookup of the tasks that stay. A new
// manifest, a change without At, and an ordered that is not the edit ch
// describes build from empty: the patch that adds every task.
func (ix *GraphIndex) Apply(ordered []*trace.TaskTrace, m *trace.Manifest, ch Change) Graphs {
	ix.recomputed, ix.repositioned = 0, 0
	if m != ix.manifest {
		ix.reset(m)
	}
	if !ix.patch(ordered, ch) {
		ix.reset(m)
		ix.patch(ordered, Change{})
	}
	return Graphs{
		FTG: ix.layers[lFTG].out, SDG: ix.layers[lSDG].out,
		Recomputed: ix.recomputed, Reused: 2*len(ix.tasks) - ix.recomputed,
		Repositioned: ix.repositioned,
	}
}

// Len is the number of tasks the index holds.
func (ix *GraphIndex) Len() int { return len(ix.tasks) }

// Contributions returns the FTG and SDG contribution of every task in
// the index, in task order. A contribution one index took from its
// peer is the same pointer in both.
func (ix *GraphIndex) Contributions() (ftg, sdg []*Contribution) {
	for _, t := range ix.tasks {
		ftg = append(ftg, t.parts[lFTG].c)
		sdg = append(sdg, t.parts[lSDG].c)
	}
	return ftg, sdg
}

// cut re-concatenates the stale runs of a chunk of tasks, or all of
// them in a new chunk.
func (c *taskChunk) cut(tasks []*graphTask) {
	for k := range c.runs {
		r := &c.runs[k]
		if r.nodes != nil && !r.stale {
			continue
		}
		r.stale = false
		nn, ne := 0, 0
		for _, t := range tasks {
			nn += len(t.parts[k].nodes)
			ne += len(t.parts[k].edges)
		}
		r.nodes, r.edges = make([]*graph.Node, 0, nn), make([]*graph.Edge, 0, ne)
		for _, t := range tasks {
			r.nodes = append(r.nodes, t.parts[k].nodes...)
			r.edges = append(r.edges, t.parts[k].edges...)
		}
	}
}

func (c *taskChunk) restale(k int) { c.runs[k].stale = true }

// publish brings the chunks up to the patched task list — emptied
// chunks leave, overfull ones split, stale runs are re-cut — and
// assembles each layer whose runs changed or that has no graph yet.
func (ix *GraphIndex) publish() {
	var changed [2]bool
	chunks := make([]*taskChunk, 0, len(ix.chunks)+1)
	start := 0
	for _, c := range ix.chunks {
		if c.n == 0 {
			changed = [2]bool{true, true}
			continue
		}
		tasks := ix.tasks[start : start+c.n]
		start += c.n
		for len(tasks) > chunkMax {
			// Split: the rest of the tasks move to new chunks.
			c.n = chunkMax / 2
			c.restale(lFTG)
			c.restale(lSDG)
			c.cut(tasks[:c.n])
			chunks = append(chunks, c)
			tasks = tasks[c.n:]
			c = &taskChunk{n: len(tasks)}
			for _, t := range tasks {
				t.chunk = c
			}
		}
		for k := range c.runs {
			changed[k] = changed[k] || c.runs[k].stale || c.runs[k].nodes == nil
		}
		c.cut(tasks)
		chunks = append(chunks, c)
	}
	ix.chunks = chunks
	for k := range ix.layers {
		if !changed[k] && ix.layers[k].out != nil {
			continue
		}
		nodes := make([][]*graph.Node, 0, len(chunks))
		edges := make([][]*graph.Edge, 0, len(chunks))
		for _, c := range chunks {
			if r := c.runs[k]; len(r.nodes) > 0 {
				nodes = append(nodes, r.nodes)
			}
			if r := c.runs[k]; len(r.edges) > 0 {
				edges = append(edges, r.edges)
			}
		}
		l := &ix.layers[k]
		l.out = graph.Assemble(l.shape.name, nodes, edges)
	}
}

// patch applies the edit ch that made the indexed set ordered. It
// reports false — leaving the index to be reset — when ordered is not
// that edit as far as it checks (a removed trace is not indexed, an
// added trace is not where ch.At puts it, ch.At is missing), before
// changing anything but the tasks' generation stamps. From empty, with
// nothing removed, it adds every task, whatever ch.At says.
func (ix *GraphIndex) patch(ordered []*trace.TaskTrace, ch Change) bool {
	fresh := len(ix.tasks) == 0
	gone := ch.Removed
	ix.gen++
	at := make([]int, 0, len(gone))
	for _, tt := range gone {
		t := ix.byTrace[tt]
		if t == nil || t.gen == ix.gen {
			return false
		}
		t.gen = ix.gen
		at = append(at, t.pos)
	}
	from, to, ok := EditList(&ix.tasks, ordered, ch, at,
		func(tt *trace.TaskTrace) bool { return ix.byTrace[tt] != nil })
	if !ok {
		return false
	}
	next := ix.tasks

	var removed, added []*graphTask
	for _, tt := range gone {
		t := ix.byTrace[tt]
		removed = append(removed, t)
		delete(ix.byTrace, tt)
		ix.unlinkDescs(t)
	}
	for _, t := range removed {
		t.chunk.n--
		t.chunk.restale(lFTG)
		t.chunk.restale(lSDG)
	}
	for i := from; i < to; i++ {
		t := next[i]
		if t == nil {
			// A new task joins its predecessor's chunk, or the first. From
			// empty the tasks are laid out in half-full chunks, which
			// inserts then fill before a chunk splits.
			t = &graphTask{trace: ordered[i]}
			switch {
			case i > 0 && (!fresh || i%(chunkMax/2) > 0):
				t.chunk = next[i-1].chunk
			case i == 0 && len(ix.chunks) > 0:
				t.chunk = ix.chunks[0]
			default:
				t.chunk = &taskChunk{}
				ix.chunks = append(ix.chunks, t.chunk)
			}
			t.chunk.n++
			next[i] = t
			added = append(added, t)
			ix.byTrace[t.trace] = t
		} else if t.pos != i {
			ix.repositioned++
		}
		t.pos = i
	}
	for _, t := range added {
		ix.linkDescs(t)
	}
	ix.settleDescs()

	// A retained task whose SDG contribution read a moved description
	// leaves the SDG layer and comes back with the new one. An added
	// task has no contribution yet: it gets both below.
	var sdgOut []outgoing
	var sdgIn []*graphTask
	for _, t := range ix.restale {
		t.restale = false
		if t.parts[lSDG].c != nil {
			sdgOut = append(sdgOut, outgoing{t, t.parts[lSDG]})
			t.parts[lSDG] = part{c: ix.contribution(t, lSDG)}
			sdgIn = append(sdgIn, t)
		}
	}
	clear(ix.restale)
	ix.restale = ix.restale[:0]
	for _, t := range added {
		for k := range t.parts {
			t.parts[k].c = ix.contribution(t, k)
		}
	}

	ftgOut := make([]outgoing, len(removed))
	for i, t := range removed {
		ftgOut[i] = outgoing{t, t.parts[lFTG]}
		sdgOut = append(sdgOut, outgoing{t, t.parts[lSDG]})
	}
	ix.layers[lFTG].patch(lFTG, ftgOut, added)
	ix.layers[lSDG].patch(lSDG, sdgOut, append(sdgIn, added...))
	ix.publish()
	return true
}

// outgoing is a task's part leaving a layer: the task was removed, or
// its contribution replaced.
type outgoing struct {
	task *graphTask
	part part
}

// contribution is the task's k contribution: the peer's, or computed.
func (ix *GraphIndex) contribution(t *graphTask, k int) *Contribution {
	if c := ix.borrow(t, k); c != nil {
		return c
	}
	ix.recomputed++
	var c Contribution
	if k == lFTG {
		c = ftgContribution(t.trace)
	} else {
		c = sdgContribution(t.trace, ix.winner, ix.opts)
	}
	return &c
}

// borrow returns the peer's k contribution of the task's trace when it
// is the one this index would compute, else nil.
func (ix *GraphIndex) borrow(t *graphTask, k int) *Contribution {
	if ix.peer == nil {
		return nil
	}
	pt := ix.peer.byTrace[t.trace]
	if pt == nil {
		return nil
	}
	if k == lSDG {
		for _, d := range t.refs {
			var won *trace.ObjectRecord
			if pd := ix.peer.descs[d.key]; pd != nil {
				won = pd.won
			}
			if !sameForSDG(d.won, won) {
				return nil
			}
		}
	}
	return pt.parts[k].c
}

// winner is the description sdgContribution decorates key's dataset
// node with.
func (ix *GraphIndex) winner(key trace.RowKey) *trace.ObjectRecord {
	if d := ix.descs[key]; d != nil {
		return d.won
	}
	return nil
}

func (ix *GraphIndex) desc(key trace.RowKey) *descScope {
	d := ix.descs[key]
	if d == nil {
		d = &descScope{key: key}
		d.descs, d.refs = d.desc1[:0], d.ref1[:0]
		ix.descs[key] = d
	}
	return d
}

func (ix *GraphIndex) touchDesc(d *descScope) {
	if !d.dirty {
		d.dirty = true
		ix.dirtyDescs = append(ix.dirtyDescs, d)
	}
}

// linkDescs enters a task into the description scopes: as a describer
// at its position, and as a reader of every object it maps.
func (ix *GraphIndex) linkDescs(t *graphTask) {
	tt := t.trace
	for i := range tt.Objects {
		rec := &tt.Objects[i]
		d := ix.desc(rec.Key())
		// After every describer at or before t's position: task order,
		// then Objects order.
		at, _ := slices.BinarySearchFunc(d.descs, t.pos+1, func(o objDesc, pos int) int { return cmp.Compare(o.task.pos, pos) })
		d.descs = slices.Insert(d.descs, at, objDesc{t, rec})
		t.describes = append(t.describes, d)
		ix.touchDesc(d)
	}
	for i := range tt.Mapped {
		ms := &tt.Mapped[i]
		if ms.Object == "" {
			continue
		}
		if d := ix.desc(ms.Key()); !slices.Contains(t.refs, d) {
			d.refs = append(d.refs, t)
			t.refs = append(t.refs, d)
		}
	}
}

// unlinkDescs takes a removed task out of the description scopes.
func (ix *GraphIndex) unlinkDescs(t *graphTask) {
	for _, d := range t.describes {
		d.descs = slices.DeleteFunc(d.descs, func(o objDesc) bool { return o.task == t })
		ix.touchDesc(d)
	}
	for _, d := range t.refs {
		d.refs = slices.DeleteFunc(d.refs, func(r *graphTask) bool { return r == t })
		ix.touchDesc(d)
	}
}

// settleDescs decides the winner of every touched description scope
// and marks the tasks that read one whose decoration changed; empty
// scopes go.
func (ix *GraphIndex) settleDescs() {
	for _, d := range ix.dirtyDescs {
		d.dirty = false
		var won *trace.ObjectRecord
		if n := len(d.descs); n > 0 {
			won = d.descs[n-1].rec
		}
		if !sameForSDG(won, d.won) {
			for _, t := range d.refs {
				if !t.restale {
					t.restale = true
					ix.restale = append(ix.restale, t)
				}
			}
		}
		d.won = won
		if len(d.descs) == 0 && len(d.refs) == 0 {
			delete(ix.descs, d.key)
		}
	}
	clear(ix.dirtyDescs)
	ix.dirtyDescs = ix.dirtyDescs[:0]
}

func (l *layer) scope(id string) *nodeScope {
	s := l.nodes[id]
	if s == nil {
		s = &nodeScope{id: id}
		s.occ = s.occ1[:0]
		l.nodes[id] = s
	}
	return s
}

func (l *layer) touch(s *nodeScope) {
	if !s.dirty {
		s.dirty = true
		l.dirty = append(l.dirty, s)
	}
}

// read adds delta read edges from the node to reader.
func (s *nodeScope) read(reader string, delta int) {
	if s.readers == nil {
		s.readers = map[string]int{}
	}
	if s.readers[reader] += delta; s.readers[reader] == 0 {
		delete(s.readers, reader)
	}
}

// patch takes the outgoing parts out of the layer and puts the incoming
// tasks' parts in, marking the chunks whose lists changed stale.
func (l *layer) patch(k int, out []outgoing, in []*graphTask) {
	if len(out) == 0 && len(in) == 0 {
		return
	}
	for _, o := range out {
		for i := range o.part.c.nodes {
			s := l.nodes[o.part.c.nodes[i].ID]
			s.occ = slices.DeleteFunc(s.occ, func(oc occurrence) bool { return oc.task == o.task })
			if s.first.task == o.task {
				s.first = occurrence{}
			}
			l.touch(s)
		}
		for _, e := range o.part.c.edges {
			if e.Op == graph.OpRead {
				l.nodes[e.From].read(e.To, -1)
			}
		}
	}
	for _, t := range in {
		c := t.parts[k].c
		for i := range c.nodes {
			s := l.scope(c.nodes[i].ID)
			at, _ := slices.BinarySearchFunc(s.occ, t.pos+1, func(oc occurrence, pos int) int { return cmp.Compare(oc.task.pos, pos) })
			s.occ = slices.Insert(s.occ, at, occurrence{t, i})
			l.touch(s)
		}
		for _, e := range c.edges {
			if e.Op == graph.OpRead {
				l.nodes[e.From].read(e.To, 1)
			}
		}
	}

	// Refold what changed, and move a node whose first occurrence moved
	// to its new part's list. A node whose read-edge flag flips has its
	// read edges copied in the tasks that keep their part; the incoming
	// parts are published below, with the settled flags.
	for _, s := range l.dirty {
		s.dirty = false
		if len(s.occ) == 0 {
			delete(l.nodes, s.id)
			continue
		}
		s.node = s.occ[0].node(k).Clone()
		for _, oc := range s.occ[1:] {
			s.node.Merge(oc.node(k))
		}
		if s.first != s.occ[0] {
			if s.first.task != nil {
				p := &s.first.task.parts[k]
				p.firsts = slices.DeleteFunc(p.firsts, func(x *nodeScope) bool { return x == s })
				l.restale(s.first.task, k)
			}
			s.first = s.occ[0]
			p := &s.first.task.parts[k]
			at, _ := slices.BinarySearchFunc(p.firsts, s.first.i, func(x *nodeScope, i int) int { return cmp.Compare(x.first.i, i) })
			p.firsts = slices.Insert(p.firsts, at, s)
		}
		l.restale(s.first.task, k)
		if reused := l.shape.flags(s.node.Kind) && len(s.readers) >= 2; reused != s.reused {
			s.reused = reused
			l.flip(s, k)
		}
	}
	clear(l.dirty)
	l.dirty = l.dirty[:0]
	// The lists are cut, capacity-capped, from one array per patch: a
	// build from empty allocates a few per layer, not a few per task.
	ne := 0
	for _, t := range in {
		ne += len(t.parts[k].c.edges)
	}
	vals, ptrs := make([]graph.Edge, ne), make([]*graph.Edge, ne)
	for _, t := range in {
		t.chunk.restale(k)
		p := &t.parts[k]
		n := len(p.c.edges)
		p.edges, ptrs = ptrs[:n:n], ptrs[n:]
		for j, e := range p.c.edges {
			if e.Op == graph.OpRead && l.nodes[e.From].reused {
				e.Reused = true
			}
			vals[j] = e
			p.edges[j] = &vals[j]
		}
		vals = vals[n:]
	}

	nn := 0
	for _, t := range l.stale {
		nn += len(t.parts[k].firsts)
	}
	nodes := make([]*graph.Node, nn)
	for _, t := range l.stale {
		p := &t.parts[k]
		p.stale = false
		n := len(p.firsts)
		p.nodes, nodes = nodes[:n:n], nodes[n:]
		for i, s := range p.firsts {
			p.nodes[i] = s.node
		}
		t.chunk.restale(k)
	}
	clear(l.stale)
	l.stale = l.stale[:0]
}

// restale marks a task whose k part's node list must be rebuilt.
func (l *layer) restale(t *graphTask, k int) {
	if p := &t.parts[k]; !p.stale {
		p.stale = true
		l.stale = append(l.stale, t)
	}
}

// flip re-publishes s's read edges with its new flag, in every task
// holding a published part that reads s: a new list with new copies of
// those edges.
func (l *layer) flip(s *nodeScope, k int) {
	var prev *graphTask
	for _, oc := range s.occ {
		if oc.task == prev {
			continue
		}
		prev = oc.task
		p := &oc.task.parts[k]
		copied := false
		for j, e := range p.edges {
			if e.From == s.id && e.Op == graph.OpRead {
				if !copied {
					p.edges, copied = slices.Clone(p.edges), true
					oc.task.chunk.restale(k)
				}
				cp := *e
				cp.Reused = s.reused || p.c.edges[j].Reused
				p.edges[j] = &cp
			}
		}
	}
}
