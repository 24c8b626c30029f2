// Package analyzer implements DaYu's Workflow Analyzer (paper §V): it
// connects per-task traces into File-Task Graphs (FTGs) and Semantic
// Dataflow Graphs (SDGs), decorates them with access statistics, and
// offers resolution adjustment (aggregation by stage or dataset count)
// for complex workflows.
//
// Graph construction is two steps (merge.go): each task's nodes and
// edges — its contribution, a pure function of that task's trace — are
// computed by Options.Parallelism workers, then every contribution is
// folded into the graph in task order by one serial loop. The fold
// alone fixes node IDs, edge order and every rendered byte, so the
// output is identical at every parallelism setting, and identical to
// what `dayu serve` assembles from the contributions it caches.
package analyzer

import (
	"fmt"
	"runtime"
	"sort"

	"dayu/internal/graph"
	"dayu/internal/trace"
)

// Options controls graph construction.
type Options struct {
	// PageSize divides file addresses into regions for SDG address
	// nodes (the paper's configurable page size; Figure 3 and 8).
	PageSize int64
	// IncludeRegions adds file-address-region nodes to SDGs.
	IncludeRegions bool
	// IncludeFileMetadata adds the File-Metadata pseudo-dataset node for
	// unattributed metadata traffic (Figure 8b's Box 2).
	IncludeFileMetadata bool
	// Parallelism bounds the workers computing per-task graph
	// contributions (<= 0 means GOMAXPROCS); the merge is always the
	// serial fold. Every setting produces byte-identical output.
	Parallelism int
}

func (o Options) withDefaults() Options {
	if o.PageSize == 0 {
		o.PageSize = 4096
	}
	if o.Parallelism <= 0 {
		o.Parallelism = runtime.GOMAXPROCS(0)
	}
	return o
}

// taskNodeID and fileNodeID build stable node identifiers.
func taskNodeID(task string) string { return "task:" + task }
func fileNodeID(file string) string { return "file:" + file }
func datasetNodeID(file, object string) string {
	return "dataset:" + file + "::" + object
}
func regionNodeID(file string, p1, p2 int64) string {
	return fmt.Sprintf("region:%s::[%d-%d)", file, p1, p2)
}
func metaNodeID(file string) string { return "meta:" + file + "::File-Metadata" }

// OrderTasks returns traces ordered by manifest task order when given,
// otherwise by start timestamp. This is the canonical merge order: both
// the batch builders and the incremental serve path feed contributions
// through it, which is what keeps their outputs byte-identical.
func OrderTasks(traces []*trace.TaskTrace, m *trace.Manifest) []*trace.TaskTrace {
	out := append([]*trace.TaskTrace(nil), traces...)
	if m != nil && len(m.TaskOrder) > 0 {
		rank := make(map[string]int, len(m.TaskOrder))
		for i, t := range m.TaskOrder {
			rank[t] = i
		}
		sort.SliceStable(out, func(i, j int) bool {
			ri, oki := rank[out[i].Task]
			rj, okj := rank[out[j].Task]
			switch {
			case oki && okj:
				return ri < rj
			case oki:
				return true
			case okj:
				return false
			default:
				return out[i].StartNS < out[j].StartNS
			}
		})
		return out
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].StartNS < out[j].StartNS })
	return out
}

// bandwidth computes bytes/sec over a nanosecond window. Degenerate
// windows (a single-op instant, or inverted timestamps) return 0, which
// renderers and diagnostics treat as "unknown" — dividing by a clamped
// 1 ns would report a roughly billion-fold inflated bandwidth.
func bandwidth(bytes int64, firstNS, lastNS int64) float64 {
	dt := lastNS - firstNS
	if dt <= 0 {
		return 0
	}
	return float64(bytes) / (float64(dt) / 1e9)
}

// Contribution is one task's share of a graph: the nodes and edges a
// build visiting the tasks one by one adds while at that task, in the
// order it adds them. A contribution owns its slices, so callers — the
// serve contribution cache — may retain it indefinitely.
type Contribution struct {
	nodes []graph.Node
	edges []graph.Edge
}

func (c *Contribution) addNode(n graph.Node) { c.nodes = append(c.nodes, n) }
func (c *Contribution) addEdge(e graph.Edge) { c.edges = append(c.edges, e) }

// BuildFTG constructs the File-Task Graph: tasks and files as nodes,
// directed read/write edges decorated with access statistics, and
// data-reuse marking for files consumed by multiple tasks.
func BuildFTG(traces []*trace.TaskTrace, m *trace.Manifest) *graph.Graph {
	return BuildFTGOpts(traces, m, Options{})
}

// BuildFTGOpts is BuildFTG with explicit construction options (only
// Parallelism applies to FTGs).
func BuildFTGOpts(traces []*trace.TaskTrace, m *trace.Manifest, opts Options) *graph.Graph {
	ordered := OrderTasks(traces, m)
	return BuildFTGFromContributions(buildContributions(ordered, opts.withDefaults().Parallelism, FTGContribution))
}

// FTGContribution computes one task's FTG contribution.
func FTGContribution(t *trace.TaskTrace) Contribution {
	c := Contribution{
		nodes: make([]graph.Node, 0, 1+len(t.Files)),
		edges: make([]graph.Edge, 0, len(t.Files)),
	}
	c.addNode(graph.Node{
		ID: taskNodeID(t.Task), Kind: graph.KindTask, Label: t.Task,
		StartNS: t.StartNS, EndNS: t.EndNS,
	})
	for _, fr := range t.Files {
		c.addNode(graph.Node{
			ID: fileNodeID(fr.File), Kind: graph.KindFile, Label: fr.File,
			StartNS: fr.OpenNS, EndNS: fr.CloseNS,
			Volume: fr.BytesRead + fr.BytesWritten,
		})
		if fr.BytesRead > 0 || (fr.Reads > 0 && fr.Writes == 0) {
			c.addEdge(graph.Edge{
				From: fileNodeID(fr.File), To: taskNodeID(t.Task), Op: graph.OpRead,
				Volume:    fr.BytesRead,
				Bandwidth: bandwidth(fr.BytesRead, fr.OpenNS, fr.CloseNS),
				Ops:       fr.Reads, MetaOps: fr.MetaOps, DataOps: fr.DataOps,
				AvgSize: avg(fr.BytesRead, fr.Reads),
			})
		}
		if fr.BytesWritten > 0 || (fr.Writes > 0 && fr.Reads == 0) {
			c.addEdge(graph.Edge{
				From: taskNodeID(t.Task), To: fileNodeID(fr.File), Op: graph.OpWrite,
				Volume:    fr.BytesWritten,
				Bandwidth: bandwidth(fr.BytesWritten, fr.OpenNS, fr.CloseNS),
				Ops:       fr.Writes, MetaOps: fr.MetaOps, DataOps: fr.DataOps,
				AvgSize: avg(fr.BytesWritten, fr.Writes),
			})
		}
	}
	return c
}

func avg(bytes, ops int64) int64 {
	if ops == 0 {
		return 0
	}
	return bytes / ops
}

// markReuse flags outgoing read edges of any file consumed by two or
// more distinct tasks (the orange edges of Figure 4).
func markReuse(g *graph.Graph) {
	for _, n := range g.NodesOfKind(graph.KindFile) {
		readers := map[string]bool{}
		for _, e := range g.OutEdges(n.ID) {
			if e.Op == graph.OpRead {
				readers[e.To] = true
			}
		}
		if len(readers) >= 2 {
			for _, e := range g.OutEdges(n.ID) {
				if e.Op == graph.OpRead {
					e.Reused = true
				}
			}
		}
	}
}

// ObjectKey identifies a data object for SDG decoration lookups.
type ObjectKey struct{ File, Object string }

// ObjectDescs indexes object descriptions (Table I records) by file
// and object name; SDG dataset nodes are decorated from it.
type ObjectDescs map[ObjectKey]trace.ObjectRecord

// BuildObjectDescs collects object descriptions from the ordered
// traces; later tasks' descriptions win, matching the serial build.
func BuildObjectDescs(ordered []*trace.TaskTrace) ObjectDescs {
	descs := ObjectDescs{}
	for _, t := range ordered {
		for _, o := range t.Objects {
			descs[ObjectKey{o.File, o.Object}] = o
		}
	}
	return descs
}

// BuildSDG constructs the Semantic Dataflow Graph: the FTG plus a
// dataset layer between tasks and files, optionally refined with file
// address-region nodes and the File-Metadata pseudo-dataset.
func BuildSDG(traces []*trace.TaskTrace, m *trace.Manifest, opts Options) *graph.Graph {
	opts = opts.withDefaults()
	ordered := OrderTasks(traces, m)
	descs := BuildObjectDescs(ordered)
	return BuildSDGFromContributions(buildContributions(ordered, opts.Parallelism, func(t *trace.TaskTrace) Contribution {
		return SDGContribution(t, descs, opts)
	}))
}

// SDGContribution computes one task's SDG contribution. The descs
// index must come from BuildObjectDescs over the full ordered trace
// set and is only read here; the contribution is a pure function of
// (trace, relevant descs, options), which is what makes it cacheable —
// see ObjectDescs.Fingerprint for the cache-key component covering
// descs.
func SDGContribution(t *trace.TaskTrace, descs ObjectDescs, opts Options) Contribution {
	opts = opts.withDefaults()
	// Sized for the common shape — per mapped object one node, one
	// access edge and one map edge; per region one node and two map
	// edges — so the appends below rarely grow the slices.
	nodes, edges := 1+len(t.Files)+len(t.Mapped), 2*len(t.Mapped)
	if opts.IncludeRegions {
		for i := range t.Mapped {
			nodes += len(t.Mapped[i].Regions)
			edges += 2 * len(t.Mapped[i].Regions)
		}
	}
	c := Contribution{nodes: make([]graph.Node, 0, nodes), edges: make([]graph.Edge, 0, edges)}
	c.addNode(graph.Node{
		ID: taskNodeID(t.Task), Kind: graph.KindTask, Label: t.Task,
		StartNS: t.StartNS, EndNS: t.EndNS,
	})
	for _, fr := range t.Files {
		c.addNode(graph.Node{
			ID: fileNodeID(fr.File), Kind: graph.KindFile, Label: fr.File,
			StartNS: fr.OpenNS, EndNS: fr.CloseNS,
			Volume: fr.BytesRead + fr.BytesWritten,
		})
	}
	for _, ms := range t.Mapped {
		if ms.Object == "" {
			if opts.IncludeFileMetadata && ms.MetaOps > 0 {
				addMetaNode(&c, t, ms)
			}
			continue
		}
		nodeID := datasetNodeID(ms.File, ms.Object)
		attrs := map[string]string{}
		if d, ok := descs[ObjectKey{ms.File, ms.Object}]; ok {
			attrs["datatype"] = d.Datatype
			attrs["layout"] = d.Layout
			attrs["shape"] = fmt.Sprint(d.Shape)
		}
		c.addNode(graph.Node{
			ID: nodeID, Kind: graph.KindDataset, Label: ms.Object,
			StartNS: ms.FirstNS, EndNS: ms.LastNS,
			Volume: ms.Bytes(), Attrs: attrs,
		})
		// Access edges between task and dataset.
		op := operationLabel(ms)
		if ms.Writes > 0 {
			c.addEdge(graph.Edge{
				From: taskNodeID(t.Task), To: nodeID, Op: graph.OpWrite,
				Volume:    ms.Bytes(),
				Bandwidth: bandwidth(ms.Bytes(), ms.FirstNS, ms.LastNS),
				Ops:       ms.Ops(), MetaOps: ms.MetaOps, DataOps: ms.DataOps,
				AvgSize: avg(ms.Bytes(), ms.Ops()),
				Attrs:   map[string]string{"operation": op},
			})
		}
		if ms.Reads > 0 {
			c.addEdge(graph.Edge{
				From: nodeID, To: taskNodeID(t.Task), Op: graph.OpRead,
				Volume:    ms.Bytes(),
				Bandwidth: bandwidth(ms.Bytes(), ms.FirstNS, ms.LastNS),
				Ops:       ms.Ops(), MetaOps: ms.MetaOps, DataOps: ms.DataOps,
				AvgSize: avg(ms.Bytes(), ms.Ops()),
				Attrs:   map[string]string{"operation": op},
			})
		}
		// Structural edges to regions/file.
		if opts.IncludeRegions {
			addRegionEdges(&c, ms, opts.PageSize, nodeID)
		} else {
			c.addEdge(graph.Edge{From: nodeID, To: fileNodeID(ms.File), Op: graph.OpMap})
		}
	}
	return c
}

// operationLabel summarizes the access mode (Figure 7 shows
// "read_only" in the statistics pop-up).
func operationLabel(ms trace.MappedStat) string {
	switch {
	case ms.Reads > 0 && ms.Writes > 0:
		return "read_write"
	case ms.Reads > 0:
		return "read_only"
	case ms.Writes > 0:
		return "write_only"
	}
	return "none"
}

func addMetaNode(c *Contribution, t *trace.TaskTrace, ms trace.MappedStat) {
	nodeID := metaNodeID(ms.File)
	c.addNode(graph.Node{
		ID: nodeID, Kind: graph.KindMeta, Label: "File-Metadata",
		StartNS: ms.FirstNS, EndNS: ms.LastNS, Volume: ms.MetaBytes,
	})
	if ms.Writes > 0 {
		c.addEdge(graph.Edge{
			From: taskNodeID(t.Task), To: nodeID, Op: graph.OpWrite,
			Volume: ms.MetaBytes, Ops: ms.Ops(), MetaOps: ms.MetaOps,
			Bandwidth: bandwidth(ms.MetaBytes, ms.FirstNS, ms.LastNS),
		})
	}
	if ms.Reads > 0 {
		c.addEdge(graph.Edge{
			From: nodeID, To: taskNodeID(t.Task), Op: graph.OpRead,
			Volume: ms.MetaBytes, Ops: ms.Ops(), MetaOps: ms.MetaOps,
			Bandwidth: bandwidth(ms.MetaBytes, ms.FirstNS, ms.LastNS),
		})
	}
	c.addEdge(graph.Edge{From: nodeID, To: fileNodeID(ms.File), Op: graph.OpMap})
}

// addRegionEdges converts the object's merged extents into page-range
// region nodes: dataset -> region -> file (Figure 3's addr nodes).
func addRegionEdges(c *Contribution, ms trace.MappedStat, pageSize int64, datasetID string) {
	for _, ext := range ms.Regions {
		p1 := ext.Start / pageSize
		p2 := (ext.End + pageSize - 1) / pageSize
		if p2 == p1 {
			p2 = p1 + 1
		}
		rid := regionNodeID(ms.File, p1, p2)
		c.addNode(graph.Node{
			ID: rid, Kind: graph.KindRegion,
			Label:  fmt.Sprintf("[%d-%d)", p1, p2),
			Volume: ext.Len(),
		})
		c.addEdge(graph.Edge{From: datasetID, To: rid, Op: graph.OpMap, Volume: ext.Len()})
		c.addEdge(graph.Edge{From: rid, To: fileNodeID(ms.File), Op: graph.OpMap})
	}
}

// markDatasetReuse flags read edges of datasets consumed by multiple
// tasks.
func markDatasetReuse(g *graph.Graph) {
	for _, n := range g.NodesOfKind(graph.KindDataset) {
		readers := map[string]bool{}
		for _, e := range g.OutEdges(n.ID) {
			if e.Op == graph.OpRead {
				readers[e.To] = true
			}
		}
		if len(readers) >= 2 {
			for _, e := range g.OutEdges(n.ID) {
				if e.Op == graph.OpRead {
					e.Reused = true
				}
			}
		}
	}
}
