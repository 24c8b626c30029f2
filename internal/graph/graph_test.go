package graph

import (
	"bytes"
	"encoding/json"
	"fmt"
	"reflect"
	"strings"
	"testing"
	"unicode/utf8"
)

func sampleGraph() *Graph {
	g := New("sample")
	g.AddNode(Node{ID: "t1", Kind: KindTask, Label: "task one", StartNS: 10, EndNS: 20})
	g.AddNode(Node{ID: "f1", Kind: KindFile, StartNS: 12, EndNS: 30, Volume: 1 << 20})
	g.AddNode(Node{ID: "d1", Kind: KindDataset, StartNS: 12, EndNS: 18})
	g.AddNode(Node{ID: "t2", Kind: KindTask, StartNS: 25, EndNS: 40})
	mustEdge(g, Edge{From: "t1", To: "d1", Op: OpWrite, Volume: 1 << 20, Bandwidth: 1e6, Ops: 4, DataOps: 3, MetaOps: 1})
	mustEdge(g, Edge{From: "d1", To: "f1", Op: OpMap})
	mustEdge(g, Edge{From: "f1", To: "t2", Op: OpRead, Volume: 1 << 19, Bandwidth: 5e5, Ops: 2, DataOps: 2, Reused: true})
	return g
}

func mustEdge(g *Graph, e Edge) {
	if _, err := g.AddEdge(e); err != nil {
		panic(err)
	}
}

func TestAddNodeMerges(t *testing.T) {
	g := New("g")
	g.AddNode(Node{ID: "a", Kind: KindFile, StartNS: 100, EndNS: 200, Volume: 10})
	g.AddNode(Node{ID: "a", Kind: KindFile, StartNS: 50, EndNS: 300, Volume: 5,
		Attrs: map[string]string{"k": "v"}})
	n := g.Node("a")
	if n.Volume != 15 {
		t.Errorf("volume = %d", n.Volume)
	}
	if n.StartNS != 50 || n.EndNS != 300 {
		t.Errorf("window = [%d,%d]", n.StartNS, n.EndNS)
	}
	if n.Attrs["k"] != "v" {
		t.Error("attrs not merged")
	}
	if g.NumNodes() != 1 {
		t.Error("duplicate node inserted")
	}
}

func TestEdgesRequireEndpoints(t *testing.T) {
	g := New("g")
	g.AddNode(Node{ID: "a"})
	if _, err := g.AddEdge(Edge{From: "a", To: "missing"}); err == nil {
		t.Error("edge to unknown node accepted")
	}
	if _, err := g.AddEdge(Edge{From: "missing", To: "a"}); err == nil {
		t.Error("edge from unknown node accepted")
	}
}

func TestDegreesAndQueries(t *testing.T) {
	g := sampleGraph()
	if g.NumNodes() != 4 || g.NumEdges() != 3 {
		t.Fatalf("size = %d/%d", g.NumNodes(), g.NumEdges())
	}
	if g.OutDegree("t1") != 1 {
		t.Errorf("OutDegree(t1) = %d", g.OutDegree("t1"))
	}
	if len(g.OutEdges("d1")) != 1 || len(g.InEdges("d1")) != 1 {
		t.Error("edge queries wrong")
	}
	if len(g.NodesOfKind(KindTask)) != 2 {
		t.Error("NodesOfKind wrong")
	}
	if g.TotalVolume() != 1<<20+1<<19 {
		t.Error("TotalVolume wrong")
	}
	ids := g.SortedNodeIDs()
	if ids[0] != "d1" {
		t.Errorf("sorted ids = %v", ids)
	}
}

func TestRanks(t *testing.T) {
	g := sampleGraph()
	ranks := g.Ranks()
	if ranks["t1"] != 0 || ranks["d1"] != 1 || ranks["f1"] != 2 || ranks["t2"] != 3 {
		t.Errorf("ranks = %v", ranks)
	}
	// Cycles must not hang or panic.
	c := New("cycle")
	c.AddNode(Node{ID: "a"})
	c.AddNode(Node{ID: "b"})
	mustEdge(c, Edge{From: "a", To: "b"})
	mustEdge(c, Edge{From: "b", To: "a"})
	cr := c.Ranks()
	if len(cr) == 0 {
		t.Error("cycle ranks missing")
	}
	// Self loops are ignored.
	s := New("self")
	s.AddNode(Node{ID: "x"})
	mustEdge(s, Edge{From: "x", To: "x"})
	if s.Ranks()["x"] != 0 {
		t.Error("self loop affected rank")
	}
}

func TestDOT(t *testing.T) {
	dot := sampleGraph().DOT()
	for _, want := range []string{
		"digraph", `"t1" -> "d1"`, `"f1" -> "t2"`,
		"#1f77b4", // file blue
		"#d62728", // task red
		"#ffdd57", // dataset yellow
		"#ff7f0e", // reuse orange
		"1.0 MiB",
	} {
		if !strings.Contains(dot, want) {
			t.Errorf("DOT missing %q", want)
		}
	}
}

func TestSVG(t *testing.T) {
	svg := sampleGraph().SVG()
	if !strings.HasPrefix(svg, "<svg") || !strings.HasSuffix(strings.TrimSpace(svg), "</svg>") {
		t.Fatal("not an SVG document")
	}
	for _, want := range []string{"task one", "<line", "<rect", "Access Volume"} {
		if !strings.Contains(svg, want) {
			t.Errorf("SVG missing %q", want)
		}
	}
	// Long labels are truncated.
	g := New("g")
	g.AddNode(Node{ID: strings.Repeat("x", 64), Kind: KindFile})
	if !strings.Contains(g.SVG(), "...") {
		t.Error("long label not truncated")
	}
}

func TestHTML(t *testing.T) {
	h := sampleGraph().HTML()
	for _, want := range []string{
		"<!DOCTYPE html>", "<svg", "Edge statistics",
		"HDF5 Metadata Access Count", // Figure 7 pop-up fields in tooltips
		"<td>t1</td>",
	} {
		if !strings.Contains(h, want) {
			t.Errorf("HTML missing %q", want)
		}
	}
	// HTML escapes hostile labels.
	g := New("<script>")
	g.AddNode(Node{ID: "a", Label: "<script>alert(1)</script>"})
	if strings.Contains(g.HTML(), "<script>alert") {
		t.Error("HTML injection not escaped")
	}
}

// TestHTMLEscapesOp: the op reaches the edge table through the same
// escaping as every other cell; a graph read back through UnmarshalJSON
// can carry any op string.
func TestHTMLEscapesOp(t *testing.T) {
	var g Graph
	if err := json.Unmarshal([]byte(`{"name":"g","nodes":[{"ID":"a"},{"ID":"b"}],`+
		`"edges":[{"From":"a","To":"b","Op":"<img src=x onerror=alert(1)>"}]}`), &g); err != nil {
		t.Fatal(err)
	}
	h := g.HTML()
	if strings.Contains(h, "<img") {
		t.Error("HTML writes the op unescaped")
	}
	if !strings.Contains(h, "<td>&lt;img src=x onerror=alert(1)&gt;</td>") {
		t.Error("HTML edge table lost the op")
	}
}

// TestSVGTruncatesOnRuneBoundary: a long label is cut at a rune
// boundary at or before byte 27, so the document stays valid UTF-8.
func TestSVGTruncatesOnRuneBoundary(t *testing.T) {
	for _, label := range []string{
		strings.Repeat("é", 20),                          // byte 27 is a continuation byte
		strings.Repeat("a", 25) + "☃☃☃",                  // byte 27 is inside a three-byte rune
		strings.Repeat("a", 26) + strings.Repeat("🜚", 2), // four-byte runes
	} {
		g := New("g")
		g.AddNode(Node{ID: "n", Label: label})
		svg := g.SVG()
		if !utf8.ValidString(svg) {
			t.Errorf("label %q: SVG is not valid UTF-8", label)
		}
		cut := 27
		for !utf8.RuneStart(label[cut]) {
			cut--
		}
		if want := ">" + label[:cut] + "...</text>"; !strings.Contains(svg, want) {
			t.Errorf("label %q: SVG lacks %q", label, want)
		}
	}
}

func TestJSONRoundTrip(t *testing.T) {
	g := sampleGraph()
	data, err := json.Marshal(g)
	if err != nil {
		t.Fatal(err)
	}
	var back Graph
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if back.Name != g.Name || back.NumNodes() != g.NumNodes() || back.NumEdges() != g.NumEdges() {
		t.Fatalf("round trip: %s %d/%d", back.Name, back.NumNodes(), back.NumEdges())
	}
	if back.Node("f1").Volume != 1<<20 {
		t.Error("node data lost")
	}
	if !back.Edges()[2].Reused {
		t.Error("edge data lost")
	}
}

func TestEdgeColorAndWidth(t *testing.T) {
	edgeColor := func(bw, maxBW float64, reused bool) string {
		var w writer
		w.edgeColor(bw, maxBW, reused)
		return w.String()
	}
	if edgeColor(0, 0, true) != "#ff7f0e" {
		t.Error("reuse color wrong")
	}
	low := edgeColor(0.1, 1, false)
	high := edgeColor(1, 1, false)
	if low == high {
		t.Error("bandwidth shading not applied")
	}
	if edgeColor(5, 1, false) != edgeColor(1, 1, false) {
		t.Error("bandwidth fraction not clamped")
	}
	if penWidth(0) != 1 {
		t.Error("zero volume width wrong")
	}
	if penWidth(1<<30) <= penWidth(1<<10) {
		t.Error("width not monotone")
	}
}

func TestFilter(t *testing.T) {
	g := sampleGraph()
	sub := g.Filter("tasks-only", func(n *Node) bool { return n.Kind == KindTask })
	if sub.NumNodes() != 2 {
		t.Fatalf("filtered nodes = %d", sub.NumNodes())
	}
	// No edge survives: every sample edge touches a non-task node.
	if sub.NumEdges() != 0 {
		t.Errorf("filtered edges = %d", sub.NumEdges())
	}
	// Keeping everything preserves the graph.
	all := g.Filter("all", func(*Node) bool { return true })
	if all.NumNodes() != g.NumNodes() || all.NumEdges() != g.NumEdges() {
		t.Error("identity filter lost elements")
	}
}

func TestNeighborhood(t *testing.T) {
	g := sampleGraph() // t1 -> d1 -> f1 -> t2
	n0 := g.Neighborhood("n0", "d1", 0)
	if n0.NumNodes() != 1 || n0.NumEdges() != 0 {
		t.Fatalf("0-hop: %d/%d", n0.NumNodes(), n0.NumEdges())
	}
	n1 := g.Neighborhood("n1", "d1", 1)
	if n1.NumNodes() != 3 { // d1, t1, f1
		t.Fatalf("1-hop nodes = %d", n1.NumNodes())
	}
	if n1.Node("t2") != nil {
		t.Error("t2 inside 1-hop neighborhood")
	}
	n2 := g.Neighborhood("n2", "d1", 2)
	if n2.NumNodes() != 4 || n2.NumEdges() != 3 {
		t.Fatalf("2-hop: %d/%d", n2.NumNodes(), n2.NumEdges())
	}
}

// scanOut and scanIn are the pre-index O(E) reference implementations
// the adjacency indexes must agree with, edge for edge and in order.
func scanOut(g *Graph, id string) []*Edge {
	var out []*Edge
	for _, e := range g.Edges() {
		if e.From == id {
			out = append(out, e)
		}
	}
	return out
}

func scanIn(g *Graph, id string) []*Edge {
	var out []*Edge
	for _, e := range g.Edges() {
		if e.To == id {
			out = append(out, e)
		}
	}
	return out
}

func TestAdjacencyIndexMatchesScan(t *testing.T) {
	g := New("indexed")
	const n = 40
	for i := 0; i < n; i++ {
		g.AddNode(Node{ID: fmt.Sprintf("n%02d", i)})
	}
	// Deterministic pseudo-random multigraph with self loops and
	// parallel edges.
	seed := uint64(42)
	next := func(mod int) int {
		seed = seed*6364136223846793005 + 1442695040888963407
		return int(seed>>33) % mod
	}
	for i := 0; i < 400; i++ {
		from := fmt.Sprintf("n%02d", next(n))
		to := fmt.Sprintf("n%02d", next(n))
		mustEdge(g, Edge{From: from, To: to, Op: OpRead, Volume: int64(i)})
	}
	check := func(g *Graph) {
		t.Helper()
		for i := 0; i < n; i++ {
			id := fmt.Sprintf("n%02d", i)
			if got, want := g.OutEdges(id), scanOut(g, id); !reflect.DeepEqual(got, want) {
				t.Fatalf("OutEdges(%s): index disagrees with scan (%d vs %d edges)", id, len(got), len(want))
			}
			if got, want := g.InEdges(id), scanIn(g, id); !reflect.DeepEqual(got, want) {
				t.Fatalf("InEdges(%s): index disagrees with scan (%d vs %d edges)", id, len(got), len(want))
			}
			seen := map[string]bool{}
			for _, e := range scanOut(g, id) {
				seen[e.To] = true
			}
			if g.OutDegree(id) != len(seen) {
				t.Fatalf("OutDegree(%s) = %d, want %d", id, g.OutDegree(id), len(seen))
			}
		}
	}
	check(g)

	// The index must survive a JSON round trip (UnmarshalJSON rebuilds).
	data, err := json.Marshal(g)
	if err != nil {
		t.Fatal(err)
	}
	var back Graph
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	check(&back)

	// And a Filter pass (subgraphs are built through AddEdge too).
	sub := g.Filter("half", func(n *Node) bool { return n.ID < "n20" })
	check(sub)
}

// TestNewSizedMatchesIncrementalBuild asserts that reserving capacity
// changes nothing observable: a pre-sized graph and a plain one fed the
// same AddNode/AddEdge sequence agree on every query and rendering, and
// — across several slab chunks — the pointers AddEdge returned are the
// ones Edges() and the adjacency index hold, so a decoration pass
// mutates one object.
func TestNewSizedMatchesIncrementalBuild(t *testing.T) {
	const nodes, edges = 50, 3*maxEdgeChunk + 7
	build := func(g *Graph) []*Edge {
		for i := 0; i < nodes; i++ {
			g.AddNode(Node{ID: fmt.Sprintf("n%02d", i), Kind: KindFile, Volume: int64(i)})
			g.AddNode(Node{ID: fmt.Sprintf("n%02d", i/2), StartNS: int64(i), Attrs: map[string]string{"i": fmt.Sprint(i)}})
		}
		returned := make([]*Edge, edges)
		for i := range returned {
			e, err := g.AddEdge(Edge{From: fmt.Sprintf("n%02d", i%nodes), To: fmt.Sprintf("n%02d", i*7%nodes),
				Op: OpRead, Volume: int64(i), Attrs: map[string]string{"operation": "read_only"}})
			if err != nil {
				t.Fatal(err)
			}
			returned[i] = e
		}
		return returned
	}
	want := New("g")
	build(want)
	// Under-, exactly and over-reserved.
	for _, size := range [][2]int{{1, 1}, {nodes, edges}, {4 * nodes, 4 * edges}} {
		got := NewSized("g", size[0], size[1])
		returned := build(got)
		if got.NumNodes() != want.NumNodes() || got.NumEdges() != want.NumEdges() {
			t.Fatalf("sized %v: %d/%d nodes/edges, want %d/%d", size,
				got.NumNodes(), got.NumEdges(), want.NumNodes(), want.NumEdges())
		}
		if got.DOT() != want.DOT() || got.HTML() != want.HTML() || got.SVG() != want.SVG() {
			t.Fatalf("sized %v: graph renders differently", size)
		}
		gj, err := json.Marshal(got)
		if err != nil {
			t.Fatal(err)
		}
		wj, err := json.Marshal(want)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(gj, wj) {
			t.Fatalf("sized %v: graph JSON differs", size)
		}
		for _, n := range want.Nodes() {
			if !reflect.DeepEqual(got.OutEdges(n.ID), want.OutEdges(n.ID)) ||
				!reflect.DeepEqual(got.InEdges(n.ID), want.InEdges(n.ID)) {
				t.Fatalf("sized %v: adjacency for %s differs", size, n.ID)
			}
		}
		for i, e := range got.Edges() {
			if e != returned[i] {
				t.Fatalf("sized %v: Edges()[%d] is not the pointer AddEdge returned", size, i)
			}
		}
		first := returned[0]
		first.Reused = true
		if !got.OutEdges(first.From)[0].Reused || !got.InEdges(first.To)[0].Reused {
			t.Fatalf("sized %v: adjacency index does not share edge pointers with Edges()", size)
		}
	}
}
