package graph_test

import (
	"encoding/json"
	"fmt"
	"html"
	"math"
	"sort"
	"strings"
	"testing"
	"unicode/utf8"

	"dayu/internal/analyzer"
	"dayu/internal/graph"
	"dayu/internal/units"
	"dayu/internal/workloads"
)

// The reference renderers below are the fmt and encoding/json
// renderers the append-based ones replaced, kept verbatim except for
// two escaping fixes both sides carry: the HTML edge table escapes the
// op like every other cell, and the SVG cuts a long label at a rune
// boundary instead of at byte 27.

func refNodeStyle(k graph.Kind) (shape, fill string) {
	switch k {
	case graph.KindFile:
		return "box", "#1f77b4"
	case graph.KindTask:
		return "box", "#d62728"
	case graph.KindDataset:
		return "ellipse", "#ffdd57"
	case graph.KindRegion:
		return "box", "#9ecae1"
	case graph.KindMeta:
		return "ellipse", "#c7c7c7"
	case graph.KindStage:
		return "box3d", "#aa66cc"
	}
	return "ellipse", "#ffffff"
}

func refEdgeColor(bw, maxBW float64, reused bool) string {
	if reused {
		return "#ff7f0e"
	}
	if maxBW <= 0 || bw <= 0 {
		return "#888888"
	}
	frac := bw / maxBW
	if frac > 1 {
		frac = 1
	}
	level := 200 - int(170*frac)
	return fmt.Sprintf("#%02x%02x%02x", level, level, level)
}

func refPenWidth(volume int64) float64 {
	if volume <= 0 {
		return 1
	}
	return 1 + math.Log10(float64(volume))/2
}

func refMaxBandwidth(g *graph.Graph) float64 {
	var max float64
	for _, e := range g.Edges() {
		if e.Bandwidth > max {
			max = e.Bandwidth
		}
	}
	return max
}

func refDOT(g *graph.Graph) string {
	var b strings.Builder
	fmt.Fprintf(&b, "digraph %q {\n  rankdir=LR;\n  node [style=filled fontname=\"Helvetica\"];\n", g.Name)
	maxBW := refMaxBandwidth(g)
	for _, n := range g.Nodes() {
		shape, fill := refNodeStyle(n.Kind)
		label := n.Label
		if label == "" {
			label = n.ID
		}
		fmt.Fprintf(&b, "  %q [label=%q shape=%s fillcolor=%q];\n", n.ID, label, shape, fill)
	}
	for _, e := range g.Edges() {
		color := refEdgeColor(e.Bandwidth, maxBW, e.Reused)
		label := ""
		if e.Volume > 0 {
			label = units.Bytes(e.Volume)
		}
		fmt.Fprintf(&b, "  %q -> %q [color=%q penwidth=%.2f label=%q];\n",
			e.From, e.To, color, refPenWidth(e.Volume), label)
	}
	b.WriteString("}\n")
	return b.String()
}

func refSVG(g *graph.Graph) string {
	const (
		colW   = 260
		rowH   = 44
		nodeW  = 200
		nodeH  = 30
		margin = 40
	)
	ranks := g.Ranks()
	cols := map[int][]*graph.Node{}
	maxRank := 0
	for _, n := range g.Nodes() {
		r := ranks[n.ID]
		cols[r] = append(cols[r], n)
		if r > maxRank {
			maxRank = r
		}
	}
	maxRows := 0
	for r := 0; r <= maxRank; r++ {
		sort.Slice(cols[r], func(i, j int) bool {
			if cols[r][i].StartNS != cols[r][j].StartNS {
				return cols[r][i].StartNS < cols[r][j].StartNS
			}
			return cols[r][i].ID < cols[r][j].ID
		})
		if len(cols[r]) > maxRows {
			maxRows = len(cols[r])
		}
	}
	width := margin*2 + (maxRank+1)*colW
	height := margin*2 + maxRows*rowH

	pos := map[string][2]int{}
	var b strings.Builder
	fmt.Fprintf(&b, `<svg xmlns="http://www.w3.org/2000/svg" width="%d" height="%d" font-family="Helvetica" font-size="11">`+"\n", width, height)
	fmt.Fprintf(&b, `<text x="%d" y="20" font-size="14" font-weight="bold">%s</text>`+"\n", margin, html.EscapeString(g.Name))

	maxBW := refMaxBandwidth(g)
	for r := 0; r <= maxRank; r++ {
		for i, n := range cols[r] {
			pos[n.ID] = [2]int{margin + r*colW, margin + i*rowH}
		}
	}
	for _, e := range g.Edges() {
		p1, ok1 := pos[e.From]
		p2, ok2 := pos[e.To]
		if !ok1 || !ok2 {
			continue
		}
		color := refEdgeColor(e.Bandwidth, maxBW, e.Reused)
		fmt.Fprintf(&b, `<line x1="%d" y1="%d" x2="%d" y2="%d" stroke="%s" stroke-width="%.1f"><title>%s</title></line>`+"\n",
			p1[0]+nodeW, p1[1]+nodeH/2, p2[0], p2[1]+nodeH/2, color, refPenWidth(e.Volume),
			html.EscapeString(refEdgeTooltip(e)))
	}
	for _, n := range g.Nodes() {
		p := pos[n.ID]
		_, fill := refNodeStyle(n.Kind)
		label := n.Label
		if label == "" {
			label = n.ID
		}
		if len(label) > 30 {
			cut := 27 // fixed: back off to a rune boundary
			for cut > 0 && !utf8.RuneStart(label[cut]) {
				cut--
			}
			label = label[:cut] + "..."
		}
		fmt.Fprintf(&b, `<rect x="%d" y="%d" width="%d" height="%d" rx="4" fill="%s" stroke="#333"><title>%s</title></rect>`+"\n",
			p[0], p[1], nodeW, nodeH, fill, html.EscapeString(refNodeTooltip(n)))
		fmt.Fprintf(&b, `<text x="%d" y="%d">%s</text>`+"\n", p[0]+6, p[1]+nodeH/2+4, html.EscapeString(label))
	}
	b.WriteString("</svg>\n")
	return b.String()
}

func refNodeTooltip(n *graph.Node) string {
	parts := []string{fmt.Sprintf("%s (%s)", n.ID, n.Kind)}
	if n.Volume > 0 {
		parts = append(parts, "volume "+units.Bytes(n.Volume))
	}
	keys := make([]string, 0, len(n.Attrs))
	for k := range n.Attrs {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		parts = append(parts, k+": "+n.Attrs[k])
	}
	return strings.Join(parts, "\n")
}

func refEdgeTooltip(e *graph.Edge) string {
	var parts []string
	parts = append(parts, fmt.Sprintf("%s -> %s", e.From, e.To))
	parts = append(parts, "Access Volume: "+units.Bytes(e.Volume))
	parts = append(parts, fmt.Sprintf("Access Count: %d", e.Ops))
	if e.Ops > 0 {
		parts = append(parts, "Average Access Size: "+units.Bytes(e.Volume/e.Ops))
	}
	parts = append(parts, fmt.Sprintf("HDF5 Data Access Count: %d", e.DataOps))
	parts = append(parts, fmt.Sprintf("HDF5 Metadata Access Count: %d", e.MetaOps))
	parts = append(parts, "Operation: "+string(e.Op))
	parts = append(parts, "Bandwidth: "+refBandwidthLabel(e.Bandwidth))
	return strings.Join(parts, "\n")
}

func refBandwidthLabel(bw float64) string {
	if bw <= 0 {
		return "unknown"
	}
	return fmt.Sprintf("%.2f KB/s", bw/1e3)
}

func refHTML(g *graph.Graph) string {
	var b strings.Builder
	b.WriteString("<!DOCTYPE html>\n<html><head><meta charset=\"utf-8\"><title>")
	b.WriteString(html.EscapeString(g.Name))
	b.WriteString(`</title><style>
body { font-family: Helvetica, sans-serif; margin: 2em; }
table { border-collapse: collapse; margin-top: 1em; }
td, th { border: 1px solid #ccc; padding: 4px 8px; font-size: 12px; }
th { background: #eee; }
tr:hover { background: #fff3d6; }
</style></head><body>` + "\n")
	fmt.Fprintf(&b, "<h1>%s</h1>\n", html.EscapeString(g.Name))
	b.WriteString(refSVG(g))
	b.WriteString("<h2>Edge statistics</h2>\n<table><tr><th>From</th><th>To</th><th>Op</th><th>Volume</th><th>Ops</th><th>Data ops</th><th>Meta ops</th><th>Bandwidth</th><th>Reused</th></tr>\n")
	for _, e := range g.Edges() {
		fmt.Fprintf(&b, "<tr><td>%s</td><td>%s</td><td>%s</td><td>%s</td><td>%d</td><td>%d</td><td>%d</td><td>%s</td><td>%v</td></tr>\n",
			html.EscapeString(e.From), html.EscapeString(e.To), html.EscapeString(string(e.Op)), // fixed: op escaped
			units.Bytes(e.Volume), e.Ops, e.DataOps, e.MetaOps, refBandwidthLabel(e.Bandwidth), e.Reused)
	}
	b.WriteString("</table></body></html>\n")
	return b.String()
}

type refJSONGraph struct {
	Name  string        `json:"name"`
	Nodes []*graph.Node `json:"nodes"`
	Edges []*graph.Edge `json:"edges"`
}

// refJSON marshals a graph through the reflection encoder, as
// (*Graph).MarshalJSON did.
type refJSON struct{ g *graph.Graph }

func (r refJSON) MarshalJSON() ([]byte, error) {
	return json.Marshal(refJSONGraph{Name: r.g.Name, Nodes: r.g.Nodes(), Edges: r.g.Edges()})
}

// checkMatchesReference fails t unless every renderer writes the
// reference's bytes for g: DOT, SVG, HTML, MarshalJSON (or its error),
// and json.Marshal / json.MarshalIndent over it.
func checkMatchesReference(t *testing.T, g *graph.Graph) {
	t.Helper()
	for _, r := range []struct {
		name      string
		got, want string
	}{
		{"DOT", g.DOT(), refDOT(g)},
		{"SVG", g.SVG(), refSVG(g)},
		{"HTML", g.HTML(), refHTML(g)},
	} {
		if r.got != r.want {
			t.Errorf("%s differs from the reference:\n%s", r.name, firstDiff(r.got, r.want))
		}
	}
	got, gotErr := g.MarshalJSON()
	want, wantErr := refJSON{g}.MarshalJSON()
	if fmt.Sprint(gotErr) != fmt.Sprint(wantErr) {
		t.Fatalf("MarshalJSON error = %v, reference %v", gotErr, wantErr)
	}
	if wantErr != nil {
		if _, err := json.Marshal(g); err == nil {
			t.Error("json.Marshal succeeded where the reference fails")
		}
		return
	}
	if string(got) != string(want) {
		t.Errorf("MarshalJSON differs from the reference:\n%s", firstDiff(string(got), string(want)))
	}
	for _, enc := range []struct {
		name string
		fn   func(any) ([]byte, error)
	}{
		{"json.Marshal", json.Marshal},
		{"json.MarshalIndent", func(v any) ([]byte, error) { return json.MarshalIndent(v, "", " ") }},
	} {
		got, err := enc.fn(g)
		if err != nil {
			t.Fatalf("%s: %v", enc.name, err)
		}
		want, err := enc.fn(refJSON{g})
		if err != nil {
			t.Fatalf("%s (reference): %v", enc.name, err)
		}
		if string(got) != string(want) {
			t.Errorf("%s differs from the reference:\n%s", enc.name, firstDiff(string(got), string(want)))
		}
	}
}

// firstDiff shows where two renders part.
func firstDiff(got, want string) string {
	i := 0
	for i < len(got) && i < len(want) && got[i] == want[i] {
		i++
	}
	lo := max(0, i-80)
	return fmt.Sprintf("at byte %d (lengths %d, %d)\n got: %q\nwant: %q",
		i, len(got), len(want), got[lo:min(len(got), i+80)], want[lo:min(len(want), i+80)])
}

// hostile builds a three-node graph that carries the given strings,
// volume, bandwidth and attributes into every node and edge field a
// renderer writes, with a self-loop and a data-reuse edge.
func hostile(name, id, label, op string, volume int64, bw float64, attrs map[string]string) *graph.Graph {
	g := graph.New(name)
	g.AddNode(graph.Node{ID: id, Kind: graph.KindDataset, Label: label, StartNS: 5, EndNS: volume, Volume: volume, Attrs: attrs})
	g.AddNode(graph.Node{ID: "plain", Kind: graph.KindTask, StartNS: 1, Volume: -volume})
	g.AddNode(graph.Node{ID: label + "2", Kind: graph.Kind(op), Label: id, Attrs: map[string]string{}})
	for _, e := range []graph.Edge{
		{From: "plain", To: id, Op: graph.EdgeOp(op), Volume: volume, Bandwidth: bw, Ops: 3, DataOps: 2, MetaOps: 1, AvgSize: volume / 3, Attrs: attrs},
		{From: id, To: label + "2", Op: graph.OpRead, Volume: 1 << 20, Bandwidth: 2.5e6, Ops: 1, Reused: true},
		{From: label + "2", To: "plain", Op: graph.OpMap, Attrs: map[string]string{}},
		{From: id, To: id, Op: graph.OpWrite, Volume: volume, Bandwidth: bw / 3},
	} {
		if _, err := g.AddEdge(e); err != nil {
			panic(err)
		}
	}
	return g
}

func TestRenderMatchesReference(t *testing.T) {
	synthetic, manifest := workloads.GenerateSyntheticTraces(workloads.SyntheticTraceConfig{Tasks: 120})
	strs := []string{
		"", "plain", `with "quotes"`, `back\slash`, "ctl\x00\x01\t\n\x1f\x7f",
		"<script>&amp;'x'</script>", "line sep ", "bad\xff\xfeutf8", "☃ snow 🜚",
		strings.Repeat("é", 20), strings.Repeat("a", 26) + "☃☃☃☃",
		strings.Repeat("b", 27) + "\xe2\x98", strings.Repeat("long-ascii-", 6),
	}
	for _, tc := range []struct {
		name string
		g    *graph.Graph
	}{
		{"zero Graph{}", &graph.Graph{}},
		{`New("")`, graph.New("")},
		{"sample", func() *graph.Graph {
			return hostile("sample", "d1", "dataset one", "write", 1<<20, 1e6, map[string]string{"layout": "chunked"})
		}()},
		{"ftg", analyzer.BuildFTG(synthetic, manifest)},
		{"sdg", analyzer.BuildSDG(synthetic, manifest, analyzer.Options{IncludeRegions: true, IncludeFileMetadata: true})},
	} {
		t.Run(tc.name, func(t *testing.T) { checkMatchesReference(t, tc.g) })
	}
	for i, s := range strs {
		t.Run(fmt.Sprintf("string-%d", i), func(t *testing.T) {
			checkMatchesReference(t, hostile(s, "id"+s, s, s, 1536, 1e3, map[string]string{s: s, "k": "v"}))
			checkMatchesReference(t, hostile("n", s+"x", "", "read", 7, 0, nil))
		})
	}
	for _, volume := range []int64{0, 1, 1023, 1 << 40, math.MaxInt64, -1, math.MinInt64} {
		for _, bw := range []float64{0, 5e-324, 1e-7, 1, 1e21, math.MaxFloat64, math.Inf(1), math.NaN(), -1} {
			for _, attrs := range []map[string]string{nil, {}, {"b": "2", "a": "1", "<&>": " "}} {
				name := fmt.Sprintf("volume=%d,bw=%v,attrs=%d", volume, bw, len(attrs))
				if attrs == nil {
					name += "(nil)"
				}
				t.Run(name, func(t *testing.T) {
					checkMatchesReference(t, hostile("v", "d", "", "write", volume, bw, attrs))
				})
			}
		}
	}
}

func FuzzRender(f *testing.F) {
	f.Add("g", "a", "label", "b", "task", "read", "k", "v", int64(1<<20), 1e6, 0.0, uint8(0))
	f.Add("", "", "", "", "", "", "", "", int64(0), 0.0, 0.0, uint8(0xff))
	f.Add(`"q"\`, "<a>&", " \xff", "é", "\x00", "\t", "<", ">", int64(math.MaxInt64), math.MaxFloat64, math.NaN(), uint8(0x15))
	f.Add("n", "x", strings.Repeat("☃", 12), "y", "file", "write", "a", "b", int64(math.MinInt64), math.Inf(1), 1e-7, uint8(0x2a))
	f.Fuzz(func(t *testing.T, name, id1, label1, id2, kind, op, attrKey, attrVal string, volume int64, bw1, bw2 float64, flags uint8) {
		// Two bits of flags per map: nil, empty or two entries.
		attrs := func(shift uint) map[string]string {
			switch (flags >> shift) & 3 {
			case 0:
				return nil
			case 1:
				return map[string]string{}
			}
			return map[string]string{attrKey: attrVal, attrVal: attrKey + "z"}
		}
		g := graph.New(name)
		g.AddNode(graph.Node{ID: id1, Kind: graph.Kind(kind), Label: label1, StartNS: volume, EndNS: volume >> 1, Volume: volume, Attrs: attrs(0)})
		g.AddNode(graph.Node{ID: id2, Kind: graph.KindFile, StartNS: -volume, Volume: volume >> 3, Attrs: attrs(2)})
		for _, e := range []graph.Edge{
			{From: id1, To: id2, Op: graph.EdgeOp(op), Volume: volume, Bandwidth: bw1, Ops: volume % 7, DataOps: volume % 5, MetaOps: int64(flags), AvgSize: volume >> 4, Reused: flags&0x40 != 0, Attrs: attrs(4)},
			{From: id2, To: id1, Op: graph.OpRead, Volume: volume >> 2, Bandwidth: bw2, Ops: 1, Attrs: attrs(6)},
			{From: id1, To: id1, Op: graph.OpMap, Volume: -volume, Bandwidth: bw1 * bw2},
		} {
			if _, err := g.AddEdge(e); err != nil {
				t.Fatal(err)
			}
		}
		checkMatchesReference(t, g)
	})
}
