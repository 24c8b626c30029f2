package graph

import (
	"encoding/json"
	"fmt"
	"html"
	"math"
	"sort"
	"strings"

	"dayu/internal/units"
)

// nodeStyle maps kinds to the paper's figure palette: blue files, red
// tasks, yellow datasets, lighter blue address regions.
func nodeStyle(k Kind) (shape, fill string) {
	switch k {
	case KindFile:
		return "box", "#1f77b4"
	case KindTask:
		return "box", "#d62728"
	case KindDataset:
		return "ellipse", "#ffdd57"
	case KindRegion:
		return "box", "#9ecae1"
	case KindMeta:
		return "ellipse", "#c7c7c7"
	case KindStage:
		return "box3d", "#aa66cc"
	}
	return "ellipse", "#ffffff"
}

// edgeColor shades by bandwidth: darker means higher bandwidth, as in
// the paper's figures. A zero bandwidth means "unknown" (degenerate
// measurement window), not "slow", and renders in the neutral gray.
func edgeColor(bw, maxBW float64, reused bool) string {
	if reused {
		return "#ff7f0e" // orange: data-reuse edges
	}
	if maxBW <= 0 || bw <= 0 {
		return "#888888"
	}
	frac := bw / maxBW
	if frac > 1 {
		frac = 1
	}
	// Interpolate light gray -> near black.
	level := 200 - int(170*frac)
	return fmt.Sprintf("#%02x%02x%02x", level, level, level)
}

// penWidth scales edge width by volume (log scale).
func penWidth(volume int64) float64 {
	if volume <= 0 {
		return 1
	}
	return 1 + math.Log10(float64(volume))/2
}

// DOT renders the graph in Graphviz format with the paper's visual
// conventions.
func (g *Graph) DOT() string {
	var b strings.Builder
	fmt.Fprintf(&b, "digraph %q {\n  rankdir=LR;\n  node [style=filled fontname=\"Helvetica\"];\n", g.Name)
	maxBW := g.maxBandwidth()
	for _, n := range g.Nodes() {
		shape, fill := nodeStyle(n.Kind)
		label := n.Label
		if label == "" {
			label = n.ID
		}
		fmt.Fprintf(&b, "  %q [label=%q shape=%s fillcolor=%q];\n", n.ID, label, shape, fill)
	}
	for _, e := range g.Edges() {
		color := edgeColor(e.Bandwidth, maxBW, e.Reused)
		label := ""
		if e.Volume > 0 {
			label = units.Bytes(e.Volume)
		}
		fmt.Fprintf(&b, "  %q -> %q [color=%q penwidth=%.2f label=%q];\n",
			e.From, e.To, color, penWidth(e.Volume), label)
	}
	b.WriteString("}\n")
	return b.String()
}

func (g *Graph) maxBandwidth() float64 {
	var max float64
	for _, e := range g.edges {
		if e.Bandwidth > max {
			max = e.Bandwidth
		}
	}
	return max
}

// SVG renders a layered layout: nodes in columns by topological rank,
// ordered vertically by start time within a column - a static
// approximation of the interactive figure layout.
func (g *Graph) SVG() string {
	const (
		colW   = 260
		rowH   = 44
		nodeW  = 200
		nodeH  = 30
		margin = 40
	)
	ranks := g.Ranks()
	cols := map[int][]*Node{}
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

	maxBW := g.maxBandwidth()
	// Edges first so nodes draw on top.
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
		color := edgeColor(e.Bandwidth, maxBW, e.Reused)
		fmt.Fprintf(&b, `<line x1="%d" y1="%d" x2="%d" y2="%d" stroke="%s" stroke-width="%.1f"><title>%s</title></line>`+"\n",
			p1[0]+nodeW, p1[1]+nodeH/2, p2[0], p2[1]+nodeH/2, color, penWidth(e.Volume),
			html.EscapeString(edgeTooltip(e)))
	}
	for _, n := range g.Nodes() {
		p := pos[n.ID]
		_, fill := nodeStyle(n.Kind)
		label := n.Label
		if label == "" {
			label = n.ID
		}
		if len(label) > 30 {
			label = label[:27] + "..."
		}
		fmt.Fprintf(&b, `<rect x="%d" y="%d" width="%d" height="%d" rx="4" fill="%s" stroke="#333"><title>%s</title></rect>`+"\n",
			p[0], p[1], nodeW, nodeH, fill, html.EscapeString(nodeTooltip(n)))
		fmt.Fprintf(&b, `<text x="%d" y="%d">%s</text>`+"\n", p[0]+6, p[1]+nodeH/2+4, html.EscapeString(label))
	}
	b.WriteString("</svg>\n")
	return b.String()
}

func nodeTooltip(n *Node) string {
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

// edgeTooltip formats the detailed access statistics pop-up the paper
// shows (Figure 7): volume, counts, average sizes, class split,
// operation and bandwidth.
func edgeTooltip(e *Edge) string {
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
	parts = append(parts, "Bandwidth: "+bandwidthLabel(e.Bandwidth))
	return strings.Join(parts, "\n")
}

// bandwidthLabel formats a bandwidth for display; 0 means the window
// was too short to measure, so report "unknown" rather than 0.00 KB/s.
func bandwidthLabel(bw float64) string {
	if bw <= 0 {
		return "unknown"
	}
	return fmt.Sprintf("%.2f KB/s", bw/1e3)
}

// HTML renders a standalone interactive page: the SVG plus an edge
// statistics table (the "interactable HTML format" of the paper).
func (g *Graph) HTML() string {
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
	b.WriteString(g.SVG())
	b.WriteString("<h2>Edge statistics</h2>\n<table><tr><th>From</th><th>To</th><th>Op</th><th>Volume</th><th>Ops</th><th>Data ops</th><th>Meta ops</th><th>Bandwidth</th><th>Reused</th></tr>\n")
	for _, e := range g.Edges() {
		fmt.Fprintf(&b, "<tr><td>%s</td><td>%s</td><td>%s</td><td>%s</td><td>%d</td><td>%d</td><td>%d</td><td>%s</td><td>%v</td></tr>\n",
			html.EscapeString(e.From), html.EscapeString(e.To), e.Op,
			units.Bytes(e.Volume), e.Ops, e.DataOps, e.MetaOps, bandwidthLabel(e.Bandwidth), e.Reused)
	}
	b.WriteString("</table></body></html>\n")
	return b.String()
}

// jsonGraph is the serialized graph form.
type jsonGraph struct {
	Name  string  `json:"name"`
	Nodes []*Node `json:"nodes"`
	Edges []*Edge `json:"edges"`
}

// MarshalJSON serializes the graph.
func (g *Graph) MarshalJSON() ([]byte, error) {
	return json.Marshal(jsonGraph{Name: g.Name, Nodes: g.Nodes(), Edges: g.edges})
}

// UnmarshalJSON deserializes a graph.
func (g *Graph) UnmarshalJSON(data []byte) error {
	var jg jsonGraph
	if err := json.Unmarshal(data, &jg); err != nil {
		return err
	}
	*g = *NewSized(jg.Name, len(jg.Nodes), len(jg.Edges))
	for _, n := range jg.Nodes {
		g.AddNode(*n)
	}
	for _, e := range jg.Edges {
		if _, err := g.AddEdge(*e); err != nil {
			return err
		}
	}
	return nil
}
