package graph

import (
	"bytes"
	"encoding/json"
	"html"
	"math"
	"slices"
	"sort"
	"strconv"
	"strings"
	"unicode/utf8"

	"dayu/internal/jsonenc"
	"dayu/internal/units"
)

// The renderers append into one buffer sized up front from the graph's
// node and edge counts and string lengths, with no fmt and no
// reflection: at workflow scale the per-value formatting of fmt and
// encoding/json cost more than the analysis being rendered. Their bytes
// are the fmt/encoding/json renderers' bytes (render_ref_test.go holds
// them to it).

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

// penWidth scales edge width by volume (log scale).
func penWidth(volume int64) float64 {
	if volume <= 0 {
		return 1
	}
	return 1 + math.Log10(float64(volume))/2
}

// displayLabel is the text a node is drawn with: its label, else its ID.
func (n *Node) displayLabel() string {
	if n.Label != "" {
		return n.Label
	}
	return n.ID
}

func (g *Graph) maxBandwidth() float64 {
	var max float64
	for _, run := range g.edges {
		for _, e := range run {
			if e.Bandwidth > max {
				max = e.Bandwidth
			}
		}
	}
	return max
}

// writer is the text renderers' output: a strings.Builder grown once
// before the first write, so the returned string is the buffer itself,
// plus the scratch space values are formatted in on their way into it.
type writer struct {
	strings.Builder
	num  [32]byte
	keys []string // attribute-key sort buffer, reused across nodes
}

func (w *writer) int(v int64) { w.Write(strconv.AppendInt(w.num[:0], v, 10)) }

// fixed writes v with prec decimals, as fmt's "%.<prec>f".
func (w *writer) fixed(v float64, prec int) {
	w.Write(strconv.AppendFloat(w.num[:0], v, 'f', prec, 64))
}

func (w *writer) bytes(n int64) { w.Write(units.AppendBytes(w.num[:0], n)) }

// quoted writes s as fmt's %q does (strconv.Quote). Printable ASCII
// with no quote or backslash, which is nearly every ID and label, needs
// no escaping and is copied between the quotes.
func (w *writer) quoted(s string) {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < 0x20 || c > 0x7e || c == '"' || c == '\\' {
			w.Write(strconv.AppendQuote(w.num[:0], s))
			return
		}
	}
	w.WriteByte('"')
	w.WriteString(s)
	w.WriteByte('"')
}

func (w *writer) escaped(s string) { w.WriteString(html.EscapeString(s)) }

// edgeColor writes an edge's colour, shaded by bandwidth: darker means
// higher bandwidth, as in the paper's figures. A zero bandwidth means
// "unknown" (degenerate measurement window), not "slow", and renders in
// the neutral gray.
func (w *writer) edgeColor(bw, maxBW float64, reused bool) {
	if reused {
		w.WriteString("#ff7f0e") // orange: data-reuse edges
		return
	}
	if maxBW <= 0 || bw <= 0 {
		w.WriteString("#888888")
		return
	}
	frac := bw / maxBW
	if frac > 1 {
		frac = 1
	}
	// Interpolate light gray -> near black.
	level := 200 - int(170*frac)
	w.WriteByte('#')
	for i := 0; i < 3; i++ {
		w.hex2(level)
	}
}

// hex2 writes v as fmt's "%02x". Only a NaN bandwidth, whose shade
// converts to an arbitrary int, takes v outside a colour channel's
// 0-255, and there fmt's form is strconv's.
func (w *writer) hex2(v int) {
	const hex = "0123456789abcdef"
	if v < 0 || v > 0xff {
		w.Write(strconv.AppendInt(w.num[:0], int64(v), 16))
		return
	}
	w.WriteByte(hex[v>>4])
	w.WriteByte(hex[v&0xf])
}

// bandwidth writes a bandwidth for display; 0 means the window was too
// short to measure, so it reads "unknown" rather than 0.00 KB/s.
func (w *writer) bandwidth(bw float64) {
	if bw <= 0 {
		w.WriteString("unknown")
		return
	}
	w.fixed(bw/1e3, 2)
	w.WriteString(" KB/s")
}

// Per-item byte counts the renderers' size hints add to the strings
// they copy: the fixed text of one node or edge plus room for its
// numbers at their usual widths. A graph whose strings need escaping,
// or whose numbers run longer, grows the buffer past the hint.
const (
	dotNode  = 52  // `  "" [label="" shape=ellipse fillcolor="#ffffff"];` + "\n"
	dotEdge  = 72  // `  "" -> "" [color="#888888" penwidth=10.00 label="1023.9 KiB"];` + "\n"
	svgNode  = 200 // <rect> with its tooltip, <text>
	svgLabel = 30  // the longest label SVG draws before it truncates
	svgEdge  = 320 // <line> with its tooltip
	htmlEdge = 128 // one edge-statistics row
	jsonNode = 128 // {"ID":"",...,"Attrs":null}, with two timestamps and a volume
	jsonEdge = 176 // {"From":"",...,"Attrs":null}, with a bandwidth and five counts
	attrText = 32  // one attribute: key, value and punctuation, at a usual length
)

// DOT renders the graph in Graphviz format with the paper's visual
// conventions.
func (g *Graph) DOT() string {
	size := 80 + len(g.Name)
	for _, run := range g.nodes {
		for _, n := range run {
			size += dotNode + len(n.ID) + len(n.displayLabel())
		}
	}
	for _, run := range g.edges {
		for _, e := range run {
			size += dotEdge + len(e.From) + len(e.To)
		}
	}
	var w writer
	w.Grow(size)
	w.WriteString("digraph ")
	w.quoted(g.Name)
	w.WriteString(" {\n  rankdir=LR;\n  node [style=filled fontname=\"Helvetica\"];\n")
	for _, run := range g.nodes {
		for _, n := range run {
			w.dotNode(n)
		}
	}
	maxBW := g.maxBandwidth()
	for _, run := range g.edges {
		for _, e := range run {
			w.dotEdge(e, maxBW)
		}
	}
	w.WriteString("}\n")
	return w.String()
}

func (w *writer) dotNode(n *Node) {
	shape, fill := nodeStyle(n.Kind)
	w.WriteString("  ")
	w.quoted(n.ID)
	w.WriteString(" [label=")
	w.quoted(n.displayLabel())
	w.WriteString(" shape=")
	w.WriteString(shape)
	w.WriteString(" fillcolor=\"")
	w.WriteString(fill)
	w.WriteString("\"];\n")
}

func (w *writer) dotEdge(e *Edge, maxBW float64) {
	w.WriteString("  ")
	w.quoted(e.From)
	w.WriteString(" -> ")
	w.quoted(e.To)
	w.WriteString(" [color=\"")
	w.edgeColor(e.Bandwidth, maxBW, e.Reused)
	w.WriteString("\" penwidth=")
	w.fixed(penWidth(e.Volume), 2)
	w.WriteString(" label=\"")
	if e.Volume > 0 {
		w.bytes(e.Volume) // printable ASCII: quoting copies it
	}
	w.WriteString("\"];\n")
}

// SVG renders a layered layout: nodes in columns by topological rank,
// ordered vertically by start time within a column - a static
// approximation of the interactive figure layout.
func (g *Graph) SVG() string {
	var w writer
	w.Grow(g.svgSize())
	g.writeSVG(&w)
	return w.String()
}

func (g *Graph) svgSize() int {
	size := 200 + len(g.Name)
	for _, run := range g.nodes {
		for _, n := range run {
			size += svgNode + len(n.ID) + min(len(n.displayLabel()), svgLabel) + len(n.Kind) + len(n.Attrs)*attrText
		}
	}
	for _, run := range g.edges {
		for _, e := range run {
			size += svgEdge + len(e.From) + len(e.To) + len(e.Op)
		}
	}
	return size
}

func (g *Graph) writeSVG(w *writer) {
	const (
		colW   = 260
		rowH   = 44
		nodeW  = 200
		nodeH  = 30
		margin = 40
	)
	ranks := g.Ranks()
	nodes := g.Nodes()
	cols := map[int][]*Node{}
	maxRank := 0
	for _, n := range nodes {
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

	pos := make(map[string][2]int, len(nodes))
	w.WriteString(`<svg xmlns="http://www.w3.org/2000/svg" width="`)
	w.int(int64(width))
	w.WriteString(`" height="`)
	w.int(int64(height))
	w.WriteString(`" font-family="Helvetica" font-size="11">` + "\n")
	w.WriteString(`<text x="`)
	w.int(margin)
	w.WriteString(`" y="20" font-size="14" font-weight="bold">`)
	w.escaped(g.Name)
	w.WriteString("</text>\n")

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
		w.WriteString(`<line x1="`)
		w.int(int64(p1[0] + nodeW))
		w.WriteString(`" y1="`)
		w.int(int64(p1[1] + nodeH/2))
		w.WriteString(`" x2="`)
		w.int(int64(p2[0]))
		w.WriteString(`" y2="`)
		w.int(int64(p2[1] + nodeH/2))
		w.WriteString(`" stroke="`)
		w.edgeColor(e.Bandwidth, maxBW, e.Reused)
		w.WriteString(`" stroke-width="`)
		w.fixed(penWidth(e.Volume), 1)
		w.WriteString(`"><title>`)
		w.edgeTooltip(e)
		w.WriteString("</title></line>\n")
	}
	for _, n := range nodes {
		p := pos[n.ID]
		_, fill := nodeStyle(n.Kind)
		w.WriteString(`<rect x="`)
		w.int(int64(p[0]))
		w.WriteString(`" y="`)
		w.int(int64(p[1]))
		w.WriteString(`" width="`)
		w.int(nodeW)
		w.WriteString(`" height="`)
		w.int(nodeH)
		w.WriteString(`" rx="4" fill="`)
		w.WriteString(fill)
		w.WriteString(`" stroke="#333"><title>`)
		w.nodeTooltip(n)
		w.WriteString("</title></rect>\n")
		w.WriteString(`<text x="`)
		w.int(int64(p[0] + 6))
		w.WriteString(`" y="`)
		w.int(int64(p[1] + nodeH/2 + 4))
		w.WriteString(`">`)
		if label := n.displayLabel(); len(label) > svgLabel {
			// Room for the "...", backed off to the start of the rune
			// there so the document stays valid UTF-8.
			cut := svgLabel - 3
			for cut > 0 && !utf8.RuneStart(label[cut]) {
				cut--
			}
			w.escaped(label[:cut])
			w.WriteString("...")
		} else {
			w.escaped(label)
		}
		w.WriteString("</text>\n")
	}
	w.WriteString("</svg>\n")
}

// nodeTooltip writes a node's pop-up text, HTML-escaped: ID and kind,
// volume, then its attributes in key order.
func (w *writer) nodeTooltip(n *Node) {
	w.escaped(n.ID)
	w.WriteString(" (")
	w.escaped(string(n.Kind))
	w.WriteByte(')')
	if n.Volume > 0 {
		w.WriteString("\nvolume ")
		w.bytes(n.Volume)
	}
	w.keys = sortedKeys(w.keys, n.Attrs)
	for _, k := range w.keys {
		w.WriteByte('\n')
		w.escaped(k)
		w.WriteString(": ")
		w.escaped(n.Attrs[k])
	}
}

// edgeTooltip writes, HTML-escaped, the detailed access statistics
// pop-up the paper shows (Figure 7): volume, counts, average sizes,
// class split, operation and bandwidth.
func (w *writer) edgeTooltip(e *Edge) {
	w.escaped(e.From)
	w.WriteString(" -&gt; ")
	w.escaped(e.To)
	w.WriteString("\nAccess Volume: ")
	w.bytes(e.Volume)
	w.WriteString("\nAccess Count: ")
	w.int(e.Ops)
	if e.Ops > 0 {
		w.WriteString("\nAverage Access Size: ")
		w.bytes(e.Volume / e.Ops)
	}
	w.WriteString("\nHDF5 Data Access Count: ")
	w.int(e.DataOps)
	w.WriteString("\nHDF5 Metadata Access Count: ")
	w.int(e.MetaOps)
	w.WriteString("\nOperation: ")
	w.escaped(string(e.Op))
	w.WriteString("\nBandwidth: ")
	w.bandwidth(e.Bandwidth)
}

// sortedKeys refills keys with m's keys in byte order.
func sortedKeys(keys []string, m map[string]string) []string {
	keys = keys[:0]
	for k := range m {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	return keys
}

// HTML renders a standalone interactive page: the SVG plus an edge
// statistics table (the "interactable HTML format" of the paper).
func (g *Graph) HTML() string {
	edges := g.Edges()
	size := 1024 + 2*len(g.Name) + g.svgSize()
	for _, e := range edges {
		size += htmlEdge + len(e.From) + len(e.To) + len(e.Op)
	}
	var w writer
	w.Grow(size)
	w.WriteString("<!DOCTYPE html>\n<html><head><meta charset=\"utf-8\"><title>")
	w.escaped(g.Name)
	w.WriteString(`</title><style>
body { font-family: Helvetica, sans-serif; margin: 2em; }
table { border-collapse: collapse; margin-top: 1em; }
td, th { border: 1px solid #ccc; padding: 4px 8px; font-size: 12px; }
th { background: #eee; }
tr:hover { background: #fff3d6; }
</style></head><body>` + "\n<h1>")
	w.escaped(g.Name)
	w.WriteString("</h1>\n")
	g.writeSVG(&w)
	w.WriteString("<h2>Edge statistics</h2>\n<table><tr><th>From</th><th>To</th><th>Op</th><th>Volume</th><th>Ops</th><th>Data ops</th><th>Meta ops</th><th>Bandwidth</th><th>Reused</th></tr>\n")
	for _, e := range edges {
		w.WriteString("<tr><td>")
		w.escaped(e.From)
		w.WriteString("</td><td>")
		w.escaped(e.To)
		w.WriteString("</td><td>")
		w.escaped(string(e.Op))
		w.WriteString("</td><td>")
		w.bytes(e.Volume)
		w.WriteString("</td><td>")
		w.int(e.Ops)
		w.WriteString("</td><td>")
		w.int(e.DataOps)
		w.WriteString("</td><td>")
		w.int(e.MetaOps)
		w.WriteString("</td><td>")
		w.bandwidth(e.Bandwidth)
		w.WriteString("</td><td>")
		w.WriteString(strconv.FormatBool(e.Reused))
		w.WriteString("</td></tr>\n")
	}
	w.WriteString("</table></body></html>\n")
	return w.String()
}

// jsonGraph is the serialized graph form UnmarshalJSON reads;
// MarshalJSON writes it without reflection.
type jsonGraph struct {
	Name  string  `json:"name"`
	Nodes []*Node `json:"nodes"`
	Edges []*Edge `json:"edges"`
}

// MarshalJSON serializes the graph: encoding/json's compact form of
// jsonGraph, HTML-safe strings, attribute keys in byte order. A NaN or
// infinite bandwidth is an error, as encoding/json makes it.
func (g *Graph) MarshalJSON() ([]byte, error) {
	size := 48 + len(g.Name)
	for _, run := range g.nodes {
		for _, n := range run {
			size += jsonNode + len(n.ID) + len(n.Kind) + len(n.Label) + len(n.Attrs)*attrText
		}
	}
	for _, run := range g.edges {
		for _, e := range run {
			size += jsonEdge + len(e.From) + len(e.To) + len(e.Op) + len(e.Attrs)*attrText
		}
	}
	b := make([]byte, 0, size)
	var keys []string
	b = append(b, `{"name":`...)
	b = jsonenc.AppendString(b, g.Name)
	b = append(b, `,"nodes":[`...)
	sep := false
	for _, run := range g.nodes {
		for _, n := range run {
			if sep {
				b = append(b, ',')
			}
			sep = true
			b, keys = appendJSONNode(b, keys, n)
		}
	}
	b = append(b, `],"edges":`...)
	if g.edges == nil {
		b = append(b, "null"...)
	} else {
		b = append(b, '[')
		sep = false
		for _, run := range g.edges {
			for _, e := range run {
				if math.IsNaN(e.Bandwidth) || math.IsInf(e.Bandwidth, 0) {
					return nil, &json.UnsupportedValueError{Str: strconv.FormatFloat(e.Bandwidth, 'g', -1, 64)}
				}
				if sep {
					b = append(b, ',')
				}
				sep = true
				b, keys = appendJSONEdge(b, keys, e)
			}
		}
		b = append(b, ']')
	}
	return append(b, '}'), nil
}

// IndentedJSON is json.MarshalIndent(g, "", " "), the bytes `dayu
// analyze` writes and /v1/ftg and /v1/sdg serve: MarshalJSON's compact
// form indented by json.Indent, without the reflection encoder's second
// pass that re-validates and copies it.
func (g *Graph) IndentedJSON() ([]byte, error) {
	compact, err := g.MarshalJSON()
	if err != nil {
		return nil, err
	}
	var b bytes.Buffer // json.Indent sizes it: twice the compact form
	if err := json.Indent(&b, compact, "", " "); err != nil {
		return nil, err
	}
	return b.Bytes(), nil
}

func appendJSONNode(b []byte, keys []string, n *Node) ([]byte, []string) {
	b = append(b, `{"ID":`...)
	b = jsonenc.AppendString(b, n.ID)
	b = append(b, `,"Kind":`...)
	b = jsonenc.AppendString(b, string(n.Kind))
	b = append(b, `,"Label":`...)
	b = jsonenc.AppendString(b, n.Label)
	b = append(b, `,"StartNS":`...)
	b = strconv.AppendInt(b, n.StartNS, 10)
	b = append(b, `,"EndNS":`...)
	b = strconv.AppendInt(b, n.EndNS, 10)
	b = append(b, `,"Volume":`...)
	b = strconv.AppendInt(b, n.Volume, 10)
	b = append(b, `,"Attrs":`...)
	b, keys = appendJSONAttrs(b, keys, n.Attrs)
	return append(b, '}'), keys
}

func appendJSONEdge(b []byte, keys []string, e *Edge) ([]byte, []string) {
	b = append(b, `{"From":`...)
	b = jsonenc.AppendString(b, e.From)
	b = append(b, `,"To":`...)
	b = jsonenc.AppendString(b, e.To)
	b = append(b, `,"Op":`...)
	b = jsonenc.AppendString(b, string(e.Op))
	b = append(b, `,"Volume":`...)
	b = strconv.AppendInt(b, e.Volume, 10)
	b = append(b, `,"Bandwidth":`...)
	b = jsonenc.AppendFloat(b, e.Bandwidth)
	b = append(b, `,"Ops":`...)
	b = strconv.AppendInt(b, e.Ops, 10)
	b = append(b, `,"MetaOps":`...)
	b = strconv.AppendInt(b, e.MetaOps, 10)
	b = append(b, `,"DataOps":`...)
	b = strconv.AppendInt(b, e.DataOps, 10)
	b = append(b, `,"AvgSize":`...)
	b = strconv.AppendInt(b, e.AvgSize, 10)
	b = append(b, `,"Reused":`...)
	b = strconv.AppendBool(b, e.Reused)
	b = append(b, `,"Attrs":`...)
	b, keys = appendJSONAttrs(b, keys, e.Attrs)
	return append(b, '}'), keys
}

// appendJSONAttrs appends an attribute map as encoding/json writes a
// map[string]string: null when nil, keys in byte order. keys is the
// reusable sort buffer, returned for the next call.
func appendJSONAttrs(b []byte, keys []string, m map[string]string) ([]byte, []string) {
	if m == nil {
		return append(b, "null"...), keys
	}
	keys = sortedKeys(keys, m)
	b = append(b, '{')
	for i, k := range keys {
		if i > 0 {
			b = append(b, ',')
		}
		b = jsonenc.AppendString(b, k)
		b = append(b, ':')
		b = jsonenc.AppendString(b, m[k])
	}
	return append(b, '}'), keys
}

// UnmarshalJSON deserializes a graph.
func (g *Graph) UnmarshalJSON(data []byte) error {
	var jg jsonGraph
	if err := json.Unmarshal(data, &jg); err != nil {
		return err
	}
	fresh := NewSized(jg.Name, len(jg.Nodes), len(jg.Edges))
	for _, n := range jg.Nodes {
		fresh.AddNode(*n)
	}
	for _, e := range jg.Edges {
		if _, err := fresh.AddEdge(*e); err != nil {
			return err
		}
	}
	// Field by field: a Graph holds a sync.Once and is not copied.
	g.Name, g.nodes, g.edges, g.slab = fresh.Name, fresh.nodes, fresh.edges, fresh.slab
	g.nNodes, g.nEdges = fresh.nNodes, fresh.nEdges
	g.ix = fresh.ix
	g.ixOnce.Do(func() {})
	return nil
}
