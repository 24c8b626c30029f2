package workloads

import (
	"testing"

	"dayu/internal/analyzer"
	"dayu/internal/graph"
)

var renderSink int

// BenchmarkRender renders the synthetic-3000 FTG and SDG (regions and
// File-Metadata on) the repository benchmark's batch_analyze workload
// renders: DOT, the indented JSON `dayu analyze` writes, and SVG.
func BenchmarkRender(b *testing.B) {
	traces, m := GenerateSyntheticTraces(SyntheticTraceConfig{Tasks: 3000})
	for _, g := range []struct {
		name string
		g    *graph.Graph
	}{
		{"ftg", analyzer.BuildFTG(traces, m)},
		{"sdg", analyzer.BuildSDG(traces, m, analyzer.Options{IncludeRegions: true, IncludeFileMetadata: true})},
	} {
		for _, r := range []struct {
			name   string
			render func(*graph.Graph) (int, error)
		}{
			{"dot", func(g *graph.Graph) (int, error) { return len(g.DOT()), nil }},
			{"json", func(g *graph.Graph) (int, error) {
				data, err := g.IndentedJSON()
				return len(data), err
			}},
			{"svg", func(g *graph.Graph) (int, error) { return len(g.SVG()), nil }},
		} {
			b.Run(g.name+"/"+r.name, func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					n, err := r.render(g.g)
					if err != nil {
						b.Fatal(err)
					}
					renderSink = n
				}
			})
		}
	}
}
