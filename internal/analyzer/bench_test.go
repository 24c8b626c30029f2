package analyzer_test

import (
	"fmt"
	"testing"

	"dayu/internal/analyzer"
	"dayu/internal/graph"
	"dayu/internal/trace"
	"dayu/internal/workloads"
)

var benchGraph *graph.Graph

var benchSDGOpts = analyzer.Options{IncludeRegions: true, IncludeFileMetadata: true}

// BenchmarkBuildFTG and BenchmarkBuildSDG are the cold batch builds —
// order, contributions, merge, decoration — over the trace set the
// repository benchmark's batch_analyze workload analyzes.
func BenchmarkBuildFTG(b *testing.B) { benchBuild(b, analyzer.BuildFTG) }

func BenchmarkBuildSDG(b *testing.B) {
	benchBuild(b, func(traces []*trace.TaskTrace, m *trace.Manifest) *graph.Graph {
		return analyzer.BuildSDG(traces, m, benchSDGOpts)
	})
}

func benchBuild(b *testing.B, build func([]*trace.TaskTrace, *trace.Manifest) *graph.Graph) {
	for _, tasks := range []int{1000, 3000} {
		traces, m := workloads.GenerateSyntheticTraces(workloads.SyntheticTraceConfig{Tasks: tasks})
		b.Run(fmt.Sprintf("tasks=%d", tasks), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				benchGraph = build(traces, m)
			}
		})
	}
}
