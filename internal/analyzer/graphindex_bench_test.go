package analyzer

import (
	"fmt"
	"testing"

	"dayu/internal/graph"
	"dayu/internal/trace"
	"dayu/internal/workloads"
)

var benchFold *graph.Graph

// benchOpts are the SDG options BenchmarkBuildSDG uses.
var benchOpts = Options{IncludeRegions: true, IncludeFileMetadata: true}

// BenchmarkMergeContributions is the batch builders' fold alone, over
// contributions built once.
func BenchmarkMergeContributions(b *testing.B) {
	for _, tasks := range []int{1000, 3000} {
		traces, m := workloads.GenerateSyntheticTraces(workloads.SyntheticTraceConfig{Tasks: tasks})
		ordered := OrderTasks(traces, m)
		descs := objectDescs(ordered)
		ftg := buildContributions(ordered, 1, ftgContribution)
		sdg := buildContributions(ordered, 1, func(t *trace.TaskTrace) Contribution {
			return sdgContribution(t, func(k trace.RowKey) *trace.ObjectRecord { return descs[k] }, benchOpts)
		})
		b.Run(fmt.Sprintf("ftg/tasks=%d", tasks), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				benchFold = ftgShape.fold(ftg)
			}
		})
		b.Run(fmt.Sprintf("sdg/tasks=%d", tasks), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				benchFold = sdgShape.fold(sdg)
			}
		})
	}
}

// BenchmarkGraphSync is one Apply to a warm index — both graphs — in
// which one in-flight task is replaced by its next checkpoint: the
// per-record cost of `dayu serve`'s live graphs. The in-flight task
// reads a stage-shared input, so the patch refolds a node every
// task of that stage reads. cold is an Apply to an empty index over the
// same set, the cost of a server's first snapshot.
func BenchmarkGraphSync(b *testing.B) {
	for _, tasks := range []int{1000, 3000} {
		traces, m := workloads.GenerateSyntheticTraces(workloads.SyntheticTraceConfig{Tasks: tasks})
		ordered := OrderTasks(traces, m)
		// Two checkpoints of one task the manifest does not order, so it
		// sorts last: each Apply swaps one for the other.
		var sets [2][]*trace.TaskTrace
		for i := range sets {
			cp := *ordered[tasks/2]
			cp.Task, cp.EndNS = "zz_inflight", cp.EndNS+int64(i)
			sets[i] = append(append([]*trace.TaskTrace{}, ordered...), &cp)
		}
		swap := func(i int) Change {
			return Change{Removed: sets[(i+1)%2][tasks:], Added: sets[i%2][tasks:], At: []int{tasks}}
		}
		b.Run(fmt.Sprintf("replace/tasks=%d", tasks), func(b *testing.B) {
			ix := NewGraphIndex(benchOpts, nil)
			ix.Apply(sets[1], m, Change{})
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				benchFold = ix.Apply(sets[i%2], m, swap(i)).SDG
			}
		})
		b.Run(fmt.Sprintf("cold/tasks=%d", tasks), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				benchFold = NewGraphIndex(benchOpts, nil).Apply(sets[0], m, Change{}).SDG
			}
		})
	}
}
