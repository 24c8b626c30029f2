package diagnose_test

import (
	"fmt"
	"testing"

	"dayu/internal/analyzer"
	"dayu/internal/diagnose"
	"dayu/internal/trace"
	"dayu/internal/workloads"
)

var benchFindings []diagnose.Finding

// BenchmarkAnalyze is the from-scratch path — what `dayu diagnose`, the
// benchmark's batch_analyze workload and serve's horizon renders pay.
func BenchmarkAnalyze(b *testing.B) {
	for _, tasks := range []int{1000, 3000} {
		traces, m := workloads.GenerateSyntheticTraces(workloads.SyntheticTraceConfig{Tasks: tasks})
		b.Run(fmt.Sprintf("tasks=%d", tasks), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				benchFindings = diagnose.Analyze(traces, m, diagnose.Thresholds{})
			}
		})
	}
}

var benchBody []byte

// BenchmarkFold is what `dayu serve` pays per folded checkpoint on a
// loaded server: sync a long-lived index to a set in which one in-flight
// task's trace was replaced, then encode the view.
func BenchmarkFold(b *testing.B) {
	for _, tasks := range []int{1000, 3000} {
		traces, m := workloads.GenerateSyntheticTraces(workloads.SyntheticTraceConfig{Tasks: tasks})
		// Two checkpoints of one unranked task, alternating.
		var checkpoints [2]*trace.TaskTrace
		for i := range checkpoints {
			cp := *traces[0]
			cp.Task, cp.EndNS = "zz_inflight", cp.EndNS+int64(i)
			checkpoints[i] = &cp
		}
		live := append(traces, nil)
		b.Run(fmt.Sprintf("tasks=%d", tasks), func(b *testing.B) {
			ix := diagnose.NewIndex(diagnose.Thresholds{})
			b.ReportAllocs()
			for i := 0; i < b.N+1; i++ {
				if i == 1 {
					b.ResetTimer() // the first pass builds the index and encodes every group
				}
				live[len(live)-1] = checkpoints[i%2]
				body, err := ix.Sync(analyzer.OrderTasks(live, m), m).EncodeJSON()
				if err != nil {
					b.Fatal(err)
				}
				benchBody = body
			}
		})
	}
}
