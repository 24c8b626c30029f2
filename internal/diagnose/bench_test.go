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
// loaded server: apply to a long-lived index the change that replaces
// one in-flight task's trace, then encode the view — as the snapshot
// event does (event: the compact findings appended into a reused frame)
// and as a /v1/live/diagnostics GET does (get: the indented body).
func BenchmarkFold(b *testing.B) {
	encodings := []struct {
		name   string
		encode func(v *diagnose.View, buf []byte) ([]byte, error)
	}{
		{"event", func(v *diagnose.View, buf []byte) ([]byte, error) { return v.AppendCompactJSON(buf[:0]) }},
		{"get", func(v *diagnose.View, _ []byte) ([]byte, error) { return v.EncodeJSON() }},
	}
	for _, tasks := range []int{1000, 3000} {
		traces, m := workloads.GenerateSyntheticTraces(workloads.SyntheticTraceConfig{Tasks: tasks})
		// Two checkpoints of one unranked task, alternating.
		var checkpoints [2]*trace.TaskTrace
		for i := range checkpoints {
			cp := *traces[0]
			cp.Task, cp.EndNS = "zz_inflight", cp.EndNS+int64(i)
			checkpoints[i] = &cp
		}
		ordered := append(analyzer.OrderTasks(traces, m), nil)
		last := len(ordered) - 1
		for _, enc := range encodings {
			b.Run(fmt.Sprintf("tasks=%d/%s", tasks, enc.name), func(b *testing.B) {
				ix := diagnose.NewIndex(diagnose.Thresholds{})
				b.ReportAllocs()
				for i := 0; i < b.N+1; i++ {
					if i == 1 {
						b.ResetTimer() // the first pass builds the index and encodes every group
					}
					var ch analyzer.Change
					if i > 0 {
						ch = analyzer.Change{Removed: []*trace.TaskTrace{checkpoints[(i+1)%2]},
							Added: []*trace.TaskTrace{checkpoints[i%2]}, At: []int{last}}
					}
					ordered[last] = checkpoints[i%2]
					body, err := enc.encode(ix.Apply(ordered, m, ch), benchBody)
					if err != nil {
						b.Fatal(err)
					}
					benchBody = body
				}
			})
		}
	}
}
