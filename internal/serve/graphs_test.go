package serve

import (
	"bytes"
	"strings"
	"sync"
	"testing"

	"dayu/internal/graph"
	"dayu/internal/obs"
	"dayu/internal/trace"
	"dayu/internal/workloads"
)

// TestGraphSyncSeries reads the graph indexes' own series: one Sync per
// index per built snapshot, and — as a count, not a time — a folded
// checkpoint and a final landing compute the same two contributions
// whether the server holds 100 tasks or 400; the live index takes the
// final's from the batch index.
func TestGraphSyncSeries(t *testing.T) {
	for _, tasks := range []int{100, 400} {
		reg := obs.NewRegistry()
		env := newPushEnv(t, func(c *Config) {
			c.Dir = writeSyntheticDir(t, workloads.SyntheticTraceConfig{Tasks: tasks})
			c.Registry = reg
		})
		misses := reg.Counter(obs.Name("dayu_serve_cache_misses_total", "cache", "contribution"))
		hits := reg.Counter(obs.Name("dayu_serve_cache_hits_total", "cache", "contribution"))
		syncs := reg.Histogram("dayu_serve_graph_sync_ns", nil)
		if misses.Value() != int64(2*tasks) || hits.Value() != 0 || syncs.Count() != 1 {
			t.Fatalf("first build over %d tasks: %d contributions computed, %d reused, %d syncs; want %d, 0, 1",
				tasks, misses.Value(), hits.Value(), syncs.Count(), 2*tasks)
		}
		step := func(what string, data []byte, wantSyncs int64) {
			t.Helper()
			before, kept, synced := misses.Value(), hits.Value(), syncs.Count()
			foldAndIngest(t, env.s, data)
			if got := misses.Value() - before; got != 2 {
				t.Errorf("%d tasks, %s: %d contributions computed, want 2", tasks, what, got)
			}
			if got := hits.Value() - kept; got < int64(2*tasks) {
				t.Errorf("%d tasks, %s: %d contributions reused, want at least %d", tasks, what, got, 2*tasks)
			}
			if got := syncs.Count() - synced; got != wantSyncs {
				t.Errorf("%d tasks, %s: %d graph syncs, want %d", tasks, what, got, wantSyncs)
			}
		}
		final := liveTask("zz_live")
		// The live index's first Sync takes every final's contributions
		// from the batch index.
		step("first checkpoint", encodeCheckpoint(t, checkpointTrace(final, 0.5), 1), 1)
		step("next checkpoint", encodeCheckpoint(t, checkpointTrace(final, 1.0), 2), 1)
		step("final landing", encodeFinal(t, final), 2)

		metrics := string(get(t, env.srv, "/metrics"))
		if !strings.Contains(metrics, "dayu_serve_graph_sync_ns") {
			t.Errorf("/metrics misses dayu_serve_graph_sync_ns")
		}
	}
}

// TestPublishedGraphsImmutable: renders of one snapshot's live graphs,
// in all four formats, run while the next 20 checkpoints are folded, and
// every body equals the first render. The folds patch exactly what that
// snapshot's graphs share with the next ones: a second in-flight task
// starts reading a file only the first read (its read edge flips to
// Reused), and the first is re-described (the dataset node it shares
// with four finals is refolded and their SDG contributions recomputed).
func TestPublishedGraphsImmutable(t *testing.T) {
	env, _ := fixtureEnv(t)
	s := env.s
	solo := func(tt *trace.TaskTrace) *trace.TaskTrace {
		tt.Files = append(tt.Files, trace.FileRecord{
			Task: tt.Task, File: "zz_solo.h5", OpenNS: tt.StartNS + 1, CloseNS: tt.StartNS + 900,
			Ops: 2, Reads: 2, BytesRead: 2048, DataOps: 2, DataBytes: 2048,
		})
		tt.Mapped = append(tt.Mapped, trace.MappedStat{
			Task: tt.Task, File: "zz_solo.h5", Object: "/solo", DataOps: 2, DataBytes: 2048, Reads: 2,
			FirstNS: tt.StartNS + 2, LastNS: tt.StartNS + 800,
		})
		return tt
	}
	first := solo(inflightOverriding("stage_00/shared_000.h5", 1))
	second := solo(liveTask("zz_second"))
	snap := foldAndIngest(t, s, encodeCheckpoint(t, first, 1))

	type body struct {
		g      *graph.Graph
		format string
		want   []byte
	}
	var bodies []body
	for _, g := range []*graph.Graph{snap.live.ftg, snap.live.sdg} {
		for _, format := range []string{"json", "dot", "html", "svg"} {
			want, err := renderGraph(g, format)
			if err != nil {
				t.Fatal(err)
			}
			bodies = append(bodies, body{g, format, want})
		}
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	failed := make([]string, len(bodies))
	for i, b := range bodies {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				if got, err := renderGraph(b.g, b.format); err != nil || !bytes.Equal(got, b.want) {
					failed[i] = b.g.Name + " " + b.format
					return
				}
			}
		}()
	}
	for seq := uint64(2); seq <= 21; seq++ {
		if seq%2 == 0 {
			second.EndNS++
			foldAndIngest(t, s, encodeCheckpoint(t, second, seq/2))
		} else {
			first.Objects[0].Datatype += "+"
			foldAndIngest(t, s, encodeCheckpoint(t, first, seq/2+1))
		}
	}
	close(stop)
	wg.Wait()
	for _, f := range failed {
		if f != "" {
			t.Errorf("the %s render of a published snapshot changed while later checkpoints were folded", f)
		}
	}
	last := s.snap.Load()
	if got, _ := renderGraph(last.live.sdg, "json"); bytes.Equal(got, bodies[4].want) {
		t.Error("20 folded checkpoints left the live SDG as it was: the test exercised nothing")
	}
	checkAllEndpoints(t, env.srv, env.dir, "after the folds")
}
