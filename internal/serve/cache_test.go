package serve

import (
	"fmt"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"dayu/internal/analyzer"
	"dayu/internal/trace"
	"dayu/internal/workloads"
)

func TestRouterClampAndDeterminism(t *testing.T) {
	for _, tc := range []struct{ in, want int }{
		{-3, 1}, {0, 1}, {1, 1}, {4, 4}, {MaxShards, MaxShards}, {MaxShards + 1, MaxShards},
	} {
		if got := clampShards(tc.in); got != tc.want {
			t.Errorf("clampShards(%d) = %d, want %d", tc.in, got, tc.want)
		}
	}
	for _, key := range []string{"", "task_a", "stage2/task_07", "z.trace.json"} {
		k := route(key, 8)
		if k < 0 || k >= 8 {
			t.Fatalf("route(%q, 8) = %d, out of range", key, k)
		}
		for i := 0; i < 3; i++ {
			if route(key, 8) != k {
				t.Fatalf("route(%q, 8) not deterministic", key)
			}
		}
	}
	// FNV-1a reference value: the routing function is part of the WAL
	// namespace contract (a restart must route identically), so pin it.
	if got := route("task_a", MaxShards); got != int(fnv1a("task_a")%MaxShards) {
		t.Fatalf("route diverged from FNV-1a reference: %d", got)
	}
}

// fnv1a is an independent reference implementation.
func fnv1a(s string) uint32 {
	h := uint32(2166136261)
	for i := 0; i < len(s); i++ {
		h ^= uint32(s[i])
		h *= 16777619
	}
	return h
}

func TestRouterSpreadsKeys(t *testing.T) {
	counts := make([]int, 8)
	for i := 0; i < 512; i++ {
		counts[route(fmt.Sprintf("stage%d/task_%04d", i%7, i), 8)]++
	}
	for k, c := range counts {
		if c == 0 {
			t.Errorf("shard %d received no keys out of 512", k)
		}
	}
}

// TestPruneKeepsUnionOfViews pins the prune rule: each view's latest
// pass replaces that view's working set, prune keeps the union of the
// two, and release drops what only the released view held.
func TestPruneKeepsUnionOfViews(t *testing.T) {
	traces, m := workloads.GenerateSyntheticTraces(workloads.SyntheticTraceConfig{
		Tasks: 16, Stages: 4, FilesPerStage: 3, DatasetsPerTask: 2,
	})
	tasks := analyzer.OrderTasks(traces, m)
	descs := analyzer.BuildObjectDescs(tasks)
	n := len(tasks)
	for _, width := range []int{1, 4} {
		c := newBuildCache(width)
		// The in-flight task: a copy of a final whose hash changes with
		// every checkpoint.
		inflight, inflightHash := *tasks[0], ""
		hashOf := func(tt *trace.TaskTrace) string {
			if tt == &inflight {
				return inflightHash
			}
			return "hash-" + tt.Task
		}
		pass := func(v view, ordered []*trace.TaskTrace, descs analyzer.ObjectDescs) int {
			_, _, misses := c.contribute(v, ordered, hashOf, descs, analyzer.Options{})
			return misses
		}
		cached := func() string { return fmt.Sprintf("%d/%d", len(c.ftg), len(c.sdg)) }
		want := func(n int) string { return fmt.Sprintf("%d/%d", n, n) }

		if got := pass(batchPass, tasks, descs); got != 2*n {
			t.Fatalf("width=%d: cold batch pass missed %d, want %d", width, got, 2*n)
		}
		// The live view: the same tasks plus the in-flight one, whose
		// superseded revisions must not pile up.
		live := append(append([]*trace.TaskTrace{}, tasks...), &inflight)
		for rev := 1; rev <= 20; rev++ {
			inflightHash = fmt.Sprintf("checkpoint-%d", rev)
			if got := pass(livePass, live, descs); got != 2 {
				t.Fatalf("width=%d: live pass %d missed %d, want 2", width, rev, got)
			}
			c.prune()
			if cached() != want(n+1) {
				t.Fatalf("width=%d: after live pass %d the caches hold %s, want %s", width, rev, cached(), want(n+1))
			}
		}

		// A live pass over new descriptions keys its SDG contributions
		// apart; the batch view's variants survive the prune beside them.
		mutated := analyzer.ObjectDescs{}
		for k, v := range descs {
			v.Datatype += "-live"
			mutated[k] = v
		}
		pass(livePass, live, mutated)
		c.prune()
		if got := pass(batchPass, tasks, descs); got != 0 {
			t.Errorf("width=%d: batch pass after live-only prunes missed %d, want 0", width, got)
		}
		// A live pass confined to one task forgets the rest of the
		// previous live pass.
		pass(livePass, []*trace.TaskTrace{&inflight}, mutated)
		c.prune()
		if cached() != want(n+1) {
			t.Errorf("width=%d: after a one-task live pass the caches hold %s, want %s", width, cached(), want(n+1))
		}
		// The overlay dissolves.
		c.release(livePass)
		c.prune()
		if cached() != want(n) {
			t.Errorf("width=%d: after release(livePass) the caches hold %s, want %s", width, cached(), want(n))
		}
		if got := pass(batchPass, tasks, descs); got != 0 {
			t.Errorf("width=%d: batch pass after the release missed %d, want 0", width, got)
		}
	}
}

// TestScanErrorShardCountInvariant: with two unparsable trace files in
// one scan the reported error names the first in directory order at
// every shard count, the parsable changes of the same scan are applied
// all the same, and they reach a snapshot once the error clears without
// a further directory change of their own.
func TestScanErrorShardCountInvariant(t *testing.T) {
	for _, shards := range []int{1, 4} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			dir := writeFixtureDir(t)
			s := mustServer(t, Config{Dir: dir, PlanOptions: testPlanOpts, Shards: shards})
			defer s.Close()
			srv := httptest.NewServer(s)
			defer srv.Close()

			// FNV-1a sends corrupt_a to shard 3 of 4 and corrupt_b to
			// shard 0: "the lowest shard's error" would name the second.
			first := filepath.Join(dir, "corrupt_a.trace.json")
			second := filepath.Join(dir, "corrupt_b.trace.json")
			for _, path := range []string{first, second} {
				if err := os.WriteFile(path, []byte("{torn"), 0o644); err != nil {
					t.Fatal(err)
				}
			}
			// Sorts after both corrupt files.
			added, err := (&trace.TaskTrace{Task: "zz_added", StartNS: 1, EndNS: 2}).Save(dir)
			if err != nil {
				t.Fatal(err)
			}
			bumpMtimes(t, dir, 1)

			_, err = s.Ingest()
			if err == nil || !strings.Contains(err.Error(), first) {
				t.Fatalf("scan error = %v, want it to name %s", err, first)
			}
			s.ingestMu.Lock()
			_, applied := s.cache.files[added]
			s.ingestMu.Unlock()
			if !applied {
				t.Errorf("%s was not parsed by the scan that failed on the corrupt files", added)
			}

			for _, path := range []string{first, second} {
				if err := os.Remove(path); err != nil {
					t.Fatal(err)
				}
			}
			checkAllEndpoints(t, srv, dir, "after the corrupt files went away")
		})
	}
}
