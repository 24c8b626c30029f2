package shard

import (
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"dayu/internal/analyzer"
	"dayu/internal/trace"
	"dayu/internal/workloads"
)

func TestRouterClampAndDeterminism(t *testing.T) {
	for _, tc := range []struct{ in, want int }{
		{-3, 1}, {0, 1}, {1, 1}, {4, 4}, {MaxShards, MaxShards}, {MaxShards + 1, MaxShards},
	} {
		if got := NewRouter(tc.in).Shards(); got != tc.want {
			t.Errorf("NewRouter(%d).Shards() = %d, want %d", tc.in, got, tc.want)
		}
	}
	r := NewRouter(8)
	for _, key := range []string{"", "task_a", "stage2/task_07", "z.trace.json"} {
		k := r.Route(key)
		if k < 0 || k >= 8 {
			t.Fatalf("Route(%q) = %d, out of range", key, k)
		}
		for i := 0; i < 3; i++ {
			if r.Route(key) != k {
				t.Fatalf("Route(%q) not deterministic", key)
			}
		}
	}
	// FNV-1a reference value: the routing function is part of the WAL
	// namespace contract (a restart must route identically), so pin it.
	if got := NewRouter(MaxShards).Route("task_a"); got != int(fnv1a("task_a")%MaxShards) {
		t.Fatalf("Route diverged from FNV-1a reference: %d", got)
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
	r := NewRouter(8)
	counts := make([]int, 8)
	for i := 0; i < 512; i++ {
		counts[r.Route(fmt.Sprintf("stage%d/task_%04d", i%7, i))]++
	}
	for k, c := range counts {
		if c == 0 {
			t.Errorf("shard %d received no keys out of 512", k)
		}
	}
}

// fixtureTasks builds an ordered, hashed task slice plus the global
// descs the SDG contributions need, from a synthetic workflow.
func fixtureTasks(t *testing.T) ([]Task, analyzer.ObjectDescs, []*trace.TaskTrace) {
	t.Helper()
	traces, m := workloads.GenerateSyntheticTraces(workloads.SyntheticTraceConfig{
		Tasks: 16, Stages: 4, FilesPerStage: 3, DatasetsPerTask: 2,
	})
	ordered := analyzer.OrderTasks(traces, m)
	descs := analyzer.BuildObjectDescs(ordered)
	tasks := make([]Task, len(ordered))
	for i, tt := range ordered {
		tasks[i] = Task{Pos: i, Trace: tt, Hash: fmt.Sprintf("hash-%s", tt.Task)}
	}
	return tasks, descs, ordered
}

// expectContribs computes the reference contribution slices directly.
func expectContribs(ordered []*trace.TaskTrace, descs analyzer.ObjectDescs) (ftg, sdg []analyzer.Contribution) {
	ftg = make([]analyzer.Contribution, len(ordered))
	sdg = make([]analyzer.Contribution, len(ordered))
	for i, tt := range ordered {
		ftg[i] = analyzer.FTGContribution(tt)
		sdg[i] = analyzer.SDGContribution(tt, descs, analyzer.Options{})
	}
	return ftg, sdg
}

func TestGatherStitchMatchesDirectComputation(t *testing.T) {
	tasks, descs, ordered := fixtureTasks(t)
	wantFTG, wantSDG := expectContribs(ordered, descs)
	for _, n := range []int{1, 2, 4, 8} {
		c := NewCoordinator(n)
		sets := c.Gather(Request{Tasks: tasks, Descs: descs}, Metrics{})
		ftg, sdg, err := Stitch(len(tasks), sets)
		if err != nil {
			t.Fatalf("n=%d: stitch: %v", n, err)
		}
		if !reflect.DeepEqual(ftg, wantFTG) {
			t.Errorf("n=%d: stitched FTG contributions diverge from direct computation", n)
		}
		if !reflect.DeepEqual(sdg, wantSDG) {
			t.Errorf("n=%d: stitched SDG contributions diverge from direct computation", n)
		}
	}
}

func TestWorkerContributeCachesAndPrunes(t *testing.T) {
	tasks, descs, _ := fixtureTasks(t)
	c := NewCoordinator(1)
	hits, misses := 0, 0
	m := Metrics{Hit: func() { hits++ }, Miss: func() { misses++ }}

	c.Gather(Request{Tasks: tasks, Descs: descs}, m)
	if hits != 0 || misses != 2*len(tasks) {
		t.Fatalf("cold pass: hits=%d misses=%d, want 0/%d", hits, misses, 2*len(tasks))
	}
	hits, misses = 0, 0
	c.Gather(Request{Tasks: tasks, Descs: descs}, m)
	if hits != 2*len(tasks) || misses != 0 {
		t.Fatalf("warm pass: hits=%d misses=%d, want %d/0", hits, misses, 2*len(tasks))
	}

	// Prune keeps only keys used since the last Prune: after pruning
	// against a subset, the dropped tasks miss again.
	c.Prune() // resets used sets
	sub := tasks[:4]
	for i := range sub {
		sub[i].Pos = i
	}
	c.Gather(Request{Tasks: sub, Descs: descs}, Metrics{})
	c.Prune() // trims to the 4-task working set
	hits, misses = 0, 0
	c.Gather(Request{Tasks: sub, Descs: descs}, m)
	if misses != 0 {
		t.Errorf("pruned working set missed %d times, want 0", misses)
	}
	hits, misses = 0, 0
	full := make([]Task, len(tasks))
	copy(full, tasks)
	for i := range full {
		full[i].Pos = i
	}
	c.Gather(Request{Tasks: full, Descs: descs}, m)
	if wantMiss := 2 * (len(tasks) - 4); misses != wantMiss {
		t.Errorf("post-prune full pass missed %d, want %d (pruned tasks recompute)", misses, wantMiss)
	}
}

// TestStitchShuffledDelivery pins order independence: any permutation
// of the per-shard sets stitches to the same global slices.
func TestStitchShuffledDelivery(t *testing.T) {
	tasks, descs, ordered := fixtureTasks(t)
	wantFTG, wantSDG := expectContribs(ordered, descs)
	c := NewCoordinator(8)
	sets := c.Gather(Request{Tasks: tasks, Descs: descs}, Metrics{})
	rng := rand.New(rand.NewSource(time.Now().UnixNano()))
	for round := 0; round < 10; round++ {
		rng.Shuffle(len(sets), func(i, j int) { sets[i], sets[j] = sets[j], sets[i] })
		ftg, sdg, err := Stitch(len(tasks), sets)
		if err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		if !reflect.DeepEqual(ftg, wantFTG) || !reflect.DeepEqual(sdg, wantSDG) {
			t.Fatalf("round %d: shuffled delivery changed the stitched output", round)
		}
	}
}

// TestStitchDuplicateDelivery pins idempotence: a shard redelivering
// its whole set (an at-least-once channel) does not corrupt the
// stitch, while two different shards claiming one position fails it.
func TestStitchDuplicateDelivery(t *testing.T) {
	tasks, descs, ordered := fixtureTasks(t)
	wantFTG, _ := expectContribs(ordered, descs)
	c := NewCoordinator(4)
	sets := c.Gather(Request{Tasks: tasks, Descs: descs}, Metrics{})

	dup := append(append([]Set{}, sets...), sets[0], sets[len(sets)-1])
	ftg, _, err := Stitch(len(tasks), dup)
	if err != nil {
		t.Fatalf("duplicate same-shard delivery rejected: %v", err)
	}
	if !reflect.DeepEqual(ftg, wantFTG) {
		t.Fatal("duplicate delivery changed the stitched output")
	}

	// Cross-shard conflict: shard A's set re-labeled as shard B.
	stolen := sets[0]
	stolen.Shard = (stolen.Shard + 1) % 4
	if _, _, err := Stitch(len(tasks), append(sets, stolen)); err == nil {
		t.Fatal("cross-shard position conflict not detected")
	} else if !strings.Contains(err.Error(), "claimed by shards") {
		t.Fatalf("conflict error %q does not name the shards", err)
	}
}

// TestStitchLaggingShard pins the gap check: stitching before a
// lagging shard's set arrives is an error naming the hole, and
// retrying once the set lands (the restart-mid-stitch path: the
// coordinator re-gathers and stitches from scratch) succeeds.
func TestStitchLaggingShard(t *testing.T) {
	tasks, descs, ordered := fixtureTasks(t)
	wantFTG, _ := expectContribs(ordered, descs)
	c := NewCoordinator(4)
	sets := c.Gather(Request{Tasks: tasks, Descs: descs}, Metrics{})
	if len(sets) < 2 {
		t.Fatalf("fixture landed on %d shards, need >= 2", len(sets))
	}

	if _, _, err := Stitch(len(tasks), sets[:len(sets)-1]); err == nil {
		t.Fatal("stitch with a lagging shard's set missing did not fail")
	} else if !strings.Contains(err.Error(), "uncovered") {
		t.Fatalf("gap error %q does not report uncovered positions", err)
	}

	// The laggard arrives; the retried stitch is whole.
	ftg, _, err := Stitch(len(tasks), sets)
	if err != nil {
		t.Fatalf("stitch after laggard arrived: %v", err)
	}
	if !reflect.DeepEqual(ftg, wantFTG) {
		t.Fatal("post-laggard stitch diverges")
	}

	// A coordinator restart mid-stitch re-gathers from its (rebuilt)
	// workers; the fresh sets stitch to the same output.
	c2 := NewCoordinator(4)
	sets2 := c2.Gather(Request{Tasks: tasks, Descs: descs}, Metrics{})
	ftg2, _, err := Stitch(len(tasks), sets2)
	if err != nil {
		t.Fatalf("re-gather after restart: %v", err)
	}
	if !reflect.DeepEqual(ftg2, wantFTG) {
		t.Fatal("restart-mid-stitch re-gather diverges")
	}
}

func TestStitchRejectsOutOfRange(t *testing.T) {
	good := Set{Shard: 0, FTG: []Tagged{{Pos: 0}}, SDG: []Tagged{{Pos: 0}}}
	bad := Set{Shard: 1, FTG: []Tagged{{Pos: 5}}, SDG: []Tagged{{Pos: 5}}}
	if _, _, err := Stitch(1, []Set{good, bad}); err == nil {
		t.Fatal("out-of-range position not detected")
	} else if !strings.Contains(err.Error(), "out of range") {
		t.Fatalf("unexpected error %q", err)
	}
}

func TestCoordinatorFileCache(t *testing.T) {
	c := NewCoordinator(4)
	paths := []string{"/a/t1.trace.json", "/a/t2.trace.json", "/b/t3.trace.dtb"}
	for i, p := range paths {
		w := c.Worker(c.RouteFile(p))
		w.PutFile(p, Entry{Size: int64(i + 1), Hash: fmt.Sprintf("h%d", i)})
	}
	got := c.Paths()
	if len(got) != len(paths) {
		t.Fatalf("Paths() = %v, want %d entries", got, len(paths))
	}
	for i := 1; i < len(got); i++ {
		if got[i-1] >= got[i] {
			t.Fatalf("Paths() not sorted: %v", got)
		}
	}
	// Routing is by base name: the same file name in another directory
	// routes to the same shard.
	if c.RouteFile("/x/y/t1.trace.json") != c.RouteFile("/a/t1.trace.json") {
		t.Error("RouteFile depends on the directory, want base-name routing")
	}
	e, ok := c.File("/a/t2.trace.json")
	if !ok || e.Hash != "h1" {
		t.Fatalf("File lookup = %+v, %v", e, ok)
	}
	w := c.Worker(c.RouteFile("/a/t2.trace.json"))
	w.TouchFile("/a/t2.trace.json", 99, time.Unix(1, 0))
	if e, _ := c.File("/a/t2.trace.json"); e.Size != 99 || e.Hash != "h1" {
		t.Fatalf("TouchFile: %+v", e)
	}
	if !w.SweepFiles(map[string]bool{}) {
		t.Fatal("SweepFiles dropped nothing")
	}
	if _, ok := c.File("/a/t2.trace.json"); ok {
		t.Fatal("swept file still cached")
	}
}

// TestPruneKeepsUnionOfViews pins the prune rule: each view's latest
// pass replaces that view's working set, Prune keeps the union of the
// two, and Release drops what only the released view held.
func TestPruneKeepsUnionOfViews(t *testing.T) {
	tasks, descs, _ := fixtureTasks(t)
	n := len(tasks)
	for _, shards := range []int{1, 4} {
		c := NewCoordinator(shards)
		// Workers run concurrently: the miss hook must be atomic.
		var misses atomic.Int64
		m := Metrics{Miss: func() { misses.Add(1) }}
		gather := func(v View, tasks []Task, descs analyzer.ObjectDescs) int {
			misses.Store(0)
			sets := c.Gather(Request{View: v, Tasks: tasks, Descs: descs}, m)
			if _, _, err := Stitch(len(tasks), sets); err != nil {
				t.Fatalf("shards=%d: stitch: %v", shards, err)
			}
			return int(misses.Load())
		}

		if got := gather(Batch, tasks, descs); got != 2*n {
			t.Fatalf("shards=%d: cold batch pass missed %d, want %d", shards, got, 2*n)
		}
		// The live view: the same tasks plus one in-flight trace whose
		// superseded revisions must not pile up.
		liveTasks := append(append([]Task{}, tasks...), Task{Pos: n, Trace: tasks[0].Trace, Hash: "checkpoint-1"})
		if got := gather(Live, liveTasks, descs); got != 2 {
			t.Fatalf("shards=%d: first live pass missed %d, want 2", shards, got)
		}
		for rev := 2; rev <= 20; rev++ {
			liveTasks[n].Hash = fmt.Sprintf("checkpoint-%d", rev)
			if got := gather(Live, liveTasks, descs); got != 2 {
				t.Fatalf("shards=%d: live pass %d missed %d, want 2", shards, rev, got)
			}
			c.Prune()
			if ftg, sdg := c.CachedContributions(); ftg != n+1 || sdg != n+1 {
				t.Fatalf("shards=%d: after live pass %d the caches hold %d/%d, want %d/%d", shards, rev, ftg, sdg, n+1, n+1)
			}
		}

		// A live pass over new descriptions keys its SDG contributions
		// apart; the batch view's variants survive the prune beside them.
		mutated := analyzer.ObjectDescs{}
		for k, v := range descs {
			v.Datatype += "-live"
			mutated[k] = v
		}
		gather(Live, liveTasks, mutated)
		c.Prune()
		if got := gather(Batch, tasks, descs); got != 0 {
			t.Errorf("shards=%d: batch pass after live-only prunes missed %d, want 0", shards, got)
		}
		// A live pass confined to one task: workers that own none of it
		// forget their share of the previous live pass.
		gather(Live, []Task{{Pos: 0, Trace: liveTasks[n].Trace, Hash: liveTasks[n].Hash}}, mutated)
		c.Prune()
		if ftg, sdg := c.CachedContributions(); ftg != n+1 || sdg != n+1 {
			t.Errorf("shards=%d: after a one-task live pass the caches hold %d/%d, want %d/%d", shards, ftg, sdg, n+1, n+1)
		}
		// The overlay dissolves.
		c.Release(Live)
		c.Prune()
		if ftg, sdg := c.CachedContributions(); ftg != n || sdg != n {
			t.Errorf("shards=%d: after Release(Live) the caches hold %d/%d, want %d/%d", shards, ftg, sdg, n, n)
		}
		if got := gather(Batch, tasks, descs); got != 0 {
			t.Errorf("shards=%d: batch pass after the release missed %d, want 0", shards, got)
		}
	}
}
