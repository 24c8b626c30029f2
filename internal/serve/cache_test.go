package serve

import (
	"fmt"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"dayu/internal/analyzer"
	"dayu/internal/obs"
	"dayu/internal/trace"
	"dayu/internal/workloads"
)

// retained counts the distinct FTG and SDG contributions a snapshot's
// two views hold: the contribution cache.
func retained(snap *snapshot) (ftg, sdg int) {
	ftgKeys, sdgKeys := map[string]bool{}, map[sdgKey]bool{}
	for _, v := range []*view{snap.batch, snap.live} {
		for k := range v.ftgOf {
			ftgKeys[k] = true
		}
		for k := range v.sdgOf {
			sdgKeys[k] = true
		}
	}
	return len(ftgKeys), len(sdgKeys)
}

// TestPruneKeepsUnionOfViews pins the contribution cache rule: a build
// looks contributions up in the published snapshot's two views and a
// view keeps exactly what it was built from, so the cache is the union
// of the batch view's and the live view's contributions, and a live
// view that dissolves into the batch view drops what only it held.
func TestPruneKeepsUnionOfViews(t *testing.T) {
	tasks, m := workloads.GenerateSyntheticTraces(workloads.SyntheticTraceConfig{
		Tasks: 16, Stages: 4, FilesPerStage: 3, DatasetsPerTask: 2,
	})
	n := len(tasks)
	reg := obs.NewRegistry()
	s := &Server{contribMisses: reg.Counter("misses"), contribHits: reg.Counter("hits")}
	// The in-flight task: a copy of a final that describes no object and
	// that the manifest does not order, whose hash changes with every
	// checkpoint.
	inflight, inflightHash := *tasks[0], ""
	inflight.Task, inflight.Objects = "zz_inflight", nil
	hashOf := func(tt *trace.TaskTrace) string {
		if tt == &inflight {
			return inflightHash
		}
		return "hash-" + tt.Task
	}
	var cur *snapshot
	pass := func(set []*trace.TaskTrace) (*view, int) {
		var reuse []*view
		if cur != nil {
			reuse = []*view{cur.batch, cur.live}
		}
		before := s.contribMisses.Value()
		v := s.buildView(append([]*trace.TaskTrace{}, set...), m, hashOf, reuse)
		return v, int(s.contribMisses.Value() - before)
	}
	publish := func(batch, live *view) { cur = &snapshot{batch: batch, live: live} }
	cached := func() string {
		ftg, sdg := retained(cur)
		return fmt.Sprintf("%d/%d", ftg, sdg)
	}
	want := func(n int) string { return fmt.Sprintf("%d/%d", n, n) }

	batch, got := pass(tasks)
	if got != 2*n {
		t.Fatalf("cold batch pass missed %d, want %d", got, 2*n)
	}
	publish(batch, batch)
	// The live view: the same tasks plus the in-flight one, whose
	// superseded revisions must not pile up.
	live := append(append([]*trace.TaskTrace{}, tasks...), &inflight)
	for rev := 1; rev <= 20; rev++ {
		inflightHash = fmt.Sprintf("checkpoint-%d", rev)
		v, got := pass(live)
		if got != 2 {
			t.Fatalf("live pass %d missed %d, want 2", rev, got)
		}
		publish(batch, v)
		if cached() != want(n+1) {
			t.Fatalf("after live pass %d the caches hold %s, want %s", rev, cached(), want(n+1))
		}
	}

	// A live pass over new descriptions (the in-flight task re-describes
	// every object) keys its SDG contributions apart; the batch view's
	// variants survive beside them.
	for k, o := range analyzer.BuildObjectDescs(analyzer.OrderTasks(tasks, m)) {
		o.File, o.Object, o.Datatype = k.File, k.Object, o.Datatype+"-live"
		inflight.Objects = append(inflight.Objects, o)
	}
	inflightHash = "checkpoint-described"
	v, got := pass(live)
	if got != 2+n {
		t.Errorf("live pass over new descriptions missed %d, want %d: the in-flight task's two shares and an SDG variant per final", got, 2+n)
	}
	publish(batch, v)
	if batch, got = pass(tasks); got != 0 {
		t.Errorf("batch pass after live-only refreshes missed %d, want 0", got)
	}
	// A live pass confined to one task forgets the rest of the
	// previous live pass.
	v, _ = pass([]*trace.TaskTrace{&inflight})
	publish(batch, v)
	if cached() != want(n+1) {
		t.Errorf("after a one-task live pass the caches hold %s, want %s", cached(), want(n+1))
	}
	// The live view dissolves into the batch view.
	publish(batch, batch)
	if cached() != want(n) {
		t.Errorf("after the live view dissolved the caches hold %s, want %s", cached(), want(n))
	}
	if _, got := pass(tasks); got != 0 {
		t.Errorf("batch pass after the live view dissolved missed %d, want 0", got)
	}
}

// TestScanErrorShardCountInvariant: with two unparsable trace files in
// one scan the reported error names the first in directory order, the
// parsable changes of the same scan are applied all the same, and they
// reach a snapshot once the error clears without a further directory
// change of their own.
func TestScanErrorShardCountInvariant(t *testing.T) {
	dir := writeFixtureDir(t)
	s := mustServer(t, Config{Dir: dir, PlanOptions: testPlanOpts})
	defer s.Close()
	srv := httptest.NewServer(s)
	defer srv.Close()

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
}
