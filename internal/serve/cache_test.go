package serve

import (
	"fmt"
	"net/http/httptest"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"dayu/internal/analyzer"
	"dayu/internal/trace"
	"dayu/internal/workloads"
)

// retained counts the distinct FTG and SDG contributions the server's
// two graph indexes hold: the contribution cache.
func retained(s *Server) (ftg, sdg int) {
	s.ingestMu.Lock()
	defer s.ingestMu.Unlock()
	ftgSeen, sdgSeen := map[*analyzer.Contribution]bool{}, map[*analyzer.Contribution]bool{}
	for _, ix := range []*analyzer.GraphIndex{s.batchGraphs, s.liveGraphs} {
		f, d := ix.Contributions()
		for _, c := range f {
			ftgSeen[c] = true
		}
		for _, c := range d {
			sdgSeen[c] = true
		}
	}
	return len(ftgSeen), len(sdgSeen)
}

// TestPruneKeepsUnionOfViews pins the contribution cache rule: each
// graph index keeps exactly the contributions of the set it was last
// brought to, taking what the other index holds instead of computing
// it, so the cache is the union of the batch and the live set's
// contributions, and a live set that dissolves into the batch set
// drops what only it held.
func TestPruneKeepsUnionOfViews(t *testing.T) {
	tasks, m := workloads.GenerateSyntheticTraces(workloads.SyntheticTraceConfig{
		Tasks: 16, Stages: 4, FilesPerStage: 3, DatasetsPerTask: 2,
	})
	n := len(tasks)
	s := &Server{}
	s.batchGraphs = analyzer.NewGraphIndex(analyzer.Options{}, nil)
	s.liveGraphs = analyzer.NewGraphIndex(analyzer.Options{}, s.batchGraphs)
	// The in-flight task: a copy of a final that describes no object and
	// that the manifest does not order. Every checkpoint is a new trace.
	first := *tasks[0]
	first.Task, first.Objects = "zz_inflight", nil
	inflight := &first
	// Each index is driven as the server drives it: a TaskSet keeps its
	// order, and Apply takes the change from the set it was given last.
	type driven struct {
		set  analyzer.TaskSet
		prev []*trace.TaskTrace
	}
	sides := map[*analyzer.GraphIndex]*driven{s.batchGraphs: {}, s.liveGraphs: {}}
	pass := func(ix *analyzer.GraphIndex, set ...*trace.TaskTrace) int {
		d := sides[ix]
		var ch analyzer.Change
		for _, tt := range d.prev {
			if !slices.Contains(set, tt) {
				ch.Removed = append(ch.Removed, tt)
			}
		}
		for _, tt := range set {
			if !slices.Contains(d.prev, tt) {
				ch.Added = append(ch.Added, tt)
			}
		}
		ch, _, ok := d.set.Apply(ch, m)
		if !ok {
			d.set.Reset(set, m)
		}
		d.prev = slices.Clone(set)
		return ix.Apply(d.set.Ordered(), m, ch).Recomputed
	}
	live := func() []*trace.TaskTrace { return append(append([]*trace.TaskTrace{}, tasks...), inflight) }
	cached := func() string {
		ftg, sdg := retained(s)
		return fmt.Sprintf("%d/%d", ftg, sdg)
	}
	want := func(n int) string { return fmt.Sprintf("%d/%d", n, n) }

	if got := pass(s.batchGraphs, tasks...); got != 2*n {
		t.Fatalf("cold batch pass missed %d, want %d", got, 2*n)
	}
	// The live set: the same tasks plus the in-flight one, whose
	// superseded revisions must not pile up.
	for rev := 1; rev <= 20; rev++ {
		next := *inflight
		inflight = &next
		if got := pass(s.liveGraphs, live()...); got != 2 {
			t.Fatalf("live pass %d missed %d, want 2", rev, got)
		}
		if cached() != want(n+1) {
			t.Fatalf("after live pass %d the caches hold %s, want %s", rev, cached(), want(n+1))
		}
	}

	// A live pass over new descriptions (the in-flight task re-describes
	// every object) recomputes the SDG contribution of every final; the
	// batch index's survive beside them.
	described := *inflight
	for _, tt := range tasks {
		for _, o := range tt.Objects {
			o.Datatype += "-live"
			described.Objects = append(described.Objects, o)
		}
	}
	inflight = &described
	if got := pass(s.liveGraphs, live()...); got != 2+n {
		t.Errorf("live pass over new descriptions missed %d, want %d: the in-flight task's two shares and an SDG variant per final", got, 2+n)
	}
	if got := pass(s.batchGraphs, tasks...); got != 0 {
		t.Errorf("batch pass after live-only refreshes missed %d, want 0", got)
	}
	// A live pass confined to one task forgets the rest of the
	// previous live pass.
	pass(s.liveGraphs, inflight)
	if cached() != want(n+1) {
		t.Errorf("after a one-task live pass the caches hold %s, want %s", cached(), want(n+1))
	}
	// The live set dissolves into the batch set: the live index takes
	// every contribution from the batch index.
	if got := pass(s.liveGraphs, tasks...); got != 0 {
		t.Errorf("live pass over the batch set missed %d, want 0", got)
	}
	if cached() != want(n) {
		t.Errorf("after the live set dissolved the caches hold %s, want %s", cached(), want(n))
	}
	if got := pass(s.batchGraphs, tasks...); got != 0 {
		t.Errorf("batch pass after the live set dissolved missed %d, want 0", got)
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
