package analyzer

import (
	"reflect"
	"testing"

	"dayu/internal/trace"
)

// The contribution builders and the fold must reproduce the batch
// builders byte for byte, and contributions must be reusable: folding
// the same contribution slice twice yields identical graphs both times.
func TestContributionHooksMatchBatchBuild(t *testing.T) {
	traces, m := syntheticTraces(60)
	opts := Options{IncludeRegions: true, IncludeFileMetadata: true}

	ordered := OrderTasks(traces, m)
	descs := objectDescs(ordered)
	desc := func(k trace.RowKey) *trace.ObjectRecord { return descs[k] }
	ftgContribs := make([]*Contribution, len(ordered))
	sdgContribs := make([]*Contribution, len(ordered))
	for i, tr := range ordered {
		f, d := ftgContribution(tr), sdgContribution(tr, desc, opts)
		ftgContribs[i], sdgContribs[i] = &f, &d
	}

	wantFTG := renderAll(t, BuildFTG(traces, m))
	wantSDG := renderAll(t, BuildSDG(traces, m, opts))
	for rep := 0; rep < 2; rep++ {
		if got := renderAll(t, ftgShape.fold(ftgContribs)); !reflect.DeepEqual(got, wantFTG) {
			t.Fatalf("rep %d: FTG from contributions differs from batch build", rep)
		}
		if got := renderAll(t, sdgShape.fold(sdgContribs)); !reflect.DeepEqual(got, wantSDG) {
			t.Fatalf("rep %d: SDG from contributions differs from batch build", rep)
		}
	}
}

// Swapping one task's contribution for a recomputed one (the other
// contributions untouched) must equal a full rebuild over the mutated
// trace set.
func TestContributionSwapMatchesFullRebuild(t *testing.T) {
	traces, m := syntheticTraces(30)
	ordered := OrderTasks(traces, m)
	contribs := make([]*Contribution, len(ordered))
	for i, tr := range ordered {
		c := ftgContribution(tr)
		contribs[i] = &c
	}
	// Render once so any aliasing bug from the first merge would
	// surface in the rebuild below.
	_ = renderAll(t, ftgShape.fold(contribs))

	// Mutate task 7: double its write volume.
	mut := *ordered[7]
	mut.Files = append([]trace.FileRecord(nil), ordered[7].Files...)
	mut.Files[1].BytesWritten *= 2
	ordered[7] = &mut
	c := ftgContribution(&mut)
	contribs[7] = &c

	want := renderAll(t, BuildFTGOpts(ordered, m, Options{}))
	got := renderAll(t, ftgShape.fold(contribs))
	if !reflect.DeepEqual(got, want) {
		t.Fatal("incremental contribution swap differs from full rebuild")
	}
}
