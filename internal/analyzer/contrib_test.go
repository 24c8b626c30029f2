package analyzer

import (
	"fmt"
	"reflect"
	"testing"

	"dayu/internal/trace"
)

// The exported contribution hooks must reproduce the batch builders
// byte for byte, and cached contributions must be reusable: merging the
// same contribution slice twice yields identical graphs both times.
func TestContributionHooksMatchBatchBuild(t *testing.T) {
	traces, m := syntheticTraces(60)
	opts := Options{IncludeRegions: true, IncludeFileMetadata: true}

	ordered := OrderTasks(traces, m)
	descs := BuildObjectDescs(ordered)
	ftgContribs := make([]Contribution, len(ordered))
	sdgContribs := make([]Contribution, len(ordered))
	for i, tr := range ordered {
		ftgContribs[i] = FTGContribution(tr)
		sdgContribs[i] = SDGContribution(tr, descs, opts)
	}

	wantFTG := renderAll(t, BuildFTG(traces, m))
	wantSDG := renderAll(t, BuildSDG(traces, m, opts))
	for rep := 0; rep < 2; rep++ {
		if got := renderAll(t, BuildFTGFromContributions(ftgContribs)); !reflect.DeepEqual(got, wantFTG) {
			t.Fatalf("rep %d: FTG from contributions differs from batch build", rep)
		}
		if got := renderAll(t, BuildSDGFromContributions(sdgContribs)); !reflect.DeepEqual(got, wantSDG) {
			t.Fatalf("rep %d: SDG from contributions differs from batch build", rep)
		}
	}
}

// Swapping one task's contribution for a recomputed one (the other
// contributions untouched, as the serve cache does) must equal a full
// rebuild over the mutated trace set.
func TestContributionSwapMatchesFullRebuild(t *testing.T) {
	traces, m := syntheticTraces(30)
	ordered := OrderTasks(traces, m)
	contribs := make([]Contribution, len(ordered))
	for i, tr := range ordered {
		contribs[i] = FTGContribution(tr)
	}
	// Render once so any aliasing bug from the first merge would
	// surface in the rebuild below.
	_ = renderAll(t, BuildFTGFromContributions(contribs))

	// Mutate task 7: double its write volume.
	mut := *ordered[7]
	mut.Files = append([]trace.FileRecord(nil), ordered[7].Files...)
	mut.Files[1].BytesWritten *= 2
	ordered[7] = &mut
	contribs[7] = FTGContribution(&mut)

	want := renderAll(t, BuildFTGOpts(ordered, m, Options{}))
	got := renderAll(t, BuildFTGFromContributions(contribs))
	if !reflect.DeepEqual(got, want) {
		t.Fatal("incremental contribution swap differs from full rebuild")
	}
}

func TestObjectDescsFingerprint(t *testing.T) {
	traces, _ := syntheticTraces(12)
	descs := BuildObjectDescs(traces)
	tr := traces[0]

	fp1 := descs.Fingerprint(tr)
	fp2 := descs.Fingerprint(tr)
	if fp1 != fp2 {
		t.Fatal("fingerprint not deterministic")
	}

	clone := func() ObjectDescs {
		out := ObjectDescs{}
		for k, v := range descs {
			out[k] = v
		}
		return out
	}

	// Mutating a description the task references changes its
	// fingerprint; an unrelated key does not.
	if len(tr.Mapped) == 0 {
		t.Fatal("synthetic trace has no mapped stats")
	}
	k := trace.RowKey{File: tr.Mapped[0].File, Object: tr.Mapped[0].Object}
	mutated := clone()
	d := mutated[k]
	d.Datatype = "H5T_MUTATED"
	mutated[k] = d
	if mutated.Fingerprint(tr) == fp1 {
		t.Fatal("fingerprint ignored a referenced description change")
	}

	unrelated := clone()
	unrelated[trace.RowKey{File: "no-such-file.h5", Object: "no-such-object"}] = trace.ObjectRecord{
		Task: "x", File: "no-such-file.h5", Object: "no-such-object",
	}
	if unrelated.Fingerprint(tr) != fp1 {
		t.Fatal("fingerprint changed on an unreferenced description")
	}

	// Deleting a referenced description (present -> absent) must also
	// move the fingerprint.
	deleted := clone()
	delete(deleted, k)
	if _, ok := descs[k]; ok {
		if deleted.Fingerprint(tr) == fp1 {
			t.Fatal("fingerprint ignored a deleted referenced description")
		}
	}

	// Distinct tasks referencing distinct objects fingerprint apart.
	if other := traces[5]; descs.Fingerprint(other) == fp1 {
		t.Fatalf("tasks %s and %s share a descs fingerprint", tr.Task, fmt.Sprint(other.Task))
	}
}
