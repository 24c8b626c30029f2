package trace

import (
	"reflect"
	"testing"
)

func rankTrace(rank int, start int64) *TaskTrace {
	task := "sim/rank" + string(rune('0'+rank))
	return &TaskTrace{
		Task: task, StartNS: start, EndNS: start + 100,
		Objects: []ObjectRecord{{
			Task: task, File: "shared.h5", Object: "/d", Type: "dataset",
			Datatype: "float64", AcquiredNS: start + 1, ReleasedNS: start + 90,
			Reads: 1, Writes: 2, BytesRead: 10, BytesWritten: 20,
		}},
		Files: []FileRecord{{
			Task: task, File: "shared.h5", OpenNS: start, CloseNS: start + 95,
			Ops: 5, Reads: 2, Writes: 3, BytesRead: 10, BytesWritten: 20,
			DataReads: 1, DataWrites: 2, MetaOps: 2, DataOps: 3,
			MetaBytes: 4, DataBytes: 26, SequentialOps: 1,
			Regions: []Extent{{Start: int64(rank) * 100, End: int64(rank)*100 + 50}},
		}},
		Mapped: []MappedStat{{
			Task: task, File: "shared.h5", Object: "/d",
			MetaOps: 1, DataOps: 3, MetaBytes: 4, DataBytes: 26,
			Reads: 2, Writes: 3, FirstNS: start + 1, LastNS: start + 80,
			Regions: []Extent{{Start: int64(rank) * 100, End: int64(rank)*100 + 50}},
		}},
		IOTrace: []IORecord{{Seq: int64(rank), WallNS: start + 5, File: "shared.h5",
			Offset: int64(rank) * 100, Length: 50}},
	}
}

func TestMergeRanks(t *testing.T) {
	parts := []*TaskTrace{rankTrace(1, 1000), rankTrace(0, 500), rankTrace(2, 1500)}
	merged := Merge("sim", parts)
	if err := merged.Validate(); err != nil {
		t.Fatal(err)
	}
	if merged.Task != "sim" {
		t.Errorf("task = %q", merged.Task)
	}
	if merged.StartNS != 500 || merged.EndNS != 1600 {
		t.Errorf("envelope = [%d,%d]", merged.StartNS, merged.EndNS)
	}
	// One object record with summed access counts.
	if len(merged.Objects) != 1 {
		t.Fatalf("objects = %d", len(merged.Objects))
	}
	o := merged.Objects[0]
	if o.Reads != 3 || o.Writes != 6 || o.BytesWritten != 60 {
		t.Errorf("object sums: %+v", o)
	}
	if o.AcquiredNS != 501 || o.ReleasedNS != 1590 {
		t.Errorf("object lifetime: [%d,%d]", o.AcquiredNS, o.ReleasedNS)
	}
	// One file record with summed stats and merged disjoint regions.
	if len(merged.Files) != 1 {
		t.Fatalf("files = %d", len(merged.Files))
	}
	fr := merged.Files[0]
	if fr.Ops != 15 || fr.DataReads != 3 || fr.DataWrites != 6 {
		t.Errorf("file sums: %+v", fr)
	}
	wantRegions := []Extent{{0, 50}, {100, 150}, {200, 250}}
	if !reflect.DeepEqual(fr.Regions, wantRegions) {
		t.Errorf("regions = %v", fr.Regions)
	}
	// Mapped stats aggregated the same way.
	if len(merged.Mapped) != 1 || merged.Mapped[0].DataOps != 9 {
		t.Errorf("mapped = %+v", merged.Mapped)
	}
	// Raw records in wall order.
	if len(merged.IOTrace) != 3 {
		t.Fatalf("iotrace = %d", len(merged.IOTrace))
	}
	for i := 1; i < 3; i++ {
		if merged.IOTrace[i].WallNS < merged.IOTrace[i-1].WallNS {
			t.Error("iotrace out of order")
		}
	}
}

func TestMergeUnsetTimestamps(t *testing.T) {
	// A rank that never timed an event records 0. Zeros must not clobber
	// another rank's recorded minimum, in either merge order: the unset
	// rank arriving second used to reset the min to 0, and arriving first
	// it used to pin it there (0 compares below every real timestamp).
	timed := rankTrace(0, 500)
	unset := rankTrace(1, 0)
	unset.StartNS = 0
	unset.Objects[0].AcquiredNS = 0
	unset.Files[0].OpenNS = 0
	unset.Mapped[0].FirstNS = 0

	for name, parts := range map[string][]*TaskTrace{
		"unset-second": {timed, unset},
		"unset-first":  {unset, timed},
	} {
		merged := Merge("sim", parts)
		if merged.StartNS != 500 {
			t.Errorf("%s: StartNS = %d, want 500", name, merged.StartNS)
		}
		if got := merged.Objects[0].AcquiredNS; got != 501 {
			t.Errorf("%s: AcquiredNS = %d, want 501", name, got)
		}
		if got := merged.Files[0].OpenNS; got != 500 {
			t.Errorf("%s: OpenNS = %d, want 500", name, got)
		}
		if got := merged.Mapped[0].FirstNS; got != 501 {
			t.Errorf("%s: FirstNS = %d, want 501", name, got)
		}
	}

	// All ranks unset: the merged value stays 0 rather than inventing one.
	u2 := rankTrace(2, 0)
	u2.StartNS = 0
	u2.Objects[0].AcquiredNS = 0
	u2.Files[0].OpenNS = 0
	u2.Mapped[0].FirstNS = 0
	merged := Merge("sim", []*TaskTrace{unset, u2})
	if merged.Objects[0].AcquiredNS != 0 || merged.Files[0].OpenNS != 0 {
		t.Errorf("all-unset merge invented timestamps: %+v", merged.Files[0])
	}
}

func TestMergeDisjointFiles(t *testing.T) {
	a := rankTrace(0, 0)
	b := rankTrace(1, 10)
	b.Files[0].File = "other.h5"
	b.Mapped[0].File = "other.h5"
	b.Objects[0].File = "other.h5"
	merged := Merge("t", []*TaskTrace{a, b})
	if len(merged.Files) != 2 || len(merged.Objects) != 2 || len(merged.Mapped) != 2 {
		t.Fatalf("merge lost records: %d/%d/%d",
			len(merged.Files), len(merged.Objects), len(merged.Mapped))
	}
	if merged.Files[0].File != "other.h5" || merged.Files[1].File != "shared.h5" {
		t.Error("files not sorted")
	}
}

func TestMergeEmpty(t *testing.T) {
	m := Merge("x", nil)
	if m.Task != "x" || len(m.Files) != 0 {
		t.Error("empty merge wrong")
	}
}

func TestMergeKeepsRicherDescription(t *testing.T) {
	// Rank 0 only opened the dataset; rank 1 saw its description. The
	// merge keeps the description, whichever part comes first.
	bare := rankTrace(0, 500)
	bare.Objects[0].Datatype = ""
	rich := rankTrace(1, 1000)
	rich.Objects[0].Shape = []int64{4}
	rich.Objects[0].ElemSize = 8
	rich.Objects[0].Layout = "chunked"
	rich.Objects[0].ChunkDims = []int64{2}
	for name, parts := range map[string][]*TaskTrace{
		"bare-first": {bare, rich},
		"bare-last":  {rich, bare},
	} {
		o := Merge("sim", parts).Objects[0]
		if o.Datatype != "float64" || o.ElemSize != 8 || o.Layout != "chunked" ||
			!reflect.DeepEqual(o.Shape, []int64{4}) || !reflect.DeepEqual(o.ChunkDims, []int64{2}) {
			t.Errorf("%s: description lost: %+v", name, o)
		}
		if o.Reads != 2 || o.Writes != 4 {
			t.Errorf("%s: object sums: %+v", name, o)
		}
	}
}

func TestMergeCarriesFailure(t *testing.T) {
	ok := rankTrace(0, 500)
	ok.Attempts = 1
	failed := rankTrace(1, 1000)
	failed.Failed, failed.Attempts = true, 2
	for name, parts := range map[string][]*TaskTrace{
		"failed-first": {failed, ok},
		"failed-last":  {ok, failed},
	} {
		if m := Merge("sim", parts); !m.Failed || m.Attempts != 2 {
			t.Errorf("%s: Failed %v, Attempts %d; want true, 2", name, m.Failed, m.Attempts)
		}
	}
	if m := Merge("sim", []*TaskTrace{ok, rankTrace(2, 0)}); m.Failed || m.Attempts != 1 {
		t.Errorf("no failed part: Failed %v, Attempts %d; want false, 1", m.Failed, m.Attempts)
	}
}
