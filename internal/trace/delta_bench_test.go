package trace

import (
	"fmt"
	"slices"
	"testing"
)

// checkpointPair builds two successive checkpoints shaped like the
// tracer's for n datasets in one file: an object row and a mapped row
// per dataset and one file row. Between them one dataset takes one more
// write, so its mapped row and the file row change, and every other row
// is shared with the base, Regions included, as the tracer shares them.
func checkpointPair(n int) (base, cur *TaskTrace) {
	base = &TaskTrace{Task: "t", EndNS: int64(n)}
	data := int64(n) * 64
	base.Files = []FileRecord{{
		Task: "t", File: "f.h5", CloseNS: int64(n),
		Ops: 5 * int64(n), Writes: 5 * int64(n), BytesWritten: 5 * 1024 * int64(n),
		DataWrites: 4 * int64(n), MetaOps: int64(n), DataOps: 4 * int64(n),
		MetaBytes: 1024 * int64(n), DataBytes: 4 * 1024 * int64(n),
		Regions: []Extent{{Start: 0, End: data + 4096*int64(n)}},
	}}
	for i := range int64(n) {
		name := fmt.Sprintf("/d%04d", i)
		base.Objects = append(base.Objects, ObjectRecord{
			Task: "t", File: "f.h5", Object: name, Type: "dataset",
			AcquiredNS: i, ReleasedNS: i, Writes: 1, BytesWritten: 4096,
		})
		base.Mapped = append(base.Mapped, MappedStat{
			Task: "t", File: "f.h5", Object: name,
			MetaOps: 1, DataOps: 4, MetaBytes: 1024, DataBytes: 4096, Writes: 5,
			Regions: []Extent{{Start: i * 64, End: i*64 + 1024}, {Start: data + i*4096, End: data + i*4096 + 4096}},
			FirstNS: i, LastNS: i,
		})
	}
	cur = &TaskTrace{
		Task: "t", EndNS: base.EndNS + 1,
		Objects: slices.Clone(base.Objects),
		Files:   slices.Clone(base.Files),
		Mapped:  slices.Clone(base.Mapped),
	}
	f, m := &cur.Files[0], &cur.Mapped[n/2]
	f.Ops, f.Writes, f.DataWrites, f.DataOps = f.Ops+1, f.Writes+1, f.DataWrites+1, f.DataOps+1
	f.CloseNS = cur.EndNS
	m.DataOps, m.Writes, m.LastNS = m.DataOps+1, m.Writes+1, cur.EndNS
	m.Regions = slices.Clone(m.Regions)
	return base, cur
}

var deltaSink *TaskTrace

// BenchmarkDiff measures Diff against table size with one dataset
// changed between the checkpoints.
func BenchmarkDiff(b *testing.B) {
	for _, n := range []int{10, 200, 1000} {
		b.Run(fmt.Sprintf("objects=%d", n), func(b *testing.B) {
			base, cur := checkpointPair(n)
			if _, ok := Diff(base, cur); !ok {
				b.Fatal("no exact delta")
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				deltaSink, _ = Diff(base, cur)
			}
		})
	}
}

// BenchmarkApplyDelta measures reassembling the checkpoint BenchmarkDiff
// ships.
func BenchmarkApplyDelta(b *testing.B) {
	for _, n := range []int{10, 200, 1000} {
		b.Run(fmt.Sprintf("objects=%d", n), func(b *testing.B) {
			base, cur := checkpointPair(n)
			delta, ok := Diff(base, cur)
			if !ok {
				b.Fatal("no exact delta")
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				deltaSink = ApplyDelta(base, delta)
			}
		})
	}
}
