package trace

import (
	"bytes"
	"math/rand"
	"reflect"
	"sort"
	"testing"
)

// The reference implementations below are Diff, ApplyDelta and Merge
// as they were before the three tables shared one generic pass per
// job, kept verbatim except for two Merge fixes both sides carry: a
// part whose object record has a Datatype overwrites the description
// (the tracer's keep-the-richest rule), and the merged trace is Failed
// when any part failed, with the largest Attempts. FuzzRowsMatchReference
// holds the generic code to them.

// refDiff computes a delta record that reassembles to cur when applied on
// top of base with refApplyDelta. It reports ok=false when no exact delta
// exists — the tables shrank, rows changed order, or the I/O trace was
// rewritten rather than appended to — in which case the caller must
// ship cur as a cumulative checkpoint instead.
func refDiff(base, cur *TaskTrace) (delta *TaskTrace, ok bool) {
	if base == nil || cur == nil || base.Task != cur.Task {
		return nil, false
	}
	d := &TaskTrace{
		Task:     cur.Task,
		StartNS:  cur.StartNS,
		EndNS:    cur.EndNS,
		Attempts: cur.Attempts,
		Failed:   cur.Failed,
	}

	// Monotone-growth fast checks: a cumulative checkpoint never drops
	// rows or truncates the I/O trace.
	if len(cur.Objects) < len(base.Objects) ||
		len(cur.Files) < len(base.Files) ||
		len(cur.Mapped) < len(base.Mapped) ||
		len(cur.IOTrace) < len(base.IOTrace) {
		return nil, false
	}

	baseObjects := make(map[objectKey]*ObjectRecord, len(base.Objects))
	for i := range base.Objects {
		o := &base.Objects[i]
		baseObjects[objectKey{o.File, o.Object}] = o
	}
	if cur.Objects != nil {
		d.Objects = make([]ObjectRecord, 0, 4)
		for i := range cur.Objects {
			o := &cur.Objects[i]
			if prev, ok := baseObjects[objectKey{o.File, o.Object}]; !ok || !reflect.DeepEqual(prev, o) {
				d.Objects = append(d.Objects, *o)
			}
		}
	}

	baseFiles := make(map[string]*FileRecord, len(base.Files))
	for i := range base.Files {
		f := &base.Files[i]
		baseFiles[f.File] = f
	}
	changedFiles := map[string]bool{}
	if cur.Files != nil {
		d.Files = make([]FileRecord, 0, 4)
		for i := range cur.Files {
			f := &cur.Files[i]
			if prev, ok := baseFiles[f.File]; !ok || !reflect.DeepEqual(prev, f) {
				d.Files = append(d.Files, *f)
				changedFiles[f.File] = true
			}
		}
	}

	baseMapped := make(map[objectKey]*MappedStat, len(base.Mapped))
	for i := range base.Mapped {
		m := &base.Mapped[i]
		baseMapped[objectKey{m.File, m.Object}] = m
	}
	if cur.Mapped != nil {
		d.Mapped = make([]MappedStat, 0, 4)
		for i := range cur.Mapped {
			m := &cur.Mapped[i]
			if prev, ok := baseMapped[objectKey{m.File, m.Object}]; !ok || !reflect.DeepEqual(prev, m) {
				d.Mapped = append(d.Mapped, *m)
				// Validate requires every mapped row's file to have a file
				// row in the same record. The tracer updates both tables
				// from the same operation so the file row has changed too,
				// but a hand-built trace may not honor that — carry the
				// (unchanged) file row explicitly to keep the delta valid.
				if !changedFiles[m.File] {
					if cf := currentFile(cur, m.File); cf != nil {
						d.Files = append(d.Files, *cf)
						changedFiles[m.File] = true
					} else {
						return nil, false // cur itself violates Mapped ⊆ Files
					}
				}
			}
		}
		if len(d.Files) > 0 {
			sort.SliceStable(d.Files, func(i, j int) bool { return d.Files[i].File < d.Files[j].File })
		}
	}

	// The I/O trace of a cumulative checkpoint is append-only; the
	// delta ships the suffix. The verification pass below catches a
	// rewritten prefix.
	if cur.IOTrace != nil {
		d.IOTrace = cur.IOTrace[len(base.IOTrace):]
	}

	// Exactness gate: the server will run exactly ApplyDelta; if that
	// does not reproduce cur deeply (slice nil-ness included — it
	// decides encoded bytes), no delta framing is possible.
	if !reflect.DeepEqual(refApplyDelta(base, d), cur) {
		return nil, false
	}
	return d, true
}

// currentFile finds cur's file row by name (rows are sorted by file
// name, but a linear scan keeps no ordering assumption).
func currentFile(cur *TaskTrace, file string) *FileRecord {
	for i := range cur.Files {
		if cur.Files[i].File == file {
			return &cur.Files[i]
		}
	}
	return nil
}

type objectKey struct{ file, object string }

// refApplyDelta reassembles the cumulative checkpoint a delta record
// stands for: base's rows overlaid with delta's by key (file for file
// rows, file+object for object and mapped rows), the I/O trace
// concatenated, and the task header taken from the delta. Tables come
// out in the tracer's canonical sort orders. Row-level slices (Regions,
// Shape, the I/O records) alias base/delta — traces are read-only
// after decode, so the aliasing is safe and keeps reassembly cheap.
func refApplyDelta(base, delta *TaskTrace) *TaskTrace {
	out := &TaskTrace{
		Task:     delta.Task,
		StartNS:  delta.StartNS,
		EndNS:    delta.EndNS,
		Attempts: delta.Attempts,
		Failed:   delta.Failed,
	}

	if base.Objects != nil || delta.Objects != nil {
		repl := make(map[objectKey]*ObjectRecord, len(delta.Objects))
		for i := range delta.Objects {
			o := &delta.Objects[i]
			repl[objectKey{o.File, o.Object}] = o
		}
		out.Objects = make([]ObjectRecord, 0, len(base.Objects)+len(delta.Objects))
		seen := make(map[objectKey]bool, len(base.Objects))
		for i := range base.Objects {
			o := &base.Objects[i]
			key := objectKey{o.File, o.Object}
			seen[key] = true
			if r, ok := repl[key]; ok {
				out.Objects = append(out.Objects, *r)
			} else {
				out.Objects = append(out.Objects, *o)
			}
		}
		for i := range delta.Objects {
			o := &delta.Objects[i]
			if !seen[objectKey{o.File, o.Object}] {
				out.Objects = append(out.Objects, *o)
			}
		}
		sort.SliceStable(out.Objects, func(i, j int) bool {
			if out.Objects[i].File != out.Objects[j].File {
				return out.Objects[i].File < out.Objects[j].File
			}
			return out.Objects[i].Object < out.Objects[j].Object
		})
	}

	if base.Files != nil || delta.Files != nil {
		repl := make(map[string]*FileRecord, len(delta.Files))
		for i := range delta.Files {
			repl[delta.Files[i].File] = &delta.Files[i]
		}
		out.Files = make([]FileRecord, 0, len(base.Files)+len(delta.Files))
		seen := make(map[string]bool, len(base.Files))
		for i := range base.Files {
			f := &base.Files[i]
			seen[f.File] = true
			if r, ok := repl[f.File]; ok {
				out.Files = append(out.Files, *r)
			} else {
				out.Files = append(out.Files, *f)
			}
		}
		for i := range delta.Files {
			f := &delta.Files[i]
			if !seen[f.File] {
				out.Files = append(out.Files, *f)
			}
		}
		sort.SliceStable(out.Files, func(i, j int) bool { return out.Files[i].File < out.Files[j].File })
	}

	if base.Mapped != nil || delta.Mapped != nil {
		repl := make(map[objectKey]*MappedStat, len(delta.Mapped))
		for i := range delta.Mapped {
			m := &delta.Mapped[i]
			repl[objectKey{m.File, m.Object}] = m
		}
		out.Mapped = make([]MappedStat, 0, len(base.Mapped)+len(delta.Mapped))
		seen := make(map[objectKey]bool, len(base.Mapped))
		for i := range base.Mapped {
			m := &base.Mapped[i]
			key := objectKey{m.File, m.Object}
			seen[key] = true
			if r, ok := repl[key]; ok {
				out.Mapped = append(out.Mapped, *r)
			} else {
				out.Mapped = append(out.Mapped, *m)
			}
		}
		for i := range delta.Mapped {
			m := &delta.Mapped[i]
			if !seen[objectKey{m.File, m.Object}] {
				out.Mapped = append(out.Mapped, *m)
			}
		}
		sort.SliceStable(out.Mapped, func(i, j int) bool {
			if out.Mapped[i].File != out.Mapped[j].File {
				return out.Mapped[i].File < out.Mapped[j].File
			}
			return out.Mapped[i].Object < out.Mapped[j].Object
		})
	}

	if base.IOTrace != nil || delta.IOTrace != nil {
		out.IOTrace = make([]IORecord, 0, len(base.IOTrace)+len(delta.IOTrace))
		out.IOTrace = append(out.IOTrace, base.IOTrace...)
		out.IOTrace = append(out.IOTrace, delta.IOTrace...)
	}
	return out
}

// refMerge combines the traces of one logical task's parallel processes
// (DaYu's profilers are per-process; the paper's future-work MPI support
// needs per-rank traces folded into one task view). Statistics sum,
// lifetimes take the envelope, address regions merge, and the raw I/O
// traces concatenate in wall-clock order. The merged trace carries the
// given task name.
func refMerge(task string, parts []*TaskTrace) *TaskTrace {
	out := &TaskTrace{Task: task}
	if len(parts) == 0 {
		return out
	}

	type objKey struct{ file, object string }
	objects := map[objKey]*ObjectRecord{}
	files := map[string]*FileRecord{}
	mapped := map[objKey]*MappedStat{}

	for _, p := range parts {
		if out.StartNS == 0 || (p.StartNS != 0 && p.StartNS < out.StartNS) {
			out.StartNS = p.StartNS
		}
		if p.EndNS > out.EndNS {
			out.EndNS = p.EndNS
		}
		if p.Attempts > out.Attempts {
			out.Attempts = p.Attempts
		}
		out.Failed = out.Failed || p.Failed
		for _, o := range p.Objects {
			k := objKey{o.File, o.Object}
			agg := objects[k]
			if agg == nil {
				cp := o
				cp.Task = task
				objects[k] = &cp
				continue
			}
			if o.Datatype != "" {
				agg.Type = o.Type
				agg.Datatype = o.Datatype
				agg.Shape = o.Shape
				agg.ElemSize = o.ElemSize
				agg.Layout = o.Layout
				agg.ChunkDims = o.ChunkDims
			}
			// Unset (zero) timestamps must not clobber a recorded minimum:
			// a rank that never timed the acquire would otherwise reset the
			// merged min to 0 (same guard as out.StartNS above).
			if agg.AcquiredNS == 0 || (o.AcquiredNS != 0 && o.AcquiredNS < agg.AcquiredNS) {
				agg.AcquiredNS = o.AcquiredNS
			}
			if o.ReleasedNS > agg.ReleasedNS {
				agg.ReleasedNS = o.ReleasedNS
			}
			agg.Reads += o.Reads
			agg.Writes += o.Writes
			agg.BytesRead += o.BytesRead
			agg.BytesWritten += o.BytesWritten
		}
		for _, fr := range p.Files {
			agg := files[fr.File]
			if agg == nil {
				cp := fr
				cp.Task = task
				cp.Regions = append([]Extent(nil), fr.Regions...)
				files[fr.File] = &cp
				continue
			}
			if agg.OpenNS == 0 || (fr.OpenNS != 0 && fr.OpenNS < agg.OpenNS) {
				agg.OpenNS = fr.OpenNS
			}
			if fr.CloseNS > agg.CloseNS {
				agg.CloseNS = fr.CloseNS
			}
			agg.Ops += fr.Ops
			agg.Reads += fr.Reads
			agg.Writes += fr.Writes
			agg.BytesRead += fr.BytesRead
			agg.BytesWritten += fr.BytesWritten
			agg.DataReads += fr.DataReads
			agg.DataWrites += fr.DataWrites
			agg.SequentialOps += fr.SequentialOps
			agg.MetaOps += fr.MetaOps
			agg.DataOps += fr.DataOps
			agg.MetaBytes += fr.MetaBytes
			agg.DataBytes += fr.DataBytes
			agg.Regions = MergeExtents(append(agg.Regions, fr.Regions...))
		}
		for _, ms := range p.Mapped {
			k := objKey{ms.File, ms.Object}
			agg := mapped[k]
			if agg == nil {
				cp := ms
				cp.Task = task
				cp.Regions = append([]Extent(nil), ms.Regions...)
				mapped[k] = &cp
				continue
			}
			agg.MetaOps += ms.MetaOps
			agg.DataOps += ms.DataOps
			agg.MetaBytes += ms.MetaBytes
			agg.DataBytes += ms.DataBytes
			agg.Reads += ms.Reads
			agg.Writes += ms.Writes
			if agg.FirstNS == 0 || (ms.FirstNS != 0 && ms.FirstNS < agg.FirstNS) {
				agg.FirstNS = ms.FirstNS
			}
			if ms.LastNS > agg.LastNS {
				agg.LastNS = ms.LastNS
			}
			agg.Regions = MergeExtents(append(agg.Regions, ms.Regions...))
		}
		for _, io := range p.IOTrace {
			out.IOTrace = append(out.IOTrace, io)
		}
	}

	for _, o := range objects {
		out.Objects = append(out.Objects, *o)
	}
	sort.Slice(out.Objects, func(i, j int) bool {
		if out.Objects[i].File != out.Objects[j].File {
			return out.Objects[i].File < out.Objects[j].File
		}
		return out.Objects[i].Object < out.Objects[j].Object
	})
	for _, fr := range files {
		out.Files = append(out.Files, *fr)
	}
	sort.Slice(out.Files, func(i, j int) bool { return out.Files[i].File < out.Files[j].File })
	for _, ms := range mapped {
		out.Mapped = append(out.Mapped, *ms)
	}
	sort.Slice(out.Mapped, func(i, j int) bool {
		if out.Mapped[i].File != out.Mapped[j].File {
			return out.Mapped[i].File < out.Mapped[j].File
		}
		return out.Mapped[i].Object < out.Mapped[j].Object
	})
	sort.SliceStable(out.IOTrace, func(i, j int) bool {
		return out.IOTrace[i].WallNS < out.IOTrace[j].WallNS
	})
	return out
}

// editTable applies one edit to a table: shuffle it (unsorted rows),
// repeat a row (duplicate keys), make it nil or empty, drop a row (for
// files, mapped rows left with no file row), or change one row.
func editTable[T any](rng *rand.Rand, rows []T, kind byte, change func(*T)) []T {
	switch kind % 6 {
	case 0:
		rng.Shuffle(len(rows), func(i, j int) { rows[i], rows[j] = rows[j], rows[i] })
	case 1:
		if len(rows) > 0 {
			dup := rows[rng.Intn(len(rows))]
			if rng.Intn(2) == 0 {
				change(&dup)
			}
			rows = append(rows, dup)
		}
	case 2:
		rows = nil
	case 3:
		rows = []T{}
	case 4:
		if len(rows) > 0 {
			i := rng.Intn(len(rows))
			rows = append(rows[:i:i], rows[i+1:]...)
		}
	case 5:
		if len(rows) > 0 {
			change(&rows[rng.Intn(len(rows))])
		}
	}
	return rows
}

// editTrace applies edit op to one of tr's four tables.
func editTrace(rng *rand.Rand, tr *TaskTrace, op byte) {
	kind := op / 4
	switch op % 4 {
	case 0:
		tr.Objects = editTable(rng, tr.Objects, kind, func(o *ObjectRecord) { o.Reads++ })
	case 1:
		tr.Files = editTable(rng, tr.Files, kind, func(f *FileRecord) { f.Ops++ })
	case 2:
		tr.Mapped = editTable(rng, tr.Mapped, kind, func(m *MappedStat) { m.DataOps++ })
	case 3:
		tr.IOTrace = editTable(rng, tr.IOTrace, kind, func(io *IORecord) { io.Length++ })
	}
}

// checkRowsMatchReference holds Diff, ApplyDelta and Merge to the
// reference implementations on one pair of traces: Diff's (delta, ok)
// and the delta's dtb/v2 bytes, ApplyDelta's result with slice
// nil-ness, and Merge's result over both part orders.
func checkRowsMatchReference(t *testing.T, base, cur *TaskTrace) {
	t.Helper()
	got, gotOK := Diff(base, cur)
	want, wantOK := refDiff(base, cur)
	if gotOK != wantOK || !reflect.DeepEqual(got, want) {
		t.Fatalf("Diff = (%+v, %v), reference (%+v, %v)", got, gotOK, want, wantOK)
	}
	if gotOK {
		opts := BinaryOptions{Incremental: true, CheckpointSeq: 2, Delta: true, DeltaBaseSeq: 1}
		var gb, wb bytes.Buffer
		gerr, werr := got.EncodeBinaryOpts(&gb, opts), want.EncodeBinaryOpts(&wb, opts)
		if (gerr == nil) != (werr == nil) || !bytes.Equal(gb.Bytes(), wb.Bytes()) {
			t.Fatalf("delta encodes differently from the reference (errors %v, %v)", gerr, werr)
		}
	}
	// Any trace is a valid delta body, in either direction.
	for _, pair := range [][2]*TaskTrace{{base, cur}, {cur, base}} {
		if got, want := ApplyDelta(pair[0], pair[1]), refApplyDelta(pair[0], pair[1]); !reflect.DeepEqual(got, want) {
			t.Fatalf("ApplyDelta diverged from the reference:\n got %+v\nwant %+v", got, want)
		}
	}
	for _, parts := range [][]*TaskTrace{{base, cur}, {cur, base, cur}} {
		if got, want := Merge("merged", parts), refMerge("merged", parts); !reflect.DeepEqual(got, want) {
			t.Fatalf("Merge diverged from the reference:\n got %+v\nwant %+v", got, want)
		}
	}
}

// FuzzRowsMatchReference holds the generic table passes to the
// reference implementations. A trace pair is either a monotone
// checkpoint pair (a canonical base and its grown successor) or two
// unrelated traces of one task; edits then unsort tables, repeat keys,
// nil, empty or shorten them, or change a row, on either side.
func FuzzRowsMatchReference(f *testing.F) {
	for seed := int64(0); seed < 8; seed++ {
		f.Add(seed, true, []byte{})
		f.Add(seed, false, []byte{})
		f.Add(seed, true, []byte{byte(seed), byte(seed*7 + 3)})
	}
	// Shuffled objects, repeated files, nil and empty mapped tables, a
	// dropped file row, a changed I/O record.
	f.Add(int64(11), true, []byte{1, 0, 5, 10, 15, 17, 20, 23})
	f.Fuzz(func(t *testing.T, seed int64, monotone bool, edits []byte) {
		rng := rand.New(rand.NewSource(seed))
		base := richTrace(seed)
		var cur *TaskTrace
		if monotone {
			base = dedupeKeys(canonical(base))
			cur = grow(t, rng, base)
		} else {
			cur = renameTrace(richTrace(seed+1), base.Task)
		}
		for i, op := range edits {
			editTrace(rng, []*TaskTrace{base, cur}[i%2], op)
		}
		checkRowsMatchReference(t, base, cur)
	})
}
