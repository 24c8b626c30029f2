package trace

import "sort"

// Merge combines the traces of one logical task's parallel processes
// (DaYu's profilers are per-process; the paper's future-work MPI support
// needs per-rank traces folded into one task view). Statistics sum,
// lifetimes take the envelope, address regions merge, and the raw I/O
// traces concatenate in wall-clock order. An object's description is
// the last one a part recorded with a Datatype, as the tracer keeps the
// richest description it sees. The merged trace carries the given task
// name, is Failed when any part failed, and counts the most Attempts.
func Merge(task string, parts []*TaskTrace) *TaskTrace {
	out := &TaskTrace{Task: task}
	for _, p := range parts {
		out.StartNS = earliest(out.StartNS, p.StartNS)
		out.EndNS = max(out.EndNS, p.EndNS)
		out.Attempts = max(out.Attempts, p.Attempts)
		out.Failed = out.Failed || p.Failed
		out.IOTrace = append(out.IOTrace, p.IOTrace...)
	}
	sort.SliceStable(out.IOTrace, func(i, j int) bool {
		return out.IOTrace[i].WallNS < out.IOTrace[j].WallNS
	})

	out.Objects = mergeRows(parts, func(p *TaskTrace) []ObjectRecord { return p.Objects }, func(agg, o *ObjectRecord, first bool) {
		if first {
			agg.Task = task
			return
		}
		if o.Datatype != "" {
			agg.Type, agg.Datatype, agg.Shape = o.Type, o.Datatype, o.Shape
			agg.ElemSize, agg.Layout, agg.ChunkDims = o.ElemSize, o.Layout, o.ChunkDims
		}
		agg.AcquiredNS = earliest(agg.AcquiredNS, o.AcquiredNS)
		agg.ReleasedNS = max(agg.ReleasedNS, o.ReleasedNS)
		agg.Reads += o.Reads
		agg.Writes += o.Writes
		agg.BytesRead += o.BytesRead
		agg.BytesWritten += o.BytesWritten
	})
	out.Files = mergeRows(parts, func(p *TaskTrace) []FileRecord { return p.Files }, func(agg, fr *FileRecord, first bool) {
		if first {
			agg.Task = task
			agg.Regions = append([]Extent(nil), fr.Regions...)
			return
		}
		agg.OpenNS = earliest(agg.OpenNS, fr.OpenNS)
		agg.CloseNS = max(agg.CloseNS, fr.CloseNS)
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
	})
	out.Mapped = mergeRows(parts, func(p *TaskTrace) []MappedStat { return p.Mapped }, func(agg, ms *MappedStat, first bool) {
		if first {
			agg.Task = task
			agg.Regions = append([]Extent(nil), ms.Regions...)
			return
		}
		agg.MetaOps += ms.MetaOps
		agg.DataOps += ms.DataOps
		agg.MetaBytes += ms.MetaBytes
		agg.DataBytes += ms.DataBytes
		agg.Reads += ms.Reads
		agg.Writes += ms.Writes
		agg.FirstNS = earliest(agg.FirstNS, ms.FirstNS)
		agg.LastNS = max(agg.LastNS, ms.LastNS)
		agg.Regions = MergeExtents(append(agg.Regions, ms.Regions...))
	})
	return out
}

// mergeRows is Merge's pass over one table: the parts' rows collected
// by RowKey in part order, the first row under a key copied and every
// later one folded into the copy, then sorted into RowKey order. fold
// sees the copy and the row it came from with first set, so it can
// take ownership of the row's slices. No rows give nil.
func mergeRows[R any, P row[R]](parts []*TaskTrace, table func(*TaskTrace) []R, fold func(agg, r *R, first bool)) []R {
	index := map[RowKey]*R{}
	for _, p := range parts {
		rows := table(p)
		for i := range rows {
			k := P(&rows[i]).Key()
			agg := index[k]
			first := agg == nil
			if first {
				agg = new(R)
				*agg = rows[i]
				index[k] = agg
			}
			fold(agg, &rows[i], first)
		}
	}
	if len(index) == 0 {
		return nil
	}
	out := make([]R, 0, len(index))
	for _, agg := range index {
		out = append(out, *agg)
	}
	sortRows[R, P](out)
	return out
}

// earliest is the lower of two timestamps where zero means unset: an
// unset value never clobbers a recorded minimum, and a first recorded
// value replaces an unset one.
func earliest(a, b int64) int64 {
	if a == 0 || (b != 0 && b < a) {
		return b
	}
	return a
}
