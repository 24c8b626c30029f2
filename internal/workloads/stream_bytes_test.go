package workloads

import (
	"bytes"
	"math"
	"sort"
	"testing"

	"dayu/internal/trace"
)

// quickSynthetic is the 400-task synthetic trace set the byte-level
// contracts run over.
var quickSynthetic = SyntheticTraceConfig{Tasks: 400, Stages: 5, FilesPerStage: 8, DatasetsPerTask: 3}

// canonicalTrace returns a copy of tt with its tables in the tracer's
// canonical sort orders (what ApplyDelta reproduces), so prefix
// checkpoints of it admit exact deltas.
func canonicalTrace(tt *trace.TaskTrace) *trace.TaskTrace {
	cp := *tt
	cp.Files = append([]trace.FileRecord(nil), tt.Files...)
	sort.SliceStable(cp.Files, func(i, j int) bool { return cp.Files[i].File < cp.Files[j].File })
	cp.Objects = append([]trace.ObjectRecord(nil), tt.Objects...)
	sort.SliceStable(cp.Objects, func(i, j int) bool {
		if cp.Objects[i].File != cp.Objects[j].File {
			return cp.Objects[i].File < cp.Objects[j].File
		}
		return cp.Objects[i].Object < cp.Objects[j].Object
	})
	cp.Mapped = append([]trace.MappedStat(nil), tt.Mapped...)
	sort.SliceStable(cp.Mapped, func(i, j int) bool {
		if cp.Mapped[i].File != cp.Mapped[j].File {
			return cp.Mapped[i].File < cp.Mapped[j].File
		}
		return cp.Mapped[i].Object < cp.Mapped[j].Object
	})
	return &cp
}

// streamPrefix synthesizes the trace-so-far a checkpoint at the given
// fraction of the task would carry: the first frac of the file rows,
// the object/mapped rows belonging to those files, and the matching
// I/O-trace prefix. Later fractions strictly grow the tables, which is
// the tracer's monotone-growth invariant.
func streamPrefix(tt *trace.TaskTrace, frac float64) *trace.TaskTrace {
	cp := *tt
	nf := int(math.Ceil(float64(len(tt.Files)) * frac))
	cp.Files = tt.Files[:nf:nf]
	keep := make(map[string]bool, nf)
	for i := range cp.Files {
		keep[cp.Files[i].File] = true
	}
	cp.Objects = make([]trace.ObjectRecord, 0, len(tt.Objects))
	for _, o := range tt.Objects {
		if keep[o.File] {
			cp.Objects = append(cp.Objects, o)
		}
	}
	cp.Mapped = make([]trace.MappedStat, 0, len(tt.Mapped))
	for _, m := range tt.Mapped {
		if keep[m.File] {
			cp.Mapped = append(cp.Mapped, m)
		}
	}
	if tt.IOTrace != nil {
		ni := int(math.Ceil(float64(len(tt.IOTrace)) * frac))
		cp.IOTrace = tt.IOTrace[:ni:ni]
	}
	return &cp
}

// TestDeltaFramingHalvesStreamBytes pins what delta checkpoint framing
// buys on the wire: every synthetic task streamed as 8 prefix
// checkpoints plus its final record, once cumulative (each checkpoint
// re-sends the trace-so-far) and once delta-framed with cumulative
// fallback. Both modes ship the same first checkpoint and final record,
// so the ratio is total stream volume, not a per-record best case; the
// prefixes grow monotonically, so every pair must diff exactly.
func TestDeltaFramingHalvesStreamBytes(t *testing.T) {
	traces, _ := GenerateSyntheticTraces(quickSynthetic)
	const k = 8
	encLen := func(tt *trace.TaskTrace, opts trace.BinaryOptions) int64 {
		t.Helper()
		var buf bytes.Buffer
		if err := tt.EncodeBinaryOpts(&buf, opts); err != nil {
			t.Fatal(err)
		}
		return int64(buf.Len())
	}
	var cumulative, delta int64
	var fallbacks int
	for _, raw := range traces {
		canon := canonicalTrace(raw)
		var prev *trace.TaskTrace
		for i := 1; i <= k; i++ {
			cp := streamPrefix(canon, float64(i)/k)
			seq := uint64(i)
			n := encLen(cp, trace.BinaryOptions{Incremental: true, CheckpointSeq: seq})
			cumulative += n
			if prev == nil {
				delta += n
			} else if d, ok := trace.Diff(prev, cp); ok {
				delta += encLen(d, trace.BinaryOptions{
					Incremental: true, CheckpointSeq: seq,
					Delta: true, DeltaBaseSeq: seq - 1,
				})
			} else {
				delta += n
				fallbacks++
			}
			prev = cp
		}
		final := encLen(canon, trace.BinaryOptions{})
		cumulative += final
		delta += final
	}
	if fallbacks != 0 {
		t.Errorf("%d of %d checkpoint pairs fell back to cumulative framing, want 0", fallbacks, len(traces)*(k-1))
	}
	if ratio := float64(cumulative) / float64(delta); ratio < 2.0 {
		t.Errorf("cumulative %d B / delta %d B = %.2fx; delta framing must at least halve pushed bytes",
			cumulative, delta, ratio)
	}
}
