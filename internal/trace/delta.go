package trace

// Delta checkpoint framing: the record-level diff/reassembly pair
// behind the dtb/v2 flagDelta bit.
//
// A cumulative checkpoint re-sends every file/object/mapped row the
// task has ever touched; for a long-running task that volume grows
// linearly with lifetime while the per-interval change stays roughly
// constant, so cumulative re-sends dominate stream volume (the
// Low-level I/O Monitoring observation). A delta checkpoint instead
// carries only the rows that changed since a base checkpoint, plus the
// I/O-trace suffix appended since then.
//
// The framing is replacement, not arithmetic: each included row is the
// full current row, and reassembly (ApplyDelta) overlays it onto the
// base by RowKey. That keeps the wire format trivially fuzzable (any
// valid trace is a valid delta body) and makes reassembly exact — no
// counter subtraction that could drift. Diff verifies exactness before
// returning: it reassembles its own output against the base and
// deep-compares with the target, so a caller that gets ok=true can
// rely on the server reconstructing the cumulative record
// byte-identically (the encoder is a deterministic function of the
// value). Any trace shape that would not survive (unsorted rows,
// shrunk tables, rewritten history) reports ok=false and the caller
// falls back to cumulative framing.

import (
	"reflect"
	"slices"
)

// Diff computes a delta record that reassembles to cur when applied on
// top of base with ApplyDelta. It reports ok=false when no exact delta
// exists — the tables shrank, rows changed order, or the I/O trace was
// rewritten rather than appended to — in which case the caller must
// ship cur as a cumulative checkpoint instead.
func Diff(base, cur *TaskTrace) (delta *TaskTrace, ok bool) {
	if base == nil || cur == nil || base.Task != cur.Task {
		return nil, false
	}
	// Monotone-growth fast checks: a cumulative checkpoint never drops
	// rows or truncates the I/O trace.
	if len(cur.Objects) < len(base.Objects) ||
		len(cur.Files) < len(base.Files) ||
		len(cur.Mapped) < len(base.Mapped) ||
		len(cur.IOTrace) < len(base.IOTrace) {
		return nil, false
	}
	d := &TaskTrace{
		Task:     cur.Task,
		StartNS:  cur.StartNS,
		EndNS:    cur.EndNS,
		Objects:  changedRows(base.Objects, cur.Objects),
		Files:    changedRows(base.Files, cur.Files),
		Mapped:   changedRows(base.Mapped, cur.Mapped),
		Attempts: cur.Attempts,
		Failed:   cur.Failed,
	}

	// Validate requires every mapped row's file to have a file row in
	// the same record. The tracer updates both tables from the same
	// operation so the file row has changed too, but a hand-built trace
	// may not honor that — carry the (unchanged) file row explicitly to
	// keep the delta valid.
	if len(d.Mapped) > 0 {
		shipped := make(map[string]bool, len(d.Files))
		for i := range d.Files {
			shipped[d.Files[i].File] = true
		}
		for i := range d.Mapped {
			file := d.Mapped[i].File
			if shipped[file] {
				continue
			}
			j := slices.IndexFunc(cur.Files, func(f FileRecord) bool { return f.File == file })
			if j < 0 {
				return nil, false // cur itself violates Mapped ⊆ Files
			}
			d.Files = append(d.Files, cur.Files[j])
			shipped[file] = true
		}
		sortRows(d.Files)
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
	if !reflect.DeepEqual(ApplyDelta(base, d), cur) {
		return nil, false
	}
	return d, true
}

// changedRows is Diff's pass over one table: the rows of cur that are
// new or differ from base's row under the same key (the last one, if
// base repeats a key). A nil cur table stays nil.
func changedRows[R any, P row[R]](base, cur []R) []R {
	if cur == nil {
		return nil
	}
	prev := make(map[RowKey]*R, len(base))
	for i := range base {
		prev[P(&base[i]).Key()] = &base[i]
	}
	out := make([]R, 0, 4)
	for i := range cur {
		if p, ok := prev[P(&cur[i]).Key()]; !ok || !reflect.DeepEqual(p, &cur[i]) {
			out = append(out, cur[i])
		}
	}
	return out
}

// ApplyDelta reassembles the cumulative checkpoint a delta record
// stands for: base's rows overlaid with delta's by RowKey, the I/O
// trace concatenated, and the task header taken from the delta. Tables
// come out in RowKey order. Row-level slices (Regions, Shape, the I/O
// records) alias base/delta — traces are read-only after decode, so
// the aliasing is safe and keeps reassembly cheap.
func ApplyDelta(base, delta *TaskTrace) *TaskTrace {
	out := &TaskTrace{
		Task:     delta.Task,
		StartNS:  delta.StartNS,
		EndNS:    delta.EndNS,
		Objects:  overlayRows(base.Objects, delta.Objects),
		Files:    overlayRows(base.Files, delta.Files),
		Mapped:   overlayRows(base.Mapped, delta.Mapped),
		Attempts: delta.Attempts,
		Failed:   delta.Failed,
	}
	if base.IOTrace != nil || delta.IOTrace != nil {
		out.IOTrace = make([]IORecord, 0, len(base.IOTrace)+len(delta.IOTrace))
		out.IOTrace = append(out.IOTrace, base.IOTrace...)
		out.IOTrace = append(out.IOTrace, delta.IOTrace...)
	}
	return out
}

// overlayRows is ApplyDelta's pass over one table: base's rows in
// order, each replaced by delta's row under the same key (the last one,
// if delta repeats a key), then delta's rows with keys base lacks,
// stably sorted into RowKey order. Two nil tables give nil.
func overlayRows[R any, P row[R]](base, delta []R) []R {
	if base == nil && delta == nil {
		return nil
	}
	repl := make(map[RowKey]*R, len(delta))
	for i := range delta {
		repl[P(&delta[i]).Key()] = &delta[i]
	}
	out := make([]R, 0, len(base)+len(delta))
	seen := make(map[RowKey]bool, len(base))
	for i := range base {
		k := P(&base[i]).Key()
		seen[k] = true
		if r, ok := repl[k]; ok {
			out = append(out, *r)
		} else {
			out = append(out, base[i])
		}
	}
	for i := range delta {
		if !seen[P(&delta[i]).Key()] {
			out = append(out, delta[i])
		}
	}
	sortRows[R, P](out)
	return out
}
