package analyzer

import (
	"crypto/sha256"
	"encoding/hex"
	"slices"
	"strconv"
	"sync"

	"dayu/internal/graph"
	"dayu/internal/jsonenc"
	"dayu/internal/trace"
)

// This file is the analyzer's incremental-build surface: exported hooks
// that let a caller (the serve package) compute one task's graph
// contribution at a time, cache it under the task trace's content hash,
// and later merge cached contributions into a full graph. The hooks are
// the exact functions the batch builders use internally, so a merge of
// cached contributions in task order is byte-identical to
// BuildFTG/BuildSDG on a fresh load.

// Fingerprint returns a stable content hash of the description entries
// the task's mapped objects reference (present or absent alike). A
// cached SDG contribution keyed by (trace hash, fingerprint) stays
// valid until either the trace bytes or one of the descriptions it
// actually consumes changes — edits to unrelated tasks never
// invalidate it.
//
// The value is pinned: it is the SHA-256 of exactly the JSON document
// json.Marshal used to produce here ([{"key":{...},"present":...,
// "desc":{...}}, ...] over the sorted referenced keys), but the bytes
// are streamed into the digest from a pooled scratch buffer instead of
// materializing the document — this runs on the serve hot path once
// per task per ingest, and the Marshal allocation dominated it.
// TestFingerprintMatchesJSONReference holds the two byte streams
// equal.
func (d ObjectDescs) Fingerprint(t *trace.TaskTrace) string {
	keys := make([]trace.RowKey, 0, len(t.Mapped))
	seen := map[trace.RowKey]bool{}
	for i := range t.Mapped {
		k := t.Mapped[i].Key()
		if !seen[k] {
			seen[k] = true
			keys = append(keys, k)
		}
	}
	slices.SortFunc(keys, trace.RowKey.Compare)
	h := sha256.New()
	bp := fingerprintBufPool.Get().(*[]byte)
	b := (*bp)[:0]
	b = append(b, '[')
	for i, k := range keys {
		if i > 0 {
			b = append(b, ',')
		}
		b = append(b, `{"key":{"File":`...)
		b = jsonenc.AppendString(b, k.File)
		b = append(b, `,"Object":`...)
		b = jsonenc.AppendString(b, k.Object)
		b = append(b, `},"present":`...)
		desc, ok := d[k]
		if ok {
			b = append(b, `true`...)
		} else {
			desc = trace.ObjectRecord{}
			b = append(b, `false`...)
		}
		b = append(b, `,"desc":`...)
		b = appendObjectRecordJSON(b, &desc)
		b = append(b, '}')
		// Flush per entry so the scratch buffer stays small no matter
		// how many objects the task references.
		h.Write(b)
		b = b[:0]
	}
	b = append(b, ']')
	h.Write(b)
	*bp = b[:0]
	fingerprintBufPool.Put(bp)
	var sum [sha256.Size]byte
	h.Sum(sum[:0])
	return hex.EncodeToString(sum[:])
}

var fingerprintBufPool = sync.Pool{
	New: func() any {
		b := make([]byte, 0, 1024)
		return &b
	},
}

// appendObjectRecordJSON appends the record exactly as json.Marshal
// renders it: tag order, omitempty semantics (datatype/layout when
// empty, shape/chunk_dims when length zero, elem_size when zero) and
// compact separators.
func appendObjectRecordJSON(b []byte, r *trace.ObjectRecord) []byte {
	b = append(b, `{"task":`...)
	b = jsonenc.AppendString(b, r.Task)
	b = append(b, `,"file":`...)
	b = jsonenc.AppendString(b, r.File)
	b = append(b, `,"object":`...)
	b = jsonenc.AppendString(b, r.Object)
	b = append(b, `,"type":`...)
	b = jsonenc.AppendString(b, r.Type)
	if r.Datatype != "" {
		b = append(b, `,"datatype":`...)
		b = jsonenc.AppendString(b, r.Datatype)
	}
	if len(r.Shape) > 0 {
		b = append(b, `,"shape":`...)
		b = appendJSONInts(b, r.Shape)
	}
	if r.ElemSize != 0 {
		b = append(b, `,"elem_size":`...)
		b = strconv.AppendInt(b, r.ElemSize, 10)
	}
	if r.Layout != "" {
		b = append(b, `,"layout":`...)
		b = jsonenc.AppendString(b, r.Layout)
	}
	if len(r.ChunkDims) > 0 {
		b = append(b, `,"chunk_dims":`...)
		b = appendJSONInts(b, r.ChunkDims)
	}
	b = append(b, `,"acquired_ns":`...)
	b = strconv.AppendInt(b, r.AcquiredNS, 10)
	b = append(b, `,"released_ns":`...)
	b = strconv.AppendInt(b, r.ReleasedNS, 10)
	b = append(b, `,"reads":`...)
	b = strconv.AppendInt(b, r.Reads, 10)
	b = append(b, `,"writes":`...)
	b = strconv.AppendInt(b, r.Writes, 10)
	b = append(b, `,"bytes_read":`...)
	b = strconv.AppendInt(b, r.BytesRead, 10)
	b = append(b, `,"bytes_written":`...)
	b = strconv.AppendInt(b, r.BytesWritten, 10)
	return append(b, '}')
}

func appendJSONInts(b []byte, s []int64) []byte {
	b = append(b, '[')
	for i, v := range s {
		if i > 0 {
			b = append(b, ',')
		}
		b = strconv.AppendInt(b, v, 10)
	}
	return append(b, ']')
}

// BuildFTGFromContributions assembles the File-Task Graph from
// per-task contributions already in task order (see OrderTasks) and
// applies the whole-graph decoration passes. Contributions are not
// mutated and may be reused across calls.
func BuildFTGFromContributions(contribs []Contribution) *graph.Graph {
	g := mergeContributions("File-Task Graph", contribs)
	markReuse(g)
	return g
}

// BuildSDGFromContributions is the SDG counterpart of
// BuildFTGFromContributions.
func BuildSDGFromContributions(contribs []Contribution) *graph.Graph {
	g := mergeContributions("Semantic Dataflow Graph", contribs)
	markReuse(g)
	markDatasetReuse(g)
	return g
}
