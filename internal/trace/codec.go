package trace

// The dtb/v2 binary trace wire format.
//
// JSON traces repeat every field name and every task/file/object name
// per record; on the 3000-task synthetic workflow that decode cost
// dominates analysis wall time. dtb/v2 collapses it with a per-file
// string-intern table and varint integers:
//
//	header   magic "\x89DTB\r\n" + uvarint version (2) + uvarint flags
//	strings  uvarint count, then per string: uvarint len + raw bytes
//	task     uvarint task-ref, varint start/end, uvarint attempts,
//	         1-byte failed
//	sections objects, files, mapped, io-trace, in that order; each is
//	         a nil-preserving uvarint count (0 = nil slice, n+1 = n
//	         records) followed by the records
//	trailer  exactly EOF; trailing bytes are rejected
//
// All integers are varints (signed fields zigzag-encoded), strings are
// uvarint indexes into the intern table, and slices use the same
// nil-preserving count scheme as sections so a JSON→dtb→JSON round
// trip is deeply equal, not just semantically equal. Every record is
// additionally framed with a uvarint byte length, so a decoder can
// verify record boundaries and a zero-copy decode can alias the input
// buffer safely; flag bit 0 says so, and a header without it is
// rejected.
//
// The encoder is single-pass and amortized zero-allocation: pooled
// encoder state (intern table, body/record/header scratch buffers) is
// reused across calls, strings are interned on demand while the body
// is encoded — first use during encoding visits strings in exactly the
// order the old pre-walk did, so the bytes are unchanged — and the
// header plus string table is built afterwards, giving exactly two
// Write calls per trace. PR 5's record had the old two-pass,
// alloc-per-record encoder at 0.93× JSON encode speed; this one exists
// to win that back.

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"sync"
	"unsafe"
)

// binaryMagic opens every dtb file. The PNG-style first byte keeps the
// file from sniffing as text; the embedded CRLF catches newline
// mangling in transfer.
const binaryMagic = "\x89DTB\r\n"

// binaryVersion is the current wire-format version ("v2": v1 was the
// JSON encoding).
const binaryVersion = 2

// flagFramed marks records that carry a uvarint length prefix. Every
// encoder sets it and every decoder requires it.
const flagFramed = 1

// flagIncremental marks a streamed checkpoint record: a cumulative
// snapshot of a still-running task's trace. When set, a uvarint
// checkpoint sequence number follows the flags field in the header.
// Incremental records are a transport framing for the live analysis
// path, not trace files: the plain decoders (and hence Load/LoadDir)
// reject them so a stray checkpoint can never skew a batch analysis.
const flagIncremental = 2

// flagDelta marks an incremental checkpoint that carries only the
// records changed since a base checkpoint, instead of the full
// cumulative trace-so-far. When set, a uvarint base sequence number
// (the checkpoint the delta applies on top of) follows the checkpoint
// sequence in the header. A delta is meaningless without the
// incremental flag; decoders reject that combination. Reassembly is
// record-level replacement: see Diff/ApplyDelta in delta.go.
const flagDelta = 4

// maxBinaryLen bounds any single length read from the wire (string
// bytes, slice counts, record frames) so a corrupt count cannot drive
// a multi-gigabyte allocation before the read fails.
const maxBinaryLen = 1 << 26

// Format selects a trace serialization.
type Format int

const (
	// FormatJSON is the v1 encoding: one JSON document per trace.
	FormatJSON Format = iota
	// FormatBinary is the dtb/v2 encoding.
	FormatBinary
)

// String names the format as ParseFormat accepts it.
func (f Format) String() string {
	switch f {
	case FormatJSON:
		return "json"
	case FormatBinary:
		return "dtb"
	}
	return fmt.Sprintf("Format(%d)", int(f))
}

// Suffix returns the on-disk trace file suffix for the format.
func (f Format) Suffix() string {
	if f == FormatBinary {
		return binarySuffix
	}
	return traceSuffix
}

// ParseFormat resolves a -format flag value.
func ParseFormat(s string) (Format, error) {
	switch s {
	case "json":
		return FormatJSON, nil
	case "dtb", "binary", "dtb/v2":
		return FormatBinary, nil
	}
	return 0, fmt.Errorf("trace: unknown format %q (json, dtb)", s)
}

// BinaryOptions tunes EncodeBinaryOpts.
type BinaryOptions struct {
	// Incremental marks the record as a streamed mid-task checkpoint
	// (cumulative trace-so-far). CheckpointSeq orders checkpoints of
	// the same task: a consumer keeps the highest one it has seen.
	Incremental bool
	// CheckpointSeq is written only when Incremental is set.
	CheckpointSeq uint64
	// Delta marks the checkpoint as a delta against an earlier
	// checkpoint of the same task: the record carries only the rows
	// that changed since DeltaBaseSeq (see Diff/ApplyDelta). Requires
	// Incremental; EncodeBinaryOpts rejects a delta-without-incremental
	// combination rather than writing an undecodable header.
	Delta bool
	// DeltaBaseSeq is the checkpoint sequence the delta applies on top
	// of; written only when Delta is set.
	DeltaBaseSeq uint64
}

// RecordMeta describes the stream framing of a decoded record.
type RecordMeta struct {
	// Incremental is true for streamed checkpoint records (cumulative
	// mid-task snapshots); false for complete trace files.
	Incremental bool
	// CheckpointSeq orders checkpoints of one task; zero unless
	// Incremental.
	CheckpointSeq uint64
	// Delta is true for delta-framed checkpoints: the decoded trace
	// holds only the rows changed since the base checkpoint and must be
	// reassembled with ApplyDelta before use.
	Delta bool
	// DeltaBaseSeq is the checkpoint the delta applies on top of; zero
	// unless Delta.
	DeltaBaseSeq uint64
}

// EncodeBinary writes the trace in dtb/v2 with per-record framing.
func (t *TaskTrace) EncodeBinary(w io.Writer) error {
	return t.EncodeBinaryOpts(w, BinaryOptions{})
}

// EncodeFormat writes the trace to w in the given format.
func (t *TaskTrace) EncodeFormat(w io.Writer, f Format) error {
	if f == FormatBinary {
		return t.EncodeBinary(w)
	}
	return t.Encode(w)
}

// EncodedSizeIn returns the serialized byte size of the trace in the
// given format: the Figure 9d storage-overhead metric, comparable
// across formats.
func (t *TaskTrace) EncodedSizeIn(f Format) (int64, error) {
	var cw countingWriter
	if err := t.EncodeFormat(&cw, f); err != nil {
		return 0, err
	}
	return cw.n, nil
}

// binaryEncoder holds all encode state: the string-intern table
// (first-use order, so encoding stays deterministic), the body buffer,
// the framed-record scratch buffer and the header buffer. Encoders are
// pooled and reused; between uses the intern table is cleared and the
// buffers are truncated in place, so a steady stream of traces of
// similar shape encodes without allocating.
type binaryEncoder struct {
	index       map[string]uint64
	list        []string
	body        []byte
	rec         []byte
	hdr         []byte
	incremental bool
	delta       bool
	ckptSeq     uint64
	baseSeq     uint64
	inRec       bool
}

var encoderPool = sync.Pool{
	New: func() any { return &binaryEncoder{index: make(map[string]uint64, 16)} },
}

// maxPooledEncoderBytes bounds the buffer capacity an encoder may keep
// when pooled, so one outlier trace does not pin its footprint.
const maxPooledEncoderBytes = 1 << 20

func getEncoder() *binaryEncoder { return encoderPool.Get().(*binaryEncoder) }

func putEncoder(e *binaryEncoder) {
	if cap(e.body)+cap(e.rec)+cap(e.hdr) > maxPooledEncoderBytes || len(e.list) > 1<<12 {
		return
	}
	clear(e.index)
	e.list = e.list[:0]
	e.body = e.body[:0]
	e.rec = e.rec[:0]
	e.hdr = e.hdr[:0]
	encoderPool.Put(e)
}

// buf returns the buffer currently being encoded into: the record
// scratch inside beginRecord/endRecord, the body otherwise.
func (e *binaryEncoder) buf() *[]byte {
	if e.inRec {
		return &e.rec
	}
	return &e.body
}

func (e *binaryEncoder) uv(v uint64) {
	b := e.buf()
	*b = binary.AppendUvarint(*b, v)
}

func (e *binaryEncoder) v(v int64) {
	b := e.buf()
	*b = binary.AppendVarint(*b, v)
}

func (e *binaryEncoder) boolByte(v bool) {
	b := e.buf()
	if v {
		*b = append(*b, 1)
	} else {
		*b = append(*b, 0)
	}
}

// str writes the string's intern-table reference, assigning the next
// index on first use. Because the body is encoded in wire order, the
// table comes out in exactly the first-use order the format requires.
func (e *binaryEncoder) str(s string) {
	idx, ok := e.index[s]
	if !ok {
		idx = uint64(len(e.list))
		e.index[s] = idx
		e.list = append(e.list, s)
	}
	e.uv(idx)
}

// sliceLen writes the nil-preserving count: 0 for a nil slice, n+1
// for a slice of n elements (so empty-but-non-nil survives the round
// trip, matching what a JSON re-encode would preserve in memory).
func (e *binaryEncoder) sliceLen(n int, isNil bool) {
	if isNil {
		e.uv(0)
		return
	}
	e.uv(uint64(n) + 1)
}

func (e *binaryEncoder) ints(s []int64) {
	e.sliceLen(len(s), s == nil)
	for _, v := range s {
		e.v(v)
	}
}

func (e *binaryEncoder) extents(s []Extent) {
	e.sliceLen(len(s), s == nil)
	for _, x := range s {
		e.v(x.Start)
		e.v(x.End)
	}
}

// beginRecord redirects encoding into the record scratch buffer;
// endRecord prefixes the scratch with its length and appends it to the
// body.
func (e *binaryEncoder) beginRecord() {
	e.rec = e.rec[:0]
	e.inRec = true
}

func (e *binaryEncoder) endRecord() {
	e.inRec = false
	e.body = binary.AppendUvarint(e.body, uint64(len(e.rec)))
	e.body = append(e.body, e.rec...)
}

func (e *binaryEncoder) encodeBody(t *TaskTrace) {
	e.str(t.Task)
	e.v(t.StartNS)
	e.v(t.EndNS)
	e.v(int64(t.Attempts))
	e.boolByte(t.Failed)

	e.sliceLen(len(t.Objects), t.Objects == nil)
	for i := range t.Objects {
		o := &t.Objects[i]
		e.beginRecord()
		e.str(o.Task)
		e.str(o.File)
		e.str(o.Object)
		e.str(o.Type)
		e.str(o.Datatype)
		e.ints(o.Shape)
		e.v(o.ElemSize)
		e.str(o.Layout)
		e.ints(o.ChunkDims)
		e.v(o.AcquiredNS)
		e.v(o.ReleasedNS)
		e.v(o.Reads)
		e.v(o.Writes)
		e.v(o.BytesRead)
		e.v(o.BytesWritten)
		e.endRecord()
	}

	e.sliceLen(len(t.Files), t.Files == nil)
	for i := range t.Files {
		f := &t.Files[i]
		e.beginRecord()
		e.str(f.Task)
		e.str(f.File)
		e.v(f.OpenNS)
		e.v(f.CloseNS)
		e.v(f.Ops)
		e.v(f.Reads)
		e.v(f.Writes)
		e.v(f.BytesRead)
		e.v(f.BytesWritten)
		e.v(f.DataReads)
		e.v(f.DataWrites)
		e.v(f.SequentialOps)
		e.v(f.MetaOps)
		e.v(f.DataOps)
		e.v(f.MetaBytes)
		e.v(f.DataBytes)
		e.extents(f.Regions)
		e.endRecord()
	}

	e.sliceLen(len(t.Mapped), t.Mapped == nil)
	for i := range t.Mapped {
		m := &t.Mapped[i]
		e.beginRecord()
		e.str(m.Task)
		e.str(m.File)
		e.str(m.Object)
		e.v(m.MetaOps)
		e.v(m.DataOps)
		e.v(m.MetaBytes)
		e.v(m.DataBytes)
		e.v(m.Reads)
		e.v(m.Writes)
		e.extents(m.Regions)
		e.v(m.FirstNS)
		e.v(m.LastNS)
		e.endRecord()
	}

	e.sliceLen(len(t.IOTrace), t.IOTrace == nil)
	for i := range t.IOTrace {
		r := &t.IOTrace[i]
		e.beginRecord()
		e.v(r.Seq)
		e.v(r.WallNS)
		e.str(r.File)
		e.v(r.Offset)
		e.v(r.Length)
		e.boolByte(r.Write)
		e.boolByte(r.Meta)
		e.str(r.Object)
		e.endRecord()
	}
}

func (e *binaryEncoder) encodeHeader() {
	e.hdr = append(e.hdr[:0], binaryMagic...)
	e.hdr = binary.AppendUvarint(e.hdr, binaryVersion)
	var flags uint64 = flagFramed
	if e.incremental {
		flags |= flagIncremental
	}
	if e.delta {
		flags |= flagDelta
	}
	e.hdr = binary.AppendUvarint(e.hdr, flags)
	if e.incremental {
		e.hdr = binary.AppendUvarint(e.hdr, e.ckptSeq)
	}
	if e.delta {
		e.hdr = binary.AppendUvarint(e.hdr, e.baseSeq)
	}
	e.hdr = binary.AppendUvarint(e.hdr, uint64(len(e.list)))
	for _, s := range e.list {
		e.hdr = binary.AppendUvarint(e.hdr, uint64(len(s)))
		e.hdr = append(e.hdr, s...)
	}
}

// EncodeBinaryOpts writes the trace in dtb/v2 with explicit options.
func (t *TaskTrace) EncodeBinaryOpts(w io.Writer, opts BinaryOptions) error {
	if opts.Delta && !opts.Incremental {
		return fmt.Errorf("trace: dtb encode: delta framing requires an incremental checkpoint")
	}
	e := getEncoder()
	defer putEncoder(e)
	e.incremental = opts.Incremental
	e.delta = opts.Delta
	e.ckptSeq, e.baseSeq = 0, 0
	if opts.Incremental {
		e.ckptSeq = opts.CheckpointSeq
	}
	if opts.Delta {
		e.baseSeq = opts.DeltaBaseSeq
	}
	e.encodeBody(t)
	e.encodeHeader()
	if _, err := w.Write(e.hdr); err != nil {
		return fmt.Errorf("trace: dtb encode: %w", err)
	}
	if _, err := w.Write(e.body); err != nil {
		return fmt.Errorf("trace: dtb encode: %w", err)
	}
	return nil
}

// DecodeOptions tunes byte-slice decoding.
type DecodeOptions struct {
	// ZeroCopy makes decoded string fields alias the input buffer
	// instead of copying each intern-table entry. The caller must keep
	// the buffer alive and unmodified for the lifetime of the decoded
	// trace. Record framing is verified as usual, so a torn or corrupt
	// buffer is rejected rather than aliased.
	ZeroCopy bool
}

// byteDecoder is a sticky-error cursor over a complete dtb buffer. It
// replaces the old bufio-based one-byte-at-a-time reader: all varints
// decode straight out of the slice, and the string table optionally
// aliases it (ZeroCopy).
type byteDecoder struct {
	data  []byte
	off   int
	table []string
	zero  bool
	err   error
}

func (d *byteDecoder) fail(err error) {
	if d.err == nil {
		d.err = err
	}
}

func (d *byteDecoder) uv() uint64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Uvarint(d.data[d.off:])
	if n <= 0 {
		if n == 0 {
			d.fail(fmt.Errorf("read uvarint: %w", io.ErrUnexpectedEOF))
		} else {
			d.fail(fmt.Errorf("read uvarint: overflow"))
		}
		return 0
	}
	d.off += n
	return v
}

func (d *byteDecoder) v() int64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Varint(d.data[d.off:])
	if n <= 0 {
		if n == 0 {
			d.fail(fmt.Errorf("read varint: %w", io.ErrUnexpectedEOF))
		} else {
			d.fail(fmt.Errorf("read varint: overflow"))
		}
		return 0
	}
	d.off += n
	return v
}

func (d *byteDecoder) boolByte() bool {
	if d.err != nil {
		return false
	}
	if d.off >= len(d.data) {
		d.fail(fmt.Errorf("read bool: %w", io.ErrUnexpectedEOF))
		return false
	}
	b := d.data[d.off]
	d.off++
	switch b {
	case 0:
		return false
	case 1:
		return true
	}
	d.fail(fmt.Errorf("bool byte = %#x", b))
	return false
}

// bytesN returns the next n raw bytes as a sub-slice of the buffer
// (no copy; callers copy if they retain).
func (d *byteDecoder) bytesN(n uint64) []byte {
	if d.err != nil {
		return nil
	}
	if n > maxBinaryLen {
		d.fail(fmt.Errorf("length %d exceeds limit %d", n, maxBinaryLen))
		return nil
	}
	if uint64(len(d.data)-d.off) < n {
		d.fail(fmt.Errorf("read %d bytes: %w", n, io.ErrUnexpectedEOF))
		return nil
	}
	p := d.data[d.off : d.off+int(n)]
	d.off += int(n)
	return p
}

func (d *byteDecoder) str() string {
	idx := d.uv()
	if d.err != nil {
		return ""
	}
	if idx >= uint64(len(d.table)) {
		d.fail(fmt.Errorf("string ref %d outside table of %d", idx, len(d.table)))
		return ""
	}
	return d.table[idx]
}

// sliceLen reverses binaryEncoder.sliceLen: ok is false for a nil
// slice.
func (d *byteDecoder) sliceLen() (n int, ok bool) {
	v := d.uv()
	if d.err != nil || v == 0 {
		return 0, false
	}
	if v-1 > maxBinaryLen {
		d.fail(fmt.Errorf("slice length %d exceeds limit %d", v-1, maxBinaryLen))
		return 0, false
	}
	return int(v - 1), true
}

func (d *byteDecoder) ints() []int64 {
	n, ok := d.sliceLen()
	if !ok {
		return nil
	}
	s := make([]int64, 0, capHint(n))
	for i := 0; i < n && d.err == nil; i++ {
		s = append(s, d.v())
	}
	return s
}

func (d *byteDecoder) extents() []Extent {
	n, ok := d.sliceLen()
	if !ok {
		return nil
	}
	s := make([]Extent, 0, capHint(n))
	for i := 0; i < n && d.err == nil; i++ {
		s = append(s, Extent{Start: d.v(), End: d.v()})
	}
	return s
}

// beginRecord reads a record's declared length and returns the offset
// the record must end at (-1 once failed); endRecord verifies the
// decode consumed exactly the declared bytes.
func (d *byteDecoder) beginRecord() int {
	if d.err != nil {
		return -1
	}
	want := d.uv()
	if d.err != nil {
		return -1
	}
	if want > maxBinaryLen {
		d.fail(fmt.Errorf("record frame %d exceeds limit %d", want, maxBinaryLen))
		return -1
	}
	return d.off + int(want)
}

func (d *byteDecoder) endRecord(end int) {
	if end < 0 || d.err != nil {
		return
	}
	if d.off != end {
		d.fail(fmt.Errorf("record frame declared end at offset %d, consumed to %d", end, d.off))
	}
}

// capHint bounds pre-allocation from wire-supplied counts: the reader
// hits EOF long before a lying count forces a huge allocation.
func capHint(n int) int {
	const maxPrealloc = 1 << 12
	if n > maxPrealloc {
		return maxPrealloc
	}
	return n
}

// DecodeBinary reads one dtb/v2 trace from r and validates it.
func DecodeBinary(r io.Reader) (*TaskTrace, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, fmt.Errorf("trace: dtb decode: %w", err)
	}
	return DecodeBinaryBytes(data, DecodeOptions{})
}

// ErrIncrementalRecord is returned by the plain decoders when handed a
// streamed checkpoint record: only meta-aware consumers (the live
// ingest path) may accept those.
var ErrIncrementalRecord = errors.New("trace: incremental checkpoint record (not a complete trace)")

// DecodeBinaryBytes decodes one dtb/v2 trace held completely in data
// and validates it. With opts.ZeroCopy the decoded trace's strings
// alias data; otherwise it is self-contained. Incremental checkpoint
// records are rejected with ErrIncrementalRecord.
func DecodeBinaryBytes(data []byte, opts DecodeOptions) (*TaskTrace, error) {
	t, meta, err := decodeBinaryBytes(data, opts.ZeroCopy)
	if err != nil {
		return nil, fmt.Errorf("trace: dtb decode: %w", err)
	}
	if meta.Incremental {
		return nil, ErrIncrementalRecord
	}
	if err := t.Validate(); err != nil {
		return nil, err
	}
	return t, nil
}

// DecodeBytes decodes one trace held completely in data, sniffing the
// serialization from the leading bytes like Decode.
func DecodeBytes(data []byte) (*TaskTrace, error) {
	if SniffFormat(data) == FormatBinary {
		return DecodeBinaryBytes(data, DecodeOptions{})
	}
	return Decode(bytes.NewReader(data))
}

// DecodeBytesMeta decodes one trace record of either serialization and
// reports its stream framing. Unlike DecodeBytes it accepts
// incremental checkpoint records; JSON records are never incremental.
func DecodeBytesMeta(data []byte, opts DecodeOptions) (*TaskTrace, RecordMeta, error) {
	if SniffFormat(data) != FormatBinary {
		t, err := Decode(bytes.NewReader(data))
		return t, RecordMeta{}, err
	}
	t, meta, err := decodeBinaryBytes(data, opts.ZeroCopy)
	if err != nil {
		return nil, RecordMeta{}, fmt.Errorf("trace: dtb decode: %w", err)
	}
	if err := t.Validate(); err != nil {
		return nil, RecordMeta{}, err
	}
	return t, meta, nil
}

// tableString materializes one intern-table entry: a copy by default,
// an alias of the input buffer under ZeroCopy.
func (d *byteDecoder) tableString(b []byte) string {
	if len(b) == 0 {
		return ""
	}
	if d.zero {
		return unsafe.String(&b[0], len(b))
	}
	return string(b)
}

func decodeBinaryBytes(data []byte, zeroCopy bool) (*TaskTrace, RecordMeta, error) {
	var meta RecordMeta
	d := &byteDecoder{data: data, zero: zeroCopy}
	magic := d.bytesN(uint64(len(binaryMagic)))
	if d.err != nil {
		return nil, meta, fmt.Errorf("header: %w", d.err)
	}
	if string(magic) != binaryMagic {
		return nil, meta, fmt.Errorf("bad magic %q", magic)
	}
	if v := d.uv(); d.err == nil && v != binaryVersion {
		return nil, meta, fmt.Errorf("unsupported version %d (want %d)", v, binaryVersion)
	}
	flags := d.uv()
	if d.err == nil && flags&flagFramed == 0 {
		return nil, meta, fmt.Errorf("unframed records (flags %#x)", flags)
	}
	if flags&flagIncremental != 0 {
		meta.Incremental = true
		meta.CheckpointSeq = d.uv()
	}
	if flags&flagDelta != 0 {
		if !meta.Incremental {
			return nil, meta, fmt.Errorf("delta flag without incremental flag")
		}
		meta.Delta = true
		meta.DeltaBaseSeq = d.uv()
	}

	nstr := d.uv()
	if d.err == nil && nstr > maxBinaryLen {
		return nil, meta, fmt.Errorf("string table count %d exceeds limit", nstr)
	}
	d.table = make([]string, 0, capHint(int(nstr)))
	for i := uint64(0); i < nstr && d.err == nil; i++ {
		d.table = append(d.table, d.tableString(d.bytesN(d.uv())))
	}

	t := &TaskTrace{
		Task:    d.str(),
		StartNS: d.v(),
		EndNS:   d.v(),
	}
	t.Attempts = int(d.v())
	t.Failed = d.boolByte()

	if n, ok := d.sliceLen(); ok {
		t.Objects = make([]ObjectRecord, 0, capHint(n))
		for i := 0; i < n && d.err == nil; i++ {
			end := d.beginRecord()
			var o ObjectRecord
			o.Task = d.str()
			o.File = d.str()
			o.Object = d.str()
			o.Type = d.str()
			o.Datatype = d.str()
			o.Shape = d.ints()
			o.ElemSize = d.v()
			o.Layout = d.str()
			o.ChunkDims = d.ints()
			o.AcquiredNS = d.v()
			o.ReleasedNS = d.v()
			o.Reads = d.v()
			o.Writes = d.v()
			o.BytesRead = d.v()
			o.BytesWritten = d.v()
			d.endRecord(end)
			t.Objects = append(t.Objects, o)
		}
	}

	if n, ok := d.sliceLen(); ok {
		t.Files = make([]FileRecord, 0, capHint(n))
		for i := 0; i < n && d.err == nil; i++ {
			end := d.beginRecord()
			var f FileRecord
			f.Task = d.str()
			f.File = d.str()
			f.OpenNS = d.v()
			f.CloseNS = d.v()
			f.Ops = d.v()
			f.Reads = d.v()
			f.Writes = d.v()
			f.BytesRead = d.v()
			f.BytesWritten = d.v()
			f.DataReads = d.v()
			f.DataWrites = d.v()
			f.SequentialOps = d.v()
			f.MetaOps = d.v()
			f.DataOps = d.v()
			f.MetaBytes = d.v()
			f.DataBytes = d.v()
			f.Regions = d.extents()
			d.endRecord(end)
			t.Files = append(t.Files, f)
		}
	}

	if n, ok := d.sliceLen(); ok {
		t.Mapped = make([]MappedStat, 0, capHint(n))
		for i := 0; i < n && d.err == nil; i++ {
			end := d.beginRecord()
			var m MappedStat
			m.Task = d.str()
			m.File = d.str()
			m.Object = d.str()
			m.MetaOps = d.v()
			m.DataOps = d.v()
			m.MetaBytes = d.v()
			m.DataBytes = d.v()
			m.Reads = d.v()
			m.Writes = d.v()
			m.Regions = d.extents()
			m.FirstNS = d.v()
			m.LastNS = d.v()
			d.endRecord(end)
			t.Mapped = append(t.Mapped, m)
		}
	}

	if n, ok := d.sliceLen(); ok {
		t.IOTrace = make([]IORecord, 0, capHint(n))
		for i := 0; i < n && d.err == nil; i++ {
			end := d.beginRecord()
			var r IORecord
			r.Seq = d.v()
			r.WallNS = d.v()
			r.File = d.str()
			r.Offset = d.v()
			r.Length = d.v()
			r.Write = d.boolByte()
			r.Meta = d.boolByte()
			r.Object = d.str()
			d.endRecord(end)
			t.IOTrace = append(t.IOTrace, r)
		}
	}

	if d.err != nil {
		return nil, meta, d.err
	}
	if d.off != len(d.data) {
		return nil, meta, fmt.Errorf("trailing data after trace")
	}
	return t, meta, nil
}

// SniffFormat reports the serialization a trace byte stream uses,
// from its first bytes: binary traces open with the dtb magic,
// anything else is treated as JSON.
func SniffFormat(prefix []byte) Format {
	if len(prefix) >= len(binaryMagic) && string(prefix[:len(binaryMagic)]) == binaryMagic {
		return FormatBinary
	}
	return FormatJSON
}
