package serve

// The push-ingest write-ahead log. Every record acknowledged by
// POST /v1/ingest is appended to a segment file (CRC-framed via the
// internal/trace WAL framing) before the 200 goes out, so a crash at
// any byte boundary loses nothing that was acknowledged: on reopen the
// segments replay in order, a torn tail is truncated back to the last
// whole record, and every record at or past the fold checkpoint is
// handed back as pending work.
//
// Layout of one WAL namespace (the server keeps one per shard, under
// WALDir/shard-<k>/):
//
//	wal-<first-seq, 16 hex digits>.seg   segment files, rotated by size
//	checkpoint                           decimal next-unfolded sequence
//
// Sequence numbers are global and monotone; a segment's records are
// implicitly numbered from its header's first-seq. MarkFolded records
// one sequence number as folded into a saved trace file; the
// checkpoint advances only over a contiguous prefix of folded records,
// so folds that complete out of sequence order (or a fold that gave up
// and left its record pending) can never move the checkpoint past an
// unfolded acknowledged record. Compaction deletes closed segments
// whose records are all below the checkpoint. The checkpoint is an
// optimization, not a correctness dependency: folding is idempotent (a
// content-addressed overwrite of the same trace file), so a lost
// checkpoint merely re-folds.

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"dayu/internal/atomicfile"
	"dayu/internal/trace"
)

// FsyncPolicy selects when WAL appends reach stable storage.
type FsyncPolicy int

const (
	// FsyncAlways syncs the segment file before every append is
	// acknowledged: an acknowledged record survives power loss.
	FsyncAlways FsyncPolicy = iota
	// FsyncInterval syncs on a background ticker: an acknowledged
	// record survives process death immediately and power loss after at
	// most one interval.
	FsyncInterval
	// FsyncNever leaves syncing to the OS: acknowledged records survive
	// process death (kill -9) but not necessarily power loss.
	FsyncNever
)

// String names the policy as ParseFsyncPolicy accepts it.
func (p FsyncPolicy) String() string {
	switch p {
	case FsyncAlways:
		return "always"
	case FsyncInterval:
		return "interval"
	case FsyncNever:
		return "never"
	}
	return fmt.Sprintf("FsyncPolicy(%d)", int(p))
}

// ParseFsyncPolicy resolves a -wal-fsync flag value.
func ParseFsyncPolicy(s string) (FsyncPolicy, error) {
	switch s {
	case "always", "":
		return FsyncAlways, nil
	case "interval":
		return FsyncInterval, nil
	case "never", "none":
		return FsyncNever, nil
	}
	return 0, fmt.Errorf("serve: unknown fsync policy %q (always, interval, never)", s)
}

// WALOptions tunes the write-ahead log.
type WALOptions struct {
	// Fsync is the append durability policy (default FsyncAlways).
	Fsync FsyncPolicy
	// FsyncInterval is the background sync period under FsyncInterval
	// (default 100ms).
	FsyncInterval time.Duration
	// SegmentBytes rotates the active segment once it exceeds this size
	// (default 4 MiB).
	SegmentBytes int64
}

func (o WALOptions) withDefaults() WALOptions {
	if o.FsyncInterval <= 0 {
		o.FsyncInterval = 100 * time.Millisecond
	}
	if o.SegmentBytes <= 0 {
		o.SegmentBytes = 4 << 20
	}
	return o
}

// PendingRecord is one acknowledged-but-not-yet-folded record
// recovered by OpenWAL.
type PendingRecord struct {
	Seq  uint64
	Data []byte
}

// walSegment is one closed (non-active) segment on disk.
type walSegment struct {
	path  string
	first uint64
	count uint64
}

// WALStats is a point-in-time summary for /healthz and the metrics
// gauges.
type WALStats struct {
	// Segments counts on-disk segment files, including the active one.
	Segments int
	// Pending counts acknowledged records not yet folded into trace
	// files (including any gap records that block the checkpoint).
	Pending uint64
	// NextSeq is the sequence number the next append will take.
	NextSeq uint64
	// Folded is the sequence number below which every record is folded.
	Folded uint64
	// ActiveBytes is the current size of the active segment.
	ActiveBytes int64
	// CheckpointErr is the failure of the newest fold-checkpoint write
	// (nil once a later write succeeds): a full or read-only WAL
	// directory that would otherwise be invisible.
	CheckpointErr error
}

// WAL is the segmented write-ahead log. All methods are safe for
// concurrent use.
type WAL struct {
	dir  string
	opts WALOptions

	mu            sync.Mutex
	active        *os.File
	activeFirst   uint64
	activeCount   uint64
	activeSize    int64
	nextSeq       uint64
	folded        uint64
	foldedAhead   map[uint64]bool // folded seqs above the contiguous prefix
	segments      []walSegment    // closed segments, ordered by first
	closed        bool
	dirty         bool // unsynced appends under FsyncInterval/FsyncNever
	stopSync      chan struct{}
	syncDone      chan struct{}
	checkpointErr error
}

const walCheckpointFile = "checkpoint"

// OpenWAL opens (creating if needed) the WAL under dir, replays every
// segment — truncating torn tails, deleting segments whose header is
// crash-torn or that hold no whole record — and returns the log plus
// the pending records at or past the fold checkpoint, in sequence
// order. A genuine I/O fault during replay (a failed read or
// truncate, not a torn tail) fails OpenWAL instead: deleting a
// segment over a transient error would destroy acknowledged records.
// A new active segment is created lazily on first append, so
// crash-looping never litters the directory with empty files.
func OpenWAL(dir string, opts WALOptions) (*WAL, []PendingRecord, error) {
	opts = opts.withDefaults()
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, nil, fmt.Errorf("serve: wal: %w", err)
	}
	folded := readCheckpoint(dir)

	names, err := filepath.Glob(filepath.Join(dir, "wal-*.seg"))
	if err != nil {
		return nil, nil, fmt.Errorf("serve: wal: %w", err)
	}
	sort.Strings(names)

	w := &WAL{dir: dir, opts: opts, folded: folded, nextSeq: folded, foldedAhead: map[uint64]bool{}}
	var pending []PendingRecord
	for _, path := range names {
		first, records, err := replaySegment(path)
		if err != nil {
			if errors.Is(err, trace.ErrWALTorn) {
				// Torn header: the crash hit mid-creation, before any
				// record could be acknowledged in this segment.
				os.Remove(path)
				continue
			}
			// A real I/O fault (failed read or truncate). The segment
			// may hold acknowledged records, so never delete it here.
			return nil, nil, fmt.Errorf("serve: wal: replay %s: %w", filepath.Base(path), err)
		}
		if len(records) == 0 {
			// Header-only segment (crash before the first whole
			// record): nothing acknowledged survives in it.
			os.Remove(path)
			continue
		}
		end := first + uint64(len(records))
		if end > w.nextSeq {
			w.nextSeq = end
		}
		w.segments = append(w.segments, walSegment{path: path, first: first, count: uint64(len(records))})
		for i, rec := range records {
			if seq := first + uint64(i); seq >= folded {
				pending = append(pending, PendingRecord{Seq: seq, Data: rec})
			}
		}
	}
	w.compactLocked()

	if opts.Fsync == FsyncInterval {
		w.stopSync = make(chan struct{})
		w.syncDone = make(chan struct{})
		go w.syncLoop(w.stopSync)
	}
	return w, pending, nil
}

// replaySegment reads one segment file, truncating any torn tail in
// place so the file ends on a whole-record boundary. It returns the
// segment's first sequence number and the surviving payloads. A
// crash-torn header reports trace.ErrWALTorn (the caller removes the
// file — nothing in it was ever acknowledged); any other error is a
// genuine I/O fault the caller must treat as fatal, not removable.
func replaySegment(path string) (first uint64, records [][]byte, err error) {
	f, err := os.OpenFile(path, os.O_RDWR, 0)
	if err != nil {
		return 0, nil, err
	}
	defer f.Close()
	br := bufio.NewReader(f)
	first, good, err := trace.ReadWALHeader(br)
	if err != nil {
		return 0, nil, err
	}
	offset := int64(good)
	for {
		payload, n, err := trace.ReadWALRecord(br)
		if err == io.EOF {
			break
		}
		if err != nil {
			if !errors.Is(err, trace.ErrWALTorn) {
				return 0, nil, err
			}
			// Crash-torn tail: drop it so future appends and replays
			// start from a clean boundary.
			if terr := f.Truncate(offset); terr != nil {
				return 0, nil, terr
			}
			break
		}
		offset += int64(n)
		records = append(records, payload)
	}
	return first, records, nil
}

// readCheckpoint returns the persisted fold point, or 0 when the file
// is missing or mangled (folding is idempotent, so 0 is always safe).
func readCheckpoint(dir string) uint64 {
	data, err := os.ReadFile(filepath.Join(dir, walCheckpointFile))
	if err != nil {
		return 0
	}
	v, err := strconv.ParseUint(strings.TrimSpace(string(data)), 10, 64)
	if err != nil {
		return 0
	}
	return v
}

// Append durably appends one record and returns its sequence number.
// Under FsyncAlways the record is on stable storage when Append
// returns; the caller acknowledges only after that.
func (w *WAL) Append(payload []byte) (uint64, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.closed {
		return 0, fmt.Errorf("serve: wal: closed")
	}
	if w.active != nil && w.activeSize >= w.opts.SegmentBytes && w.activeCount > 0 {
		if err := w.rotateLocked(); err != nil {
			return 0, err
		}
	}
	if w.active == nil {
		if err := w.createSegmentLocked(); err != nil {
			return 0, err
		}
	}
	n, err := trace.WriteWALRecord(w.active, payload)
	if err != nil {
		// Roll the file back to the last whole record so a failed
		// append never leaves a torn middle.
		_ = w.active.Truncate(w.activeSize)
		_, _ = w.active.Seek(w.activeSize, io.SeekStart)
		return 0, err
	}
	w.activeSize += int64(n)
	w.activeCount++
	seq := w.nextSeq
	w.nextSeq++
	if w.opts.Fsync == FsyncAlways {
		if err := w.active.Sync(); err != nil {
			return 0, fmt.Errorf("serve: wal: fsync: %w", err)
		}
	} else {
		w.dirty = true
	}
	return seq, nil
}

// createSegmentLocked opens a fresh active segment whose first record
// will be nextSeq. Callers hold w.mu.
func (w *WAL) createSegmentLocked() error {
	path := filepath.Join(w.dir, fmt.Sprintf("wal-%016x.seg", w.nextSeq))
	f, err := os.OpenFile(path, os.O_CREATE|os.O_EXCL|os.O_WRONLY, 0o644)
	if err != nil {
		return fmt.Errorf("serve: wal: create segment: %w", err)
	}
	n, err := trace.WriteWALHeader(f, w.nextSeq)
	if err != nil {
		f.Close()
		os.Remove(path)
		return err
	}
	if w.opts.Fsync == FsyncAlways {
		if err := f.Sync(); err != nil {
			f.Close()
			os.Remove(path)
			return fmt.Errorf("serve: wal: fsync segment header: %w", err)
		}
		atomicfile.SyncDir(w.dir)
	}
	w.active = f
	w.activeFirst = w.nextSeq
	w.activeCount = 0
	w.activeSize = int64(n)
	return nil
}

// rotateLocked closes the active segment into the closed list and
// clears it; the next append creates a successor. Callers hold w.mu.
func (w *WAL) rotateLocked() error {
	if w.active == nil {
		return nil
	}
	if w.dirty {
		if err := w.active.Sync(); err != nil {
			return fmt.Errorf("serve: wal: fsync on rotate: %w", err)
		}
		w.dirty = false
	}
	path := w.active.Name()
	if err := w.active.Close(); err != nil {
		return fmt.Errorf("serve: wal: close segment: %w", err)
	}
	w.segments = append(w.segments, walSegment{path: path, first: w.activeFirst, count: w.activeCount})
	w.active = nil
	w.activeCount = 0
	w.activeSize = 0
	return nil
}

// MarkFolded records that the record at seq has been folded into a
// saved trace file. The checkpoint advances only over a contiguous
// prefix of folded sequence numbers — a fold completing out of order
// is remembered but cannot move the checkpoint past an earlier record
// that is still unfolded, so that record always replays after a
// crash. When the prefix advances, the checkpoint is persisted and
// fully-folded closed segments are deleted. A failed checkpoint write
// is not fatal (replay just re-folds) but it is loud — Stats carries it
// to /healthz — and it holds compaction back: while the checkpoint on
// disk is behind, the segments it still points into stay.
func (w *WAL) MarkFolded(seq uint64) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if seq < w.folded {
		return
	}
	w.foldedAhead[seq] = true
	advanced := false
	for w.foldedAhead[w.folded] {
		delete(w.foldedAhead, w.folded)
		w.folded++
		advanced = true
	}
	if !advanced {
		return
	}
	// Persist the fold point atomically (synced under FsyncAlways).
	w.checkpointErr = atomicfile.Write(filepath.Join(w.dir, walCheckpointFile), w.opts.Fsync == FsyncAlways, func(f io.Writer) error {
		_, err := fmt.Fprintf(f, "%d\n", w.folded)
		return err
	})
	if w.checkpointErr == nil {
		w.compactLocked()
	}
}

// compactLocked deletes closed segments whose records are all folded.
// Callers hold w.mu.
func (w *WAL) compactLocked() {
	keep := w.segments[:0]
	for _, seg := range w.segments {
		if seg.first+seg.count <= w.folded {
			os.Remove(seg.path)
			continue
		}
		keep = append(keep, seg)
	}
	w.segments = keep
}

// Sync flushes unsynced appends to stable storage.
func (w *WAL) Sync() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.active == nil || !w.dirty {
		return nil
	}
	w.dirty = false
	return w.active.Sync()
}

// syncLoop is the FsyncInterval background flusher. The stop channel
// is passed in rather than read from the struct: Close may run before
// this goroutine is ever scheduled, and a field read here could then
// observe a post-Close value and select on the wrong channel forever.
func (w *WAL) syncLoop(stop <-chan struct{}) {
	defer close(w.syncDone)
	ticker := time.NewTicker(w.opts.FsyncInterval)
	defer ticker.Stop()
	for {
		select {
		case <-stop:
			return
		case <-ticker.C:
			_ = w.Sync()
		}
	}
}

// Stats reports the current log shape.
func (w *WAL) Stats() WALStats {
	w.mu.Lock()
	defer w.mu.Unlock()
	segs := len(w.segments)
	if w.active != nil {
		segs++
	}
	return WALStats{
		Segments:      segs,
		Pending:       w.nextSeq - w.folded - uint64(len(w.foldedAhead)),
		NextSeq:       w.nextSeq,
		Folded:        w.folded,
		ActiveBytes:   w.activeSize,
		CheckpointErr: w.checkpointErr,
	}
}

// Close flushes and closes the active segment. Further appends fail.
// Close is idempotent.
func (w *WAL) Close() error {
	w.mu.Lock()
	if w.closed {
		w.mu.Unlock()
		return nil
	}
	w.closed = true
	stop := w.stopSync
	w.mu.Unlock()
	if stop != nil {
		close(stop)
		<-w.syncDone
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.active == nil {
		return nil
	}
	var errs []error
	if w.dirty {
		if err := w.active.Sync(); err != nil {
			errs = append(errs, err)
		}
		w.dirty = false
	}
	if err := w.active.Close(); err != nil {
		errs = append(errs, err)
	}
	w.active = nil
	return errors.Join(errs...)
}
