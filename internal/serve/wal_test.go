package serve

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"testing"
	"time"

	"dayu/internal/trace"
)

// TestWALCloseImmediatelyAfterOpenInterval pins the open-then-close
// deadlock: with FsyncInterval, Close used to nil the stop channel the
// sync loop read from the struct — if the loop goroutine had not been
// scheduled yet (exactly what orphan-WAL replay does at startup), it
// selected on a nil channel forever and Close hung on syncDone.
func TestWALCloseImmediatelyAfterOpenInterval(t *testing.T) {
	dir := t.TempDir()
	for i := 0; i < 50; i++ {
		w, _, err := OpenWAL(dir, WALOptions{Fsync: FsyncInterval, FsyncInterval: time.Millisecond})
		if err != nil {
			t.Fatal(err)
		}
		done := make(chan error, 1)
		go func() { done <- w.Close() }()
		select {
		case err := <-done:
			if err != nil {
				t.Fatal(err)
			}
		case <-time.After(10 * time.Second):
			t.Fatal("Close deadlocked waiting for the sync loop")
		}
	}
}

func openTestWAL(t *testing.T, dir string, opts WALOptions) (*WAL, []PendingRecord) {
	t.Helper()
	w, pending, err := OpenWAL(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	return w, pending
}

func TestWALAppendReplay(t *testing.T) {
	dir := t.TempDir()
	w, pending := openTestWAL(t, dir, WALOptions{Fsync: FsyncNever})
	if len(pending) != 0 {
		t.Fatalf("fresh WAL replayed %d records", len(pending))
	}
	var payloads [][]byte
	for i := 0; i < 10; i++ {
		p := []byte(fmt.Sprintf("record-%02d-%s", i, bytes.Repeat([]byte{byte(i)}, i*7)))
		seq, err := w.Append(p)
		if err != nil {
			t.Fatal(err)
		}
		if seq != uint64(i) {
			t.Fatalf("append %d got seq %d", i, seq)
		}
		payloads = append(payloads, p)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	w2, pending := openTestWAL(t, dir, WALOptions{Fsync: FsyncNever})
	defer w2.Close()
	if len(pending) != len(payloads) {
		t.Fatalf("replayed %d records, want %d", len(pending), len(payloads))
	}
	for i, rec := range pending {
		if rec.Seq != uint64(i) || !bytes.Equal(rec.Data, payloads[i]) {
			t.Fatalf("record %d: seq %d, payload match %v", i, rec.Seq, bytes.Equal(rec.Data, payloads[i]))
		}
	}
	// Sequence numbering continues where the previous incarnation left
	// off.
	seq, err := w2.Append([]byte("after-restart"))
	if err != nil {
		t.Fatal(err)
	}
	if seq != uint64(len(payloads)) {
		t.Fatalf("post-restart append seq = %d, want %d", seq, len(payloads))
	}
}

func TestWALCheckpointAndCompaction(t *testing.T) {
	dir := t.TempDir()
	// Tiny segments: every record rotates into its own closed segment.
	w, _ := openTestWAL(t, dir, WALOptions{Fsync: FsyncNever, SegmentBytes: 1})
	for i := 0; i < 6; i++ {
		if _, err := w.Append([]byte(fmt.Sprintf("rec-%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	if got := w.Stats().Segments; got < 3 {
		t.Fatalf("expected rotation to produce several segments, got %d", got)
	}

	// Folding the first 4 records must compact their fully-folded
	// closed segments away and persist the checkpoint.
	for seq := uint64(0); seq < 4; seq++ {
		w.MarkFolded(seq)
	}
	stats := w.Stats()
	if stats.Folded != 4 || stats.Pending != 2 {
		t.Fatalf("after folding 4: folded=%d pending=%d", stats.Folded, stats.Pending)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	segs, _ := filepath.Glob(filepath.Join(dir, "wal-*.seg"))
	if len(segs) >= 6 {
		t.Fatalf("compaction left %d segments for 2 pending records", len(segs))
	}

	// Replay resumes from the checkpoint: only the unfolded tail comes
	// back.
	w2, pending := openTestWAL(t, dir, WALOptions{Fsync: FsyncNever, SegmentBytes: 1})
	defer w2.Close()
	if len(pending) != 2 {
		t.Fatalf("replayed %d pending, want 2", len(pending))
	}
	if pending[0].Seq != 4 || pending[1].Seq != 5 {
		t.Fatalf("pending seqs = %d,%d, want 4,5", pending[0].Seq, pending[1].Seq)
	}
	if string(pending[0].Data) != "rec-4" || string(pending[1].Data) != "rec-5" {
		t.Fatalf("pending payloads = %q,%q", pending[0].Data, pending[1].Data)
	}
}

// TestWALMarkFoldedOutOfOrder pins the checkpoint's contiguous-prefix
// contract: fold jobs may complete out of sequence order (concurrent
// pushes race between append and enqueue, and a failed fold leaves its
// record pending), and the checkpoint must never advance past an
// earlier acknowledged record that is still unfolded.
// blockCheckpoint makes walDir's checkpoint path unrenamable: a
// non-empty directory sits where the checkpoint file belongs, so every
// checkpoint write fails at its rename. The returned func clears it.
func blockCheckpoint(t *testing.T, walDir string) (unblock func()) {
	t.Helper()
	blocker := filepath.Join(walDir, walCheckpointFile)
	if err := os.MkdirAll(filepath.Join(blocker, "occupied"), 0o755); err != nil {
		t.Fatal(err)
	}
	return func() {
		if err := os.RemoveAll(blocker); err != nil {
			t.Fatal(err)
		}
	}
}

// TestWALCheckpointFailureIsLoudAndHoldsCompaction pins the two halves
// of a failed checkpoint write: Stats reports the cause (it used to be
// assigned and never read), and no segment is deleted while the
// checkpoint on disk is behind — then both recover once a write lands.
func TestWALCheckpointFailureIsLoudAndHoldsCompaction(t *testing.T) {
	dir := t.TempDir()
	w, _ := openTestWAL(t, dir, WALOptions{Fsync: FsyncNever, SegmentBytes: 1})
	defer w.Close()
	for i := 0; i < 4; i++ {
		if _, err := w.Append([]byte(fmt.Sprintf("rec-%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	before := w.Stats().Segments
	unblock := blockCheckpoint(t, dir)

	w.MarkFolded(0)
	w.MarkFolded(1)
	st := w.Stats()
	if st.CheckpointErr == nil {
		t.Fatal("checkpoint write onto a directory reported no error")
	}
	if st.Folded != 2 || st.Segments != before {
		t.Fatalf("with the checkpoint behind: folded=%d segments=%d, want 2 and all %d kept", st.Folded, st.Segments, before)
	}

	unblock()
	w.MarkFolded(2)
	st = w.Stats()
	if st.CheckpointErr != nil {
		t.Fatalf("checkpoint error not cleared by a successful write: %v", st.CheckpointErr)
	}
	if st.Segments >= before {
		t.Fatalf("compaction did not resume: %d segments, had %d", st.Segments, before)
	}
	if got := readCheckpoint(dir); got != 3 {
		t.Fatalf("checkpoint on disk = %d, want 3", got)
	}
}

func TestWALMarkFoldedOutOfOrder(t *testing.T) {
	dir := t.TempDir()
	w, _ := openTestWAL(t, dir, WALOptions{Fsync: FsyncNever})
	for i := 0; i < 3; i++ {
		if _, err := w.Append([]byte(fmt.Sprintf("rec-%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	// Records 2 and 1 fold before record 0: the checkpoint stays put.
	w.MarkFolded(2)
	w.MarkFolded(1)
	if stats := w.Stats(); stats.Folded != 0 || stats.Pending != 1 {
		t.Fatalf("after out-of-order folds: folded=%d pending=%d, want 0,1", stats.Folded, stats.Pending)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	// A crash now must replay record 0 — acknowledged, never folded.
	w2, pending := openTestWAL(t, dir, WALOptions{Fsync: FsyncNever})
	if len(pending) == 0 || pending[0].Seq != 0 || string(pending[0].Data) != "rec-0" {
		t.Fatalf("replay lost the unfolded record 0 (%d pending)", len(pending))
	}
	// Folding the gap record advances the checkpoint over the whole
	// now-contiguous prefix at once.
	w2.MarkFolded(1)
	w2.MarkFolded(2)
	w2.MarkFolded(0)
	if stats := w2.Stats(); stats.Folded != 3 || stats.Pending != 0 {
		t.Fatalf("after folding the gap: folded=%d pending=%d, want 3,0", stats.Folded, stats.Pending)
	}
	w2.Close()
}

// TestOpenWALFailsOnSegmentIOError pins the recovery deletion rule: a
// segment that fails replay with a genuine I/O fault (here, a path
// that cannot be opened as a file) must fail OpenWAL and survive on
// disk — deleting it could destroy acknowledged records over a
// transient error. Only crash-torn headers and record-free segments
// are removable.
func TestOpenWALFailsOnSegmentIOError(t *testing.T) {
	dir := t.TempDir()
	w, _ := openTestWAL(t, dir, WALOptions{Fsync: FsyncNever})
	if _, err := w.Append([]byte("precious")); err != nil {
		t.Fatal(err)
	}
	w.Close()
	bogus := filepath.Join(dir, "wal-00000000000000ff.seg")
	if err := os.Mkdir(bogus, 0o755); err != nil {
		t.Fatal(err)
	}
	if _, _, err := OpenWAL(dir, WALOptions{Fsync: FsyncNever}); err == nil {
		t.Fatal("OpenWAL succeeded over an unreadable segment")
	}
	if _, err := os.Stat(bogus); err != nil {
		t.Fatalf("unreadable segment was removed during failed recovery: %v", err)
	}
}

func TestWALIgnoresMangledCheckpoint(t *testing.T) {
	dir := t.TempDir()
	w, _ := openTestWAL(t, dir, WALOptions{Fsync: FsyncNever})
	if _, err := w.Append([]byte("survivor")); err != nil {
		t.Fatal(err)
	}
	w.Close()
	if err := os.WriteFile(filepath.Join(dir, "checkpoint"), []byte("not a number"), 0o644); err != nil {
		t.Fatal(err)
	}
	w2, pending := openTestWAL(t, dir, WALOptions{Fsync: FsyncNever})
	defer w2.Close()
	// A mangled checkpoint falls back to 0: everything replays (folding
	// is idempotent, so over-replay is safe; under-replay never is).
	if len(pending) != 1 || string(pending[0].Data) != "survivor" {
		t.Fatalf("pending = %d records", len(pending))
	}
}

// TestWALTornTailEveryOffset is the torn-tail property test: append a
// handful of records, then for every byte offset of the segment file,
// truncate a copy there, reopen, and assert exactly the records whose
// frames fit are recovered — the acknowledged prefix, nothing else,
// and never an error.
func TestWALTornTailEveryOffset(t *testing.T) {
	build := t.TempDir()
	w, _ := openTestWAL(t, build, WALOptions{Fsync: FsyncNever})
	payloads := [][]byte{
		[]byte("alpha"),
		[]byte(`{"task":"beta","files":[]}`),
		bytes.Repeat([]byte{0x42}, 61),
		[]byte("delta-final"),
	}
	for _, p := range payloads {
		if _, err := w.Append(p); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	segs, err := filepath.Glob(filepath.Join(build, "wal-*.seg"))
	if err != nil || len(segs) != 1 {
		t.Fatalf("want a single segment, got %d (%v)", len(segs), err)
	}
	full, err := os.ReadFile(segs[0])
	if err != nil {
		t.Fatal(err)
	}
	segName := filepath.Base(segs[0])

	// Recompute the frame boundaries: bytes at which records 1..N end.
	var bounds []int
	var hdr bytes.Buffer
	hn, err := trace.WriteWALHeader(&hdr, 0)
	if err != nil {
		t.Fatal(err)
	}
	off := hn
	for _, p := range payloads {
		var fb bytes.Buffer
		n, err := trace.WriteWALRecord(&fb, p)
		if err != nil {
			t.Fatal(err)
		}
		off += n
		bounds = append(bounds, off)
	}
	if off != len(full) {
		t.Fatalf("recomputed segment length %d != on-disk %d", off, len(full))
	}

	for cut := 0; cut <= len(full); cut++ {
		wantRecovered := 0
		for _, b := range bounds {
			if b <= cut {
				wantRecovered++
			}
		}
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, segName), full[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		w, pending, err := OpenWAL(dir, WALOptions{Fsync: FsyncNever})
		if err != nil {
			t.Fatalf("cut %d: OpenWAL: %v", cut, err)
		}
		if len(pending) != wantRecovered {
			t.Fatalf("cut %d: recovered %d records, want %d", cut, len(pending), wantRecovered)
		}
		for i, rec := range pending {
			if !bytes.Equal(rec.Data, payloads[i]) {
				t.Fatalf("cut %d: record %d corrupted", cut, i)
			}
		}
		// The log must remain appendable after any torn-tail recovery.
		if _, err := w.Append([]byte("probe")); err != nil {
			t.Fatalf("cut %d: append after recovery: %v", cut, err)
		}
		w.Close()
	}
}

// FuzzWALReplay feeds arbitrary bytes to the segment replayer:
// whatever is on disk, OpenWAL must not crash or error, must recover
// only CRC-clean whole records, and must leave the log appendable.
func FuzzWALReplay(f *testing.F) {
	var valid bytes.Buffer
	_, _ = trace.WriteWALHeader(&valid, 0)
	_, _ = trace.WriteWALRecord(&valid, []byte("seed-one"))
	_, _ = trace.WriteWALRecord(&valid, []byte("seed-two"))
	f.Add(valid.Bytes())
	f.Add(valid.Bytes()[:len(valid.Bytes())-3]) // torn tail
	f.Add([]byte("\x89DWL\r\n"))                // bare magic
	f.Add([]byte{})
	f.Add(bytes.Repeat([]byte{0xFF}, 64))
	f.Fuzz(func(t *testing.T, data []byte) {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, "wal-0000000000000000.seg"), data, 0o644); err != nil {
			t.Fatal(err)
		}
		w, pending, err := OpenWAL(dir, WALOptions{Fsync: FsyncNever})
		if err != nil {
			t.Fatalf("OpenWAL on fuzzed segment: %v", err)
		}
		seq, err := w.Append([]byte("post-fuzz-probe"))
		if err != nil {
			t.Fatalf("append after fuzzed replay: %v", err)
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		// The probe — and every recovered record — survives a second
		// replay losslessly.
		w2, pending2, err := OpenWAL(dir, WALOptions{Fsync: FsyncNever})
		if err != nil {
			t.Fatal(err)
		}
		defer w2.Close()
		if len(pending2) != len(pending)+1 {
			t.Fatalf("second replay: %d records, want %d", len(pending2), len(pending)+1)
		}
		for i, rec := range pending {
			if !bytes.Equal(pending2[i].Data, rec.Data) {
				t.Fatalf("record %d changed across replays", i)
			}
		}
		last := pending2[len(pending2)-1]
		if last.Seq != seq || string(last.Data) != "post-fuzz-probe" {
			t.Fatalf("probe record: seq %d (want %d), data %q", last.Seq, seq, last.Data)
		}
	})
}
