package serve

// The durable push-ingest path: POST /v1/ingest accepts one complete
// trace byte stream per request (dtb/v2 or JSON, sniffed from the
// magic), validates it, appends the raw bytes to the write-ahead log,
// and only then acknowledges with 200 — so an acknowledged record
// survives a crash at any byte boundary. A single folder goroutine
// drains acknowledged records into the watched trace directory
// (atomic rename under the exact file name the batch loaders use),
// advances the WAL fold checkpoint, and triggers an incremental
// rescan, keeping /v1/* responses byte-identical to the batch CLI
// over the union of pushed and directory traces.
//
// Admission control is a fixed pool of queue slots: a push that finds
// no free slot is rejected with 429 + Retry-After before anything is
// written, so the WAL cannot grow unboundedly ahead of folding.
// Dedup is content-addressed: a payload whose hash matches an already
// acknowledged or already folded trace is acknowledged as a duplicate
// without re-appending, which makes client retries idempotent. A
// payload identical to one whose append is still in flight waits for
// that append to settle first — answering "duplicate" earlier would
// acknowledge bytes not yet durable, and appending would double-log.

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"time"

	"dayu/internal/atomicfile"
	"dayu/internal/trace"
)

// foldJob is one acknowledged record awaiting folding. admitted marks
// jobs holding an admission slot (live pushes; startup replay jobs do
// not).
type foldJob struct {
	seq      uint64
	hash     string
	data     []byte
	admitted bool
}

// PushResponse is the /v1/ingest response body.
type PushResponse struct {
	// Status is "accepted" (durably logged), "duplicate" (an
	// identical payload was already acknowledged), or "resync" (a
	// delta checkpoint whose base is not the task's acknowledged
	// head; sent with HTTP 409, and the client must re-push the
	// checkpoint in cumulative framing).
	Status string `json:"status"`
	Task   string `json:"task"`
	Hash   string `json:"hash"`
	// Seq is the WAL sequence number of accepted records. On a
	// "resync" it instead carries the checkpoint sequence the server
	// does have for the task, so clients can diagnose the gap.
	Seq uint64 `json:"seq,omitempty"`
}

// handleIngest is POST /v1/ingest.
func (s *Server) handleIngest(w http.ResponseWriter, r *http.Request) {
	if !s.pushEnabled() {
		http.Error(w, "push ingest disabled (start serve with a WAL directory)", http.StatusNotImplemented)
		return
	}
	data, ok := s.readPushBody(w, r)
	if !ok {
		return
	}
	if len(data) == 0 {
		http.Error(w, "empty body", http.StatusBadRequest)
		return
	}
	// Zero-copy decode: the trace is only used to validate the payload
	// and name it; data outlives it (it is the WAL/queue payload).
	// DecodeBytesMeta also admits incremental checkpoint records, whose
	// header sequence number makes every checkpoint's bytes (and hash)
	// distinct, so the content-addressed dedup below applies unchanged.
	tt, meta, err := trace.DecodeBytesMeta(data, trace.DecodeOptions{ZeroCopy: true})
	if err != nil {
		s.pushErrors.Inc()
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	hash := trace.HashBytes(data)
	// Route by task name: one task's checkpoints and final always land
	// in the same shard's WAL and fold sequentially in its folder.
	sh := s.walFor(tt.Task)

	for {
		s.pushMu.Lock()
		if s.pushClosed {
			s.pushMu.Unlock()
			http.Error(w, "shutting down", http.StatusServiceUnavailable)
			return
		}
		if s.isDuplicateLocked(hash) {
			s.pushMu.Unlock()
			s.pushDuplicates.Inc()
			s.writePushResponse(w, PushResponse{Status: "duplicate", Task: tt.Task, Hash: hash})
			return
		}
		twin, inflight := s.pending[hash]
		if !inflight {
			break // proceed, still holding pushMu
		}
		// An identical payload is mid-append. Answering "duplicate"
		// now would acknowledge bytes that are not durable yet, and
		// appending too would double-log; wait for the twin's append
		// to settle and re-evaluate.
		s.pushMu.Unlock()
		select {
		case <-twin:
		case <-r.Context().Done():
			http.Error(w, "canceled while an identical push was in flight", http.StatusServiceUnavailable)
			return
		}
	}
	if meta.Delta {
		// Delta gate, before the WAL sees the bytes: folding is ordered
		// per shard, so a delta is only usable if its base is the task's
		// acknowledged checkpoint head. Anything else — a restart that
		// lost the in-memory ack state, an evicted partial, a client
		// bug — gets a 409 resync NACK carrying the sequence we do have,
		// and the client re-pushes cumulative framing.
		if have := s.partials.head(tt.Task); have != meta.DeltaBaseSeq {
			s.pushMu.Unlock()
			s.deltaResyncs.Inc()
			s.writePushResponseCode(w, http.StatusConflict, PushResponse{Status: "resync", Task: tt.Task, Seq: have})
			return
		}
	}
	select {
	case sh.sem <- struct{}{}:
	default:
		s.pushMu.Unlock()
		s.pushRejected.Inc()
		retry := s.cfg.RetryAfter
		if retry <= 0 {
			retry = time.Second
		}
		// Retry-After is whole seconds; sub-half-second hints round to
		// 0 ("retry at your own backoff") rather than inflating to 1s.
		secs := int64(retry.Round(time.Second) / time.Second)
		w.Header().Set("Retry-After", strconv.FormatInt(secs, 10))
		http.Error(w, "ingest queue full", http.StatusTooManyRequests)
		return
	}
	inflight := make(chan struct{})
	s.pending[hash] = inflight
	s.pushWG.Add(1)
	s.pushMu.Unlock()
	defer s.pushWG.Done()

	appendStart := time.Now()
	seq, err := sh.wal.Append(data)
	elapsed := time.Since(appendStart).Nanoseconds()
	s.walAppendNS.Observe(elapsed)
	sh.appendNS.Observe(elapsed)
	s.pushMu.Lock()
	if err == nil {
		s.acked[hash] = newAckedRecord(tt.Task, meta)
	}
	delete(s.pending, hash)
	close(inflight)
	s.pushMu.Unlock()
	if err != nil {
		<-sh.sem
		s.pushErrors.Inc()
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	s.pushAccepted.Inc()
	if meta.Incremental {
		s.partials.ack(tt.Task, meta.CheckpointSeq)
	}
	s.updateWALGauges()
	// Guaranteed not to block: the shard's foldQ has at least one slot
	// per admission slot, and its folder frees the queue slot first.
	sh.foldQ <- foldJob{seq: seq, hash: hash, data: data, admitted: true}
	s.writePushResponse(w, PushResponse{Status: "accepted", Task: tt.Task, Hash: hash, Seq: seq})
}

// readPushBody reads a push endpoint's request body; a body over the
// cap is counted as a rejected push and answered 413, any other read
// failure 400.
func (s *Server) readPushBody(w http.ResponseWriter, r *http.Request) ([]byte, bool) {
	data, err := io.ReadAll(r.Body)
	if err == nil {
		return data, true
	}
	var mbe *http.MaxBytesError
	if errors.As(err, &mbe) {
		s.pushRejected.Inc()
		http.Error(w, fmt.Sprintf("body exceeds %d bytes", mbe.Limit), http.StatusRequestEntityTooLarge)
	} else {
		http.Error(w, err.Error(), http.StatusBadRequest)
	}
	return nil, false
}

// isDuplicateLocked reports whether a payload hash was already
// acknowledged (this process) or folded (any process — the snapshot
// hashes cover the on-disk directory). Callers hold pushMu.
func (s *Server) isDuplicateLocked(hash string) bool {
	if _, ok := s.acked[hash]; ok {
		return true
	}
	if snap := s.snap.Load(); snap != nil && snap.hasHash(hash) {
		return true
	}
	return false
}

func (s *Server) writePushResponse(w http.ResponseWriter, resp PushResponse) {
	s.writePushResponseCode(w, http.StatusOK, resp)
}

func (s *Server) writePushResponseCode(w http.ResponseWriter, code int, resp PushResponse) {
	body, err := json.Marshal(resp)
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_, _ = w.Write(body)
}

// handleIngestManifest is POST /v1/ingest/manifest: replaces the
// watched directory's manifest.json (atomic rename, so a crash after
// the 200 cannot tear it).
func (s *Server) handleIngestManifest(w http.ResponseWriter, r *http.Request) {
	if !s.pushEnabled() {
		http.Error(w, "push ingest disabled (start serve with a WAL directory)", http.StatusNotImplemented)
		return
	}
	data, ok := s.readPushBody(w, r)
	if !ok {
		return
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var m trace.Manifest
	if err := dec.Decode(&m); err != nil {
		http.Error(w, fmt.Sprintf("bad manifest: %v", err), http.StatusBadRequest)
		return
	}
	if err := trace.SaveManifest(s.cfg.Dir, &m); err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	// The manifest landed durably; a scan error is counted and surfaces
	// via /healthz like any other ingest failure.
	_, _ = s.Ingest()
	s.writePushResponse(w, PushResponse{Status: "accepted", Hash: trace.HashBytes(data)})
}

// folder is one shard's goroutine draining its acknowledged records
// into the trace directory. It exits when the shard's foldQ closes
// (graceful shutdown drains everything already acknowledged). Folding
// is safe to run concurrently across shards: each write is an atomic
// rename, tasks route to exactly one shard, and the rescan is
// serialized by ingestMu.
func (s *Server) folder(sh *shardIngest) {
	defer close(sh.foldDone)
	for job := range sh.foldQ {
		if h := s.cfg.foldHook; h != nil {
			h(job)
		}
		s.foldOne(sh, job)
		if job.admitted {
			<-sh.sem
		}
		s.updateWALGauges()
		if len(sh.foldQ) == 0 {
			// Coalesced rescan after a burst: the new files enter the
			// snapshot without waiting for the poll tick.
			_, _ = s.Ingest()
			s.pruneAcked()
		}
	}
}

// ackedRecord is what pruneAcked needs to know about an acknowledged
// payload: whose it is and, for a streaming checkpoint, where it sits
// in the task's stream.
type ackedRecord struct {
	task       string
	checkpoint bool
	seq        uint64
}

// newAckedRecord copies the task name: a zero-copy decode's strings
// alias the payload, which must not stay reachable through s.acked.
func newAckedRecord(task string, meta trace.RecordMeta) ackedRecord {
	return ackedRecord{task: strings.Clone(task), checkpoint: meta.Incremental, seq: meta.CheckpointSeq}
}

// pruneAcked drops the acknowledged hashes dedup no longer needs, so
// s.acked holds the unfolded records and at most one delta head per
// streaming task instead of every checkpoint ever pushed. A hash goes
// once the published snapshot covers it, or — for a checkpoint, whose
// re-push foldCheckpoint would drop anyway — once the task's final or a
// newer checkpoint has folded. Runs in the folders after their
// coalesced rescan, off the ack path.
func (s *Server) pruneAcked() {
	snap := s.snap.Load()
	if snap == nil {
		return
	}
	s.pushMu.Lock()
	defer s.pushMu.Unlock()
	for hash, rec := range s.acked {
		drop := snap.hasHash(hash)
		if !drop && rec.checkpoint {
			cur, ok := s.partials.lookup(rec.task)
			drop = snap.taskSet[rec.task] || (ok && cur.seq > rec.seq)
		}
		if drop {
			delete(s.acked, hash)
		}
	}
}

// foldOne folds one record with bounded retries. A record that cannot
// be folded transiently (disk full, ...) stays unfolded in the WAL —
// it is acknowledged data, so it must survive to the next replay
// rather than being dropped — and, being invisible until then, is
// reported by /healthz for as long as this process runs: no scan this
// side of a restart makes it visible.
func (s *Server) foldOne(sh *shardIngest, job foldJob) {
	const attempts = 5
	delay := 10 * time.Millisecond
	start := time.Now()
	for attempt := 1; ; attempt++ {
		err := s.foldRecord(sh.wal, job.seq, job.data)
		if err == nil {
			sh.foldNS.Observe(time.Since(start).Nanoseconds())
			return
		}
		if attempt >= attempts {
			stuck := stuckFolds{records: 1, err: err}
			if prev := sh.stuck.Load(); prev != nil {
				stuck.records += prev.records
			}
			sh.stuck.Store(&stuck)
			return
		}
		select {
		case <-s.stop:
			return
		case <-time.After(delay):
		}
		delay *= 2
	}
}

// foldRecord makes one attempt at folding an acknowledged record out of
// wal and marks it folded, for the live folders and startup replay
// alike. A payload that can never fold (it validated at push time, so
// this means corruption that beat the CRC) is first quarantined —
// advancing the fold checkpoint without a copy would destroy the only
// evidence — and then marked folded so replay does not spin on it
// forever. Any failure is counted and surfaced on /healthz; a non-nil
// return means the record is still pending in the WAL.
func (s *Server) foldRecord(wal *WAL, seq uint64, data []byte) error {
	if err := s.foldBytes(data); err != nil {
		err = fmt.Errorf("serve: fold record %d: %w", seq, err)
		s.foldErrors.Inc()
		s.lastErr.Store(&ingestError{err: err, when: time.Now()})
		if !errors.Is(err, errUnfoldable) {
			return err
		}
		// Quarantine names carry the WAL namespace's directory name
		// (nothing for the flat root): every namespace numbers its
		// records from zero, so bare names would collide, and a name
		// that does not depend on whether the namespace is live or
		// orphaned keeps re-quarantining idempotent across shard-count
		// changes.
		qprefix := ""
		if wal.dir != s.cfg.WALDir {
			qprefix = filepath.Base(wal.dir) + "-"
		}
		if qerr := s.quarantineRecord(qprefix, seq, data); qerr != nil {
			qerr = fmt.Errorf("serve: quarantine record %d: %w", seq, qerr)
			s.lastErr.Store(&ingestError{err: qerr, when: time.Now()})
			return qerr
		}
	}
	wal.MarkFolded(seq)
	return nil
}

// errUnfoldable marks fold failures that no retry can cure.
var errUnfoldable = errors.New("unfoldable record")

// quarantineDir holds acknowledged records that could not be folded
// (errUnfoldable): the WAL checkpoint only advances past such a record
// once its bytes are preserved here, so a poisoned record survives any
// number of restarts for offline inspection instead of vanishing.
func (s *Server) quarantineDir() string {
	return filepath.Join(s.cfg.WALDir, "quarantine")
}

// quarantineRecord persists an unfoldable record's raw bytes under the
// quarantine directory, named by its WAL namespace prefix and sequence
// number. Idempotent: re-quarantining the same seq rewrites the same
// file.
func (s *Server) quarantineRecord(prefix string, seq uint64, data []byte) error {
	dir := s.quarantineDir()
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	return s.landBytes(filepath.Join(dir, fmt.Sprintf("%srec-%d.bin", prefix, seq)), data)
}

// countQuarantined reports how many records sit in quarantine.
func (s *Server) countQuarantined() int {
	entries, err := os.ReadDir(s.quarantineDir())
	if err != nil {
		return 0
	}
	n := 0
	for _, e := range entries {
		if !e.IsDir() {
			n++
		}
	}
	return n
}

// foldBytes lands one acknowledged payload in the trace directory
// under the exact name the batch loaders expect, preserving the
// pushed bytes (so the file's content hash equals the push hash and
// dedup survives restarts). Folding is idempotent: re-folding the
// same payload rewrites the same file with the same bytes.
func (s *Server) foldBytes(data []byte) error {
	// Zero-copy decode: only the task name is read before the raw
	// bytes land on disk.
	tt, meta, err := trace.DecodeBytesMeta(data, trace.DecodeOptions{ZeroCopy: true})
	if err != nil {
		return fmt.Errorf("%w: %v", errUnfoldable, err)
	}
	if meta.Incremental {
		return s.foldCheckpoint(data, tt.Task, meta)
	}
	format := trace.SniffFormat(data)
	path := filepath.Join(s.cfg.Dir, trace.TraceFileName(tt.Task, format))
	if err := s.landBytes(path, data); err != nil {
		return err
	}
	// Remove a stale twin in the other serialization so the task is
	// never analyzed twice. (A crash between rename and remove leaves
	// both; the record is still unfolded then, and replay converges.)
	other := trace.FormatJSON
	if format == trace.FormatJSON {
		other = trace.FormatBinary
	}
	twin := filepath.Join(s.cfg.Dir, trace.TraceFileName(tt.Task, other))
	if err := os.Remove(twin); err != nil && !os.IsNotExist(err) {
		return err
	}
	// The final supersedes any streamed checkpoint for this task.
	s.retractPartial(tt.Task)
	return nil
}

// landBytes atomically lands one acknowledged payload (a folded trace,
// a retained checkpoint, a quarantined record). MarkFolded follows each
// of these writes and lets compaction delete the record's only synced
// copy, so under FsyncAlways the file and its directory are synced
// first; the other policies promise no more than the WAL itself does.
func (s *Server) landBytes(path string, data []byte) error {
	return atomicfile.Write(path, s.cfg.WAL.Fsync == FsyncAlways, func(w io.Writer) error {
		_, err := w.Write(data)
		return err
	})
}

// updateWALGauges refreshes the WAL/queue gauges from live state: the
// global gauges as sums across shards plus each shard's own breakdown.
func (s *Server) updateWALGauges() {
	if !s.pushEnabled() {
		return
	}
	var pending, segments, depth int64
	for _, sh := range s.shards {
		stats := sh.wal.Stats()
		shardDepth := int64(len(sh.sem))
		sh.walPending.Set(int64(stats.Pending))
		sh.walSegments.Set(int64(stats.Segments))
		sh.queueDepth.Set(shardDepth)
		pending += int64(stats.Pending)
		segments += int64(stats.Segments)
		depth += shardDepth
	}
	s.walPending.Set(pending)
	s.walSegments.Set(segments)
	s.queueDepth.Set(depth)
	s.partialGauge.Set(int64(s.partials.count()))
}
