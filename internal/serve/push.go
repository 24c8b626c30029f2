package serve

// The durable push-ingest path: POST /v1/ingest accepts one complete
// trace byte stream per request (dtb/v2 or JSON, sniffed from the
// magic), validates it, appends the raw bytes to the write-ahead log,
// and only then acknowledges with 200 — so an acknowledged record
// survives a crash at any byte boundary. A single folder goroutine
// drains acknowledged records in bursts, in two steps. Apply runs each
// record in memory — a final lands in the watched trace directory
// (atomic rename under the exact file name the batch loaders use), a
// checkpoint is retained — and the burst's snapshot is refreshed from
// the paths it wrote and published, keeping /v1/* responses
// byte-identical to the batch CLI over the union of pushed and
// directory traces. Persist follows: the burst's retained checkpoints
// land under WALDir/partials/, and then one WAL MarkFolded advances the
// fold checkpoint. The WAL append already made each record durable, so
// a crash between publish and persist re-folds from the WAL.
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
	"sync"
	"sync/atomic"
	"time"

	"dayu/internal/atomicfile"
	"dayu/internal/trace"
)

// pushState is the push-ingest pipeline: the WAL, the admission pool
// (one slot per acknowledged-but-unfolded push), the fold queue its one
// folder goroutine drains, and the dedup state mu guards. Lock order:
// mu is taken before the partialSet's lock (the delta gate) and never
// while waiting on a channel.
type pushState struct {
	wal      *WAL
	sem      chan struct{}
	foldQ    chan foldJob
	foldDone chan struct{}
	// stuck is what the folder gave up on (written by it alone).
	stuck atomic.Pointer[stuckFolds]
	// landed is the trace-directory paths the folds wrote or removed
	// since the folder's last refresh, which revises only these, and
	// applied the records applied since the last persist, in queue order
	// (with any whose checkpoint failed to land, retried by the next
	// persist). Both belong to the folder goroutine: no lock.
	landed  []string
	applied []appliedRecord
	// persistErr is the newest failed checkpoint landing, cleared once
	// no applied record is held back by one.
	persistErr atomic.Pointer[ingestError]

	mu     sync.Mutex
	closed bool
	// wg counts the handlers between admission and their fold-queue
	// send; close waits for them before closing foldQ.
	wg sync.WaitGroup
	// acked maps the content hashes acknowledged by this process and
	// not yet covered by a snapshot or superseded (see pruneAcked).
	acked map[string]ackedRecord
	// pending holds content hashes whose WAL append is in flight; the
	// channel closes when the append settles (either way). Identical
	// concurrent pushes wait on it instead of double-appending — and
	// instead of being answered "duplicate" before the twin's bytes
	// are actually durable.
	pending   map[string]chan struct{}
	closeOnce sync.Once
}

// newPushState sizes the admission pool and the fold queue; the WAL is
// attached once its replay has folded.
func newPushState(queue int) *pushState {
	return &pushState{
		sem:      make(chan struct{}, queue),
		foldQ:    make(chan foldJob, queue),
		foldDone: make(chan struct{}),
		acked:    make(map[string]ackedRecord),
		pending:  make(map[string]chan struct{}),
	}
}

// close refuses new pushes, waits for admitted ones to reach the fold
// queue, lets the folder drain it and closes the WAL. Idempotent.
func (p *pushState) close() {
	p.closeOnce.Do(func() {
		p.mu.Lock()
		p.closed = true
		p.mu.Unlock()
		p.wg.Wait()
		close(p.foldQ)
		<-p.foldDone
		p.wal.Close()
	})
}

// stuckFolds counts the acknowledged records the folder gave up on — still
// pending in the WAL, folded by the next startup replay — with the last
// one's cause.
type stuckFolds struct {
	records int
	err     error
}

// foldJob is one acknowledged record awaiting folding; it holds an
// admission slot until it has been applied.
type foldJob struct {
	seq  uint64
	data []byte
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
	p := s.push
	if p == nil {
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

	for {
		p.mu.Lock()
		if p.closed {
			p.mu.Unlock()
			http.Error(w, "shutting down", http.StatusServiceUnavailable)
			return
		}
		if s.isDuplicateLocked(hash) {
			p.mu.Unlock()
			s.pushDuplicates.Inc()
			s.writePushResponse(w, PushResponse{Status: "duplicate", Task: tt.Task, Hash: hash})
			return
		}
		twin, inflight := p.pending[hash]
		if !inflight {
			break // proceed, still holding p.mu
		}
		// An identical payload is mid-append. Answering "duplicate"
		// now would acknowledge bytes that are not durable yet, and
		// appending too would double-log; wait for the twin's append
		// to settle and re-evaluate.
		p.mu.Unlock()
		select {
		case <-twin:
		case <-r.Context().Done():
			http.Error(w, "canceled while an identical push was in flight", http.StatusServiceUnavailable)
			return
		}
	}
	if meta.Delta {
		// Delta gate, before the WAL sees the bytes: folding is ordered,
		// so a delta is only usable if its base is the task's
		// acknowledged checkpoint head. Anything else — a restart that
		// lost the in-memory ack state, an evicted partial, a client
		// bug — gets a 409 resync NACK carrying the sequence we do have,
		// and the client re-pushes cumulative framing.
		if have := s.partials.head(tt.Task); have != meta.DeltaBaseSeq {
			p.mu.Unlock()
			s.deltaResyncs.Inc()
			s.writePushResponseCode(w, http.StatusConflict, PushResponse{Status: "resync", Task: tt.Task, Seq: have})
			return
		}
	}
	select {
	case p.sem <- struct{}{}:
	default:
		p.mu.Unlock()
		s.pushRejected.Inc()
		retry := s.cfg.retryAfter
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
	p.pending[hash] = inflight
	p.wg.Add(1)
	p.mu.Unlock()
	defer p.wg.Done()

	appendStart := time.Now()
	seq, err := p.wal.Append(data)
	s.walAppendNS.Observe(time.Since(appendStart).Nanoseconds())
	p.mu.Lock()
	if err == nil {
		p.acked[hash] = newAckedRecord(tt.Task, meta)
	}
	delete(p.pending, hash)
	close(inflight)
	p.mu.Unlock()
	if err != nil {
		<-p.sem
		s.pushErrors.Inc()
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	s.pushAccepted.Inc()
	if meta.Incremental {
		s.partials.ack(tt.Task, meta.CheckpointSeq)
	}
	s.updateWALGauges()
	// Guaranteed not to block: foldQ has one slot per admission slot,
	// and the folder takes a job off the queue before freeing its slot.
	p.foldQ <- foldJob{seq: seq, data: data}
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
// hashes cover the on-disk directory). Callers hold s.push.mu.
func (s *Server) isDuplicateLocked(hash string) bool {
	if _, ok := s.push.acked[hash]; ok {
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
	if s.push == nil {
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

// folder is the goroutine draining acknowledged records, one at a time
// in queue order; a client pushes a task's next record only after the
// previous one's ack, so a task's checkpoints and final fold in
// sequence. It applies every record of a burst, publishes the burst's
// snapshot, and only then persists the burst, so what a watcher sees
// does not wait on the checkpoint files or the fold-point write. A
// burst ends when the queue is empty or when the applied-but-unpersisted
// records fill the queue's capacity, which bounds them under a queue
// that never empties. It exits when foldQ closes (graceful shutdown
// drains everything already acknowledged, persist included).
func (s *Server) folder() {
	p := s.push
	defer close(p.foldDone)
	for job := range p.foldQ {
		if h := s.cfg.foldHook; h != nil {
			h(job)
		}
		s.foldOne(job)
		<-p.sem
		s.updateWALGauges()
		if len(p.foldQ) == 0 || len(p.applied) >= cap(p.foldQ) {
			// Coalesced refresh after a burst: the new files enter the
			// snapshot without waiting for the poll tick, and without a
			// directory listing — the folds name what they wrote.
			_, _ = s.ingest(false, p.landed)
			p.landed = p.landed[:0]
			s.pruneAcked()
			if h := s.cfg.persistHook; h != nil {
				h()
			}
			s.persist()
		}
	}
	// Every try counts toward the give-up rule, so this ends.
	for len(p.applied) > 0 {
		s.persist()
	}
}

// persist is a burst's second step, after its snapshot is published:
// the checkpoints its records retained land (persistRecords), and one
// MarkFolded marks the rest. A record a failed landing held back stays
// pending in the WAL and on the applied list, so the next burst retries
// it; on its foldAttempts-th failure the folder gives up on it and on
// the older records of its task it holds back, which then count in
// /healthz's fold_error.
func (s *Server) persist() {
	p := s.push
	start := time.Now()
	held, err := s.persistRecords(p.wal, p.applied)
	p.applied = p.applied[:0]
	if len(held) > 0 {
		gaveUp := map[string]bool{}
		for _, r := range held {
			if r.attempts >= foldAttempts {
				gaveUp[r.partial.entry.trace.Task] = true
			}
		}
		stuck := 0
		for _, r := range held {
			if gaveUp[r.partial.entry.trace.Task] {
				stuck++
				continue
			}
			p.applied = append(p.applied, r)
		}
		if stuck > 0 {
			s.addStuck(stuck, err)
		}
	}
	if len(p.applied) > 0 {
		p.persistErr.Store(&ingestError{err: err, when: time.Now()})
	} else {
		p.persistErr.Store(nil)
	}
	s.persistNS.Observe(time.Since(start).Nanoseconds())
	s.updateWALGauges()
}

// persistRecords lands the files of the checkpoints recs retained that
// are still retained (landPartial), all before a single MarkFolded of
// every record no failed landing holds back. A failed landing holds back
// its record and its task's other records in recs — the older ones it
// superseded, whose only saved form it is — so the fold point never
// passes a checkpoint whose task has no copy outside the WAL. It
// returns the held records, in order, and the first failure.
func (s *Server) persistRecords(wal *WAL, recs []appliedRecord) (held []appliedRecord, err error) {
	var failed map[string]bool
	for i := range recs {
		r := &recs[i]
		if r.partial == nil {
			continue
		}
		if lerr := s.landPartial(r.partial); lerr != nil {
			r.attempts++
			s.foldErrors.Inc()
			if failed == nil {
				failed = map[string]bool{}
			}
			failed[r.partial.entry.trace.Task] = true
			if err == nil {
				err = fmt.Errorf("serve: persist record %d: %w", r.seq, lerr)
			}
		}
	}
	seqs := make([]uint64, 0, len(recs))
	for _, r := range recs {
		if r.partial != nil && failed[r.partial.entry.trace.Task] {
			held = append(held, r)
			continue
		}
		seqs = append(seqs, r.seq)
	}
	wal.MarkFolded(seqs...)
	return held, err
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
// alias the payload, which must not stay reachable through the acked
// set.
func newAckedRecord(task string, meta trace.RecordMeta) ackedRecord {
	return ackedRecord{task: strings.Clone(task), checkpoint: meta.Incremental, seq: meta.CheckpointSeq}
}

// pruneAcked drops the acknowledged hashes dedup no longer needs, so
// the acked set holds the unfolded records and at most one delta head
// per streaming task instead of every checkpoint ever pushed. A hash
// goes once the published snapshot covers it, or — for a checkpoint,
// whose re-push foldCheckpoint would drop anyway — once the task's final
// or a newer checkpoint has folded. Runs in the folder after its
// coalesced rescan, off the ack path.
func (s *Server) pruneAcked() {
	snap := s.snap.Load()
	if snap == nil {
		return
	}
	p := s.push
	p.mu.Lock()
	defer p.mu.Unlock()
	for hash, rec := range p.acked {
		drop := snap.hasHash(hash)
		if !drop && rec.checkpoint {
			cur, ok := s.partials.lookup(rec.task)
			drop = snap.batch.taskSet[rec.task] || (ok && cur.seq > rec.seq)
		}
		if drop {
			delete(p.acked, hash)
		}
	}
}

// foldAttempts bounds the tries at applying one record, and at landing
// one retained checkpoint, before the folder gives up on it.
const foldAttempts = 5

// appliedRecord is a record the folder has applied and not yet
// persisted: its fold point is unmarked and, when it retained a
// checkpoint (partial), that checkpoint's file may still have to land.
// attempts counts the failed landings.
type appliedRecord struct {
	seq      uint64
	partial  *partialFile
	attempts int
}

// foldOne applies one record with bounded retries. A record that cannot
// be applied transiently (disk full, ...) stays unfolded in the WAL —
// it is acknowledged data, so it must survive to the next replay
// rather than being dropped — and, being invisible until then, is
// reported by /healthz for as long as this process runs: no scan this
// side of a restart makes it visible.
func (s *Server) foldOne(job foldJob) {
	delay := 10 * time.Millisecond
	start := time.Now()
	for attempt := 1; ; attempt++ {
		landed, rec, err := s.applyRecord(s.push.wal, job.seq, job.data)
		s.push.landed = append(s.push.landed, landed...)
		if err == nil {
			s.push.applied = append(s.push.applied, rec)
			s.foldNS.Observe(time.Since(start).Nanoseconds())
			return
		}
		if attempt >= foldAttempts {
			s.addStuck(1, err)
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

// addStuck counts n more records the folder gave up on, with the cause.
func (s *Server) addStuck(n int, err error) {
	stuck := stuckFolds{records: n, err: err}
	if prev := s.push.stuck.Load(); prev != nil {
		stuck.records += prev.records
	}
	s.push.stuck.Store(&stuck)
}

// applyRecord makes one attempt at applying an acknowledged record out
// of wal, for the live folder and startup replay alike; the record is
// marked folded by its persist step (persistRecords). A payload that
// can never fold (it validated at push time, so this means corruption
// that beat the CRC) is first quarantined — advancing the fold
// checkpoint without a copy would destroy the only evidence — and then
// applied as a record that saves nothing, so replay does not spin on it
// forever. Any failure is counted and surfaced on /healthz; a non-nil
// error means the record is still pending in the WAL. landed is what
// foldBytes wrote or removed in the trace directory, error or not.
func (s *Server) applyRecord(wal *WAL, seq uint64, data []byte) (landed []string, rec appliedRecord, err error) {
	rec.seq = seq
	landed, rec.partial, err = s.foldBytes(data)
	if err != nil {
		err = fmt.Errorf("serve: fold record %d: %w", seq, err)
		s.foldErrors.Inc()
		s.lastErr.Store(&ingestError{err: err, when: time.Now()})
		if !errors.Is(err, errUnfoldable) {
			return landed, rec, err
		}
		// Quarantine names carry the WAL namespace's directory name
		// (nothing for the flat root): every namespace numbers its
		// records from zero, so bare names would collide, and the names
		// stay what servers with several namespaces wrote, so
		// re-quarantining a legacy record is idempotent.
		qprefix := ""
		if wal.dir != s.cfg.WALDir {
			qprefix = filepath.Base(wal.dir) + "-"
		}
		if qerr := s.quarantineRecord(qprefix, seq, data); qerr != nil {
			qerr = fmt.Errorf("serve: quarantine record %d: %w", seq, qerr)
			s.lastErr.Store(&ingestError{err: qerr, when: time.Now()})
			return landed, rec, qerr
		}
	}
	return landed, rec, nil
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

// foldBytes applies one acknowledged payload. A final lands in the
// trace directory under the exact name the batch loaders expect,
// preserving the pushed bytes (so the file's content hash equals the
// push hash and dedup survives restarts); a checkpoint is retained in
// memory, and partial is the file its persist step lands (see
// foldCheckpoint). Folding is idempotent: re-folding the same payload
// rewrites the same file with the same bytes. landed names the
// trace-directory paths it wrote or removed: a final's file and its
// twin, nothing for a checkpoint.
func (s *Server) foldBytes(data []byte) (landed []string, partial *partialFile, err error) {
	// Zero-copy decode: only the task name is read before the raw
	// bytes land on disk.
	tt, meta, err := trace.DecodeBytesMeta(data, trace.DecodeOptions{ZeroCopy: true})
	if err != nil {
		return nil, nil, fmt.Errorf("%w: %v", errUnfoldable, err)
	}
	if meta.Incremental {
		partial, err = s.foldCheckpoint(data, tt.Task, meta)
		return nil, partial, err
	}
	format := trace.SniffFormat(data)
	path := filepath.Join(s.cfg.Dir, trace.TraceFileName(tt.Task, format))
	if err := s.landBytes(path, data); err != nil {
		return nil, nil, err
	}
	// Remove a stale twin in the other serialization so the task is
	// never analyzed twice. (A crash between rename and remove leaves
	// both; the record is still unfolded then, and replay converges.)
	other := trace.FormatJSON
	if format == trace.FormatJSON {
		other = trace.FormatBinary
	}
	twin := filepath.Join(s.cfg.Dir, trace.TraceFileName(tt.Task, other))
	landed = []string{path, twin}
	if err := os.Remove(twin); err != nil && !os.IsNotExist(err) {
		return landed, nil, err
	}
	// The final supersedes any streamed checkpoint for this task.
	s.retractPartial(tt.Task)
	return landed, nil, nil
}

// landBytes atomically lands one acknowledged payload (a folded trace,
// a retained checkpoint, a quarantined record). MarkFolded follows each
// of these writes — in the same burst's persist step — and lets
// compaction delete the record's only synced copy, so under FsyncAlways
// the file and its directory are synced first; the other policies
// promise no more than the WAL itself does.
func (s *Server) landBytes(path string, data []byte) error {
	return atomicfile.Write(path, s.cfg.WAL.Fsync == FsyncAlways, func(w io.Writer) error {
		_, err := w.Write(data)
		return err
	})
}

// updateWALGauges refreshes the WAL/queue gauges from live state.
func (s *Server) updateWALGauges() {
	stats := s.push.wal.Stats()
	s.walPending.Set(int64(stats.Pending))
	s.walSegments.Set(int64(stats.Segments))
	s.queueDepth.Set(int64(len(s.push.sem)))
	s.partialGauge.Set(int64(s.partials.count()))
}
