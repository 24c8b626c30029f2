package serve

// Live streaming analysis: /v1/ingest also accepts incremental
// checkpoint records (dtb/v2 with the incremental flag bit), each a
// cumulative snapshot of one task's trace-so-far. The server keeps at
// most one checkpoint per task — the highest sequence number wins, so
// delivery order does not matter — persisted under WALDir/partials/
// and overlaid on the batch snapshot for the /v1/live/* endpoints.
//
// Fold/retract semantics keep the live view convergent with batch
// analysis by construction:
//
//   - A checkpoint for a task whose final trace already sits in the
//     watched directory is dropped: finals always supersede partials.
//   - A checkpoint older than the retained one (seq <=) is dropped.
//   - A final record folding into the directory retracts the task's
//     partial (entry and file).
//
// Once every task's final has folded, zero partials remain and the
// live graphs alias the batch graphs — /v1/live/ftg is then served
// from the same rendered bytes as /v1/ftg, which is how the
// stream-equals-batch equivalence gate holds at end of stream.

import (
	"bytes"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"time"

	"dayu/internal/diagnose"
	"dayu/internal/trace"
)

// partialEntry is the retained checkpoint for one task.
type partialEntry struct {
	seq   uint64
	hash  string // content hash of the checkpoint record bytes
	trace *trace.TaskTrace
}

// partialSet is the server's streaming state: at most one retained
// checkpoint per in-flight task (newest sequence number wins) and the
// acknowledged checkpoint head per task. It owns its lock; nothing
// outside its methods touches the maps. The zero value is not ready —
// use newPartialSet.
//
// gen bumps on every mutation of entries so refresh can detect
// live-state changes the directory scan cannot see.
//
// heads is the delta-ingest gate: a delta whose base sequence is not
// the task's acknowledged head is NACKed with 409/resync before
// touching the WAL, because ordered per-shard folding could never apply
// it. Advanced at ack and fold time, seeded from persisted partials at
// startup, cleared when the task's final retracts the partial.
type partialSet struct {
	mu      sync.Mutex
	entries map[string]*partialEntry
	gen     uint64
	heads   map[string]uint64
}

func newPartialSet() *partialSet {
	return &partialSet{entries: map[string]*partialEntry{}, heads: map[string]uint64{}}
}

// lookup returns the retained checkpoint for task, if any.
func (p *partialSet) lookup(task string) (*partialEntry, bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	e, ok := p.entries[task]
	return e, ok
}

// fold retains e as task's checkpoint unless a newer or equal one is
// already held, and advances the task's head to it.
func (p *partialSet) fold(task string, e *partialEntry) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if prev, ok := p.entries[task]; ok && prev.seq >= e.seq {
		return
	}
	p.entries[task] = e
	p.gen++
	if e.seq > p.heads[task] {
		p.heads[task] = e.seq
	}
}

// retract drops task's checkpoint and head, reporting whether a
// checkpoint was held.
func (p *partialSet) retract(task string) bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	_, ok := p.entries[task]
	if ok {
		delete(p.entries, task)
		p.gen++
	}
	delete(p.heads, task)
	return ok
}

// head is the highest acknowledged checkpoint sequence for task.
func (p *partialSet) head(task string) uint64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.heads[task]
}

// ack advances task's head at acknowledgement time: the client's next
// delta may arrive before the folder has applied this record, and
// ordered folding will have its base in place by the time it folds.
func (p *partialSet) ack(task string, seq uint64) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if seq > p.heads[task] {
		p.heads[task] = seq
	}
}

// count is the number of tasks represented by a checkpoint.
func (p *partialSet) count() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return len(p.entries)
}

// capture hands refresh every retained checkpoint and the generation
// the capture saw.
func (p *partialSet) capture() ([]*partialEntry, uint64) {
	p.mu.Lock()
	defer p.mu.Unlock()
	out := make([]*partialEntry, 0, len(p.entries))
	for _, e := range p.entries {
		out = append(out, e)
	}
	return out, p.gen
}

// partialsDir is where retained checkpoint records persist across
// restarts (one file per task, checkpoint-record bytes verbatim).
func (s *Server) partialsDir() string {
	return filepath.Join(s.cfg.WALDir, "partials")
}

// finalExists reports whether a complete trace for task is already in
// the watched directory (either serialization).
func (s *Server) finalExists(task string) bool {
	for _, f := range []trace.Format{trace.FormatBinary, trace.FormatJSON} {
		if _, err := os.Stat(filepath.Join(s.cfg.Dir, trace.TraceFileName(task, f))); err == nil {
			return true
		}
	}
	return false
}

// foldCheckpoint applies one incremental record: persist it under the
// partials directory and retain it in memory iff it is the newest
// checkpoint for a task that has no final yet. A delta record is first
// reassembled onto the retained partial at its base sequence
// (trace.ApplyDelta) and persisted in the reassembled cumulative form,
// re-encoded deterministically — so the partials directory, restarts,
// and the snapshot hash are indistinguishable from a cumulative
// stream's. Runs in the single folder goroutine (or startup replay),
// so checkpoints for one task are applied sequentially and a delta
// always folds after its base.
func (s *Server) foldCheckpoint(data []byte, task string, meta trace.RecordMeta) error {
	seq := meta.CheckpointSeq
	if s.finalExists(task) {
		return nil // finals supersede partials
	}
	prev, ok := s.partials.lookup(task)
	if ok && prev.seq >= seq {
		return nil // stale delivery (retries, reordering)
	}
	// Retain an owned decode: the raw bytes are the WAL/queue payload.
	tt, meta2, err := trace.DecodeBytesMeta(data, trace.DecodeOptions{})
	if err != nil || !meta2.Incremental {
		return fmt.Errorf("%w: checkpoint re-decode: %v", errUnfoldable, err)
	}
	if meta.Delta {
		if !ok || prev.seq != meta.DeltaBaseSeq {
			// No partial at the delta's base: the ingest gate bounced
			// such deltas, so this is a replayed record whose base was
			// superseded before the crash. The client has already (or
			// will) resync cumulatively; dropping is safe and keeps
			// refolding idempotent.
			s.deltaDrops.Inc()
			return nil
		}
		cum := trace.ApplyDelta(prev.trace, tt)
		var buf bytes.Buffer
		if err := cum.EncodeBinaryOpts(&buf, trace.BinaryOptions{Incremental: true, CheckpointSeq: seq}); err != nil {
			return fmt.Errorf("%w: reassemble delta: %v", errUnfoldable, err)
		}
		data, tt = buf.Bytes(), cum
		s.deltaFolds.Inc()
	}
	path := filepath.Join(s.partialsDir(), trace.TraceFileName(task, trace.FormatBinary))
	if err := s.landBytes(path, data); err != nil {
		return err
	}
	s.partials.fold(task, &partialEntry{seq: seq, hash: trace.HashBytes(data), trace: tt})
	s.partialFolds.Inc()
	return nil
}

// retractPartial drops a task's retained checkpoint after its final
// trace landed. A crash between the final's rename and the partial
// file's removal leaves a shadowed file; loadPartials cleans those up
// on the next start.
func (s *Server) retractPartial(task string) {
	if s.partials.retract(task) {
		_ = os.Remove(filepath.Join(s.partialsDir(), trace.TraceFileName(task, trace.FormatBinary)))
		s.partialRetracts.Inc()
	}
}

// loadPartials restores retained checkpoints from the partials
// directory at startup, before WAL replay (replayed checkpoint
// records then apply the usual newest-wins rule against them).
// Files that are corrupt, not checkpoint records, or shadowed by a
// final in the trace directory are removed.
func (s *Server) loadPartials() error {
	dir := s.partialsDir()
	entries, err := os.ReadDir(dir)
	if err != nil {
		return fmt.Errorf("serve: scan partials: %w", err)
	}
	for _, e := range entries {
		if e.IsDir() || !trace.IsTraceFile(e.Name()) {
			continue
		}
		path := filepath.Join(dir, e.Name())
		data, err := os.ReadFile(path)
		if err != nil {
			return fmt.Errorf("serve: read partial %s: %w", path, err)
		}
		tt, meta, err := trace.DecodeBytesMeta(data, trace.DecodeOptions{})
		if err != nil || !meta.Incremental || s.finalExists(tt.Task) {
			// Corrupt, a stray complete trace, or superseded by a final:
			// stale either way. Removal is safe — the record is either
			// invalid or reconstructible from the directory.
			_ = os.Remove(path)
			continue
		}
		s.partials.fold(tt.Task, &partialEntry{seq: meta.CheckpointSeq, hash: trace.HashBytes(data), trace: tt})
	}
	return nil
}

// diagnoseHandler serves /v1/diagnose and, with live set,
// /v1/live/diagnostics: anti-pattern detection over the live trace set
// (complete traces plus retained checkpoints). There ?horizon=<duration>
// restricts the analysis to traces whose activity ends within the
// trailing horizon, for "what is going wrong right now" queries on
// long-running workflows. The two share one encoding, so once the
// stream completes (zero partials, no horizon) the bytes are identical.
func (s *Server) diagnoseHandler(live bool) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		var horizonNS int64
		if live {
			var ok bool
			if horizonNS, ok = durationParam(w, r, "horizon"); !ok {
				return
			}
		}
		s.serveRendered(w, "application/json", live, func(snap *snapshot) (*renderCache, string, renderFunc) {
			return snap.diagnoseRender(live, horizonNS)
		})
	}
}

// diagnoseRender names and computes the one diagnose body behind
// /v1/diagnose, /v1/live/diagnostics and the SSE event payload. The
// render keys are what make those three share bytes: with no partials
// and no horizon the live view resolves to the batch view's key.
//
// The body of the snapshot's own trace set — the live view, which with
// zero partials is the batch view — is the index's view encoded, groups
// the previous snapshots already encoded included. The other two bodies
// are rare reads of a different set (the batch half while partials
// exist, a horizon's subset) and run Analyze from scratch: the same
// rules, from empty.
func (snap *snapshot) diagnoseRender(live bool, horizonNS int64) (*renderCache, string, renderFunc) {
	switch {
	case horizonNS > 0:
		return &snap.liveRendered, fmt.Sprintf("live-diagnose.h%d", horizonNS), func() ([]byte, error) {
			return snap.diagnoseFromScratch(horizonTraces(snap.liveTraces, horizonNS))
		}
	case snap.partialTasks == 0:
		return &snap.rendered, "diagnose", snap.findings.EncodeJSON
	case live:
		return &snap.liveRendered, "live-diagnose", snap.findings.EncodeJSON
	default:
		return &snap.rendered, "diagnose", func() ([]byte, error) { return snap.diagnoseFromScratch(snap.traces) }
	}
}

func (snap *snapshot) diagnoseFromScratch(traces []*trace.TaskTrace) ([]byte, error) {
	return diagnose.EncodeJSON(diagnose.Analyze(traces, snap.manifest, diagnose.Thresholds{}))
}

// durationParam parses an optional positive duration query parameter,
// answering 400 itself (and returning ok=false) on bad input.
func durationParam(w http.ResponseWriter, r *http.Request, name string) (int64, bool) {
	raw := r.URL.Query().Get(name)
	if raw == "" {
		return 0, true
	}
	d, err := time.ParseDuration(raw)
	if err != nil || d <= 0 {
		http.Error(w, fmt.Sprintf("bad %s %q: want a positive duration like 500ms or 2s", name, raw), http.StatusBadRequest)
		return 0, false
	}
	return d.Nanoseconds(), true
}

// horizonTraces keeps the traces whose activity ends within the
// trailing horizon window, anchored at the newest end timestamp in
// the set (wall clocks of pushing tasks need not agree with ours).
func horizonTraces(traces []*trace.TaskTrace, horizonNS int64) []*trace.TaskTrace {
	var maxEnd int64
	for _, t := range traces {
		if t.EndNS > maxEnd {
			maxEnd = t.EndNS
		}
	}
	cut := maxEnd - horizonNS
	out := make([]*trace.TaskTrace, 0, len(traces))
	for _, t := range traces {
		if t.EndNS >= cut {
			out = append(out, t)
		}
	}
	return out
}
