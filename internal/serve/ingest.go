package serve

import (
	"crypto/sha256"
	"encoding"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"time"

	"dayu/internal/analyzer"
	"dayu/internal/trace"
)

// TaskInfo is one row of the /v1/tasks listing. The rows belong to the
// batch view, which is rebuilt on content changes only: a touch that
// leaves a file's bytes alone does not move its ModTime here until some
// trace or the manifest changes.
type TaskInfo struct {
	Task    string    `json:"task"`
	File    string    `json:"file"`
	Size    int64     `json:"size"`
	Hash    string    `json:"hash"`
	ModTime time.Time `json:"mod_time"`
	StartNS int64     `json:"start_ns"`
	EndNS   int64     `json:"end_ns"`
	Failed  bool      `json:"failed,omitempty"`
}

// refresh brings the build cache up to a listing of the trace
// directory and, when the served state changed, builds and atomically
// publishes a new snapshot. It is the single writer: callers must hold
// s.ingestMu. With full set the listing is the whole directory
// (listDir); otherwise it is the folder's, the landed paths and the
// failed ones only (listLanded), and the rest of the cache stands.
// Returns the current snapshot (possibly the unchanged one) or the
// error.
func (s *Server) refresh(full bool, landed []string) (*snapshot, error) {
	start := time.Now()
	// The partials are captured before the directory is listed: a final
	// lands its file and then retracts its partial, so a task finishing
	// meanwhile is in this capture, in the listing, or in both — never in
	// neither. buildSnapshot drops the captured partials the listing
	// shadows.
	partials, partialsGen := s.partials.capture()
	// What the previous refresh failed to check, this one checks again:
	// after a failed listing only a full one clears the error.
	full = full || s.listFailed
	var items []scanItem
	var err error
	if full {
		items, err = s.listDir()
	} else {
		items, err = s.listLanded(landed)
	}
	s.listFailed = err != nil
	if err != nil {
		s.ingestErrors.Inc()
		return nil, err
	}
	// batchStale outlives this call: what a failed refresh already
	// changed in the cache must still reach a batch view on the next one.
	parses, changed, err := s.cache.scan(items, full)
	s.traceParses.Add(int64(parses))
	s.batchStale = s.batchStale || changed
	if err == nil && (full || s.manifestStale) {
		changed, err = s.refreshManifest()
		s.batchStale = s.batchStale || changed
	}
	s.manifestStale = err != nil
	if err != nil {
		s.ingestErrors.Inc()
		return nil, err
	}

	// Streaming checkpoints change the live view without touching the
	// directory; their generation counter is the change signal.
	cur := s.snap.Load()
	if cur != nil && !s.batchStale && partialsGen == s.lastPartialsGen {
		s.snapshotHits.Inc()
		return cur, nil
	}
	s.snapshotMisses.Inc()

	next := s.buildSnapshot(partials, partialsGen)
	s.snap.Store(next)
	s.events.publish(next)
	s.ingests.Inc()
	s.ingestNS.Observe(time.Since(start).Nanoseconds())
	s.snapshotTasks.Set(int64(len(next.batch.traces)))
	s.recordHistory(next)
	return next, nil
}

// listDir is the full listing: every trace file in the directory,
// stat'ed, in directory order. Startup, the poller, every request and
// the manifest push refresh from it, so a file an outside writer put in
// the directory is seen by the next of them. It is the package's one
// listing of the trace directory.
func (s *Server) listDir() ([]scanItem, error) {
	s.dirScans.Inc()
	entries, err := os.ReadDir(s.cfg.Dir)
	if err != nil {
		return nil, fmt.Errorf("serve: scan %s: %w", s.cfg.Dir, err)
	}
	items := make([]scanItem, 0, len(entries))
	for _, e := range entries {
		if e.IsDir() || !trace.IsTraceFile(e.Name()) {
			continue
		}
		path := filepath.Join(s.cfg.Dir, e.Name())
		info, err := e.Info()
		if err != nil {
			return nil, fmt.Errorf("serve: stat %s: %w", path, err)
		}
		items = append(items, scanItem{path: path, size: info.Size(), mod: info.ModTime()})
	}
	return items, nil
}

// listLanded is the folder's listing, which lists no directory: the
// paths the folds landed or removed since the folder's last refresh and
// every path whose last revise failed, stat'ed, each marked gone when
// it is missing or a directory (listDir skips those). It costs the
// burst, not the cache: a burst of checkpoints, which land nothing in
// the directory, stats nothing; a final stats its own file and its
// removed twin. Only the stat'ed paths can fail a revise, and they come
// in directory order, so scan reports the error a full listing would.
func (s *Server) listLanded(landed []string) ([]scanItem, error) {
	stat := make([]string, 0, len(landed)+len(s.cache.failed))
	stat = append(stat, landed...)
	for path := range s.cache.failed {
		stat = append(stat, path)
	}
	sort.Strings(stat)
	items := make([]scanItem, 0, len(stat))
	for i, path := range stat {
		if i > 0 && path == stat[i-1] {
			continue
		}
		info, err := os.Lstat(path)
		if os.IsNotExist(err) || err == nil && info.IsDir() {
			items = append(items, scanItem{path: path, gone: true})
			continue
		}
		if err != nil {
			return nil, fmt.Errorf("serve: stat %s: %w", path, err)
		}
		items = append(items, scanItem{path: path, size: info.Size(), mod: info.ModTime()})
	}
	return items, nil
}

// refreshManifest takes dir/manifest.json up the same ladder as a trace
// file and reports whether the cached manifest changed.
func (s *Server) refreshManifest() (changed bool, err error) {
	path := filepath.Join(s.cfg.Dir, "manifest.json")
	info, err := os.Stat(path)
	if os.IsNotExist(err) {
		changed = s.cache.manifest.hash != ""
		s.cache.manifest = fileEntry{}
		return changed, nil
	}
	if err != nil {
		return false, fmt.Errorf("serve: stat %s: %w", path, err)
	}
	s.cache.manifest, changed, err = s.cache.manifest.revise(path, info.Size(), info.ModTime(), parseManifest)
	return changed, err
}

// buildSnapshot assembles a read-only snapshot of two views: the batch
// view of the current directory state — the previous snapshot's pointer
// unless a scan reported a change since it was built — and the live
// view of the checkpoints refresh captured, at generation partialsGen,
// before that scan. Each view's graphs come from its graph index, and
// the findings from the diagnose index: each index is synced to its
// trace set and patches in what changed since its last Sync.
func (s *Server) buildSnapshot(captured []*partialEntry, partialsGen uint64) *snapshot {
	cur := s.snap.Load()
	var batch *view
	if cur != nil && !s.batchStale {
		batch = cur.batch
	} else {
		batch = s.buildBatchView()
	}

	// The live view: captured checkpoints of tasks that have no final
	// trace in the batch view (a final always shadows a partial).
	partials := captured[:0]
	for _, pe := range captured {
		if !batch.taskSet[pe.trace.Task] {
			partials = append(partials, pe)
		}
	}
	snap := &snapshot{batch: batch, live: batch, partialTasks: len(partials)}
	if len(partials) > 0 {
		traces := make([]*trace.TaskTrace, 0, len(batch.traces)+len(partials))
		traces = append(traces, batch.traces...)
		snap.partialHashes = make(map[string]bool, len(partials))
		for _, pe := range partials {
			traces = append(traces, pe.trace)
			snap.partialHashes[pe.hash] = true
		}
		snap.live = s.buildView(traces, batch.manifest, s.liveGraphs)
	} else if s.liveGraphs.Len() > 0 {
		// The live set is the batch set: the live index follows it, so
		// the next checkpoint patches one task in, and keeps only what
		// the batch index holds. Its graphs equal the batch view's,
		// which the snapshot serves.
		s.syncGraphs(s.liveGraphs, batch.ordered, batch.manifest)
	}
	snap.id = snapshotID(batch, partials)
	// The findings of the live set: the index patches in the tasks that
	// were added, replaced (a checkpoint is a new trace under the same
	// name) or removed since the previous snapshot's.
	start := time.Now()
	snap.findings = s.diag.Sync(snap.live.ordered, batch.manifest)
	s.diagSyncNS.Observe(time.Since(start).Nanoseconds())
	s.diagRecomputed.Add(int64(snap.findings.Recomputed))
	s.diagReused.Add(int64(snap.findings.Reused))
	// What this snapshot saw, so refresh can tell when there is
	// something newer to build.
	s.batchStale, s.lastPartialsGen = false, partialsGen
	return snap
}

// buildBatchView builds the view of the current scan state and records
// the directory listing on it.
func (s *Server) buildBatchView() *view {
	paths := s.cache.paths()
	traces := make([]*trace.TaskTrace, 0, len(paths))
	taskSet := make(map[string]bool, len(paths))
	hashes := make(map[string]bool, len(paths))
	infoByTrace := make(map[*trace.TaskTrace]TaskInfo, len(paths))
	// The batch part of the snapshot id's preimage: the manifest hash and
	// every trace file's name and content hash, hashed once per batch
	// view (see snapshotID).
	id := sha256.New()
	line := append(make([]byte, 0, 128), "manifest:"...)
	line = append(line, s.cache.manifest.hash...)
	id.Write(line)
	for _, path := range paths {
		ent := s.cache.files[path]
		traces = append(traces, ent.trace)
		taskSet[ent.trace.Task] = true
		hashes[ent.hash] = true
		infoByTrace[ent.trace] = TaskInfo{
			Task: ent.trace.Task, File: path, Size: ent.size, Hash: ent.hash,
			ModTime: ent.modTime, StartNS: ent.trace.StartNS, EndNS: ent.trace.EndNS,
			Failed: ent.trace.Failed,
		}
		line = append(line[:0], '\n')
		line = append(line, filepath.Base(path)...)
		line = append(line, '=')
		line = append(line, ent.hash...)
		id.Write(line)
	}
	idState, err := id.(encoding.BinaryMarshaler).MarshalBinary()
	if err != nil {
		panic(err) // crypto/sha256 always marshals its state
	}
	batch := s.buildView(traces, s.cache.manifest.manifest, s.batchGraphs)
	batch.taskSet, batch.hashes, batch.idState = taskSet, hashes, idState
	batch.tasks = make([]TaskInfo, 0, len(batch.traces))
	for _, tt := range batch.traces {
		batch.tasks = append(batch.tasks, infoByTrace[tt])
	}
	return batch
}

// buildView builds the view of traces, given in directory order, under
// manifest m: the traces sorted exactly as trace.LoadDir sorts them, in
// the global task order, and the FTG and SDG of that order from the
// graph index ix.
func (s *Server) buildView(traces []*trace.TaskTrace, m *trace.Manifest, ix *analyzer.GraphIndex) *view {
	// LoadDir's final ordering: stable sort by task name over the
	// directory-ordered slice.
	sort.SliceStable(traces, func(i, j int) bool { return traces[i].Task < traces[j].Task })
	v := &view{traces: traces, ordered: analyzer.OrderTasks(traces, m), manifest: m}
	g := s.syncGraphs(ix, v.ordered, m)
	v.ftg, v.sdg = g.FTG, g.SDG
	return v
}

// syncGraphs syncs a graph index to ordered under m. The contributions the Sync
// computed count as contribution cache misses, the ones it kept or took
// from the other index as hits.
func (s *Server) syncGraphs(ix *analyzer.GraphIndex, ordered []*trace.TaskTrace, m *trace.Manifest) analyzer.Graphs {
	start := time.Now()
	g := ix.Sync(ordered, m)
	s.graphSyncNS.Observe(time.Since(start).Nanoseconds())
	s.contribMisses.Add(int64(g.Recomputed))
	s.contribHits.Add(int64(g.Reused))
	return g
}

// recordHistory appends a converged snapshot (no live partials — a
// half-streamed state is not a state worth replaying) to the history
// store, rendering the recorded bodies through the batch view's render
// cache so history replay and live responses share bytes by
// construction.
// History failures degrade /healthz; they never block serving.
func (s *Server) recordHistory(snap *snapshot) {
	if s.hist == nil || snap.partialTasks > 0 {
		return
	}
	// Through the batch view's render cache, so a request for the same
	// body — from this snapshot or a later one sharing the view — is
	// served the recorded bytes.
	ftgBody, _, err := snap.batch.rendered.get("ftg.json", func() ([]byte, error) { return renderGraph(snap.batch.ftg, "json") })
	if err != nil {
		s.histErr.Store(&ingestError{err: fmt.Errorf("serve: history render ftg: %w", err), when: time.Now()})
		return
	}
	sdgBody, _, err := snap.batch.rendered.get("sdg.json", func() ([]byte, error) { return renderGraph(snap.batch.sdg, "json") })
	if err != nil {
		s.histErr.Store(&ingestError{err: fmt.Errorf("serve: history render sdg: %w", err), when: time.Now()})
		return
	}
	if _, err := s.hist.Append(snap.id, time.Now().UTC(), len(snap.batch.tasks), ftgBody, sdgBody); err != nil {
		s.histErr.Store(&ingestError{err: err, when: time.Now()})
		return
	}
	s.histErr.Store(nil)
}

// snapshotID is the content address of the whole served state: the
// SHA-256 of the manifest hash, every trace file's name and content
// hash, and every retained streaming checkpoint's task, hash and
// sequence number, one line each. The batch view already hashed its
// lines: this resumes that state and hashes the checkpoint lines only.
func snapshotID(batch *view, partials []*partialEntry) string {
	h := sha256.New()
	if err := h.(encoding.BinaryUnmarshaler).UnmarshalBinary(batch.idState); err != nil {
		panic(err) // the state is crypto/sha256's own marshalling
	}
	if len(partials) > 0 {
		lines := make([]string, len(partials))
		for i, pe := range partials {
			lines[i] = "partial:" + pe.trace.Task + "=" + pe.hash + "@" + strconv.FormatUint(pe.seq, 10)
		}
		sort.Strings(lines)
		buf := make([]byte, 0, len(partials)*128)
		for _, line := range lines {
			buf = append(buf, '\n')
			buf = append(buf, line...)
		}
		h.Write(buf)
	}
	return hex.EncodeToString(h.Sum(nil))
}
