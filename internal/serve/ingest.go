package serve

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
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

// refresh rescans the trace directory and, when its content changed,
// builds and atomically publishes a new snapshot. It is the single
// writer: callers must hold s.ingestMu. Returns the current snapshot
// (possibly the unchanged one) or the scan error.
func (s *Server) refresh() (*snapshot, error) {
	start := time.Now()
	// The partials are captured before the directory is listed: a final
	// lands its file and then retracts its partial, so a task finishing
	// meanwhile is in this capture, in the listing, or in both — never in
	// neither. buildSnapshot drops the captured partials the listing
	// shadows.
	partials, partialsGen := s.partials.capture()
	entries, err := os.ReadDir(s.cfg.Dir)
	if err != nil {
		s.ingestErrors.Inc()
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
			s.ingestErrors.Inc()
			return nil, fmt.Errorf("serve: stat %s: %w", path, err)
		}
		items = append(items, scanItem{path: path, size: info.Size(), mod: info.ModTime()})
	}
	// batchStale outlives this call: what a failed refresh already
	// changed in the cache must still reach a batch view on the next one.
	parses, changed, err := s.cache.scan(items)
	s.traceParses.Add(int64(parses))
	s.batchStale = s.batchStale || changed
	if err == nil {
		changed, err = s.refreshManifest()
		s.batchStale = s.batchStale || changed
	}
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
	s.snapshotTasks.Set(int64(len(next.traces)))
	s.recordHistory(next)
	return next, nil
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

// buildSnapshot assembles a read-only snapshot: the batch view of the
// current directory state — the previous snapshot's pointer unless a
// scan reported a change since it was built — under the live overlay of
// the checkpoints refresh captured, at generation partialsGen, before
// that scan.
func (s *Server) buildSnapshot(captured []*partialEntry, partialsGen uint64) *snapshot {
	var batch *batchView
	if cur := s.snap.Load(); cur != nil && !s.batchStale {
		batch = cur.batchView
	} else {
		batch = s.buildBatchView()
	}

	// The live overlay: captured checkpoints of tasks that have no final
	// trace in the batch view (a final always shadows a partial).
	partials := captured[:0]
	for _, pe := range captured {
		if !batch.taskSet[pe.trace.Task] {
			partials = append(partials, pe)
		}
	}

	// With zero partials the live view IS the batch view: aliasing the
	// graphs (and, in the handlers, the render keys) makes live and
	// batch responses byte-identical once a stream completes.
	snap := &snapshot{
		batchView:  batch,
		liveTraces: batch.traces, liveFTG: batch.ftg, liveSDG: batch.sdg,
		partialTasks: len(partials),
	}
	ordered := batch.ordered
	if len(partials) == 0 {
		s.cache.release(livePass)
	} else {
		live := make([]*trace.TaskTrace, 0, len(batch.traces)+len(partials))
		live = append(live, batch.traces...)
		partialHash := make(map[*trace.TaskTrace]string, len(partials))
		snap.partialHashes = make(map[string]bool, len(partials))
		for _, pe := range partials {
			live = append(live, pe.trace)
			partialHash[pe.trace] = pe.hash
			snap.partialHashes[pe.hash] = true
		}
		sort.SliceStable(live, func(i, j int) bool { return live[i].Task < live[j].Task })
		ordered = analyzer.OrderTasks(live, batch.manifest)
		lf, ls := s.contributions(livePass, ordered, func(tt *trace.TaskTrace) string {
			if hash, ok := batch.traceHash[tt]; ok {
				return hash
			}
			return partialHash[tt]
		})
		snap.liveTraces = live
		snap.liveFTG = analyzer.BuildFTGFromContributions(lf)
		snap.liveSDG = analyzer.BuildSDGFromContributions(ls)
	}
	snap.id = snapshotID(batch, partials)
	// The findings of the live set: the index patches in the tasks that
	// were added, replaced (a checkpoint is a new trace under the same
	// name) or removed since the previous snapshot's.
	start := time.Now()
	snap.findings = s.diag.Sync(ordered, batch.manifest)
	s.diagSyncNS.Observe(time.Since(start).Nanoseconds())
	s.diagRecomputed.Add(int64(snap.findings.Recomputed))
	s.diagReused.Add(int64(snap.findings.Reused))
	// Keep exactly the contributions the batch view was built from and
	// this overlay used: earlier revisions of changed traces, superseded
	// checkpoint records and stale description-fingerprint variants are
	// unreachable once the snapshot swaps.
	s.cache.prune()
	// What this snapshot saw, so refresh can tell when there is
	// something newer to build.
	s.batchStale, s.lastPartialsGen = false, partialsGen
	return snap
}

// buildBatchView assembles the batch half of a snapshot from the
// current scan state: traces sorted exactly as trace.LoadDir sorts
// them, one contribution per task in the global task order (cached, or
// computed and cached now), and both graphs merged exactly as the batch
// builders merge them.
func (s *Server) buildBatchView() *batchView {
	paths := s.cache.paths()

	batch := &batchView{
		traces:    make([]*trace.TaskTrace, 0, len(paths)),
		manifest:  s.cache.manifest.manifest,
		taskSet:   make(map[string]bool, len(paths)),
		hashes:    make(map[string]bool, len(paths)),
		traceHash: make(map[*trace.TaskTrace]string, len(paths)),
	}
	infoByTrace := make(map[*trace.TaskTrace]TaskInfo, len(paths))
	var id strings.Builder
	id.WriteString("manifest:")
	id.WriteString(s.cache.manifest.hash)
	for _, path := range paths {
		ent := s.cache.files[path]
		batch.traces = append(batch.traces, ent.trace)
		batch.taskSet[ent.trace.Task] = true
		batch.hashes[ent.hash] = true
		batch.traceHash[ent.trace] = ent.hash
		infoByTrace[ent.trace] = TaskInfo{
			Task: ent.trace.Task, File: path, Size: ent.size, Hash: ent.hash,
			ModTime: ent.modTime, StartNS: ent.trace.StartNS, EndNS: ent.trace.EndNS,
			Failed: ent.trace.Failed,
		}
		id.WriteString("\n")
		id.WriteString(filepath.Base(path))
		id.WriteString("=")
		id.WriteString(ent.hash)
	}
	batch.idLines = id.String()
	// LoadDir's final ordering: stable sort by task name over the
	// directory-ordered slice.
	sort.SliceStable(batch.traces, func(i, j int) bool { return batch.traces[i].Task < batch.traces[j].Task })
	batch.tasks = make([]TaskInfo, 0, len(batch.traces))
	for _, tt := range batch.traces {
		batch.tasks = append(batch.tasks, infoByTrace[tt])
	}

	batch.ordered = analyzer.OrderTasks(batch.traces, batch.manifest)
	ftgContribs, sdgContribs := s.contributions(batchPass, batch.ordered,
		func(tt *trace.TaskTrace) string { return batch.traceHash[tt] })
	batch.ftg = analyzer.BuildFTGFromContributions(ftgContribs)
	batch.sdg = analyzer.BuildSDGFromContributions(sdgContribs)
	return batch
}

// contributions runs one view's contribution pass over its ordered
// trace set and counts the pass's two cache lookups per task.
func (s *Server) contributions(v view, ordered []*trace.TaskTrace, hashOf func(*trace.TaskTrace) string) (ftg, sdg []analyzer.Contribution) {
	ftg, sdg, misses := s.cache.contribute(v, ordered, hashOf, analyzer.BuildObjectDescs(ordered), s.cfg.SDGOptions)
	s.contribMisses.Add(int64(misses))
	s.contribHits.Add(int64(2*len(ordered) - misses))
	return ftg, sdg
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
	ftgBody, _, err := snap.rendered.get("ftg.json", func() ([]byte, error) { return renderGraph(snap.ftg, "json") })
	if err != nil {
		s.histErr.Store(&ingestError{err: fmt.Errorf("serve: history render ftg: %w", err), when: time.Now()})
		return
	}
	sdgBody, _, err := snap.rendered.get("sdg.json", func() ([]byte, error) { return renderGraph(snap.sdg, "json") })
	if err != nil {
		s.histErr.Store(&ingestError{err: fmt.Errorf("serve: history render sdg: %w", err), when: time.Now()})
		return
	}
	if _, err := s.hist.Append(snap.id, time.Now().UTC(), len(snap.tasks), ftgBody, sdgBody); err != nil {
		s.histErr.Store(&ingestError{err: err, when: time.Now()})
		return
	}
	s.histErr.Store(nil)
}

// snapshotID is the content address of the whole served state: the
// manifest hash, every trace file's name and content hash, and every
// retained streaming checkpoint's task, hash and sequence number.
func snapshotID(batch *batchView, partials []*partialEntry) string {
	lines := make([]string, len(partials))
	for i, pe := range partials {
		lines[i] = fmt.Sprintf("partial:%s=%s@%d", pe.trace.Task, pe.hash, pe.seq)
	}
	sort.Strings(lines)
	preimage := make([]byte, 0, len(batch.idLines)+len(lines)*128)
	preimage = append(preimage, batch.idLines...)
	for _, line := range lines {
		preimage = append(preimage, '\n')
		preimage = append(preimage, line...)
	}
	return trace.HashBytes(preimage)
}
