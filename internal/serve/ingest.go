package serve

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"

	"dayu/internal/analyzer"
	"dayu/internal/serve/shard"
	"dayu/internal/trace"
)

// fileState identifies one on-disk file revision. Size and
// modification time short-circuit the scan (an untouched file is not
// even re-read); the content hash is the authoritative identity — a
// rewritten file with identical bytes maps to the same cached work.
type fileState struct {
	size    int64
	modTime time.Time
	hash    string
}

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

// scanItem is one directory entry routed to a shard worker for the
// stat/hash/parse pipeline.
type scanItem struct {
	path string
	size int64
	mod  time.Time
}

// refresh rescans the trace directory and, when its content changed,
// builds and atomically publishes a new snapshot. It is the single
// writer: callers must hold s.ingestMu. Returns the current snapshot
// (possibly the unchanged one) or the scan/build error.
func (s *Server) refresh() (*snapshot, error) {
	start := time.Now()
	entries, err := os.ReadDir(s.cfg.Dir)
	if err != nil {
		s.ingestErrors.Inc()
		return nil, fmt.Errorf("serve: scan %s: %w", s.cfg.Dir, err)
	}

	// Partition the directory listing by owning shard worker, then fan
	// the stat/hash/parse work out with one goroutine per worker: each
	// worker touches only its own cache slice, so no locking is needed
	// beyond the ingestMu the caller already holds.
	n := s.coord.Shards()
	byShard := make([][]scanItem, n)
	seenByShard := make([]map[string]bool, n)
	for k := range seenByShard {
		seenByShard[k] = map[string]bool{}
	}
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
		k := s.coord.RouteFile(path)
		seenByShard[k][path] = true
		byShard[k] = append(byShard[k], scanItem{path: path, size: info.Size(), mod: info.ModTime()})
	}
	changedBy := make([]bool, n)
	errBy := make([]error, n)
	var wg sync.WaitGroup
	for k := 0; k < n; k++ {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			changedBy[k], errBy[k] = s.scanShard(s.coord.Worker(k), byShard[k], seenByShard[k])
		}(k)
	}
	wg.Wait()
	// batchStale outlives this call: worker caches a failed refresh
	// already changed must still reach a batch view on the next one.
	var scanErr error
	for k := 0; k < n; k++ {
		s.batchStale = s.batchStale || changedBy[k]
		if scanErr == nil {
			scanErr = errBy[k]
		}
	}
	if scanErr != nil {
		s.ingestErrors.Inc()
		return nil, scanErr
	}
	if err := s.refreshManifest(&s.batchStale); err != nil {
		s.ingestErrors.Inc()
		return nil, err
	}

	// Streaming checkpoints change the live view without touching the
	// directory; their generation counter is the change signal.
	cur := s.snap.Load()
	if cur != nil && !s.batchStale && s.partials.generation() == s.lastPartialsGen {
		s.snapshotHits.Inc()
		return cur, nil
	}
	s.snapshotMisses.Inc()

	next, err := s.buildSnapshot()
	if err != nil {
		s.ingestErrors.Inc()
		return nil, err
	}
	s.snap.Store(next)
	s.events.publish(next)
	s.ingests.Inc()
	s.ingestNS.Observe(time.Since(start).Nanoseconds())
	s.snapshotTasks.Set(int64(len(next.traces)))
	s.recordHistory(next)
	return next, nil
}

// scanShard runs one worker's slice of the directory scan: the stat
// short-circuit, the hash check for touched-but-equal files, parsing
// what actually changed, and sweeping deletions. It reports whether
// the worker's cache changed.
func (s *Server) scanShard(w *shard.Worker, items []scanItem, seen map[string]bool) (bool, error) {
	changed := false
	for _, it := range items {
		prev, ok := w.File(it.path)
		if ok && prev.Size == it.size && prev.ModTime.Equal(it.mod) {
			continue // untouched: not even re-read
		}
		// Stat changed (or new file): re-read and re-hash; only a
		// content change forces a re-parse.
		if ok {
			hash, err := trace.HashFile(it.path)
			if err != nil {
				return changed, err
			}
			if hash == prev.Hash {
				w.TouchFile(it.path, it.size, it.mod)
				continue
			}
		}
		tt, hash, err := trace.LoadHashed(it.path)
		if err != nil {
			return changed, err
		}
		s.traceParses.Inc()
		w.PutFile(it.path, shard.Entry{Size: it.size, ModTime: it.mod, Hash: hash, Trace: tt})
		changed = true
	}
	if w.SweepFiles(seen) {
		changed = true
	}
	return changed, nil
}

// refreshManifest reloads dir/manifest.json when its bytes changed.
func (s *Server) refreshManifest(changed *bool) error {
	path := filepath.Join(s.cfg.Dir, "manifest.json")
	info, err := os.Stat(path)
	if os.IsNotExist(err) {
		if s.manifest != nil || s.manifestState.hash != "" {
			s.manifest, s.manifestState = nil, fileState{}
			*changed = true
		}
		return nil
	}
	if err != nil {
		return fmt.Errorf("serve: stat %s: %w", path, err)
	}
	if s.manifestState.hash != "" && s.manifestState.size == info.Size() &&
		s.manifestState.modTime.Equal(info.ModTime()) {
		return nil
	}
	hash, err := trace.HashFile(path)
	if err != nil {
		return err
	}
	if hash == s.manifestState.hash {
		s.manifestState.size, s.manifestState.modTime = info.Size(), info.ModTime()
		return nil
	}
	m, err := trace.LoadManifest(s.cfg.Dir)
	if err != nil {
		return err
	}
	s.manifest = m
	s.manifestState = fileState{size: info.Size(), modTime: info.ModTime(), hash: hash}
	*changed = true
	return nil
}

// buildSnapshot assembles a read-only snapshot: the batch view of the
// current directory state — the previous snapshot's pointer unless a
// scan reported a change since it was built — under the live overlay of
// whatever checkpoints are retained right now.
func (s *Server) buildSnapshot() (*snapshot, error) {
	var batch *batchView
	if cur := s.snap.Load(); cur != nil && !s.batchStale {
		batch = cur.batchView
	} else {
		var err error
		if batch, err = s.buildBatchView(); err != nil {
			return nil, err
		}
	}

	// Capture the live overlay: retained streaming checkpoints for
	// tasks that have no final trace on disk yet (a final always
	// shadows a partial).
	partials, partialsGen := s.partials.capture(batch.taskSet)

	// With zero partials the live view IS the batch view: aliasing the
	// graphs (and, in the handlers, the render keys) makes live and
	// batch responses byte-identical once a stream completes.
	snap := &snapshot{
		batchView:  batch,
		liveTraces: batch.traces, liveFTG: batch.ftg, liveSDG: batch.sdg,
		partialTasks: len(partials),
	}
	if len(partials) == 0 {
		s.coord.Release(shard.Live)
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
		lf, ls, err := s.contributions(shard.Live, analyzer.OrderTasks(live, batch.manifest), func(tt *trace.TaskTrace) string {
			if hash, ok := batch.traceHash[tt]; ok {
				return hash
			}
			return partialHash[tt]
		})
		if err != nil {
			return nil, err
		}
		snap.liveTraces = live
		snap.liveFTG = analyzer.BuildFTGFromContributions(lf)
		snap.liveSDG = analyzer.BuildSDGFromContributions(ls)
	}
	snap.id = snapshotID(batch, partials)
	// Keep exactly the contributions the batch view was built from and
	// this overlay used: earlier revisions of changed traces, superseded
	// checkpoint records and stale description-fingerprint variants are
	// unreachable once the snapshot swaps.
	s.coord.Prune()
	// What this snapshot saw, so refresh can tell when there is
	// something newer to build.
	s.batchStale, s.lastPartialsGen = false, partialsGen
	return snap, nil
}

// buildBatchView assembles the batch half of a snapshot from the
// current scan state: traces sorted exactly as trace.LoadDir sorts
// them, per-task contributions gathered from the shard workers (each
// computing and caching only its missing ones) and stitched back into
// the global task order, and both graphs merged exactly as the batch
// builders merge them — which is why the shard count can never leak
// into the output bytes.
func (s *Server) buildBatchView() (*batchView, error) {
	paths := s.coord.Paths() // sorted: directory order, as os.ReadDir yields it

	batch := &batchView{
		traces:    make([]*trace.TaskTrace, 0, len(paths)),
		manifest:  s.manifest,
		taskSet:   make(map[string]bool, len(paths)),
		hashes:    make(map[string]bool, len(paths)),
		traceHash: make(map[*trace.TaskTrace]string, len(paths)),
	}
	infoByTrace := make(map[*trace.TaskTrace]TaskInfo, len(paths))
	var id strings.Builder
	id.WriteString("manifest:")
	id.WriteString(s.manifestState.hash)
	for _, path := range paths {
		ent, ok := s.coord.File(path)
		if !ok {
			return nil, fmt.Errorf("serve: shard cache lost %s mid-build", path)
		}
		batch.traces = append(batch.traces, ent.Trace)
		batch.taskSet[ent.Trace.Task] = true
		batch.hashes[ent.Hash] = true
		batch.traceHash[ent.Trace] = ent.Hash
		infoByTrace[ent.Trace] = TaskInfo{
			Task: ent.Trace.Task, File: path, Size: ent.Size, Hash: ent.Hash,
			ModTime: ent.ModTime, StartNS: ent.Trace.StartNS, EndNS: ent.Trace.EndNS,
			Failed: ent.Trace.Failed,
		}
		id.WriteString("\n")
		id.WriteString(filepath.Base(path))
		id.WriteString("=")
		id.WriteString(ent.Hash)
	}
	batch.idLines = id.String()
	// LoadDir's final ordering: stable sort by task name over the
	// directory-ordered slice.
	sort.SliceStable(batch.traces, func(i, j int) bool { return batch.traces[i].Task < batch.traces[j].Task })
	batch.tasks = make([]TaskInfo, 0, len(batch.traces))
	for _, tt := range batch.traces {
		batch.tasks = append(batch.tasks, infoByTrace[tt])
	}

	ftgContribs, sdgContribs, err := s.contributions(shard.Batch, analyzer.OrderTasks(batch.traces, s.manifest),
		func(tt *trace.TaskTrace) string { return batch.traceHash[tt] })
	if err != nil {
		return nil, err
	}
	batch.ftg = analyzer.BuildFTGFromContributions(ftgContribs)
	batch.sdg = analyzer.BuildSDGFromContributions(sdgContribs)
	return batch, nil
}

// contributions fans one view's ordered trace set out to the shard
// workers (each serving its slice from cache or computing the misses)
// and stitches the per-shard sets back into the global task order. A
// stitch error means the partition invariant broke — it surfaces as an
// ingest error rather than publishing a graph with a hole.
func (s *Server) contributions(view shard.View, ordered []*trace.TaskTrace, hashOf func(*trace.TaskTrace) string) ([]analyzer.Contribution, []analyzer.Contribution, error) {
	tasks := make([]shard.Task, len(ordered))
	for i, tt := range ordered {
		tasks[i] = shard.Task{Pos: i, Trace: tt, Hash: hashOf(tt)}
	}
	sets := s.coord.Gather(
		shard.Request{View: view, Tasks: tasks, Descs: analyzer.BuildObjectDescs(ordered), Opts: s.cfg.SDGOptions},
		shard.Metrics{Hit: s.contribHits.Inc, Miss: s.contribMisses.Inc},
	)
	return shard.Stitch(len(ordered), sets)
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
