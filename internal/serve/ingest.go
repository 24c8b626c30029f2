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

// TaskInfo is one row of the /v1/tasks listing.
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
	changed := false
	for k := 0; k < n; k++ {
		if errBy[k] != nil {
			s.ingestErrors.Inc()
			return nil, errBy[k]
		}
		changed = changed || changedBy[k]
	}
	if err := s.refreshManifest(&changed); err != nil {
		s.ingestErrors.Inc()
		return nil, err
	}
	// Streaming checkpoints change the live view without touching the
	// directory; their generation counter is the change signal.
	if s.partials.generation() != s.lastPartialsGen {
		changed = true
	}

	cur := s.snap.Load()
	if cur != nil && !changed {
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

// buildSnapshot assembles a read-only snapshot from the current scan
// state: traces sorted exactly as trace.LoadDir sorts them, per-task
// contributions gathered from the shard workers (each computing and
// caching only its missing ones) and stitched back into the global
// task order, and both graphs merged exactly as the batch builders
// merge them — which is why the shard count can never leak into the
// output bytes.
func (s *Server) buildSnapshot() (*snapshot, error) {
	paths := s.coord.Paths() // sorted: directory order, as os.ReadDir yields it

	traces := make([]*trace.TaskTrace, 0, len(paths))
	hashByTrace := make(map[*trace.TaskTrace]string, len(paths))
	infoByTrace := make(map[*trace.TaskTrace]TaskInfo, len(paths))
	hashes := make(map[string]bool, len(paths))
	for _, path := range paths {
		ent, ok := s.coord.File(path)
		if !ok {
			return nil, fmt.Errorf("serve: shard cache lost %s mid-build", path)
		}
		traces = append(traces, ent.Trace)
		hashByTrace[ent.Trace] = ent.Hash
		hashes[ent.Hash] = true
		infoByTrace[ent.Trace] = TaskInfo{
			Task: ent.Trace.Task, File: path, Size: ent.Size, Hash: ent.Hash,
			ModTime: ent.ModTime, StartNS: ent.Trace.StartNS, EndNS: ent.Trace.EndNS,
			Failed: ent.Trace.Failed,
		}
	}
	// LoadDir's final ordering: stable sort by task name over the
	// directory-ordered slice.
	sort.SliceStable(traces, func(i, j int) bool { return traces[i].Task < traces[j].Task })

	// Capture the live overlay: retained streaming checkpoints for
	// tasks that have no final trace on disk yet (a final always
	// shadows a partial). lastPartialsGen records what the snapshot
	// saw, so refresh can detect later checkpoint activity.
	batchTasks := make(map[string]bool, len(traces))
	for _, tt := range traces {
		batchTasks[tt.Task] = true
	}
	var partialTraces []*trace.TaskTrace
	var partialLines []string
	var partials []*partialEntry
	partials, s.lastPartialsGen = s.partials.capture(batchTasks)
	for _, pe := range partials {
		partialTraces = append(partialTraces, pe.trace)
		hashByTrace[pe.trace] = pe.hash
		hashes[pe.hash] = true
		partialLines = append(partialLines, fmt.Sprintf("partial:%s=%s@%d", pe.trace.Task, pe.hash, pe.seq))
	}
	sort.Strings(partialLines)

	ordered := analyzer.OrderTasks(traces, s.manifest)
	descs := analyzer.BuildObjectDescs(ordered)
	ftgContribs, sdgContribs, err := s.contributions(ordered, descs, hashByTrace)
	if err != nil {
		return nil, err
	}

	infos := make([]TaskInfo, 0, len(traces))
	for _, tt := range traces {
		infos = append(infos, infoByTrace[tt])
	}

	snap := &snapshot{
		id:       s.snapshotID(paths, partialLines),
		traces:   traces,
		manifest: s.manifest,
		tasks:    infos,
		hashes:   hashes,
		ftg:      analyzer.BuildFTGFromContributions(ftgContribs),
		sdg:      analyzer.BuildSDGFromContributions(sdgContribs),
		rendered: map[string][]byte{},
	}
	// With zero partials the live view IS the batch view: aliasing the
	// graphs (and, in the handlers, the render keys) makes live and
	// batch responses byte-identical once a stream completes.
	snap.liveTraces, snap.liveFTG, snap.liveSDG = snap.traces, snap.ftg, snap.sdg
	if len(partialTraces) > 0 {
		live := make([]*trace.TaskTrace, 0, len(traces)+len(partialTraces))
		live = append(append(live, traces...), partialTraces...)
		sort.SliceStable(live, func(i, j int) bool { return live[i].Task < live[j].Task })
		liveOrdered := analyzer.OrderTasks(live, s.manifest)
		liveDescs := analyzer.BuildObjectDescs(liveOrdered)
		lf, ls, err := s.contributions(liveOrdered, liveDescs, hashByTrace)
		if err != nil {
			return nil, err
		}
		snap.liveTraces = live
		snap.liveFTG = analyzer.BuildFTGFromContributions(lf)
		snap.liveSDG = analyzer.BuildSDGFromContributions(ls)
		snap.partialTasks = len(partialTraces)
	}
	// Keep exactly the contributions this snapshot (batch and live)
	// used: earlier revisions of changed traces, superseded checkpoint
	// records and stale description-fingerprint variants are
	// unreachable once the snapshot swaps.
	s.coord.Prune()
	return snap, nil
}

// contributions fans one ordered trace set out to the shard workers
// (each serving its slice from cache or computing the misses) and
// stitches the per-shard sets back into the global task order. A
// stitch error means the partition invariant broke — it surfaces as an
// ingest error rather than publishing a graph with a hole.
func (s *Server) contributions(ordered []*trace.TaskTrace, descs analyzer.ObjectDescs, hashByTrace map[*trace.TaskTrace]string) ([]analyzer.Contribution, []analyzer.Contribution, error) {
	tasks := make([]shard.Task, len(ordered))
	for i, tt := range ordered {
		tasks[i] = shard.Task{Pos: i, Trace: tt, Hash: hashByTrace[tt]}
	}
	sets := s.coord.Gather(
		shard.Request{Tasks: tasks, Descs: descs, Opts: s.cfg.SDGOptions},
		shard.Metrics{Hit: s.contribHits.Inc, Miss: s.contribMisses.Inc},
	)
	return shard.Stitch(len(ordered), sets)
}

// recordHistory appends a converged snapshot (no live partials — a
// half-streamed state is not a state worth replaying) to the history
// store, seeding the snapshot's render cache with the recorded bodies
// so history replay and live responses share bytes by construction.
// History failures degrade /healthz; they never block serving.
func (s *Server) recordHistory(snap *snapshot) {
	if s.hist == nil || snap.partialTasks > 0 {
		return
	}
	ftgBody, err := renderGraph(snap.ftg, "json")
	if err != nil {
		s.histErr.Store(&ingestError{err: fmt.Errorf("serve: history render ftg: %w", err), when: time.Now()})
		return
	}
	sdgBody, err := renderGraph(snap.sdg, "json")
	if err != nil {
		s.histErr.Store(&ingestError{err: fmt.Errorf("serve: history render sdg: %w", err), when: time.Now()})
		return
	}
	snap.mu.Lock()
	if _, ok := snap.rendered["ftg.json"]; !ok {
		snap.rendered["ftg.json"] = ftgBody
	}
	if _, ok := snap.rendered["sdg.json"]; !ok {
		snap.rendered["sdg.json"] = sdgBody
	}
	snap.mu.Unlock()
	if _, err := s.hist.Append(snap.id, time.Now().UTC(), len(snap.tasks), ftgBody, sdgBody); err != nil {
		s.histErr.Store(&ingestError{err: err, when: time.Now()})
		return
	}
	s.histErr.Store(nil)
}

// snapshotID is the content address of the whole served state: the
// manifest hash, every trace file's name and content hash, and every
// retained streaming checkpoint's task, hash and sequence number.
func (s *Server) snapshotID(paths []string, partialLines []string) string {
	var b strings.Builder
	b.WriteString("manifest:")
	b.WriteString(s.manifestState.hash)
	for _, path := range paths {
		ent, _ := s.coord.File(path)
		b.WriteString("\n")
		b.WriteString(filepath.Base(path))
		b.WriteString("=")
		b.WriteString(ent.Hash)
	}
	for _, line := range partialLines {
		b.WriteString("\n")
		b.WriteString(line)
	}
	return trace.HashBytes([]byte(b.String()))
}
