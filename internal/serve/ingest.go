package serve

// Snapshot building: refresh brings the build cache up to a listing and
// buildSnapshot publishes the views of what it holds. Both are built
// from the change since the last snapshot — the cache entries the
// scans changed, the checkpoints that moved — which edits the views'
// TaskSets by binary search and is handed to the graph and diagnose
// indexes, so a snapshot costs the records it shows, not the state
// (DESIGN.md §9). What still grows with the state is counted on
// /metrics: the id bytes a final re-hashes, and, should a fallback run,
// the tasks it sorts or diffs and the scopes it walks.

import (
	"crypto/sha256"
	"encoding"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strconv"
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
// before that scan.
//
// Both are built from the change, not the state. The batch change is
// what the scans did to the build cache since the last batch view (the
// paths a final landed or removed, for the folder); the live change is
// the batch change plus the checkpoints that joined, replaced or left
// the live set since the last snapshot. Each change edits its TaskSet —
// both orders, by binary search — and is handed to the view's graph
// index and, for the live view, to the diagnose index, which patch
// what it touches. A snapshot with no checkpoint retained serves the
// batch view as its live view.
func (s *Server) buildSnapshot(captured []*partialEntry, partialsGen uint64) *snapshot {
	cur := s.snap.Load()
	var batch *view
	var batchCh analyzer.Change
	reset := false
	if cur != nil && !s.batchStale {
		batch = cur.batch
	} else {
		var prev *view
		if cur != nil {
			prev = cur.batch
		}
		batch, batchCh, reset = s.buildBatchView(prev)
	}
	m := batch.manifest

	// The live view: captured checkpoints of tasks that have no final
	// trace in the batch view (a final always shadows a partial). Its
	// change against the previous live set is the batch change and the
	// checkpoints that moved.
	partials := captured[:0]
	for _, pe := range captured {
		if !batch.taskSet[pe.trace.Task] {
			partials = append(partials, pe)
		}
	}
	liveCh := analyzer.Change{
		Removed: slices.Clone(batchCh.Removed),
		Added:   slices.Clone(batchCh.Added),
	}
	retained := make(map[string]*partialEntry, len(partials))
	for _, pe := range partials {
		retained[pe.trace.Task] = pe
		if prev := s.livePartials[pe.trace.Task]; prev != pe {
			if prev != nil {
				liveCh.Removed = append(liveCh.Removed, prev.trace)
			}
			liveCh.Added = append(liveCh.Added, pe.trace)
		}
	}
	for task, prev := range s.livePartials {
		if retained[task] == nil {
			liveCh.Removed = append(liveCh.Removed, prev.trace)
		}
	}
	s.livePartials = retained
	if !reset {
		applied, sorted, ok := s.liveSet.Apply(liveCh, m)
		s.snapshotSorted.Add(int64(sorted))
		liveCh, reset = applied, !ok
	}
	if reset {
		// The fallback: the batch set's name order, then the checkpoints,
		// sorted by name as trace.LoadDir would sort them.
		traces := make([]*trace.TaskTrace, 0, len(batch.traces)+len(partials))
		traces = append(traces, batch.traces...)
		for _, pe := range partials {
			traces = append(traces, pe.trace)
		}
		s.snapshotSorted.Add(int64(s.liveSet.Reset(traces, m)))
	}

	snap := &snapshot{batch: batch, live: batch, partialTasks: len(partials)}
	if len(partials) > 0 {
		snap.partialHashes = make(map[string]bool, len(partials))
		for _, pe := range partials {
			snap.partialHashes[pe.hash] = true
		}
		snap.live = s.setView(&s.liveSet, s.liveGraphs, liveCh)
	} else if s.liveGraphs.Len() > 0 {
		// The live set is the batch set: the live index follows it, so
		// the next checkpoint patches one task in, and keeps only what
		// the batch index holds. Its graphs equal the batch view's,
		// which the snapshot serves.
		s.applyGraphs(s.liveGraphs, batch.ordered, m, liveCh)
	}
	if len(partials) > 1 {
		s.snapshotSorted.Add(int64(len(partials))) // snapshotID sorts their lines
	}
	snap.id = snapshotID(batch, partials)
	// The findings of the live set: the index patches in the tasks that
	// were added, replaced (a checkpoint is a new trace under the same
	// name) or removed since the previous snapshot's.
	start := time.Now()
	snap.findings = s.diag.Apply(snap.live.ordered, m, liveCh)
	s.diagSyncNS.Observe(time.Since(start).Nanoseconds())
	s.diagRecomputed.Add(int64(snap.findings.Recomputed))
	s.diagReused.Add(int64(snap.findings.Reused))
	s.scopesWalked.Add(int64(snap.findings.Walked))
	s.repositioned.Add(int64(snap.findings.Repositioned))
	// What this snapshot saw, so refresh can tell when there is
	// something newer to build.
	s.batchStale, s.lastPartialsGen = false, partialsGen
	return snap
}

// idLine is one trace file's line of the snapshot id's preimage.
type idLine struct {
	path, line string
}

// buildBatchView builds the batch view of the current scan state from
// prev, the previous one, and the changes the scans recorded since it
// (buildCache.pending): the trace set, the /v1/tasks rows, the content
// hashes and the id lines are edited at the changed paths, and the
// graphs patched. Only the id's SHA-256 state is recomputed over every
// line. A first build, and a change the batch TaskSet refuses (two
// traces under one task name), build from the whole cache instead. It
// returns the view, the change to its trace set, and whether the trace
// set was rebuilt.
func (s *Server) buildBatchView(prev *view) (batch *view, ch analyzer.Change, reset bool) {
	c := s.cache
	m := c.manifest.manifest
	type change struct {
		path     string
		old, cur fileEntry
	}
	changes := make([]change, 0, len(c.pending))
	for path, old := range c.pending {
		changes = append(changes, change{path, old, c.files[path]})
	}
	clear(c.pending)
	if len(changes) > 1 {
		slices.SortFunc(changes, func(a, b change) int { return strings.Compare(a.path, b.path) })
		s.snapshotSorted.Add(int64(len(changes)))
	}
	namesKept := true
	for _, ch1 := range changes {
		if ch1.old.trace == ch1.cur.trace {
			continue
		}
		if ch1.old.trace != nil {
			ch.Removed = append(ch.Removed, ch1.old.trace)
		}
		if ch1.cur.trace != nil {
			ch.Added = append(ch.Added, ch1.cur.trace)
		}
		namesKept = namesKept && ch1.old.trace != nil && ch1.cur.trace != nil && ch1.old.trace.Task == ch1.cur.trace.Task
	}

	batch = &view{manifest: m}
	reset = prev == nil
	if !reset {
		applied, sorted, ok := s.batchSet.Apply(ch, m)
		s.snapshotSorted.Add(int64(sorted))
		ch, reset = applied, !ok
	}
	if reset {
		paths := c.paths()
		s.snapshotSorted.Add(int64(len(paths)))
		traces := make([]*trace.TaskTrace, 0, len(paths))
		batch.hashes = make([]string, 0, len(paths))
		s.idLines = s.idLines[:0]
		for _, path := range paths {
			ent := c.files[path]
			traces = append(traces, ent.trace)
			batch.hashes = append(batch.hashes, ent.hash)
			s.idLines = append(s.idLines, newIDLine(path, ent.hash))
		}
		slices.Sort(batch.hashes)
		s.snapshotSorted.Add(int64(s.batchSet.Reset(traces, m)))
		// The rows in trace.LoadDir's order: by task name, stable over
		// the path order.
		rows := slices.Clone(paths)
		slices.SortStableFunc(rows, func(a, b string) int { return strings.Compare(c.files[a].trace.Task, c.files[b].trace.Task) })
		s.snapshotSorted.Add(int64(len(rows)))
		batch.tasks = make([]TaskInfo, len(rows))
		for i, path := range rows {
			batch.tasks[i] = taskInfo(path, c.files[path])
		}
		namesKept = false
	} else {
		batch.tasks = slices.Clone(prev.tasks)
		batch.hashes = slices.Clone(prev.hashes)
		for _, ch1 := range changes {
			if ch1.old.hash != "" {
				i, _ := slices.BinarySearchFunc(batch.tasks, rowKey{ch1.old.trace.Task, ch1.path}, compareRow)
				batch.tasks = slices.Delete(batch.tasks, i, i+1)
				j, _ := slices.BinarySearch(batch.hashes, ch1.old.hash)
				batch.hashes = slices.Delete(batch.hashes, j, j+1)
				k, _ := slices.BinarySearchFunc(s.idLines, ch1.path, compareIDLine)
				s.idLines = slices.Delete(s.idLines, k, k+1)
			}
			if ch1.cur.hash != "" {
				i, _ := slices.BinarySearchFunc(batch.tasks, rowKey{ch1.cur.trace.Task, ch1.path}, compareRow)
				batch.tasks = slices.Insert(batch.tasks, i, taskInfo(ch1.path, ch1.cur))
				j, _ := slices.BinarySearch(batch.hashes, ch1.cur.hash)
				batch.hashes = slices.Insert(batch.hashes, j, ch1.cur.hash)
				k, _ := slices.BinarySearchFunc(s.idLines, ch1.path, compareIDLine)
				s.idLines = slices.Insert(s.idLines, k, newIDLine(ch1.path, ch1.cur.hash))
			}
		}
	}
	batch.traces, batch.ordered = s.batchSet.Traces(), s.batchSet.Ordered()
	if namesKept && prev != nil {
		batch.taskSet = prev.taskSet
	} else {
		batch.taskSet = make(map[string]bool, len(batch.tasks))
		for _, ti := range batch.tasks {
			batch.taskSet[ti.Task] = true
		}
	}

	// The batch part of the snapshot id's preimage: the manifest hash and
	// every trace file's name and content hash, hashed once per batch
	// view (see snapshotID).
	buf := append(s.idBuf[:0], "manifest:"...)
	buf = append(buf, c.manifest.hash...)
	for _, l := range s.idLines {
		buf = append(buf, l.line...)
	}
	s.idBuf = buf
	id := sha256.New()
	id.Write(buf)
	s.idBytesHashed.Add(int64(len(buf)))
	idState, err := id.(encoding.BinaryMarshaler).MarshalBinary()
	if err != nil {
		panic(err) // crypto/sha256 always marshals its state
	}
	batch.idState = idState

	g := s.applyGraphs(s.batchGraphs, batch.ordered, m, ch)
	batch.ftg, batch.sdg = g.FTG, g.SDG
	return batch, ch, reset
}

func newIDLine(path, hash string) idLine {
	return idLine{path: path, line: "\n" + filepath.Base(path) + "=" + hash}
}

func compareIDLine(l idLine, path string) int { return strings.Compare(l.path, path) }

// rowKey is where a /v1/tasks row sorts: by task, then by path.
type rowKey struct{ task, path string }

func compareRow(ti TaskInfo, k rowKey) int {
	if c := strings.Compare(ti.Task, k.task); c != 0 {
		return c
	}
	return strings.Compare(ti.File, k.path)
}

func taskInfo(path string, ent fileEntry) TaskInfo {
	return TaskInfo{
		Task: ent.trace.Task, File: path, Size: ent.size, Hash: ent.hash,
		ModTime: ent.modTime, StartNS: ent.trace.StartNS, EndNS: ent.trace.EndNS,
		Failed: ent.trace.Failed,
	}
}

// setView is the view of a TaskSet after change ch, its graphs from ix.
func (s *Server) setView(set *analyzer.TaskSet, ix *analyzer.GraphIndex, ch analyzer.Change) *view {
	v := &view{traces: set.Traces(), ordered: set.Ordered(), manifest: set.Manifest()}
	g := s.applyGraphs(ix, v.ordered, v.manifest, ch)
	v.ftg, v.sdg = g.FTG, g.SDG
	return v
}

// applyGraphs brings a graph index to ordered under m, the set it was
// last brought to edited by ch. The contributions it computed count as
// contribution cache misses, the ones it kept or took from the other
// index as hits.
func (s *Server) applyGraphs(ix *analyzer.GraphIndex, ordered []*trace.TaskTrace, m *trace.Manifest, ch analyzer.Change) analyzer.Graphs {
	start := time.Now()
	g := ix.Apply(ordered, m, ch)
	s.graphSyncNS.Observe(time.Since(start).Nanoseconds())
	s.contribMisses.Add(int64(g.Recomputed))
	s.contribHits.Add(int64(g.Reused))
	s.repositioned.Add(int64(g.Repositioned))
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
