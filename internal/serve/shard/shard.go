// Package shard partitions the serve package's ingest state across N
// workers so trace parsing and per-task contribution computation scale
// past one goroutine, Chimbuko-style (PAPERS.md), without giving up
// the repo's byte-identical-to-batch contract.
//
// The partition function is FNV-1a(key) % N — the same routing idiom
// the analyzer's shard-then-stitch merge uses — over two key spaces:
// directory trace files route by file name, pushed traces and
// checkpoints route by task name. Each worker owns its slice of the
// parsed-trace cache and the per-task FTG/SDG contribution caches;
// nothing is shared between workers, so a scan or contribution pass
// fans out with no locking.
//
// Determinism is the coordinator's job: every contribution a worker
// returns is tagged with its task's position in the global task order
// (analyzer.OrderTasks), and Stitch reassembles the global slice from
// per-shard sets regardless of the order they arrive in, tolerating
// duplicate delivery from a shard. The stitched slice feeds
// analyzer.Build{FTG,SDG}FromContributions — the exact merge the batch
// CLI uses — so the output bytes cannot depend on the shard count or
// on scheduling.
package shard

import (
	"time"

	"dayu/internal/analyzer"
	"dayu/internal/trace"
)

// MaxShards bounds the worker count: past a few dozen workers the
// stitch dominates, and the CLI flag should not be able to spawn an
// absurd number of goroutines per scan.
const MaxShards = 64

// Router assigns cache keys to shards by FNV-1a hash. The assignment
// depends only on the key bytes and the shard count, never on
// scheduling, so a restart with the same count routes identically.
type Router struct {
	n int
}

// NewRouter builds a router over n shards, clamped to [1, MaxShards].
func NewRouter(n int) Router {
	if n < 1 {
		n = 1
	}
	if n > MaxShards {
		n = MaxShards
	}
	return Router{n: n}
}

// Shards reports the clamped shard count.
func (r Router) Shards() int { return r.n }

// Route maps a key to its owning shard: FNV-1a(key) % N.
func (r Router) Route(key string) int {
	const (
		offset32 = 2166136261
		prime32  = 16777619
	)
	h := uint32(offset32)
	for i := 0; i < len(key); i++ {
		h ^= uint32(key[i])
		h *= prime32
	}
	return int(h % uint32(r.n))
}

// Entry is one parsed trace file in a worker's cache: the stat
// short-circuit fields (size, mtime), the authoritative content hash,
// and the decoded trace.
type Entry struct {
	Size    int64
	ModTime time.Time
	Hash    string
	Trace   *trace.TaskTrace
}

// View names the half of a snapshot a contribution pass builds: the
// batch view (final traces on disk) or the live overlay (the same set
// extended with retained checkpoints). Each worker remembers the cache
// keys the latest pass of each view touched; Prune keeps their union.
type View int

const (
	Batch View = iota
	Live
	numViews
)

// sdgKey addresses one cached SDG contribution: the trace content hash
// plus the fingerprint of the object descriptions the task references.
type sdgKey struct{ trace, descs string }

// passKeys is what one pass of one view touched in a worker's caches.
type passKeys struct {
	ftg map[string]bool
	sdg map[sdgKey]bool
}

// Worker owns one shard's slice of the parsed-trace and contribution
// caches. Worker methods are NOT safe for concurrent use on the same
// worker; the coordinator (and the serve scan loop) run at most one
// goroutine per worker at a time, which is the whole point of the
// partition.
type Worker struct {
	idx   int
	files map[string]Entry
	ftg   map[string]analyzer.Contribution
	sdg   map[sdgKey]analyzer.Contribution

	// The keys each view's latest pass touched: the working set the
	// caches are trimmed to, so superseded revisions never accumulate
	// while everything a published view was built from stays cached.
	used [numViews]passKeys
}

func newWorker(idx int) *Worker {
	return &Worker{
		idx:   idx,
		files: map[string]Entry{},
		ftg:   map[string]analyzer.Contribution{},
		sdg:   map[sdgKey]analyzer.Contribution{},
	}
}

// Index reports the worker's shard index.
func (w *Worker) Index() int { return w.idx }

// File returns the cached entry for path, if present.
func (w *Worker) File(path string) (Entry, bool) {
	e, ok := w.files[path]
	return e, ok
}

// PutFile installs (or replaces) the cached entry for path.
func (w *Worker) PutFile(path string, e Entry) {
	w.files[path] = e
}

// TouchFile refreshes the stat short-circuit fields of an existing
// entry whose content did not change (a touched-but-equal file).
func (w *Worker) TouchFile(path string, size int64, mod time.Time) {
	if e, ok := w.files[path]; ok {
		e.Size, e.ModTime = size, mod
		w.files[path] = e
	}
}

// SweepFiles drops every cached path not present in seen and reports
// whether anything was dropped (a deletion observed by the scan).
func (w *Worker) SweepFiles(seen map[string]bool) bool {
	changed := false
	for path := range w.files {
		if !seen[path] {
			delete(w.files, path)
			changed = true
		}
	}
	return changed
}

// FileCount reports how many parsed traces the worker holds.
func (w *Worker) FileCount() int { return len(w.files) }

// EachFile visits every cached (path, entry) pair in map order.
func (w *Worker) EachFile(fn func(path string, e Entry)) {
	for path, e := range w.files {
		fn(path, e)
	}
}

// Metrics carries the contribution cache hit/miss hooks; either func
// may be nil.
type Metrics struct {
	Hit  func()
	Miss func()
}

func (m Metrics) hit() {
	if m.Hit != nil {
		m.Hit()
	}
}

func (m Metrics) miss() {
	if m.Miss != nil {
		m.Miss()
	}
}

// contribute computes (or serves from cache) this worker's share of a
// contribution pass and returns it as a Set tagged with global task
// positions. FTG contributions are keyed by the trace content hash;
// SDG contributions additionally by the fingerprint of the object
// descriptions the task references. The keys touched replace the
// view's previous working set.
func (w *Worker) contribute(req Request, m Metrics) Set {
	set := Set{
		Shard: w.idx,
		FTG:   make([]Tagged, 0, len(req.Tasks)),
		SDG:   make([]Tagged, 0, len(req.Tasks)),
	}
	used := passKeys{
		ftg: make(map[string]bool, len(req.Tasks)),
		sdg: make(map[sdgKey]bool, len(req.Tasks)),
	}
	for _, task := range req.Tasks {
		used.ftg[task.Hash] = true
		c, ok := w.ftg[task.Hash]
		if ok {
			m.hit()
		} else {
			m.miss()
			c = analyzer.FTGContribution(task.Trace)
			w.ftg[task.Hash] = c
		}
		set.FTG = append(set.FTG, Tagged{Pos: task.Pos, C: c})

		key := sdgKey{trace: task.Hash, descs: req.Descs.Fingerprint(task.Trace)}
		used.sdg[key] = true
		c, ok = w.sdg[key]
		if ok {
			m.hit()
		} else {
			m.miss()
			c = analyzer.SDGContribution(task.Trace, req.Descs, req.Opts)
			w.sdg[key] = c
		}
		set.SDG = append(set.SDG, Tagged{Pos: task.Pos, C: c})
	}
	w.used[req.View] = used
	return set
}

// prune trims both contribution caches to the union of the keys each
// view's latest pass touched. The serve snapshot builder calls it once
// per published snapshot, so earlier revisions of changed traces and
// superseded checkpoint contributions are unreachable immediately —
// while a refresh that rebuilt only the live overlay evicts nothing the
// batch view it shares was built from.
func (w *Worker) prune() {
	for hash := range w.ftg {
		if !w.used[Batch].ftg[hash] && !w.used[Live].ftg[hash] {
			delete(w.ftg, hash)
		}
	}
	for key := range w.sdg {
		if !w.used[Batch].sdg[key] && !w.used[Live].sdg[key] {
			delete(w.sdg, key)
		}
	}
}
