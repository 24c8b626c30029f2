package shard

import (
	"fmt"
	"path/filepath"
	"sort"

	"dayu/internal/analyzer"
	"dayu/internal/trace"
)

// Task is one unit of a contribution pass: a trace, its content hash
// (the contribution cache key) and its position in the global task
// order produced by analyzer.OrderTasks.
type Task struct {
	Pos   int
	Trace *trace.TaskTrace
	Hash  string
}

// Request is one contribution pass over an ordered trace set, on
// behalf of one snapshot view. Descs must come from
// analyzer.BuildObjectDescs over the FULL ordered set — SDG
// contributions are functions of the global description index, not of
// one shard's slice — which is why the coordinator computes it once and
// fans it out.
type Request struct {
	View  View
	Tasks []Task
	Descs analyzer.ObjectDescs
	Opts  analyzer.Options
}

// Tagged is one contribution carrying its global task position.
type Tagged struct {
	Pos int
	C   analyzer.Contribution
}

// Set is one worker's batch of contributions for one pass. Sets arrive
// at the coordinator in completion order, which is scheduling-dependent;
// Stitch makes the assembled output independent of it.
type Set struct {
	Shard int
	FTG   []Tagged
	SDG   []Tagged
}

// Coordinator owns the workers and the routing function. Gather runs
// one goroutine per worker; the caller (the serve single-writer ingest
// path) must not run two passes concurrently.
type Coordinator struct {
	router  Router
	workers []*Worker
}

// NewCoordinator builds a coordinator over n workers (clamped like
// NewRouter).
func NewCoordinator(n int) *Coordinator {
	r := NewRouter(n)
	workers := make([]*Worker, r.Shards())
	for i := range workers {
		workers[i] = newWorker(i)
	}
	return &Coordinator{router: r, workers: workers}
}

// Shards reports the worker count.
func (c *Coordinator) Shards() int { return len(c.workers) }

// Route maps a key to its owning shard index.
func (c *Coordinator) Route(key string) int { return c.router.Route(key) }

// Worker returns the worker for shard idx.
func (c *Coordinator) Worker(idx int) *Worker { return c.workers[idx] }

// Paths returns every cached trace file path across all workers,
// sorted (the global scan order the snapshot builder needs).
func (c *Coordinator) Paths() []string {
	n := 0
	for _, w := range c.workers {
		n += w.FileCount()
	}
	paths := make([]string, 0, n)
	for _, w := range c.workers {
		w.EachFile(func(path string, _ Entry) { paths = append(paths, path) })
	}
	sort.Strings(paths)
	return paths
}

// RouteFile maps a trace file path to its owning shard: directory
// entries route by base name (stable across directories, independent
// of the watched path), pushed records route by task name via Route.
func (c *Coordinator) RouteFile(path string) int {
	return c.router.Route(filepath.Base(path))
}

// File looks up a cached entry by path, routing by base name exactly
// as the scan partition does.
func (c *Coordinator) File(path string) (Entry, bool) {
	return c.workers[c.RouteFile(path)].File(path)
}

// Gather fans the request out to the workers and returns the sets of
// those that own at least one of its tasks, in completion order —
// deliberately nondeterministic, so tests and CI exercise Stitch's
// order independence on every run. A worker that owns none of the
// tasks still forgets what the view's previous pass used.
func (c *Coordinator) Gather(req Request, m Metrics) []Set {
	byShard := make([][]Task, len(c.workers))
	for _, task := range req.Tasks {
		k := c.router.Route(task.Trace.Task)
		byShard[k] = append(byShard[k], task)
	}
	ch := make(chan Set, len(c.workers))
	launched := 0
	for k, tasks := range byShard {
		if len(tasks) == 0 {
			c.workers[k].used[req.View] = passKeys{}
			continue
		}
		launched++
		go func(w *Worker, tasks []Task) {
			ch <- w.contribute(Request{View: req.View, Tasks: tasks, Descs: req.Descs, Opts: req.Opts}, m)
		}(c.workers[k], tasks)
	}
	sets := make([]Set, 0, launched)
	for i := 0; i < launched; i++ {
		sets = append(sets, <-ch)
	}
	return sets
}

// Release forgets what the view's latest pass used (the live overlay
// dissolved: zero partials), so the next Prune drops whatever only that
// view kept alive.
func (c *Coordinator) Release(v View) {
	for _, w := range c.workers {
		w.used[v] = passKeys{}
	}
}

// Prune trims every worker's contribution caches to the union of what
// each view's latest pass used.
func (c *Coordinator) Prune() {
	for _, w := range c.workers {
		w.prune()
	}
}

// CachedContributions reports how many FTG and SDG contributions the
// workers hold between them. Test-only accessor: the shard and serve
// tests pin the caches' bound with it; nothing in the server reads it.
func (c *Coordinator) CachedContributions() (ftg, sdg int) {
	for _, w := range c.workers {
		ftg, sdg = ftg+len(w.ftg), sdg+len(w.sdg)
	}
	return ftg, sdg
}

// Stitch reassembles per-shard contribution sets into the two global
// contribution slices, in task order, independent of the order the
// sets arrived in. Duplicate delivery from the same shard is tolerated
// (a redelivered set restates the same positions and is skipped); two
// different shards claiming the same position, an out-of-range
// position, or a position no set covers are errors — they mean the
// partition itself is broken, and building a graph from a hole would
// silently diverge from batch output.
func Stitch(n int, sets []Set) (ftg, sdg []analyzer.Contribution, err error) {
	ftg = make([]analyzer.Contribution, n)
	sdg = make([]analyzer.Contribution, n)
	ftgOwner := make([]int, n)
	sdgOwner := make([]int, n)
	for i := range ftgOwner {
		ftgOwner[i] = -1
		sdgOwner[i] = -1
	}
	place := func(kind string, owner []int, out []analyzer.Contribution, shard int, tagged []Tagged) error {
		for _, tg := range tagged {
			if tg.Pos < 0 || tg.Pos >= n {
				return fmt.Errorf("shard: stitch: %s position %d out of range [0,%d) from shard %d", kind, tg.Pos, n, shard)
			}
			if owner[tg.Pos] == shard {
				continue // duplicate delivery of the same set
			}
			if owner[tg.Pos] != -1 {
				return fmt.Errorf("shard: stitch: %s position %d claimed by shards %d and %d", kind, tg.Pos, owner[tg.Pos], shard)
			}
			owner[tg.Pos] = shard
			out[tg.Pos] = tg.C
		}
		return nil
	}
	for _, set := range sets {
		if err := place("ftg", ftgOwner, ftg, set.Shard, set.FTG); err != nil {
			return nil, nil, err
		}
		if err := place("sdg", sdgOwner, sdg, set.Shard, set.SDG); err != nil {
			return nil, nil, err
		}
	}
	for i := 0; i < n; i++ {
		if ftgOwner[i] == -1 || sdgOwner[i] == -1 {
			missing := 0
			for j := 0; j < n; j++ {
				if ftgOwner[j] == -1 || sdgOwner[j] == -1 {
					missing++
				}
			}
			return nil, nil, fmt.Errorf("shard: stitch: %d of %d positions uncovered (first gap at %d)", missing, n, i)
		}
	}
	return ftg, sdg, nil
}
