package workflow

import (
	"errors"
	"fmt"
	"os"
	"sort"
	"strconv"
	"sync"
	"time"

	"dayu/internal/hdf5"
	"dayu/internal/obs"
	"dayu/internal/sim"
	"dayu/internal/trace"
	"dayu/internal/tracer"
	"dayu/internal/vfd"
)

// Cluster binds a Table III machine to a node count.
type Cluster struct {
	Machine sim.Machine
	Nodes   int
	// Parallel executes the tasks of a stage on goroutines, each with
	// its own Data Semantic Mapper instance (the paper's per-process
	// profilers). Virtual timing is identical to sequential execution;
	// only host wall time changes.
	Parallel bool
}

// TaskResult is one task's simulated outcome.
type TaskResult struct {
	Name    string
	Stage   string
	Node    int
	IO      time.Duration
	Compute time.Duration
	// Backoff is virtual wait accumulated between retry attempts.
	Backoff time.Duration
	// Attempts is how many times the task executed (1 without faults).
	Attempts int
	// Failed marks a task whose final attempt errored; IO and Ops cover
	// the work it performed (and was billed for) before giving up.
	Failed bool
	Ops    sim.Summary
}

// Time is the task's total virtual time.
func (t TaskResult) Time() time.Duration { return t.IO + t.Compute + t.Backoff }

// StageResult aggregates one stage (or staging pseudo-stage).
type StageResult struct {
	Name string
	// Time is the stage's virtual wall time (slowest task times waves).
	Time time.Duration
	// Async marks costs excluded from the critical path.
	Async bool
	Tasks []TaskResult
}

// Result is a completed workflow execution.
type Result struct {
	Workflow string
	Stages   []StageResult
	Traces   []*trace.TaskTrace
	Manifest *trace.Manifest
	// OpsByTask maps task -> file -> recorded sim ops (for layout
	// experiments and ablations).
	OpsByTask map[string]map[string][]sim.Op
}

// Total returns the critical-path virtual time (async stages excluded).
func (r *Result) Total() time.Duration {
	var total time.Duration
	for _, s := range r.Stages {
		if !s.Async {
			total += s.Time
		}
	}
	return total
}

// SaveTraces persists every task trace plus the manifest to dir in
// the given serialization format, creating dir if needed. This is the
// engine's store-emission path: `dayu run -format` and the bench
// harnesses share it so trace directories always carry a manifest and
// a uniform format.
func (r *Result) SaveTraces(dir string, format trace.Format) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("workflow: save traces: %w", err)
	}
	for _, tt := range r.Traces {
		if _, err := tt.SaveFormat(dir, format); err != nil {
			return err
		}
	}
	if r.Manifest == nil {
		return nil
	}
	return trace.SaveManifest(dir, r.Manifest)
}

// StageTime returns the virtual time of the named stage (0 if absent).
func (r *Result) StageTime(name string) time.Duration {
	for _, s := range r.Stages {
		if s.Name == name {
			return s.Time
		}
	}
	return 0
}

// Engine executes workflow specs on a simulated cluster.
type Engine struct {
	cluster Cluster
	plan    *Plan
	tcfg    tracer.Config
	mu      sync.Mutex // guards files under parallel execution
	files   map[string]*fileStore
	// warm tracks plan-cached files already pulled into the memory
	// buffer by an earlier stage's access.
	warm map[string]bool
	// faults, when non-nil, wraps every task file session in a seeded
	// vfd.FaultDriver (SetFaults).
	faults *vfd.FaultPlan
	// retry, when non-nil, re-executes failed tasks from a rolled-back
	// snapshot (SetRetry).
	retry *RetryPolicy
	// metrics, when non-nil, receives engine counters, histograms and
	// virtual-time spans plus per-session VFD op metrics (SetMetrics).
	metrics *obs.Registry
}

// SetMetrics attaches an observability registry. The engine emits
// stage/task spans billed on the virtual-time axis, retry/rollback/
// failure counters, and instruments every task file session's driver
// stack. A nil registry (the default) disables all of it: no decorator
// is installed and the run path does zero metrics work.
func (e *Engine) SetMetrics(r *obs.Registry) { e.metrics = r }

// NewEngine builds an engine. plan may be nil (baseline execution:
// everything on the machine's default shared storage, round-robin
// scheduling).
func NewEngine(cluster Cluster, plan *Plan, tcfg tracer.Config) (*Engine, error) {
	if cluster.Nodes <= 0 {
		return nil, fmt.Errorf("workflow: cluster needs at least one node")
	}
	if err := plan.Validate(cluster.Machine, cluster.Nodes); err != nil {
		return nil, err
	}
	return &Engine{
		cluster: cluster,
		plan:    plan,
		tcfg:    tcfg,
		files:   map[string]*fileStore{},
		warm:    map[string]bool{},
	}, nil
}

// Run executes the spec and returns the simulated result.
func (e *Engine) Run(spec Spec) (*Result, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	res := &Result{
		Workflow:  spec.Name,
		Manifest:  buildManifest(spec),
		OpsByTask: map[string]map[string][]sim.Op{},
	}
	for _, stage := range spec.Stages {
		if files := stageFiles(e.plan, stage.Name, true); len(files) > 0 {
			res.Stages = append(res.Stages, e.transferStage("stage-in:"+stage.Name, files, false))
		}
		sr, drain, err := e.runStage(stage, res)
		res.Stages = append(res.Stages, sr)
		if drain > 0 {
			res.Stages = append(res.Stages, StageResult{
				Name: "async-drain:" + stage.Name, Time: drain, Async: true,
			})
		}
		if err != nil {
			// Partial failure: downstream stages cannot trust this stage's
			// outputs, so execution stops here - but the result still
			// carries every trace and op log recorded so far, including
			// the failed tasks' own observations.
			e.emitMetrics(res)
			return res, fmt.Errorf("workflow: stage %q: %w", stage.Name, err)
		}
		if files := stageFiles(e.plan, stage.Name, false); len(files) > 0 {
			async := e.plan != nil && e.plan.AsyncStageOut
			res.Stages = append(res.Stages, e.transferStage("stage-out:"+stage.Name, files, async))
		}
	}
	e.emitMetrics(res)
	return res, nil
}

// emitMetrics bills the completed (or partially completed) run into the
// metrics registry. Spans are stamped with virtual-time nanoseconds
// derived from the deterministic stage/task durations - the same run
// always yields the same span timeline - and every task attempt beyond
// the first counts as one retry plus one snapshot rollback (a failed
// final attempt rolls back too, without a retry).
func (e *Engine) emitMetrics(res *Result) {
	if e.metrics == nil {
		return
	}
	reg := e.metrics
	stages := reg.Counter("dayu_engine_stages_total")
	tasks := reg.Counter("dayu_engine_tasks_total")
	retries := reg.Counter("dayu_engine_task_retries_total")
	rollbacks := reg.Counter("dayu_engine_rollbacks_total")
	failures := reg.Counter("dayu_engine_task_failures_total")
	stageNS := reg.Histogram("dayu_engine_stage_virtual_ns", obs.LatencyBuckets())
	ioNS := reg.Histogram(obs.Name("dayu_engine_task_virtual_ns", "phase", "io"), obs.LatencyBuckets())
	computeNS := reg.Histogram(obs.Name("dayu_engine_task_virtual_ns", "phase", "compute"), obs.LatencyBuckets())
	backoffNS := reg.Histogram(obs.Name("dayu_engine_task_virtual_ns", "phase", "backoff"), obs.LatencyBuckets())

	var cursor time.Duration
	for _, s := range res.Stages {
		start := cursor.Nanoseconds()
		attrs := map[string]string{"stage": s.Name, "workflow": res.Workflow}
		if s.Async {
			attrs["async"] = "true"
		}
		reg.AddSpan("stage", start, start+s.Time.Nanoseconds(), attrs)
		stages.Inc()
		stageNS.Observe(s.Time.Nanoseconds())
		for _, t := range s.Tasks {
			tattrs := map[string]string{
				"task": t.Name, "stage": s.Name,
				"node": strconv.Itoa(t.Node), "attempts": strconv.Itoa(t.Attempts),
			}
			if t.Failed {
				tattrs["failed"] = "true"
			}
			reg.AddSpan("task", start, start+t.Time().Nanoseconds(), tattrs)
			tasks.Inc()
			ioNS.Observe(t.IO.Nanoseconds())
			computeNS.Observe(t.Compute.Nanoseconds())
			if t.Backoff > 0 {
				backoffNS.Observe(t.Backoff.Nanoseconds())
			}
			if t.Attempts > 1 {
				retries.Add(int64(t.Attempts - 1))
				rollbacks.Add(int64(t.Attempts - 1))
			}
			if t.Failed {
				failures.Inc()
				rollbacks.Inc()
			}
		}
		if !s.Async {
			cursor += s.Time
		}
	}
	reg.Gauge("dayu_engine_virtual_total_ns").Set(res.Total().Nanoseconds())
}

func stageFiles(p *Plan, stage string, in bool) []string {
	if p == nil {
		return nil
	}
	if in {
		return p.StageIn[stage]
	}
	return p.StageOut[stage]
}

// transferStage models copying files over the interconnect, parallel
// across destination nodes.
func (e *Engine) transferStage(name string, files []string, async bool) StageResult {
	net := e.cluster.Machine.Network
	perNode := map[int]time.Duration{}
	for _, f := range files {
		pl := e.plan.placementOf(f)
		e.mu.Lock()
		st, ok := e.files[f]
		e.mu.Unlock()
		var size int64
		if ok {
			size = st.Size()
		}
		perNode[pl.Node] += net.TransferCost(size)
	}
	var max time.Duration
	for _, t := range perNode {
		if t > max {
			max = t
		}
	}
	return StageResult{Name: name, Time: max, Async: async}
}

// runStage executes each task of the stage (sequentially or on
// goroutines), records traces and op logs, then computes the stage's
// virtual time with device contention. Every task gets its own tracer,
// mirroring DaYu's per-process profiler state.
func (e *Engine) runStage(stage Stage, res *Result) (StageResult, time.Duration, error) {
	type taskRun struct {
		task    Task
		node    int
		ops     map[string][]sim.Op
		compute time.Duration
		trace   *trace.TaskTrace
		err     error
		// Resilience bookkeeping.
		attempts     int
		backoff      time.Duration
		faultLatency time.Duration
	}
	runs := make([]taskRun, len(stage.Tasks))

	// exec runs one task to success or final failure. Each attempt gets a
	// fresh tracer and TaskContext; a failed attempt closes its files
	// (traced failure-path I/O), rolls the store back to the pre-attempt
	// snapshot, and - if the error is retryable and attempts remain -
	// re-executes after a virtual backoff, optionally on a different node.
	// All I/O the task actually issued, including failed attempts', is
	// kept for billing: retries are not free.
	exec := func(i int) {
		task := stage.Tasks[i]
		base := i % e.cluster.Nodes
		if e.plan != nil {
			if n, ok := e.plan.NodeOf[task.Name]; ok {
				base = n
			}
		}
		maxAttempts := e.retry.attempts()
		excluded := map[int]bool{}
		node := base
		allOps := map[string][]sim.Op{}
		var backoff, faultLat time.Duration
		for attempt := 1; ; attempt++ {
			tr := tracer.New(e.tcfg)
			tr.BeginTask(task.Name)
			tc := &TaskContext{engine: e, tracer: tr, task: task.Name,
				node: node, attempt: attempt, opLog: &vfd.OpLog{}}
			err := task.Fn(tc)
			if err == nil {
				err = tc.closeAll()
			}
			if err != nil {
				tc.abort()
			}
			byFile := map[string][]sim.Op{}
			for _, op := range tc.opLog.Ops {
				byFile[op.File] = append(byFile[op.File], op.SimOp())
			}
			for f, ops := range byFile {
				allOps[f] = append(allOps[f], ops...)
			}
			faultLat += tc.faultLatency()
			if err != nil {
				tc.rollback()
				excluded[node] = true
				if attempt < maxAttempts && e.retry.retryable(err) {
					backoff += e.retry.backoffFor(attempt)
					if e.retry.Reschedule {
						node = rescheduleNode(base, excluded, e.cluster.Nodes)
					}
					continue
				}
				runs[i] = taskRun{task: task, node: node, ops: allOps,
					compute: tc.computeTime, trace: tr.EndTask(),
					attempts: attempt, backoff: backoff, faultLatency: faultLat,
					err: fmt.Errorf("workflow: task %q: %w", task.Name, err)}
				return
			}
			tc.commit()
			compute := task.Compute + tc.computeTime
			if task.ComputePerByte > 0 {
				var dataBytes int64
				for _, ops := range byFile {
					for _, op := range ops {
						if op.Class == sim.RawData {
							dataBytes += op.Bytes
						}
					}
				}
				compute += time.Duration(task.ComputePerByte * float64(dataBytes))
			}
			runs[i] = taskRun{task: task, node: node, ops: allOps, compute: compute,
				trace: tr.EndTask(), attempts: attempt, backoff: backoff, faultLatency: faultLat}
			return
		}
	}
	if e.cluster.Parallel {
		var wg sync.WaitGroup
		for i := range stage.Tasks {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				exec(i)
			}(i)
		}
		wg.Wait()
	} else {
		for i := range stage.Tasks {
			exec(i)
		}
	}
	// Partial-failure aggregation: every task that ran - failed or not -
	// contributes its trace and op log; task errors are joined into one
	// stage error instead of discarding the stage.
	var errs []error
	for i := range runs {
		r := &runs[i]
		if r.trace != nil {
			r.trace.Attempts = r.attempts
			r.trace.Failed = r.err != nil
			// Stream the completed trace only now: Attempts/Failed are
			// part of the record, so emitting from EndTask would ship
			// bytes that differ from what SaveTraces persists.
			if sink := e.tcfg.Sink; sink != nil {
				sink.EmitFinal(r.trace)
			}
			res.Traces = append(res.Traces, r.trace)
		}
		res.OpsByTask[r.task.Name] = r.ops
		if r.err != nil {
			errs = append(errs, r.err)
		}
	}

	// Device contention: count stage tasks touching each device instance.
	accessors := map[string]int{}
	for _, r := range runs {
		seen := map[string]bool{}
		for file := range r.ops {
			k := e.instanceKey(file, r.node)
			if !seen[k] {
				seen[k] = true
				accessors[k]++
			}
		}
	}

	sr := StageResult{Name: stage.Name}
	var maxTime, maxDrain time.Duration
	for _, r := range runs {
		var io, taskDrain time.Duration
		var all []sim.Op
		// Deterministic order over files.
		files := make([]string, 0, len(r.ops))
		for f := range r.ops {
			files = append(files, f)
		}
		sort.Strings(files)
		for _, file := range files {
			ops := r.ops[file]
			all = append(all, ops...)
			cost, drain, err := e.ioCost(file, r.node, ops, accessors)
			if err != nil {
				return sr, 0, err
			}
			io += cost
			taskDrain += drain
		}
		if taskDrain > maxDrain {
			maxDrain = taskDrain
		}
		tres := TaskResult{
			Name: r.task.Name, Stage: stage.Name, Node: r.node,
			IO: io + r.faultLatency, Compute: r.compute, Backoff: r.backoff,
			Attempts: r.attempts, Failed: r.err != nil, Ops: sim.Summarize(all),
		}
		sr.Tasks = append(sr.Tasks, tres)
		if tres.Time() > maxTime {
			maxTime = tres.Time()
		}
	}
	// Tasks beyond the cluster's core capacity execute in waves.
	capacity := e.cluster.Nodes * e.cluster.Machine.CoresPerNode
	waves := (len(runs) + capacity - 1) / capacity
	if waves < 1 {
		waves = 1
	}
	sr.Time = maxTime * time.Duration(waves)
	// Accesses this stage warm the memory buffer for cached files (under
	// e.mu: warm is engine state shared with ioCost).
	e.mu.Lock()
	for _, r := range runs {
		for file := range r.ops {
			if e.plan.cached(file) {
				e.warm[file] = true
			}
		}
	}
	e.mu.Unlock()
	return sr, maxDrain, errors.Join(errs...)
}

// instanceKey identifies the contended device instance a file access
// lands on from a given node.
func (e *Engine) instanceKey(file string, node int) string {
	pl := e.plan.placementOf(file)
	if pl.Device == "" || pl.Device == e.cluster.Machine.Default.Name {
		return "shared:" + e.cluster.Machine.Default.Name
	}
	return fmt.Sprintf("node%d:%s", pl.Node, pl.Device)
}

// ioCost replays a file's op stream against its placed device,
// returning the critical-path cost and any background drain time.
// Access to another node's local tier pays per-op network transfer on
// top of the device cost. Reads of plan-cached files warmed by an
// earlier stage replay against the memory tier (customized caching);
// with AsyncWrites, raw-data writes admit to the memory buffer on the
// critical path and drain to the device in the background.
func (e *Engine) ioCost(file string, taskNode int, ops []sim.Op, accessors map[string]int) (cost, drain time.Duration, err error) {
	pl := e.plan.placementOf(file)
	dev, err := deviceFor(e.cluster.Machine, pl)
	if err != nil {
		return 0, 0, err
	}
	key := e.instanceKey(file, taskNode)

	critical := ops
	if e.plan != nil && e.plan.AsyncWrites {
		critical = critical[:0:0]
		var async []sim.Op
		for _, op := range ops {
			if op.Write && op.Class == sim.RawData {
				async = append(async, op)
			} else {
				critical = append(critical, op)
			}
		}
		cost += sim.Replay(async, sim.Memory, accessors[key])
		drain = sim.Replay(async, dev, accessors[key])
	}

	e.mu.Lock()
	warm := e.warm[file]
	e.mu.Unlock()
	devOps := critical
	if e.plan.cached(file) && warm {
		devOps = devOps[:0:0]
		var cachedReads []sim.Op
		for _, op := range critical {
			if op.Write {
				devOps = append(devOps, op) // write-through
			} else {
				cachedReads = append(cachedReads, op)
			}
		}
		cost += sim.Replay(cachedReads, sim.Memory, accessors[key])
	}
	cost += sim.Replay(devOps, dev, accessors[key])
	if !dev.Shared && pl.Node != taskNode {
		net := e.cluster.Machine.Network
		for _, op := range devOps {
			cost += net.TransferCost(op.Bytes)
		}
	}
	return cost, drain, nil
}

// buildManifest derives the analyzer manifest from the spec.
func buildManifest(spec Spec) *trace.Manifest {
	m := &trace.Manifest{Workflow: spec.Name, Stages: map[string][]string{}}
	for _, st := range spec.Stages {
		m.StageOrder = append(m.StageOrder, st.Name)
		for _, t := range st.Tasks {
			m.TaskOrder = append(m.TaskOrder, t.Name)
			m.Stages[st.Name] = append(m.Stages[st.Name], t.Name)
		}
	}
	return m
}

// Preload creates a file in the workflow store before execution, e.g.
// the initial input files a workflow consumes. Preloading is not traced
// and not billed to any task: the data simply exists when the first
// stage starts, like experiment inputs on shared storage.
func (e *Engine) Preload(name string, cfg hdf5.Config, build func(*hdf5.File) error) error {
	store := &fileStore{name: name}
	f, err := hdf5.Create(&storeDriver{store: store}, name, cfg)
	if err != nil {
		return fmt.Errorf("workflow: preload %s: %w", name, err)
	}
	if err := build(f); err != nil {
		return fmt.Errorf("workflow: preload %s: %w", name, err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("workflow: preload %s: %w", name, err)
	}
	e.mu.Lock()
	e.files[name] = store
	e.mu.Unlock()
	return nil
}

// FileSize reports the stored size of a file (0 if absent).
func (e *Engine) FileSize(name string) int64 {
	e.mu.Lock()
	st, ok := e.files[name]
	e.mu.Unlock()
	if ok {
		return st.Size()
	}
	return 0
}

// FileNames lists all stored files sorted by name.
func (e *Engine) FileNames() []string {
	e.mu.Lock()
	defer e.mu.Unlock()
	names := make([]string, 0, len(e.files))
	for n := range e.files {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}
