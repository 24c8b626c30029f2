package tracer

import (
	"slices"
	"sort"
	"sync/atomic"

	"dayu/internal/semantics"
	"dayu/internal/sim"
	"dayu/internal/trace"
	"dayu/internal/vfd"
	"dayu/internal/vol"
)

// Sink receives streamed task records (the live-analysis event feed).
// EmitCheckpoint ships a cumulative snapshot of a still-running task's
// trace-so-far; seq is process-monotone, so of two checkpoints for the
// same task the one with the larger seq is always the fresher — even
// across retry attempts, which each run on a fresh Tracer. EmitFinal
// ships the completed trace exactly as it will be persisted.
//
// A Sink may retain the emitted trace beyond the call — delta-framing
// sinks keep it as the diff base for the next checkpoint. That is safe
// because Checkpoint allocates fresh row slices on every call, and a
// record untouched since the previous checkpoint, Regions included, is
// shared with it and never written again; later profiling never
// mutates an already-emitted snapshot. Every table comes in
// trace.RowKey order, the order trace.ApplyDelta sorts into, and
// successive checkpoints of one task grow monotonically (rows
// accumulate, the I/O trace only appends), which is what makes
// record-level deltas between consecutive checkpoints exact
// (trace.Diff).
//
// Emit* run on the traced task's path, inside the operation that
// triggered the checkpoint, so they must not block on delivery: a sink
// that ships records elsewhere queues them and delivers them on its own
// goroutine.
type Sink interface {
	EmitCheckpoint(t *trace.TaskTrace, seq uint64)
	EmitFinal(t *trace.TaskTrace)
}

// streamSeq numbers checkpoints across every tracer in the process.
var streamSeq atomic.Uint64

// Tracer is one Data Semantic Mapper instance. It profiles one task at a
// time (BeginTask/EndTask) and emits a trace.TaskTrace per task. It is
// not safe for concurrent use; simulated processes each own a Tracer,
// mirroring DaYu's per-process profiler state.
type Tracer struct {
	cfg     Config
	mailbox *semantics.Mailbox
	task    string
	startNS int64

	volProf *volProfiler
	vfdProf *vfdProfiler
	// volObs and vfdObs are what VOLObserver and VFDObserver hand out:
	// the profilers, or a recorder in front of them (replay.go).
	volObs vol.Observer
	vfdObs vfd.Observer
}

// New builds a tracer from an already-parsed configuration.
func New(cfg Config) *Tracer {
	cfg = cfg.withDefaults()
	tr := &Tracer{cfg: cfg, mailbox: semantics.NewMailbox()}
	tr.volProf = newVOLProfiler(tr)
	tr.vfdProf = newVFDProfiler(tr)
	tr.volObs, tr.vfdObs = tr.volProf, tr.vfdProf
	return tr
}

// NewFromFile builds a tracer by parsing the JSON config at path: the
// Input Parser.
func NewFromFile(path string) (*Tracer, error) {
	cfg, err := LoadConfig(path)
	if err != nil {
		return nil, err
	}
	return New(cfg), nil
}

// Config returns the active configuration.
func (t *Tracer) Config() Config { return t.cfg }

// Mailbox returns the VOL-to-VFD join channel; pass it to both the
// format library and the profiled driver.
func (t *Tracer) Mailbox() *semantics.Mailbox { return t.mailbox }

// VOLObserver returns the object-level profiler hook, or nil when the
// VOL profiler is disabled.
func (t *Tracer) VOLObserver() vol.Observer {
	if t.cfg.DisableVOL {
		return nil
	}
	return t.volObs
}

// VFDObserver returns the file-level profiler hook, or nil when the VFD
// profiler is disabled.
func (t *Tracer) VFDObserver() vfd.Observer {
	if t.cfg.DisableVFD {
		return nil
	}
	return t.vfdObs
}

// BeginTask starts profiling a task: the workflow launcher must inform
// DaYu of the current task (paper §IV).
func (t *Tracer) BeginTask(name string) {
	t.task = name
	t.startNS = t.cfg.Now().UnixNano()
	t.mailbox.SetTask(name)
	t.volProf.reset()
	t.vfdProf.reset()
}

// EndTask finalizes the current task's statistics into a TaskTrace.
// Profiler state is not reset here (BeginTask resets), which is what
// lets Checkpoint share the implementation.
func (t *Tracer) EndTask() *trace.TaskTrace {
	return t.Checkpoint()
}

// Checkpoint assembles a cumulative snapshot of the current task's
// trace-so-far without disturbing profiler state: the finalize paths
// only copy rows out of the aggregation tables (state resets in
// BeginTask), so a checkpoint followed by more I/O and EndTask yields
// exactly the trace EndTask would have produced without the
// checkpoint. The tables are kept in record order with their extents
// merged, so a checkpoint sorts and merges nothing; it costs a copy of
// the rows plus a Regions copy for each row whose extents changed since
// the previous one (DESIGN.md §12). This is the
// streamed-record builder for live analysis — each emitted record
// replaces the previous one wholesale on the consumer side.
func (t *Tracer) Checkpoint() *trace.TaskTrace {
	out := &trace.TaskTrace{
		Task:    t.task,
		StartNS: t.startNS,
		EndNS:   t.cfg.Now().UnixNano(),
	}
	out.Objects = t.volProf.finalize()
	files, mapped, ioTrace := t.vfdProf.finalize()
	out.Files = files
	out.Mapped = mapped
	out.IOTrace = ioTrace
	// File lifetimes come from the VOL layer (open/close events); fold
	// them into the Table II records.
	t.volProf.applyFileLifetimes(out.Files)
	return out
}

// ---------- aggregation tables ----------

// table is an aggregation table kept in record order: a map for lookup
// and the same rows in a slice sorted by trace.RowKey. A key enters the
// slice once, when first seen, so a checkpoint walks the rows and never
// sorts. The last key looked up is memoised: I/O is object-local, so a
// run of ops on one object skips the hash.
type table[A any] struct {
	index map[trace.RowKey]*A
	keys  []trace.RowKey // sorted; keys[i] is the key of rows[i]
	rows  []*A
	last  trace.RowKey
	lastA *A
}

func newTable[A any]() table[A] {
	return table[A]{index: make(map[trace.RowKey]*A)}
}

// get returns the row for k, creating a zero row when k is new (fresh).
func (t *table[A]) get(k trace.RowKey) (a *A, fresh bool) {
	if t.lastA != nil && k == t.last {
		return t.lastA, false
	}
	if a = t.index[k]; a == nil {
		a, fresh = new(A), true
		t.index[k] = a
		i, _ := slices.BinarySearchFunc(t.keys, k, trace.RowKey.Compare)
		t.keys = slices.Insert(t.keys, i, k)
		t.rows = slices.Insert(t.rows, i, a)
	}
	t.last, t.lastA = k, a
	return a, fresh
}

// regions is an aggregate's extent list, kept in trace.MergeExtents
// normal form on every insert, plus whether it changed since the copy
// last emitted in a record.
type regions struct {
	live  []trace.Extent
	dirty bool
}

// add merges e into the list with MergeExtents' rule: e coalesces with
// every stored extent whose closed range meets it, so the list stays
// sorted with a gap between any two extents.
func (r *regions) add(e trace.Extent) {
	r.dirty = true
	es := r.live
	n := len(es)
	if n == 0 || e.Start > es[n-1].End {
		r.live = append(es, e)
		return
	}
	if last := &es[n-1]; e.Start >= last.Start {
		// Meets only the last extent: the sequential and repeated case.
		last.End = max(last.End, e.End)
		return
	}
	// es[i:j] are the extents meeting e.
	i := sort.Search(n, func(k int) bool { return es[k].End >= e.Start })
	j := sort.Search(n, func(k int) bool { return es[k].Start > e.End })
	if i == j {
		r.live = slices.Insert(es, i, e)
		return
	}
	es[i] = trace.Extent{Start: min(e.Start, es[i].Start), End: max(e.End, es[j-1].End)}
	r.live = slices.Delete(es, i+1, j)
}

// emit returns the extents for the next record: a fresh copy when they
// changed, else prev, the copy already emitted (never written again).
func (r *regions) emit(prev []trace.Extent) []trace.Extent {
	if !r.dirty {
		return prev
	}
	r.dirty = false
	return slices.Clone(r.live)
}

// ---------- VOL profiler (Table I) ----------

type fileLife struct {
	openNS  int64
	closeNS int64
}

type volProfiler struct {
	tr      *Tracer
	objects table[trace.ObjectRecord]
	files   map[string]*fileLife
}

func newVOLProfiler(tr *Tracer) *volProfiler {
	p := &volProfiler{tr: tr}
	p.reset()
	return p
}

func (p *volProfiler) reset() {
	p.objects = newTable[trace.ObjectRecord]()
	p.files = make(map[string]*fileLife)
}

// OnEvent implements vol.Observer. All statistics live in hash tables
// for the duration of the task (paper §IV); logging is deferred to
// EndTask, so repeated open/close of the same object only updates
// counters. It is Access Tracker work.
func (p *volProfiler) OnEvent(ev vol.Event) {
	ns := ev.Wall.UnixNano()
	switch ev.Kind {
	case vol.FileCreate, vol.FileOpen:
		fl := p.files[ev.Info.File]
		if fl == nil {
			p.files[ev.Info.File] = &fileLife{openNS: ns, closeNS: ns}
		}
	case vol.FileClose:
		if fl := p.files[ev.Info.File]; fl != nil {
			fl.closeNS = ns
		}
	default:
		rec, fresh := p.objects.get(trace.RowKey{File: ev.Info.File, Object: ev.Info.Name})
		if fresh {
			*rec = trace.ObjectRecord{Task: p.tr.task, File: ev.Info.File, Object: ev.Info.Name, AcquiredNS: ns}
		}
		if fresh || ev.Info.Datatype != "" {
			// Keep the richest description seen.
			rec.Type = ev.Info.Type
			rec.Datatype = ev.Info.Datatype
			rec.Shape = ev.Info.Shape
			rec.ElemSize = ev.Info.ElemSize
			rec.Layout = ev.Info.Layout
			rec.ChunkDims = ev.Info.ChunkDims
		}
		rec.ReleasedNS = ns
		switch ev.Kind {
		case vol.DatasetRead, vol.AttrRead:
			rec.Reads++
			rec.BytesRead += ev.Bytes
		case vol.DatasetWrite, vol.AttrWrite:
			rec.Writes++
			rec.BytesWritten += ev.Bytes
		}
	}
}

func (p *volProfiler) finalize() []trace.ObjectRecord {
	out := make([]trace.ObjectRecord, len(p.objects.rows))
	for i, rec := range p.objects.rows {
		out[i] = *rec
	}
	return out
}

// applyFileLifetimes copies VOL-observed open/close times into Table II
// records, which otherwise only know op timestamps.
func (p *volProfiler) applyFileLifetimes(files []trace.FileRecord) {
	for i := range files {
		if fl := p.files[files[i].File]; fl != nil {
			files[i].OpenNS = fl.openNS
			if fl.closeNS > files[i].CloseNS {
				files[i].CloseNS = fl.closeNS
			}
		}
	}
}

// ---------- VFD profiler (Table II) + Characteristic Mapper ----------

// fileAgg is a Table II row in the making: rec holds the counters, and
// its Regions is the copy last emitted.
type fileAgg struct {
	rec         trace.FileRecord
	regions     regions
	lastDataEnd int64
}

type mapAgg struct {
	rec     trace.MappedStat
	regions regions
}

type vfdProfiler struct {
	tr      *Tracer
	files   table[fileAgg]
	mapped  table[mapAgg]
	ioTrace []trace.IORecord
	opSeen  int64
}

func newVFDProfiler(tr *Tracer) *vfdProfiler {
	p := &vfdProfiler{tr: tr}
	p.reset()
	return p
}

func (p *vfdProfiler) reset() {
	p.files = newTable[fileAgg]()
	p.mapped = newTable[mapAgg]()
	p.ioTrace = nil
	p.opSeen = 0
}

// Observe implements vfd.Observer: the Access Tracker's Table II
// accounting, then the Characteristic Mapper's join of the op to its
// data object, then the checkpoint check.
func (p *vfdProfiler) Observe(op vfd.Op) {
	p.track(op)
	p.mapObject(op)
	// Streamed checkpoints: every CheckpointOps fully-accounted
	// operations, ship the cumulative trace-so-far. Emission sits after
	// both the file-level and object-level updates so a checkpoint
	// never splits one operation's accounting.
	if cfg := &p.tr.cfg; cfg.Sink != nil && cfg.CheckpointOps > 0 && p.opSeen%cfg.CheckpointOps == 0 {
		cfg.Sink.EmitCheckpoint(p.tr.Checkpoint(), streamSeq.Add(1))
	}
}

// track is the Access Tracker's half of Observe: the file-level
// (Table II) counters and extents, and the time-sensitive I/O trace.
func (p *vfdProfiler) track(op vfd.Op) {
	ns := op.Wall.UnixNano()
	agg, fresh := p.files.get(trace.RowKey{File: op.File})
	f := &agg.rec
	if fresh {
		*f = trace.FileRecord{Task: p.tr.task, File: op.File, OpenNS: ns}
	}
	f.CloseNS = ns
	f.Ops++
	if op.Write {
		f.Writes++
		f.BytesWritten += op.Length
	} else {
		f.Reads++
		f.BytesRead += op.Length
	}
	if op.Class == sim.Metadata {
		f.MetaOps++
		f.MetaBytes += op.Length
	} else {
		// Streaming detection considers raw-data traffic only: metadata
		// lookups (headers, chunk indexes) jump around by design.
		if op.Offset >= agg.lastDataEnd && f.DataOps > 0 {
			f.SequentialOps++
		}
		agg.lastDataEnd = op.End()
		f.DataOps++
		f.DataBytes += op.Length
		if op.Write {
			f.DataWrites++
		} else {
			f.DataReads++
		}
	}
	agg.regions.add(trace.Extent{Start: op.Offset, End: op.End()})

	p.opSeen++
	if p.tr.cfg.IOTrace && p.opSeen > p.tr.cfg.SkipOps {
		p.ioTrace = append(p.ioTrace, trace.IORecord{
			Seq:    op.Seq,
			WallNS: ns,
			File:   op.File,
			Offset: op.Offset,
			Length: op.Length,
			Write:  op.Write,
			Meta:   op.Class == sim.Metadata,
			Object: op.Object,
		})
	}
}

// mapObject is the Characteristic Mapper's half of Observe: it
// attributes the op to the data object announced through the mailbox.
func (p *vfdProfiler) mapObject(op vfd.Op) {
	ns := op.Wall.UnixNano()
	m, fresh := p.mapped.get(trace.RowKey{File: op.File, Object: op.Object})
	ms := &m.rec
	if fresh {
		*ms = trace.MappedStat{Task: p.tr.task, File: op.File, Object: op.Object, FirstNS: ns}
	}
	ms.LastNS = ns
	if op.Class == sim.Metadata {
		ms.MetaOps++
		ms.MetaBytes += op.Length
	} else {
		ms.DataOps++
		ms.DataBytes += op.Length
	}
	if op.Write {
		ms.Writes++
	} else {
		ms.Reads++
	}
	m.regions.add(trace.Extent{Start: op.Offset, End: op.End()})
}

// finalize copies the rows out in table order. Only a row whose extents
// changed since the last call gets a new Regions copy; the others reuse
// the one already emitted.
func (p *vfdProfiler) finalize() ([]trace.FileRecord, []trace.MappedStat, []trace.IORecord) {
	files := make([]trace.FileRecord, len(p.files.rows))
	for i, agg := range p.files.rows {
		agg.rec.Regions = agg.regions.emit(agg.rec.Regions)
		files[i] = agg.rec
	}
	mapped := make([]trace.MappedStat, len(p.mapped.rows))
	for i, m := range p.mapped.rows {
		m.rec.Regions = m.regions.emit(m.rec.Regions)
		mapped[i] = m.rec
	}
	return files, mapped, p.ioTrace
}
