package tracer

import (
	"sort"
	"sync/atomic"
	"time"

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
// because Checkpoint allocates fresh row slices on every call; later
// profiling never mutates an already-emitted snapshot. Successive
// checkpoints of one task also grow monotonically (rows accumulate,
// the I/O trace only appends), which is what makes record-level deltas
// between consecutive checkpoints exact (trace.Diff).
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

	times ComponentTimes
}

// New builds a tracer from an already-parsed configuration.
func New(cfg Config) *Tracer {
	t0 := time.Now()
	cfg = cfg.withDefaults()
	tr := &Tracer{cfg: cfg, mailbox: semantics.NewMailbox()}
	tr.volProf = newVOLProfiler(tr)
	tr.vfdProf = newVFDProfiler(tr)
	tr.times.InputParser += time.Since(t0)
	return tr
}

// NewFromFile builds a tracer by parsing the JSON config at path; the
// parse time is charged to the Input Parser component.
func NewFromFile(path string) (*Tracer, error) {
	t0 := time.Now()
	cfg, err := LoadConfig(path)
	if err != nil {
		return nil, err
	}
	tr := New(cfg)
	tr.times.InputParser += time.Since(t0)
	return tr, nil
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
	return t.volProf
}

// VFDObserver returns the file-level profiler hook, or nil when the VFD
// profiler is disabled.
func (t *Tracer) VFDObserver() vfd.Observer {
	if t.cfg.DisableVFD {
		return nil
	}
	return t.vfdProf
}

// Timing returns the cumulative per-component execution times.
func (t *Tracer) Timing() ComponentTimes { return t.times }

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
// only read the aggregation tables (state resets in BeginTask), so a
// checkpoint followed by more I/O and EndTask yields exactly the trace
// EndTask would have produced without the checkpoint. This is the
// streamed-record builder for live analysis — each emitted record
// replaces the previous one wholesale on the consumer side.
func (t *Tracer) Checkpoint() *trace.TaskTrace {
	t0 := time.Now()
	out := &trace.TaskTrace{
		Task:    t.task,
		StartNS: t.startNS,
		EndNS:   t.cfg.Now().UnixNano(),
	}
	out.Objects = t.volProf.finalize(t.task)
	files, mapped, ioTrace := t.vfdProf.finalize(t.task)
	out.Files = files
	out.Mapped = mapped
	out.IOTrace = ioTrace
	// File lifetimes come from the VOL layer (open/close events); fold
	// them into the Table II records.
	t.volProf.applyFileLifetimes(out.Files)
	t.times.CharacteristicMapper += time.Since(t0)
	return out
}

// ---------- VOL profiler (Table I) ----------

type objKey struct {
	file   string
	object string
}

type objAgg struct {
	info       vol.ObjectInfo
	acquiredNS int64
	releasedNS int64
	reads      int64
	writes     int64
	bytesRead  int64
	bytesWrite int64
}

type fileLife struct {
	openNS  int64
	closeNS int64
}

type volProfiler struct {
	tr      *Tracer
	objects map[objKey]*objAgg
	files   map[string]*fileLife
}

func newVOLProfiler(tr *Tracer) *volProfiler {
	p := &volProfiler{tr: tr}
	p.reset()
	return p
}

func (p *volProfiler) reset() {
	p.objects = make(map[objKey]*objAgg)
	p.files = make(map[string]*fileLife)
}

// OnEvent implements vol.Observer. All statistics live in hash tables
// for the duration of the task (paper §IV); logging is deferred to
// EndTask, so repeated open/close of the same object only updates
// counters.
func (p *volProfiler) OnEvent(ev vol.Event) {
	t0 := time.Now()
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
		key := objKey{file: ev.Info.File, object: ev.Info.Name}
		agg := p.objects[key]
		if agg == nil {
			agg = &objAgg{info: ev.Info, acquiredNS: ns, releasedNS: ns}
			p.objects[key] = agg
		}
		if ev.Info.Datatype != "" {
			agg.info = ev.Info // keep the richest description seen
		}
		agg.releasedNS = ns
		switch ev.Kind {
		case vol.DatasetRead, vol.AttrRead:
			agg.reads++
			agg.bytesRead += ev.Bytes
		case vol.DatasetWrite, vol.AttrWrite:
			agg.writes++
			agg.bytesWrite += ev.Bytes
		}
	}
	p.tr.times.AccessTracker += time.Since(t0)
}

func (p *volProfiler) finalize(task string) []trace.ObjectRecord {
	out := make([]trace.ObjectRecord, 0, len(p.objects))
	for key, agg := range p.objects {
		out = append(out, trace.ObjectRecord{
			Task:         task,
			File:         key.file,
			Object:       key.object,
			Type:         agg.info.Type,
			Datatype:     agg.info.Datatype,
			Shape:        agg.info.Shape,
			ElemSize:     agg.info.ElemSize,
			Layout:       agg.info.Layout,
			ChunkDims:    agg.info.ChunkDims,
			AcquiredNS:   agg.acquiredNS,
			ReleasedNS:   agg.releasedNS,
			Reads:        agg.reads,
			Writes:       agg.writes,
			BytesRead:    agg.bytesRead,
			BytesWritten: agg.bytesWrite,
		})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].File != out[j].File {
			return out[i].File < out[j].File
		}
		return out[i].Object < out[j].Object
	})
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

type fileAgg struct {
	firstNS     int64
	lastNS      int64
	ops         int64
	reads       int64
	writes      int64
	bytesR      int64
	bytesW      int64
	dataReads   int64
	dataWrites  int64
	seqOps      int64
	metaOps     int64
	dataOps     int64
	metaBytes   int64
	dataBytes   int64
	lastDataEnd int64
	extents     []trace.Extent
}

type mapAgg struct {
	metaOps   int64
	dataOps   int64
	metaBytes int64
	dataBytes int64
	reads     int64
	writes    int64
	firstNS   int64
	lastNS    int64
	extents   []trace.Extent
}

// extentMergeThreshold bounds the raw extent list before an incremental
// merge, keeping tracker memory proportional to distinct regions.
const extentMergeThreshold = 1024

type vfdProfiler struct {
	tr      *Tracer
	files   map[string]*fileAgg
	mapped  map[objKey]*mapAgg
	ioTrace []trace.IORecord
	opSeen  int64
}

func newVFDProfiler(tr *Tracer) *vfdProfiler {
	p := &vfdProfiler{tr: tr}
	p.reset()
	return p
}

func (p *vfdProfiler) reset() {
	p.files = make(map[string]*fileAgg)
	p.mapped = make(map[objKey]*mapAgg)
	p.ioTrace = nil
	p.opSeen = 0
}

// timingSampleRate controls how often the per-op component timers take
// wall-clock samples: timing every operation would itself dominate the
// tracer's cost, so one in every N ops is measured and scaled by N.
const timingSampleRate = 16

// Observe implements vfd.Observer. The file-level accounting is Access
// Tracker work; the per-object join is Characteristic Mapper work, and
// the two are timed separately (sampled) for the Figure 10 breakdown.
func (p *vfdProfiler) Observe(op vfd.Op) {
	timed := p.opSeen%timingSampleRate == 0
	var t0 time.Time
	if timed {
		t0 = time.Now()
	}
	ns := op.Wall.UnixNano()

	agg := p.files[op.File]
	if agg == nil {
		agg = &fileAgg{firstNS: ns}
		p.files[op.File] = agg
	}
	agg.lastNS = ns
	agg.ops++
	if op.Write {
		agg.writes++
		agg.bytesW += op.Length
	} else {
		agg.reads++
		agg.bytesR += op.Length
	}
	if op.Class == sim.Metadata {
		agg.metaOps++
		agg.metaBytes += op.Length
	} else {
		// Streaming detection considers raw-data traffic only: metadata
		// lookups (headers, chunk indexes) jump around by design.
		if op.Offset >= agg.lastDataEnd && agg.dataOps > 0 {
			agg.seqOps++
		}
		agg.lastDataEnd = op.End()
		agg.dataOps++
		agg.dataBytes += op.Length
		if op.Write {
			agg.dataWrites++
		} else {
			agg.dataReads++
		}
	}
	agg.extents = append(agg.extents, trace.Extent{Start: op.Offset, End: op.End()})
	if len(agg.extents) >= extentMergeThreshold {
		agg.extents = trace.MergeExtents(agg.extents)
	}

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
	var t1 time.Time
	if timed {
		t1 = time.Now()
		p.tr.times.AccessTracker += t1.Sub(t0) * timingSampleRate
	}

	// Characteristic Mapper: attribute the op to the current data object
	// announced through the mailbox.
	key := objKey{file: op.File, object: op.Object}
	m := p.mapped[key]
	if m == nil {
		m = &mapAgg{firstNS: ns}
		p.mapped[key] = m
	}
	m.lastNS = ns
	if op.Class == sim.Metadata {
		m.metaOps++
		m.metaBytes += op.Length
	} else {
		m.dataOps++
		m.dataBytes += op.Length
	}
	if op.Write {
		m.writes++
	} else {
		m.reads++
	}
	m.extents = append(m.extents, trace.Extent{Start: op.Offset, End: op.End()})
	if len(m.extents) >= extentMergeThreshold {
		m.extents = trace.MergeExtents(m.extents)
	}
	if timed {
		p.tr.times.CharacteristicMapper += time.Since(t1) * timingSampleRate
	}

	// Streamed checkpoints: every CheckpointOps fully-accounted
	// operations, ship the cumulative trace-so-far. Emission sits after
	// both the file-level and object-level updates so a checkpoint
	// never splits one operation's accounting.
	if cfg := &p.tr.cfg; cfg.Sink != nil && cfg.CheckpointOps > 0 && p.opSeen%cfg.CheckpointOps == 0 {
		cfg.Sink.EmitCheckpoint(p.tr.Checkpoint(), streamSeq.Add(1))
	}
}

func (p *vfdProfiler) finalize(task string) ([]trace.FileRecord, []trace.MappedStat, []trace.IORecord) {
	files := make([]trace.FileRecord, 0, len(p.files))
	for name, agg := range p.files {
		files = append(files, trace.FileRecord{
			Task:          task,
			File:          name,
			OpenNS:        agg.firstNS,
			CloseNS:       agg.lastNS,
			Ops:           agg.ops,
			Reads:         agg.reads,
			Writes:        agg.writes,
			BytesRead:     agg.bytesR,
			BytesWritten:  agg.bytesW,
			DataReads:     agg.dataReads,
			DataWrites:    agg.dataWrites,
			SequentialOps: agg.seqOps,
			MetaOps:       agg.metaOps,
			DataOps:       agg.dataOps,
			MetaBytes:     agg.metaBytes,
			DataBytes:     agg.dataBytes,
			Regions:       trace.MergeExtents(agg.extents),
		})
	}
	sort.Slice(files, func(i, j int) bool { return files[i].File < files[j].File })

	mapped := make([]trace.MappedStat, 0, len(p.mapped))
	for key, m := range p.mapped {
		mapped = append(mapped, trace.MappedStat{
			Task:      task,
			File:      key.file,
			Object:    key.object,
			MetaOps:   m.metaOps,
			DataOps:   m.dataOps,
			MetaBytes: m.metaBytes,
			DataBytes: m.dataBytes,
			Reads:     m.reads,
			Writes:    m.writes,
			Regions:   trace.MergeExtents(m.extents),
			FirstNS:   m.firstNS,
			LastNS:    m.lastNS,
		})
	}
	sort.Slice(mapped, func(i, j int) bool {
		if mapped[i].File != mapped[j].File {
			return mapped[i].File < mapped[j].File
		}
		return mapped[i].Object < mapped[j].Object
	})
	return files, mapped, p.ioTrace
}
