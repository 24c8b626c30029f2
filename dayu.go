// Package dayu is a Go reproduction of DaYu (IEEE CLUSTER 2024): a
// dataflow-semantics analysis and optimization framework for
// distributed scientific workflows built on descriptive data formats.
//
// The package exposes the full toolchain:
//
//   - a self-describing HDF5-like format library with contiguous,
//     chunked and compact layouts, attributes and variable-length data
//     (see CreateFile / OpenFile);
//   - the Data Semantic Mapper: a two-layer profiler capturing
//     object-level semantics (Table I) and file-level I/O (Table II)
//     joined per data object (NewTracer);
//   - the Workflow Analyzer building File-Task Graphs and Semantic
//     Dataflow Graphs decorated with access statistics (BuildFTG,
//     BuildSDG) and rendering them as DOT/SVG/HTML;
//   - Data Flow Diagnostics with the paper's observation rules and
//     optimization guidelines (Diagnose);
//   - a simulated cluster substrate and workflow engine to evaluate
//     placement/layout optimizations deterministically (NewEngine,
//     PlanDataLocality).
//
// See examples/ for runnable entry points and DESIGN.md for the mapping
// from the paper's systems and experiments onto this module.
package dayu

import (
	"dayu/internal/adios"
	"dayu/internal/analyzer"
	"dayu/internal/diagnose"
	"dayu/internal/graph"
	"dayu/internal/hdf5"
	"dayu/internal/netcdf"
	"dayu/internal/optimizer"
	"dayu/internal/repack"
	"dayu/internal/report"
	"dayu/internal/semantics"
	"dayu/internal/sim"
	"dayu/internal/trace"
	"dayu/internal/tracer"
	"dayu/internal/vfd"
	"dayu/internal/workflow"
)

// Format layer (HDF5-like library).
type (
	// File is an open self-describing data file.
	File = hdf5.File
	// Group is a handle to a group object.
	Group = hdf5.Group
	// Dataset is a handle to a dataset object.
	Dataset = hdf5.Dataset
	// Datatype describes dataset element types.
	Datatype = hdf5.Datatype
	// Layout selects a dataset storage layout.
	Layout = hdf5.Layout
	// DatasetOpts configures dataset creation.
	DatasetOpts = hdf5.DatasetOpts
	// Selection is an n-dimensional hyperslab.
	Selection = hdf5.Selection
	// FileConfig controls format parameters and tracing hooks.
	FileConfig = hdf5.Config
)

// Storage layouts.
const (
	Contiguous = hdf5.Contiguous
	Chunked    = hdf5.Chunked
	Compact    = hdf5.Compact
)

// Predefined datatypes.
var (
	Float64 = hdf5.Float64
	Float32 = hdf5.Float32
	Int64   = hdf5.Int64
	Int32   = hdf5.Int32
	Int16   = hdf5.Int16
	Uint8   = hdf5.Uint8
	VLen    = hdf5.VLen
)

// FixedString returns a fixed-size string datatype.
func FixedString(n int64) Datatype { return hdf5.FixedString(n) }

// All selects every element of a dataset with the given dimensions.
func All(dims []int64) Selection { return hdf5.All(dims) }

// Slab1D selects [off, off+count) of a one-dimensional dataset.
func Slab1D(off, count int64) Selection { return hdf5.Slab1D(off, count) }

// Tracing layer (Data Semantic Mapper).
type (
	// Tracer is the Data Semantic Mapper: Input Parser, Access Tracker
	// (VOL + VFD profilers) and Characteristic Mapper.
	Tracer = tracer.Tracer
	// TracerConfig is the user configuration the Input Parser reads.
	TracerConfig = tracer.Config
	// TaskTrace is everything recorded for one task execution.
	TaskTrace = trace.TaskTrace
	// ObjectRecord is a Table I object-level record.
	ObjectRecord = trace.ObjectRecord
	// FileRecord is a Table II file-level record.
	FileRecord = trace.FileRecord
	// MappedStat is the joined object-to-I/O statistic.
	MappedStat = trace.MappedStat
	// Manifest carries workflow-level task ordering for the analyzer.
	Manifest = trace.Manifest
	// TraceFormat selects a trace serialization (JSON or dtb/v2).
	TraceFormat = trace.Format
	// Mailbox is the VOL-to-VFD current-object channel.
	Mailbox = semantics.Mailbox
)

// NewTracer builds a Data Semantic Mapper from a configuration.
func NewTracer(cfg TracerConfig) *Tracer { return tracer.New(cfg) }

// NewTracerFromFile builds a tracer from a JSON configuration file.
func NewTracerFromFile(path string) (*Tracer, error) { return tracer.NewFromFile(path) }

// CreateFile creates a traced in-memory file: all object accesses flow
// through tr's VOL profiler and all byte I/O through its VFD profiler.
// Pass a nil tracer for untraced files.
func CreateFile(tr *Tracer, name string, cfg FileConfig) (*File, error) {
	return hdf5.Create(wiredDriver(tr, name, &cfg), name, cfg)
}

// CreateFileAt creates a traced file backed by an OS file at path.
func CreateFileAt(tr *Tracer, path, name string, cfg FileConfig) (*File, error) {
	inner, err := vfd.OpenFileDriver(path)
	if err != nil {
		return nil, err
	}
	drv := vfd.Driver(inner)
	if tr != nil {
		drv = tr.WrapDriver(drv, name)
		cfg.Mailbox = tr.Mailbox()
		cfg.Observer = tr.VOLObserver()
	}
	return hdf5.Create(drv, name, cfg)
}

// OpenFileAt opens an existing traced file backed by an OS file.
func OpenFileAt(tr *Tracer, path, name string, cfg FileConfig) (*File, error) {
	inner, err := vfd.OpenFileDriver(path)
	if err != nil {
		return nil, err
	}
	drv := vfd.Driver(inner)
	if tr != nil {
		drv = tr.WrapDriver(drv, name)
		cfg.Mailbox = tr.Mailbox()
		cfg.Observer = tr.VOLObserver()
	}
	return hdf5.Open(drv, name, cfg)
}

func wiredDriver(tr *Tracer, name string, cfg *FileConfig) vfd.Driver {
	var drv vfd.Driver = vfd.NewMemDriver()
	if tr != nil {
		drv = tr.WrapDriver(drv, name)
		cfg.Mailbox = tr.Mailbox()
		cfg.Observer = tr.VOLObserver()
	}
	return drv
}

// Analysis layer (Workflow Analyzer + Diagnostics).
type (
	// Graph is the typed multigraph FTGs and SDGs are built on.
	Graph = graph.Graph
	// AnalyzerOptions controls SDG construction (page size, regions).
	AnalyzerOptions = analyzer.Options
	// GraphStats summarizes a graph.
	GraphStats = analyzer.Stats
	// Finding is one diagnostic observation with its guideline.
	Finding = diagnose.Finding
	// Thresholds tunes the diagnostic rules.
	Thresholds = diagnose.Thresholds
)

// BuildFTG constructs the File-Task Graph from task traces.
func BuildFTG(traces []*TaskTrace, m *Manifest) *Graph {
	return analyzer.BuildFTG(traces, m)
}

// BuildSDG constructs the Semantic Dataflow Graph from task traces.
func BuildSDG(traces []*TaskTrace, m *Manifest, opts AnalyzerOptions) *Graph {
	return analyzer.BuildSDG(traces, m, opts)
}

// SummarizeGraph computes graph statistics.
func SummarizeGraph(g *Graph) GraphStats { return analyzer.Summarize(g) }

// Timeline is the time-ordered task/file view of a workflow.
type Timeline = analyzer.Timeline

// BuildTimeline derives the time-ordered view from task traces.
func BuildTimeline(traces []*TaskTrace, m *Manifest) *Timeline {
	return analyzer.BuildTimeline(traces, m)
}

// Chain is one producer->file->consumer dependence path.
type Chain = analyzer.Chain

// DependencyChains extracts every maximal data dependence chain.
func DependencyChains(traces []*TaskTrace, m *Manifest) []Chain {
	return analyzer.DependencyChains(traces, m)
}

// MergeTraces folds the per-process traces of one logical task into a
// single task view (per-rank profiling, merged for analysis).
func MergeTraces(task string, parts []*TaskTrace) *TaskTrace {
	return trace.Merge(task, parts)
}

// AggregateByStage merges task nodes into stage nodes (resolution
// adjustment).
func AggregateByStage(g *Graph, m *Manifest) (*Graph, error) {
	return analyzer.AggregateByStage(g, m)
}

// CollapseDatasets merges the datasets of files holding more than
// maxPerFile into one aggregated node per file.
func CollapseDatasets(g *Graph, maxPerFile int) (*Graph, error) {
	return analyzer.CollapseDatasets(g, maxPerFile)
}

// AggregateByTime merges task nodes whose activity starts within the
// same window (resolution adjustment along the time dimension).
// windowNS must be positive; non-positive windows return
// analyzer.ErrNonPositiveWindow rather than passing the graph through.
func AggregateByTime(g *Graph, windowNS int64) (*Graph, error) {
	return analyzer.AggregateByTime(g, windowNS)
}

// Diagnose runs every observation rule over the traces.
func Diagnose(traces []*TaskTrace, m *Manifest, th Thresholds) []Finding {
	return diagnose.Analyze(traces, m, th)
}

// FindingsOfKind filters findings by rule kind.
func FindingsOfKind(fs []Finding, kind diagnose.Kind) []Finding {
	return diagnose.ByKind(fs, kind)
}

// Simulation + workflow layer.
type (
	// Machine is a simulated evaluation platform (Table III).
	Machine = sim.Machine
	// DeviceSpec is a parametric storage device model.
	DeviceSpec = sim.DeviceSpec
	// Cluster binds a machine to a node count.
	Cluster = workflow.Cluster
	// Engine executes workflow specs on a simulated cluster.
	Engine = workflow.Engine
	// WorkflowSpec describes a workflow: stages of parallel tasks.
	WorkflowSpec = workflow.Spec
	// WorkflowStage is one group of parallel tasks.
	WorkflowStage = workflow.Stage
	// WorkflowTask is one schedulable unit.
	WorkflowTask = workflow.Task
	// TaskContext is the I/O environment handed to task bodies.
	TaskContext = workflow.TaskContext
	// WorkflowResult is a completed simulated execution.
	WorkflowResult = workflow.Result
	// Plan is a set of placement/scheduling/staging decisions.
	Plan = workflow.Plan
	// Placement locates a file on a device tier and node.
	Placement = workflow.Placement
	// LocalityOptions tunes locality plan derivation.
	LocalityOptions = optimizer.LocalityOptions
)

// Simulated machines and devices (Table III).
var (
	MachineCPU = sim.MachineCPU
	MachineGPU = sim.MachineGPU
)

// NewEngine builds a workflow engine over a simulated cluster.
func NewEngine(cluster Cluster, plan *Plan, tcfg TracerConfig) (*Engine, error) {
	return workflow.NewEngine(cluster, plan, tcfg)
}

// PlanDataLocality derives a placement/co-scheduling/staging plan from
// traces, per the paper's optimization guidelines.
func PlanDataLocality(traces []*TaskTrace, m *Manifest, opts LocalityOptions) *Plan {
	return optimizer.PlanDataLocality(traces, m, opts)
}

// NetCDF layer (classic-netCDF-like format; traced identically).
type (
	// NCFile is an open netCDF-like file.
	NCFile = netcdf.File
	// NCVar is a netCDF variable handle.
	NCVar = netcdf.Var
	// NCType is a netCDF external type.
	NCType = netcdf.Type
	// NCDimID identifies a defined dimension.
	NCDimID = netcdf.DimID
	// NCConfig carries netCDF tracing hooks.
	NCConfig = netcdf.Config
)

// netCDF external types and the unlimited-dimension marker.
const (
	NCByte      = netcdf.Byte
	NCShort     = netcdf.Short
	NCInt       = netcdf.Int
	NCFloat     = netcdf.Float
	NCDouble    = netcdf.Double
	NCUnlimited = netcdf.UnlimitedDim
)

// CreateNetCDF creates a traced netCDF-like file in define mode.
func CreateNetCDF(tr *Tracer, name string, cfg NCConfig) (*NCFile, error) {
	var drv vfd.Driver = vfd.NewMemDriver()
	if tr != nil {
		drv = tr.WrapDriver(drv, name)
		cfg.Mailbox = tr.Mailbox()
		cfg.Observer = tr.VOLObserver()
	}
	return netcdf.Create(drv, name, cfg)
}

// ADIOS-BP-like log-structured layer (third paper-named format).
type (
	// BPFile is an open log-structured file (writer or reader).
	BPFile = adios.File
	// BPConfig carries BP tracing hooks.
	BPConfig = adios.Config
)

// CreateBP creates a traced BP-like writer.
func CreateBP(tr *Tracer, name string, cfg BPConfig) (*BPFile, error) {
	var drv vfd.Driver = vfd.NewMemDriver()
	if tr != nil {
		drv = tr.WrapDriver(drv, name)
		cfg.Mailbox = tr.Mailbox()
		cfg.Observer = tr.VOLObserver()
	}
	return adios.Create(drv, name, cfg)
}

// RepackAdvice configures layout rewriting (h5repack-style).
type RepackAdvice = repack.Advice

// Repack rewrites src into dst applying layout conversions and
// small-dataset consolidation (the data-format-optimization guideline).
func Repack(src, dst *File, adv RepackAdvice) error {
	return repack.File(src, dst, adv)
}

// OpenConsolidated opens a repacked group's consolidated blob with its
// offset index loaded.
func OpenConsolidated(g *Group) (*repack.Consolidated, error) {
	return repack.OpenConsolidated(g)
}

// ReportOptions configures Markdown report generation.
type ReportOptions = report.Options

// GenerateReport renders a Markdown optimization report from traces:
// summary, per-task I/O, findings grouped by guideline, derived plan.
func GenerateReport(traces []*TaskTrace, m *Manifest, opts ReportOptions) string {
	return report.Generate(traces, m, opts)
}

// Trace serializations: JSON (v1) and the dtb/v2 binary wire format.
// LoadTraces sniffs the format per file; SaveTraceFormat picks one.
const (
	TraceFormatJSON   = trace.FormatJSON
	TraceFormatBinary = trace.FormatBinary
)

// LoadTraces reads every task trace in a directory — JSON and dtb/v2
// binary files alike.
func LoadTraces(dir string) ([]*TaskTrace, error) { return trace.LoadDir(dir) }

// SaveTraceFormat writes one task trace into dir in the given format,
// returning the file path.
func SaveTraceFormat(t *TaskTrace, dir string, f TraceFormat) (string, error) {
	return t.SaveFormat(dir, f)
}

// LoadManifest reads a workflow manifest (nil when absent).
func LoadManifest(dir string) (*Manifest, error) { return trace.LoadManifest(dir) }

// SaveManifest writes a workflow manifest into a trace directory.
func SaveManifest(dir string, m *Manifest) error { return trace.SaveManifest(dir, m) }
