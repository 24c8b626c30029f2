// Package diagnose implements DaYu's Data Flow Diagnostics (paper §VI):
// rule-driven detection of the I/O observations the paper draws from
// FTGs and SDGs - data reuse, time-dependent inputs, disposable data,
// data scattering, metadata-only accesses, layout mismatches - each
// mapped to an optimization guideline from §III-A.
//
// The rules are incremental. They exist once, as the per-scope
// functions of an Index (index.go, rules.go) that caches findings under
// the task, adjacent pair, file, (file, object) or stage that determines
// them and recomputes only the scopes a changed trace touches. Analyze
// is that index used from scratch; `dayu serve` keeps one across
// snapshots.
package diagnose

import (
	"fmt"

	"dayu/internal/analyzer"
	"dayu/internal/trace"
)

// Kind identifies a finding rule.
type Kind string

// Finding kinds, one per observation class in §VI.
const (
	// DataReuse: a file or dataset is consumed by multiple tasks
	// (Figure 4 orange edges).
	DataReuse Kind = "data-reuse"
	// WriteAfterRead: a task reads then writes the same file
	// (Figure 4 circle 1).
	WriteAfterRead Kind = "write-after-read"
	// ReadAfterWrite: a task re-reads data it wrote (Figure 6 circle 2).
	ReadAfterWrite Kind = "read-after-write"
	// TimeDependentInput: an input file first needed mid-workflow
	// (Figure 4 circle 2).
	TimeDependentInput Kind = "time-dependent-input"
	// DisposableData: data with at most one consumer, non-critical after
	// processing (Figure 4 blue marks).
	DisposableData Kind = "disposable-data"
	// DataScattering: many small datasets in one file causing frequent
	// metadata access (Figure 5).
	DataScattering Kind = "data-scattering"
	// SmallIORequests: a task's average raw-data access to a file is
	// tiny, the "excessive small I/O requests" of Figure 5.
	SmallIORequests Kind = "small-io-requests"
	// MetadataOnlyAccess: a task touches only a dataset's metadata, not
	// its content (Figure 7's contact_map).
	MetadataOnlyAccess Kind = "metadata-only-access"
	// MetadataOverhead: metadata operations dominate data operations
	// (DDMD's chunked small files).
	MetadataOverhead Kind = "metadata-overhead"
	// ChunkedSmallData: chunked layout on small datasets adds avoidable
	// index overhead.
	ChunkedSmallData Kind = "chunked-small-data"
	// VLenContiguous: large variable-length data in contiguous layout
	// lacks the index metadata that speeds VL access (ARLDM, §VI-C).
	VLenContiguous Kind = "vlen-contiguous"
	// ReadOnlySequential: a task streams a file sequentially without
	// writing (DDMD aggregate/inference).
	ReadOnlySequential Kind = "read-only-sequential"
	// NoDataDependency: consecutive tasks share no data and can run in
	// parallel (DDMD training/inference).
	NoDataDependency Kind = "no-data-dependency"
	// FanInPattern: one task consumes many producers' files (stage-4
	// run_trackstats) - a co-scheduling opportunity.
	FanInPattern Kind = "fan-in-pattern"
	// AllToAllPattern: every task of a stage reads every input file
	// (stage-3 run_gettracks).
	AllToAllPattern Kind = "all-to-all-pattern"
)

// Guideline names the §III-A optimization guideline a finding maps to.
type Guideline string

// Optimization guidelines (paper §III-A).
const (
	GuidelineCaching     Guideline = "customized-caching"
	GuidelinePartial     Guideline = "partial-file-access"
	GuidelinePrefetch    Guideline = "customized-prefetching"
	GuidelineLayout      Guideline = "data-format-optimization"
	GuidelineStageOut    Guideline = "data-stage-out"
	GuidelineParallelize Guideline = "task-parallelization"
	GuidelineCoSchedule  Guideline = "co-scheduling"
)

// Severity ranks findings.
type Severity int

// Severity levels.
const (
	Info Severity = iota
	Warning
	Critical
)

func (s Severity) String() string {
	switch s {
	case Critical:
		return "critical"
	case Warning:
		return "warning"
	}
	return "info"
}

// Finding is one detected observation with its suggested remediation.
type Finding struct {
	Kind      Kind
	Severity  Severity
	Guideline Guideline
	// Task, File and Object locate the finding (may be empty).
	Task   string
	File   string
	Object string
	// Detail is the human-readable explanation.
	Detail string
	// Metrics carries rule-specific numbers for reports and tests.
	Metrics map[string]float64
}

func (f Finding) String() string {
	loc := f.File
	if f.Object != "" {
		loc += "::" + f.Object
	}
	if f.Task != "" {
		loc = f.Task + " " + loc
	}
	return fmt.Sprintf("[%s] %s %s: %s -> %s", f.Severity, f.Kind, loc, f.Detail, f.Guideline)
}

// Thresholds tune the rules; zero values select defaults matching the
// paper's observations.
type Thresholds struct {
	// SmallDatasetBytes is the "small dataset" bound (paper: <500 bytes
	// in PyFLEXTRKR stage 9).
	SmallDatasetBytes int64
	// ScatterMinDatasets is the dataset count per file that counts as
	// scattering.
	ScatterMinDatasets int
	// MetaOpsRatio is the metadata:data op ratio that counts as overhead.
	MetaOpsRatio float64
	// ChunkedSmallBytes is the dataset size below which chunking is
	// considered overhead.
	ChunkedSmallBytes int64
	// VLenLargeBytes is the VL dataset size above which contiguous
	// layout is flagged (paper: ARLDM 6-20 GB; scaled workloads pass a
	// smaller bound).
	VLenLargeBytes int64
	// SequentialRatio is the fraction of sequential ops that counts as
	// streaming.
	SequentialRatio float64
	// SmallAccessBytes is the average raw-data access size below which
	// a file's traffic counts as excessive small I/O.
	SmallAccessBytes int64
	// SmallAccessMinOps avoids flagging files with trivial op counts.
	SmallAccessMinOps int64
}

func (t Thresholds) withDefaults() Thresholds {
	if t.SmallDatasetBytes == 0 {
		t.SmallDatasetBytes = 500
	}
	if t.ScatterMinDatasets == 0 {
		t.ScatterMinDatasets = 16
	}
	if t.MetaOpsRatio == 0 {
		t.MetaOpsRatio = 1.0
	}
	if t.ChunkedSmallBytes == 0 {
		t.ChunkedSmallBytes = 1 << 20
	}
	if t.VLenLargeBytes == 0 {
		t.VLenLargeBytes = 4 << 20
	}
	if t.SequentialRatio == 0 {
		t.SequentialRatio = 0.5
	}
	if t.SmallAccessBytes == 0 {
		t.SmallAccessBytes = 1 << 10
	}
	if t.SmallAccessMinOps == 0 {
		t.SmallAccessMinOps = 32
	}
	return t
}

// Analyze runs every rule over the task traces and returns findings
// sorted by severity (critical first), then kind. The traces may come in
// any order: the rules see them in analyzer.OrderTasks order, the one
// definition of task order the graph builders and `dayu serve` share.
// It is an Index built from empty, applied once and read out — the same
// code a long-lived Index patches with.
func Analyze(traces []*trace.TaskTrace, m *trace.Manifest, th Thresholds) []Finding {
	return NewIndex(th).Apply(analyzer.OrderTasks(traces, m), m, analyzer.Change{}).Findings()
}

// ByKind filters findings.
func ByKind(fs []Finding, k Kind) []Finding {
	var out []Finding
	for _, f := range fs {
		if f.Kind == k {
			out = append(out, f)
		}
	}
	return out
}
