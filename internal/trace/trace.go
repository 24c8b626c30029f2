// Package trace defines DaYu's persistent trace records: the
// object-level semantics of Table I, the file-level I/O semantics of
// Table II, and the joined object-to-I/O statistics the Characteristic
// Mapper produces. Traces are written per task and consumed by the
// Workflow Analyzer.
package trace

import (
	"fmt"
	"sort"
	"strings"
	"time"
)

// Extent is a half-open file address range [Start, End).
type Extent struct {
	Start int64 `json:"start"`
	End   int64 `json:"end"`
}

// Len returns the extent length.
func (e Extent) Len() int64 { return e.End - e.Start }

// Overlaps reports whether two half-open extents share at least one
// byte. Adjacent extents like [0,10) and [10,20) touch but do not
// overlap (MergeExtents still coalesces them), and empty extents
// overlap nothing.
func (e Extent) Overlaps(o Extent) bool {
	if e.Len() <= 0 || o.Len() <= 0 {
		return false
	}
	return e.Start < o.End && o.Start < e.End
}

// MergeExtents coalesces overlapping/touching extents, returning them
// sorted by start address.
func MergeExtents(in []Extent) []Extent {
	if len(in) == 0 {
		return nil
	}
	es := append([]Extent(nil), in...)
	sort.Slice(es, func(i, j int) bool {
		if es[i].Start != es[j].Start {
			return es[i].Start < es[j].Start
		}
		return es[i].End < es[j].End
	})
	out := es[:1]
	for _, e := range es[1:] {
		last := &out[len(out)-1]
		if e.Start <= last.End {
			if e.End > last.End {
				last.End = e.End
			}
		} else {
			out = append(out, e)
		}
	}
	return out
}

// RowKey is a record's identity within its table: (file, object) for
// Table I objects and mapped stats, (file, "") for Table II files. A
// well-formed table holds one row per key, and Compare is its canonical
// order: the tracer emits rows in it, and ApplyDelta and Merge sort
// into it.
type RowKey struct{ File, Object string }

// Compare orders keys by file, then object, in Go string order.
func (k RowKey) Compare(o RowKey) int {
	if c := strings.Compare(k.File, o.File); c != 0 {
		return c
	}
	return strings.Compare(k.Object, o.Object)
}

// Key returns the record's (file, object) key.
func (r *ObjectRecord) Key() RowKey { return RowKey{r.File, r.Object} }

// Key returns the record's (file, "") key.
func (r *FileRecord) Key() RowKey { return RowKey{File: r.File} }

// Key returns the stat's (file, object) key.
func (m *MappedStat) Key() RowKey { return RowKey{m.File, m.Object} }

// row is the constraint of the passes written once for all three
// tables: R is ObjectRecord, FileRecord or MappedStat.
type row[R any] interface {
	*R
	Key() RowKey
}

// sortRows stably sorts a table into RowKey order.
func sortRows[R any, P row[R]](rows []R) {
	sort.SliceStable(rows, func(i, j int) bool { return P(&rows[i]).Key().Compare(P(&rows[j]).Key()) < 0 })
}

// ObjectRecord is one Table I entry: object-level semantics for a
// (task, file, object) triple over the object's open-close lifetime.
type ObjectRecord struct {
	Task   string `json:"task"`
	File   string `json:"file"`
	Object string `json:"object"`
	// Type is "dataset", "group", "attribute" or "file".
	Type string `json:"type"`
	// Datatype, Shape, ElemSize and Layout are the object description
	// (Table I parameter 5).
	Datatype  string  `json:"datatype,omitempty"`
	Shape     []int64 `json:"shape,omitempty"`
	ElemSize  int64   `json:"elem_size,omitempty"`
	Layout    string  `json:"layout,omitempty"`
	ChunkDims []int64 `json:"chunk_dims,omitempty"`
	// AcquiredNS and ReleasedNS bound the object lifetime
	// (Table I parameter 4): T_release - T_acquire.
	AcquiredNS int64 `json:"acquired_ns"`
	ReleasedNS int64 `json:"released_ns"`
	// Access counts (Table I parameter 6).
	Reads        int64 `json:"reads"`
	Writes       int64 `json:"writes"`
	BytesRead    int64 `json:"bytes_read"`
	BytesWritten int64 `json:"bytes_written"`
}

// Lifetime returns the object's open-close duration.
func (r ObjectRecord) Lifetime() time.Duration {
	return time.Duration(r.ReleasedNS - r.AcquiredNS)
}

// FileRecord is one Table II entry: file-level I/O statistics for a
// (task, file) pair.
type FileRecord struct {
	Task string `json:"task"`
	File string `json:"file"`
	// OpenNS and CloseNS bound the file lifetime (Table II parameter 3).
	OpenNS  int64 `json:"open_ns"`
	CloseNS int64 `json:"close_ns"`
	// Traditional metrics (Table II parameter 4).
	Ops          int64 `json:"ops"`
	Reads        int64 `json:"reads"`
	Writes       int64 `json:"writes"`
	BytesRead    int64 `json:"bytes_read"`
	BytesWritten int64 `json:"bytes_written"`
	// DataReads and DataWrites count raw-data (non-metadata) operations
	// per direction; format-internal metadata traffic is excluded.
	DataReads  int64 `json:"data_reads"`
	DataWrites int64 `json:"data_writes"`
	// SequentialOps counts raw-data operations at monotonically
	// non-decreasing file addresses (streaming access detection).
	SequentialOps int64 `json:"sequential_ops"`
	// Metadata/raw split (Table II parameter 6).
	MetaOps   int64 `json:"meta_ops"`
	DataOps   int64 `json:"data_ops"`
	MetaBytes int64 `json:"meta_bytes"`
	DataBytes int64 `json:"data_bytes"`
	// Regions are the merged file address extents accessed
	// (Table II parameter 5).
	Regions []Extent `json:"regions,omitempty"`
}

// Lifetime returns the file's open-close duration.
func (r FileRecord) Lifetime() time.Duration {
	return time.Duration(r.CloseNS - r.OpenNS)
}

// MappedStat is the Characteristic Mapper output: low-level I/O
// statistics attributed to one data object within one task and file.
// Object may be empty for unattributed traffic (e.g. superblock I/O).
type MappedStat struct {
	Task   string `json:"task"`
	File   string `json:"file"`
	Object string `json:"object"`
	// Operation counts and volumes split by access class.
	MetaOps   int64 `json:"meta_ops"`
	DataOps   int64 `json:"data_ops"`
	MetaBytes int64 `json:"meta_bytes"`
	DataBytes int64 `json:"data_bytes"`
	Reads     int64 `json:"reads"`
	Writes    int64 `json:"writes"`
	// Regions are the merged file extents this object's I/O touched:
	// the dataset-to-file-address mapping the SDG visualizes.
	Regions []Extent `json:"regions,omitempty"`
	// FirstNS and LastNS are wall-clock bounds of the object's I/O.
	FirstNS int64 `json:"first_ns"`
	LastNS  int64 `json:"last_ns"`
}

// Ops returns the total operation count.
func (m MappedStat) Ops() int64 { return m.MetaOps + m.DataOps }

// Bytes returns the total byte volume.
func (m MappedStat) Bytes() int64 { return m.MetaBytes + m.DataBytes }

// IORecord is one raw VFD operation, retained when time-sensitive I/O
// tracing is enabled (it dominates trace storage; Figure 9d).
type IORecord struct {
	Seq    int64  `json:"seq"`
	WallNS int64  `json:"wall_ns"`
	File   string `json:"file"`
	Offset int64  `json:"offset"`
	Length int64  `json:"length"`
	Write  bool   `json:"write"`
	Meta   bool   `json:"meta"`
	Object string `json:"object,omitempty"`
}

// TaskTrace is everything DaYu records for one task execution.
type TaskTrace struct {
	Task    string `json:"task"`
	StartNS int64  `json:"start_ns"`
	EndNS   int64  `json:"end_ns"`
	// Objects are Table I records.
	Objects []ObjectRecord `json:"objects"`
	// Files are Table II records.
	Files []FileRecord `json:"files"`
	// Mapped are the joined object-to-I/O statistics.
	Mapped []MappedStat `json:"mapped"`
	// IOTrace holds raw operations when I/O tracing is on.
	IOTrace []IORecord `json:"io_trace,omitempty"`
	// Attempts is how many times the engine executed the task (2+ after
	// retries under fault injection); 0 on traces not produced by the
	// workflow engine.
	Attempts int `json:"attempts,omitempty"`
	// Failed marks the trace of a task whose final attempt errored; its
	// observations cover the I/O the task performed before failing.
	Failed bool `json:"failed,omitempty"`
}

// Validate performs basic consistency checks on the trace.
func (t *TaskTrace) Validate() error {
	if t.Task == "" {
		return fmt.Errorf("trace: task name missing")
	}
	if t.EndNS < t.StartNS {
		return fmt.Errorf("trace: task %q ends before it starts", t.Task)
	}
	for _, o := range t.Objects {
		if o.Task != t.Task {
			return fmt.Errorf("trace: object record %q belongs to task %q, not %q", o.Object, o.Task, t.Task)
		}
		if o.ReleasedNS < o.AcquiredNS {
			return fmt.Errorf("trace: object %q released before acquired", o.Object)
		}
	}
	files := make(map[string]bool, len(t.Files))
	for _, f := range t.Files {
		if f.CloseNS < f.OpenNS {
			return fmt.Errorf("trace: file %q closed before opened", f.File)
		}
		if f.Ops != f.MetaOps+f.DataOps {
			return fmt.Errorf("trace: file %q op counts inconsistent", f.File)
		}
		files[f.File] = true
	}
	// Mapped stats join per-object accounting onto the file-level
	// table: the tracer creates both rows from the same operation, so a
	// mapped row whose file has no file record cannot come from a real
	// run — and downstream graph builds emit dataset->file edges that
	// assume the file node exists. Rejecting the record here turns what
	// would be a panic deep inside analysis into a decode error the
	// ingest path can refuse or quarantine.
	for _, ms := range t.Mapped {
		if !files[ms.File] {
			return fmt.Errorf("trace: mapped stats for object %q reference file %q with no file record", ms.Object, ms.File)
		}
	}
	return nil
}

// FileNames returns the distinct file names the task touched, in
// first-access order.
func (t *TaskTrace) FileNames() []string {
	seen := map[string]bool{}
	var names []string
	for _, f := range t.Files {
		if !seen[f.File] {
			seen[f.File] = true
			names = append(names, f.File)
		}
	}
	return names
}
