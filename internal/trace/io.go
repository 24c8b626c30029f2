package trace

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync"

	"dayu/internal/atomicfile"
)

// traceSuffix names on-disk JSON task traces; binarySuffix names
// dtb/v2 traces.
const (
	traceSuffix  = ".trace.json"
	binarySuffix = ".trace.dtb"
)

// IsTraceFile reports whether name looks like an on-disk task trace in
// either format. Directory scanners (LoadDir, the serve ingest loop)
// share this predicate so both formats are picked up uniformly.
func IsTraceFile(name string) bool {
	return strings.HasSuffix(name, traceSuffix) || strings.HasSuffix(name, binarySuffix)
}

// Encode writes the trace as JSON to w.
func (t *TaskTrace) Encode(w io.Writer) error {
	enc := json.NewEncoder(w)
	return enc.Encode(t)
}

// EncodedSize returns the serialized byte size of the trace: the
// storage-overhead metric of Figure 9d.
func (t *TaskTrace) EncodedSize() (int64, error) {
	var cw countingWriter
	if err := t.Encode(&cw); err != nil {
		return 0, err
	}
	return cw.n, nil
}

type countingWriter struct{ n int64 }

func (c *countingWriter) Write(p []byte) (int, error) {
	c.n += int64(len(p))
	return len(p), nil
}

// Decode reads one trace from r, sniffing the serialization from the
// leading bytes: dtb/v2 traces are routed to the binary decoder,
// anything else is decoded as JSON. A JSON stream must hold exactly
// one trace document — trailing non-whitespace data (a torn write, a
// concatenation of two traces) is an error rather than being silently
// ignored.
func Decode(r io.Reader) (*TaskTrace, error) {
	br := bufio.NewReader(r)
	prefix, err := br.Peek(len(binaryMagic))
	if err != nil && err != io.EOF {
		return nil, fmt.Errorf("trace: decode: %w", err)
	}
	if SniffFormat(prefix) == FormatBinary {
		return DecodeBinary(br)
	}
	var t TaskTrace
	dec := json.NewDecoder(br)
	if err := dec.Decode(&t); err != nil {
		return nil, fmt.Errorf("trace: decode: %w", err)
	}
	if err := rejectTrailing(io.MultiReader(dec.Buffered(), br)); err != nil {
		return nil, err
	}
	if err := t.Validate(); err != nil {
		return nil, err
	}
	return &t, nil
}

// rejectTrailing errors if r holds anything but whitespace.
func rejectTrailing(r io.Reader) error {
	br := bufio.NewReader(r)
	for {
		b, err := br.ReadByte()
		if err == io.EOF {
			return nil
		}
		if err != nil {
			return fmt.Errorf("trace: decode: %w", err)
		}
		switch b {
		case ' ', '\t', '\r', '\n':
		default:
			return fmt.Errorf("trace: decode: trailing data after trace (byte %#x)", b)
		}
	}
}

// escapeTaskFilename maps a task name to a collision-free file stem:
// '%', path separators and control bytes are percent-encoded, so
// distinct task names always produce distinct file names (unlike the
// old flatten-'/'-to-'_' scheme, under which tasks "a/b" and "a_b"
// overwrote each other's trace file).
func escapeTaskFilename(task string) string {
	var b strings.Builder
	for i := 0; i < len(task); i++ {
		c := task[i]
		if c == '%' || c == '/' || c == '\\' || c < 0x20 {
			fmt.Fprintf(&b, "%%%02X", c)
			continue
		}
		b.WriteByte(c)
	}
	return b.String()
}

// Save writes the trace to dir as <task>.trace.json. Path-hostile
// bytes in the task name are percent-encoded.
func (t *TaskTrace) Save(dir string) (string, error) {
	return t.SaveFormat(dir, FormatJSON)
}

// TraceFileName returns the file name Save/SaveFormat would use for a
// task trace in the given format: the percent-escaped task name plus
// the format suffix. Push-ingest folding uses it to land acknowledged
// records under exactly the names the directory scanners expect.
func TraceFileName(task string, f Format) string {
	return escapeTaskFilename(task) + f.Suffix()
}

// SaveFormat writes the trace to dir in the given format, naming the
// file <escaped-task><suffix>. The write is atomic: bytes land in a
// temp file in the same directory which is renamed over the final
// path, so a concurrent reader (the serve poller) and a crashed writer
// alike never observe a partial trace at the destination.
func (t *TaskTrace) SaveFormat(dir string, format Format) (string, error) {
	if err := t.Validate(); err != nil {
		return "", err
	}
	path := filepath.Join(dir, TraceFileName(t.Task, format))
	if err := atomicfile.Write(path, false, func(w io.Writer) error {
		return t.EncodeFormat(w, format)
	}); err != nil {
		return "", fmt.Errorf("trace: save %s: %w", path, err)
	}
	return path, nil
}

// Load reads one trace file. Every error path — open, decode, and
// validation failures alike — carries the file path (via %w wrapping
// where the underlying error does not already embed it), so callers
// looping over a directory can report which task trace is corrupt.
func Load(path string) (*TaskTrace, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("trace: load: %w", err)
	}
	t, err := DecodeBytes(data)
	if err != nil {
		return nil, fmt.Errorf("trace: load %s: %w", path, err)
	}
	return t, nil
}

// LoadDir reads every task trace in dir — JSON and dtb/v2 files
// alike, each sniffed per file — sorted by task name. Files
// are decoded concurrently on a bounded worker pool; the result is
// deterministic regardless of scheduling: traces come back in the same
// order a serial load would produce them, and when several files fail
// to decode, the error reported is the one from the first file in
// directory order (first-error wins).
func LoadDir(dir string) ([]*TaskTrace, error) {
	return loadDirParallel(dir, runtime.GOMAXPROCS(0))
}

// loadDirParallel is LoadDir with an explicit worker bound (tests pin
// it to 1 to cross-check determinism against the concurrent path).
func loadDirParallel(dir string, workers int) ([]*TaskTrace, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("trace: load dir: %w", err)
	}
	var names []string
	for _, e := range entries {
		if e.IsDir() || !IsTraceFile(e.Name()) {
			continue
		}
		names = append(names, e.Name())
	}
	if workers < 1 {
		workers = 1
	}
	if workers > len(names) {
		workers = len(names)
	}

	traces := make([]*TaskTrace, len(names))
	errs := make([]error, len(names))
	if workers <= 1 {
		for i, name := range names {
			traces[i], errs[i] = Load(filepath.Join(dir, name))
		}
	} else {
		var wg sync.WaitGroup
		idx := make(chan int)
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := range idx {
					traces[i], errs[i] = Load(filepath.Join(dir, names[i]))
				}
			}()
		}
		for i := range names {
			idx <- i
		}
		close(idx)
		wg.Wait()
	}
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	if len(traces) == 0 {
		return nil, nil
	}
	sort.SliceStable(traces, func(i, j int) bool { return traces[i].Task < traces[j].Task })
	return traces, nil
}

// Manifest records workflow-level context the analyzer needs but a
// single task cannot know: the task execution order (the paper notes
// current FTG construction takes task ordering as input).
type Manifest struct {
	Workflow string `json:"workflow"`
	// TaskOrder lists task names in execution order; tasks in the same
	// Stages entry may run in parallel.
	TaskOrder []string `json:"task_order"`
	// Stages optionally groups tasks into pipeline stages by name.
	Stages map[string][]string `json:"stages,omitempty"`
	// StageOrder lists stage names in execution order.
	StageOrder []string `json:"stage_order,omitempty"`
}

// SaveManifest writes the manifest to dir/manifest.json, atomically
// like SaveFormat (the serve poller reads the manifest too).
func SaveManifest(dir string, m *Manifest) error {
	err := atomicfile.Write(filepath.Join(dir, "manifest.json"), false, func(w io.Writer) error {
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		return enc.Encode(m)
	})
	if err != nil {
		return fmt.Errorf("trace: save manifest: %w", err)
	}
	return nil
}

// LoadManifest reads dir/manifest.json; a missing manifest returns nil
// without error (ordering falls back to trace timestamps).
func LoadManifest(dir string) (*Manifest, error) {
	f, err := os.Open(filepath.Join(dir, "manifest.json"))
	if os.IsNotExist(err) {
		return nil, nil
	}
	if err != nil {
		return nil, fmt.Errorf("trace: load manifest: %w", err)
	}
	defer f.Close()
	var m Manifest
	if err := json.NewDecoder(f).Decode(&m); err != nil {
		return nil, fmt.Errorf("trace: load manifest: %w", err)
	}
	return &m, nil
}
