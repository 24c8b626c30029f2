package tracer

import (
	"os"
	"path/filepath"
	"testing"

	"dayu/internal/hdf5"
	"dayu/internal/trace"
	"dayu/internal/vfd"
)

// runTracedTask executes fn against a freshly created traced file and
// returns the task trace.
func runTracedTask(t *testing.T, cfg Config, task string, fn func(f *hdf5.File)) *traceResult {
	t.Helper()
	tr := New(cfg)
	tr.BeginTask(task)
	drv := tr.WrapDriver(vfd.NewMemDriver(), "data.h5")
	f, err := hdf5.Create(drv, "data.h5", hdf5.Config{
		Mailbox:  tr.Mailbox(),
		Observer: tr.VOLObserver(),
		Task:     task,
	})
	if err != nil {
		t.Fatal(err)
	}
	fn(f)
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	return &traceResult{tracer: tr, trace: tr.EndTask()}
}

type traceResult struct {
	tracer *Tracer
	trace  *trace.TaskTrace
}

func TestTracedWriteProducesAllRecordLayers(t *testing.T) {
	res := runTracedTask(t, Config{}, "stage1/t0", func(f *hdf5.File) {
		ds, err := f.Root().CreateDataset("temperature", hdf5.Float64, []int64{128}, nil)
		if err != nil {
			t.Fatal(err)
		}
		if err := ds.WriteAll(make([]byte, 1024)); err != nil {
			t.Fatal(err)
		}
		if _, err := ds.ReadAll(); err != nil {
			t.Fatal(err)
		}
		if err := ds.Close(); err != nil {
			t.Fatal(err)
		}
	})
	tt := res.trace
	if err := tt.Validate(); err != nil {
		t.Fatal(err)
	}
	if tt.Task != "stage1/t0" {
		t.Errorf("task = %q", tt.Task)
	}

	// Table I: the dataset object record exists with full description.
	var found bool
	for _, o := range tt.Objects {
		if o.Object == "/temperature" {
			found = true
			if o.Datatype != "float64" || o.Layout != "contiguous" {
				t.Errorf("object description = %+v", o)
			}
			if o.Writes != 1 || o.Reads != 1 {
				t.Errorf("object access counts = r%d w%d", o.Reads, o.Writes)
			}
			if o.BytesWritten != 1024 || o.BytesRead != 1024 {
				t.Errorf("object bytes = r%d w%d", o.BytesRead, o.BytesWritten)
			}
			if o.Lifetime() < 0 {
				t.Error("negative lifetime")
			}
		}
	}
	if !found {
		t.Fatalf("no object record for /temperature: %+v", tt.Objects)
	}

	// Table II: one file record with metadata and data traffic.
	if len(tt.Files) != 1 {
		t.Fatalf("files = %d", len(tt.Files))
	}
	fr := tt.Files[0]
	if fr.File != "data.h5" {
		t.Errorf("file = %q", fr.File)
	}
	if fr.MetaOps == 0 || fr.DataOps == 0 {
		t.Errorf("expected both op classes: meta=%d data=%d", fr.MetaOps, fr.DataOps)
	}
	if fr.DataBytes < 2048 { // 1 KiB written + 1 KiB read
		t.Errorf("data bytes = %d", fr.DataBytes)
	}
	if len(fr.Regions) == 0 {
		t.Error("no address regions recorded")
	}
	if fr.Lifetime() < 0 {
		t.Error("negative file lifetime")
	}

	// Characteristic Mapper: the dataset's raw data ops are attributed
	// to it, and unattributed (superblock) traffic appears under "".
	var dsStat, anonStat bool
	for _, m := range tt.Mapped {
		if m.Object == "/temperature" {
			dsStat = true
			if m.DataOps < 2 {
				t.Errorf("mapped data ops = %d", m.DataOps)
			}
			if m.DataBytes != 2048 {
				t.Errorf("mapped data bytes = %d", m.DataBytes)
			}
			if len(m.Regions) == 0 {
				t.Error("mapped stat has no regions")
			}
		}
		if m.Object == "" && m.MetaOps > 0 {
			anonStat = true
		}
	}
	if !dsStat {
		t.Error("no mapped stat for dataset")
	}
	if !anonStat {
		t.Error("no unattributed metadata stat (superblock)")
	}
}

func TestIOTraceToggleAndSkip(t *testing.T) {
	work := func(f *hdf5.File) {
		ds, _ := f.Root().CreateDataset("d", hdf5.Uint8, []int64{64}, nil)
		for i := 0; i < 4; i++ {
			_ = ds.WriteAll(make([]byte, 64))
		}
	}
	off := runTracedTask(t, Config{}, "t", work).trace
	if len(off.IOTrace) != 0 {
		t.Errorf("I/O trace recorded while disabled: %d", len(off.IOTrace))
	}
	on := runTracedTask(t, Config{IOTrace: true}, "t", work).trace
	if len(on.IOTrace) == 0 {
		t.Fatal("I/O trace empty while enabled")
	}
	skipped := runTracedTask(t, Config{IOTrace: true, SkipOps: 5}, "t", work).trace
	if got, want := len(skipped.IOTrace), len(on.IOTrace)-5; got != want {
		t.Errorf("skip: got %d records, want %d", got, want)
	}
}

func TestDisableVOL(t *testing.T) {
	res := runTracedTask(t, Config{DisableVOL: true}, "t", func(f *hdf5.File) {
		ds, _ := f.Root().CreateDataset("d", hdf5.Uint8, []int64{8}, nil)
		_ = ds.WriteAll(make([]byte, 8))
	})
	if len(res.trace.Objects) != 0 {
		t.Error("object records present with VOL disabled")
	}
	if len(res.trace.Files) == 0 {
		t.Error("VFD records missing")
	}
}

func TestDisableVFD(t *testing.T) {
	res := runTracedTask(t, Config{DisableVFD: true}, "t", func(f *hdf5.File) {
		ds, _ := f.Root().CreateDataset("d", hdf5.Uint8, []int64{8}, nil)
		_ = ds.WriteAll(make([]byte, 8))
	})
	if len(res.trace.Files) != 0 || len(res.trace.Mapped) != 0 {
		t.Error("VFD records present with VFD disabled")
	}
	if len(res.trace.Objects) == 0 {
		t.Error("VOL records missing")
	}
}

func TestMultiTaskReset(t *testing.T) {
	tr := New(Config{})
	for i, task := range []string{"t1", "t2"} {
		tr.BeginTask(task)
		drv := tr.WrapDriver(vfd.NewMemDriver(), "f.h5")
		f, err := hdf5.Create(drv, "f.h5", hdf5.Config{
			Mailbox: tr.Mailbox(), Observer: tr.VOLObserver(), Task: task,
		})
		if err != nil {
			t.Fatal(err)
		}
		ds, _ := f.Root().CreateDataset("d", hdf5.Uint8, []int64{8}, nil)
		_ = ds.WriteAll(make([]byte, 8))
		_ = f.Close()
		tt := tr.EndTask()
		if tt.Task != task {
			t.Errorf("iteration %d: task = %q", i, tt.Task)
		}
		// Each task sees exactly one file's stats: state was reset.
		if len(tt.Files) != 1 {
			t.Errorf("iteration %d: files = %d", i, len(tt.Files))
		}
	}
}

func TestSequentialDetection(t *testing.T) {
	res := runTracedTask(t, Config{}, "t", func(f *hdf5.File) {
		ds, _ := f.Root().CreateDataset("d", hdf5.Uint8, []int64{1024}, nil)
		// Sequential element-wise writes.
		for off := int64(0); off < 1024; off += 256 {
			_ = ds.Write(hdf5.Slab1D(off, 256), make([]byte, 256))
		}
	})
	if res.trace.Files[0].SequentialOps == 0 {
		t.Error("no sequential ops detected for streaming writes")
	}
}

func TestLoadConfigFile(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "dayu.json")
	if err := os.WriteFile(path, []byte(`{"page_size":65536,"io_trace":true,"skip_ops":10}`), 0o644); err != nil {
		t.Fatal(err)
	}
	tr, err := NewFromFile(path)
	if err != nil {
		t.Fatal(err)
	}
	cfg := tr.Config()
	if cfg.PageSize != 65536 || !cfg.IOTrace || cfg.SkipOps != 10 {
		t.Errorf("config = %+v", cfg)
	}
	if _, err := LoadConfig(filepath.Join(dir, "missing.json")); err == nil {
		t.Error("missing config loaded")
	}
	bad := filepath.Join(dir, "bad.json")
	_ = os.WriteFile(bad, []byte("{"), 0o644)
	if _, err := LoadConfig(bad); err == nil {
		t.Error("bad config loaded")
	}
	for _, negative := range []string{`{"page_size":-1}`, `{"checkpoint_ops":-1}`} {
		neg := filepath.Join(dir, "neg.json")
		_ = os.WriteFile(neg, []byte(negative), 0o644)
		if _, err := LoadConfig(neg); err == nil {
			t.Errorf("negative config %s loaded", negative)
		}
	}
}

func TestChunkedVsContiguousOpCounts(t *testing.T) {
	// A chunked dataset must generate more metadata operations than a
	// contiguous one for the same data - the phenomenon behind the
	// paper's Figure 13b.
	countMeta := func(layout hdf5.Layout) int64 {
		var opts *hdf5.DatasetOpts
		if layout == hdf5.Chunked {
			opts = &hdf5.DatasetOpts{Layout: hdf5.Chunked, ChunkDims: []int64{64}}
		}
		res := runTracedTask(t, Config{}, "t", func(f *hdf5.File) {
			ds, err := f.Root().CreateDataset("d", hdf5.Uint8, []int64{1024}, opts)
			if err != nil {
				t.Fatal(err)
			}
			_ = ds.WriteAll(make([]byte, 1024))
			_, _ = ds.ReadAll()
		})
		return res.trace.Files[0].MetaOps
	}
	contig := countMeta(hdf5.Contiguous)
	chunked := countMeta(hdf5.Chunked)
	if chunked <= contig {
		t.Errorf("chunked meta ops (%d) not greater than contiguous (%d)", chunked, contig)
	}
}
