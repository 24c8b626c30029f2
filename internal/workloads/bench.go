package workloads

import (
	"fmt"
	"time"

	"dayu/internal/hdf5"
	"dayu/internal/trace"
	"dayu/internal/tracer"
	"dayu/internal/vfd"
)

// The overhead benchmarks (paper §VII-B) run directly against in-memory
// drivers and measure real wall-clock time, with and without the Data
// Semantic Mapper attached - DaYu's runtime overhead is a property of
// the tracer implementation, not of the simulated devices.

// H5benchConfig configures the h5bench-like parallel I/O kernel: every
// process writes a fixed volume to its own file in fixed-size
// operations, then reads it back.
type H5benchConfig struct {
	// Procs is the simulated process count.
	Procs int
	// BytesPerProc is the I/O volume per process.
	BytesPerProc int64
	// IOSize is the per-operation transfer size.
	IOSize int64
	// Seed makes data deterministic.
	Seed uint64
}

func (c H5benchConfig) withDefaults() H5benchConfig {
	if c.Procs == 0 {
		c.Procs = 1
	}
	if c.BytesPerProc == 0 {
		c.BytesPerProc = 1 << 20
	}
	if c.IOSize == 0 {
		c.IOSize = 256 << 10
	}
	if c.IOSize > c.BytesPerProc {
		c.IOSize = c.BytesPerProc
	}
	if c.Seed == 0 {
		c.Seed = 4
	}
	return c
}

// RunH5bench executes the kernel. When tr is non-nil every process's
// I/O is profiled (one task per process) and the resulting task traces
// are returned. The duration is real wall-clock time of the I/O.
func RunH5bench(cfg H5benchConfig, tr *tracer.Tracer) (time.Duration, []*trace.TaskTrace, error) {
	cfg = cfg.withDefaults()
	var traces []*trace.TaskTrace
	start := time.Now()
	for p := 0; p < cfg.Procs; p++ {
		task := fmt.Sprintf("h5bench_p%03d", p)
		fileName := fmt.Sprintf("h5bench_p%03d.h5", p)
		var drv vfd.Driver = vfd.NewMemDriver()
		var hcfg hdf5.Config
		if tr != nil {
			tr.BeginTask(task)
			drv = tr.WrapDriver(drv, fileName)
			hcfg.Mailbox = tr.Mailbox()
			hcfg.Observer = tr.VOLObserver()
			hcfg.Task = task
		}
		f, err := hdf5.Create(drv, fileName, hcfg)
		if err != nil {
			return 0, nil, err
		}
		ds, err := f.Root().CreateDataset("data", hdf5.Uint8, []int64{cfg.BytesPerProc}, nil)
		if err != nil {
			return 0, nil, err
		}
		rng := newPRNG(cfg.Seed + uint64(p))
		buf := rng.bytes(cfg.IOSize)
		for off := int64(0); off < cfg.BytesPerProc; off += cfg.IOSize {
			n := cfg.IOSize
			if off+n > cfg.BytesPerProc {
				n = cfg.BytesPerProc - off
			}
			if err := ds.Write(hdf5.Slab1D(off, n), buf[:n]); err != nil {
				return 0, nil, err
			}
		}
		for off := int64(0); off < cfg.BytesPerProc; off += cfg.IOSize {
			n := cfg.IOSize
			if off+n > cfg.BytesPerProc {
				n = cfg.BytesPerProc - off
			}
			if _, err := ds.Read(hdf5.Slab1D(off, n)); err != nil {
				return 0, nil, err
			}
		}
		if err := ds.Close(); err != nil {
			return 0, nil, err
		}
		if err := f.Close(); err != nil {
			return 0, nil, err
		}
		if tr != nil {
			traces = append(traces, tr.EndTask())
		}
	}
	return time.Since(start), traces, nil
}

// CornerCaseConfig configures the worst-case benchmark from §VII-B: an
// unusually large number of datasets in a small file, with repeated
// dataset open/read/close cycles within one task - the access pattern
// that maximizes the Access Tracker's per-object work.
type CornerCaseConfig struct {
	// Datasets is the dataset count (paper: 200).
	Datasets int
	// DatasetBytes is each dataset's size.
	DatasetBytes int64
	// ReadOps is the number of dataset read operations performed
	// round-robin over the datasets (the x-axis of Figure 9c/9d).
	ReadOps int
	// Seed makes data deterministic.
	Seed uint64
}

func (c CornerCaseConfig) withDefaults() CornerCaseConfig {
	if c.Datasets == 0 {
		c.Datasets = 200
	}
	if c.DatasetBytes == 0 {
		c.DatasetBytes = 4 << 10
	}
	if c.Seed == 0 {
		c.Seed = 5
	}
	return c
}

// RunCornerCase executes the benchmark; the returned trace is nil when
// tr is nil. Duration is real wall-clock time.
func RunCornerCase(cfg CornerCaseConfig, tr *tracer.Tracer) (time.Duration, *trace.TaskTrace, error) {
	cfg = cfg.withDefaults()
	const task = "corner_case"
	const fileName = "corner_case.h5"
	var drv vfd.Driver = vfd.NewMemDriver()
	var hcfg hdf5.Config
	if tr != nil {
		tr.BeginTask(task)
		drv = tr.WrapDriver(drv, fileName)
		hcfg.Mailbox = tr.Mailbox()
		hcfg.Observer = tr.VOLObserver()
		hcfg.Task = task
	}
	start := time.Now()
	f, err := hdf5.Create(drv, fileName, hcfg)
	if err != nil {
		return 0, nil, err
	}
	rng := newPRNG(cfg.Seed)
	data := rng.bytes(cfg.DatasetBytes)
	for i := 0; i < cfg.Datasets; i++ {
		ds, err := f.Root().CreateDataset(cornerDataset(i), hdf5.Uint8,
			[]int64{cfg.DatasetBytes}, nil)
		if err != nil {
			return 0, nil, err
		}
		if err := ds.WriteAll(data); err != nil {
			return 0, nil, err
		}
		if err := ds.Close(); err != nil {
			return 0, nil, err
		}
	}
	// Repeated reads with per-access open/close: frequent data-object
	// operations are what drive DaYu's worst-case overhead.
	for op := 0; op < cfg.ReadOps; op++ {
		ds, err := f.Root().OpenDataset(cornerDataset(op % cfg.Datasets))
		if err != nil {
			return 0, nil, err
		}
		if _, err := ds.ReadAll(); err != nil {
			return 0, nil, err
		}
		if err := ds.Close(); err != nil {
			return 0, nil, err
		}
	}
	if err := f.Close(); err != nil {
		return 0, nil, err
	}
	elapsed := time.Since(start)
	if tr != nil {
		return elapsed, tr.EndTask(), nil
	}
	return elapsed, nil, nil
}

func cornerDataset(i int) string { return fmt.Sprintf("dset_%03d", i) }
