package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"dayu/internal/hdf5"
	"dayu/internal/sim"
	"dayu/internal/trace"
	"dayu/internal/tracer"
	"dayu/internal/vfd"
	"dayu/internal/workloads"
)

// cornerSizes scales the benchmark's own corner-case kernel (paper
// §VII-B: many small datasets, an open/read/close cycle per access).
type cornerSizes struct {
	datasets     int
	datasetBytes int
	readOps      int
	bulk         workloads.H5benchConfig
	bulkPairs    int // h5bench pairs per repetition
}

func traceSizes(quick bool) cornerSizes {
	if quick {
		return cornerSizes{datasets: 20, datasetBytes: 1 << 10, readOps: 400,
			bulk: workloads.H5benchConfig{Procs: 1, BytesPerProc: 256 << 10, IOSize: 64 << 10}, bulkPairs: 1}
	}
	return cornerSizes{datasets: 200, datasetBytes: 4 << 10, readOps: 20000,
		bulk: workloads.H5benchConfig{Procs: 2, BytesPerProc: 8 << 20, IOSize: 256 << 10}, bulkPairs: 3}
}

// countingDriver counts low-level operations under the tracer, in
// traced and untraced runs alike, so the two can be shown to have done
// the same I/O.
type countingDriver struct {
	vfd.Driver
	ops int64
}

func (d *countingDriver) ReadAt(p []byte, off int64, c sim.OpClass) error {
	d.ops++
	return d.Driver.ReadAt(p, off, c)
}

func (d *countingDriver) WriteAt(p []byte, off int64, c sim.OpClass) error {
	d.ops++
	return d.Driver.WriteAt(p, off, c)
}

// kernelRun is one pass of the corner-case kernel.
type kernelRun struct {
	wall  time.Duration
	ops   int64
	alloc uint64 // TotalAlloc delta
	trace *trace.TaskTrace
	tr    *tracer.Tracer
}

// cornerKernel creates the datasets, then performs readOps
// open/read/close cycles round-robin over them. path == "" runs on the
// in-memory driver (the old, flattering denominator); otherwise on the
// file-backed driver. The traced wall time includes EndTask: finalizing
// the statistics is part of what tracing costs the task.
func cornerKernel(sz cornerSizes, data []byte, path string, tr *tracer.Tracer) (kernelRun, error) {
	const task, fileName = "corner_case", "corner_case.h5"
	var inner vfd.Driver = vfd.NewMemDriver()
	if path != "" {
		if err := os.Remove(path); err != nil && !os.IsNotExist(err) {
			return kernelRun{}, err
		}
		fd, err := vfd.OpenFileDriver(path)
		if err != nil {
			return kernelRun{}, err
		}
		inner = fd
	}
	counter := &countingDriver{Driver: inner}
	var drv vfd.Driver = counter
	var hcfg hdf5.Config
	if tr != nil {
		tr.BeginTask(task)
		drv = tr.WrapDriver(drv, fileName)
		hcfg.Mailbox, hcfg.Observer, hcfg.Task = tr.Mailbox(), tr.VOLObserver(), task
	}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	start := time.Now()
	f, err := hdf5.Create(drv, fileName, hcfg)
	if err != nil {
		return kernelRun{}, err
	}
	name := func(i int) string { return fmt.Sprintf("dset_%03d", i) }
	for i := 0; i < sz.datasets; i++ {
		ds, err := f.Root().CreateDataset(name(i), hdf5.Uint8, []int64{int64(sz.datasetBytes)}, nil)
		if err != nil {
			return kernelRun{}, err
		}
		if err := ds.WriteAll(data); err != nil {
			return kernelRun{}, err
		}
		if err := ds.Close(); err != nil {
			return kernelRun{}, err
		}
	}
	for op := 0; op < sz.readOps; op++ {
		ds, err := f.Root().OpenDataset(name(op % sz.datasets))
		if err != nil {
			return kernelRun{}, err
		}
		if _, err := ds.ReadAll(); err != nil {
			return kernelRun{}, err
		}
		if err := ds.Close(); err != nil {
			return kernelRun{}, err
		}
	}
	if err := f.Close(); err != nil {
		return kernelRun{}, err
	}
	run := kernelRun{ops: counter.ops, tr: tr}
	if tr != nil {
		run.trace = tr.EndTask()
	}
	run.wall = time.Since(start)
	runtime.ReadMemStats(&m1)
	run.alloc = m1.TotalAlloc - m0.TotalAlloc
	return run, nil
}

// pair runs a then b, or b then a when swap is set.
func pair(swap bool, a, b func() error) error {
	if swap {
		a, b = b, a
	}
	if err := a(); err != nil {
		return err
	}
	runtime.GC()
	return b()
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// runTraceOverhead measures the tracer layer alone: interleaved
// untraced/traced pairs of the corner-case kernel on the file-backed
// driver, and of bulk h5bench. A traced run adds the component
// variants (VOL only, VFD only, in-memory driver, checkpoint cost).
func runTraceOverhead(c config, rec *recorder) (*result, error) {
	res := newResult()
	sz := traceSizes(c.quick)
	sz.bulk.Seed = c.seed
	path := filepath.Join(c.scratch, "corner_case.h5")
	var data []byte

	corner := func(it iter, label string, file string, cfg *tracer.Config) (kernelRun, error) {
		var tr *tracer.Tracer
		if cfg != nil {
			tr = tracer.New(*cfg)
		}
		sp := it.rec.begin("kernel."+label, -1, it.id("pair"))
		run, err := cornerKernel(sz, data, file, tr)
		it.rec.end(sp)
		return run, err
	}
	// cornerPair appends one untraced/traced pair's ratio and per-op
	// added cost; it returns both runs for further accounting.
	cornerPair := func(it iter, label, file string, cfg tracer.Config) (base, traced kernelRun, err error) {
		err = pair(it.swap,
			func() error { base, err = corner(it, "untraced", file, nil); return err },
			func() error { traced, err = corner(it, label, file, &cfg); return err })
		if err != nil {
			return
		}
		res.check(base.ops == traced.ops, "%s: traced run did %d VFD ops, untraced %d", label, traced.ops, base.ops)
		return
	}
	bulkPair := func(it iter) error {
		var base, traced time.Duration
		err := pair(it.swap,
			func() (err error) { base, _, err = workloads.RunH5bench(sz.bulk, nil); return },
			func() (err error) {
				traced, _, err = workloads.RunH5bench(sz.bulk, tracer.New(tracer.Config{}))
				return
			})
		if err != nil {
			return err
		}
		res.add(it, "bulk_slowdown_x", float64(traced)/float64(base))
		return nil
	}
	onePair := func(it iter) error {
		base, traced, err := cornerPair(it, "traced", path, tracer.Config{})
		if err != nil {
			return err
		}
		if n := len(traced.trace.Files); n != 1 || traced.trace.Files[0].Ops != traced.ops {
			res.check(false, "trace reports %d files / wrong op count, driver counted %d ops", n, traced.ops)
		}
		ops := float64(traced.ops)
		res.add(it, "wait_p50_ms", ms(traced.wall))
		res.add(it, "vs_baseline_x", float64(traced.wall)/float64(base.wall))
		res.add(it, "alloc_mb", float64(traced.alloc)/1e6)
		res.add(it, "traced_kops_per_s", ops/1e3/traced.wall.Seconds())
		res.add(it, "tracer_ns_per_op", float64(traced.wall-base.wall)/ops)
		res.add(it, "tracer_alloc_bytes_per_op", (float64(traced.alloc)-float64(base.alloc))/ops)
		res.add(it, "untraced_ns_per_op", float64(base.wall)/ops)
		for k := 0; k < sz.bulkPairs; k++ {
			b := it
			b.swap = it.swap != (k%2 == 1)
			if err := bulkPair(b); err != nil {
				return err
			}
		}
		if it.rec == nil {
			return nil
		}
		// Component variants, traced repetitions only.
		for _, v := range []struct {
			label, file, series string
			cfg                 tracer.Config
		}{
			{"vol_only", path, "vol_ns_per_op", tracer.Config{DisableVFD: true}},
			{"vfd_only", path, "vfd_ns_per_op", tracer.Config{DisableVOL: true}},
			{"mem_traced", "", "mem_slowdown_x", tracer.Config{}},
		} {
			b, t, err := cornerPair(it, v.label, v.file, v.cfg)
			if err != nil {
				return err
			}
			if v.series == "mem_slowdown_x" {
				res.add(it, v.series, float64(t.wall)/float64(b.wall))
			} else {
				res.add(it, v.series, float64(t.wall-b.wall)/float64(t.ops))
			}
		}
		// Checkpoint cost at full object count: the tracer still holds
		// the finished task's tables until the next BeginTask.
		sp := it.rec.begin("tracer.checkpoint", -1, it.id("pair"))
		t0 := time.Now()
		cp := traced.tr.Checkpoint()
		res.add(it, "checkpoint_us", float64(time.Since(t0).Nanoseconds())/1e3)
		it.rec.end(sp)
		size, err := cp.EncodedSizeIn(trace.FormatBinary)
		if err != nil {
			return err
		}
		res.add(it, "trace_bytes", float64(size))
		return nil
	}

	for s := 0; s < setupTimes; s++ {
		t0 := time.Now()
		data = seededBytes(c.seed, sz.datasetBytes)
		// The first pair is warm-up (page cache, heap growth, lazy
		// initialisation in hdf5 and the tracer) and belongs to set-up.
		if err := onePair(iter{i: -1, warm: true}); err != nil {
			return nil, err
		}
		res.setup = append(res.setup, time.Since(t0).Seconds())
		runtime.GC()
	}
	if err := repeat(c, rec, 5, onePair); err != nil {
		return nil, err
	}
	os.Remove(path)

	if rec != nil {
		t := res.tracedSamples
		res.layer["tracer.ns_per_op"] = median(t["tracer_ns_per_op"])
		res.layer["tracer.vol_ns_per_op"] = median(t["vol_ns_per_op"])
		res.layer["tracer.vfd_ns_per_op"] = median(t["vfd_ns_per_op"])
		res.layer["tracer.alloc_bytes_per_op"] = median(t["tracer_alloc_bytes_per_op"])
		res.layer["tracer.checkpoint_us"] = median(t["checkpoint_us"])
		res.layer["tracer.trace_bytes"] = median(t["trace_bytes"])
		res.layer["tracer.bulk_slowdown_x"] = median(t["bulk_slowdown_x"])
		res.layer["tracer.traced_kops_per_s"] = median(t["traced_kops_per_s"])
		res.layer["vfd.untraced_ns_per_op"] = median(t["untraced_ns_per_op"])
		res.layer["vfd.mem_slowdown_x"] = median(t["mem_slowdown_x"])
	}
	return res, nil
}
