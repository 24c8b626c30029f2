package dayu

// One benchmark per paper table/figure (see DESIGN.md's per-experiment
// index), each exercising the kernel behind that artifact, plus
// ablation benches for the design choices DESIGN.md calls out. The
// printable paper rows come from `go run ./cmd/dayu-repro`. Figs 9a–c
// and 10 have no benchmark here: they are the tracer's replay
// breakdown (tracer.MeasureBreakdown), which times each component
// itself.

import (
	"fmt"
	"testing"

	"dayu/internal/analyzer"
	"dayu/internal/hdf5"
	"dayu/internal/optimizer"
	"dayu/internal/semantics"
	"dayu/internal/sim"
	"dayu/internal/trace"
	"dayu/internal/tracer"
	"dayu/internal/vfd"
	"dayu/internal/workflow"
	"dayu/internal/workloads"
)

// tracedTask runs one dataset write/read cycle under a tracer config.
func tracedTask(b *testing.B, cfg tracer.Config) *trace.TaskTrace {
	b.Helper()
	tr := tracer.New(cfg)
	tr.BeginTask("bench")
	drv := tr.WrapDriver(vfd.NewMemDriver(), "bench.h5")
	f, err := hdf5.Create(drv, "bench.h5", hdf5.Config{
		Mailbox: tr.Mailbox(), Observer: tr.VOLObserver(), Task: "bench",
	})
	if err != nil {
		b.Fatal(err)
	}
	ds, err := f.Root().CreateDataset("d", hdf5.Float64, []int64{4096}, nil)
	if err != nil {
		b.Fatal(err)
	}
	buf := make([]byte, 32768)
	if err := ds.WriteAll(buf); err != nil {
		b.Fatal(err)
	}
	if _, err := ds.ReadAll(); err != nil {
		b.Fatal(err)
	}
	if err := f.Close(); err != nil {
		b.Fatal(err)
	}
	return tr.EndTask()
}

// BenchmarkTable1 measures producing the Table I object-level records.
func BenchmarkTable1(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tt := tracedTask(b, tracer.Config{DisableVFD: true})
		if len(tt.Objects) == 0 {
			b.Fatal("no object records")
		}
	}
}

// BenchmarkTable2 measures producing the Table II file-level records.
func BenchmarkTable2(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tt := tracedTask(b, tracer.Config{DisableVOL: true})
		if len(tt.Files) == 0 {
			b.Fatal("no file records")
		}
	}
}

// BenchmarkTable3 measures the Table III device cost model.
func BenchmarkTable3(b *testing.B) {
	devs := []sim.DeviceSpec{sim.NFS, sim.BeeGFS, sim.NVMeSSD, sim.SATASSD, sim.HDD, sim.Memory}
	var sink int64
	for i := 0; i < b.N; i++ {
		for _, d := range devs {
			sink += int64(d.ContendedCost(sim.RawData, 1<<20, i%2 == 0, 1+i%8))
		}
	}
	_ = sink
}

// BenchmarkFig3 measures single-task SDG construction with regions.
func BenchmarkFig3(b *testing.B) {
	tt := tracedTask(b, tracer.Config{})
	traces := []*trace.TaskTrace{tt}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g := analyzer.BuildSDG(traces, nil, analyzer.Options{
			PageSize: 4096, IncludeRegions: true, IncludeFileMetadata: true,
		})
		if g.NumNodes() == 0 {
			b.Fatal("empty SDG")
		}
	}
}

func benchCluster() workflow.Cluster {
	return workflow.Cluster{Machine: sim.MachineCPU, Nodes: 2}
}

func runReplicaBench(b *testing.B, spec workflow.Spec, setup func(*workflow.Engine) error,
	plan *workflow.Plan) *workflow.Result {
	b.Helper()
	eng, err := workflow.NewEngine(benchCluster(), plan, tracer.Config{})
	if err != nil {
		b.Fatal(err)
	}
	if err := setup(eng); err != nil {
		b.Fatal(err)
	}
	res, err := eng.Run(spec)
	if err != nil {
		b.Fatal(err)
	}
	return res
}

var quickPft = workloads.PyFlextrkrConfig{
	ParallelTasks: 2, InputFiles: 2, FeatureBytes: 8 << 10,
	Stage9Datasets: 16, Stage9Accesses: 3,
}

// BenchmarkFig4 measures the PyFLEXTRKR replica run + FTG build.
func BenchmarkFig4(b *testing.B) {
	for i := 0; i < b.N; i++ {
		spec, setup := workloads.PyFlextrkr(quickPft)
		res := runReplicaBench(b, spec, setup, nil)
		if analyzer.BuildFTG(res.Traces, res.Manifest).NumNodes() == 0 {
			b.Fatal("empty FTG")
		}
	}
}

// BenchmarkFig5 measures the stage-9 SDG build over replica traces.
func BenchmarkFig5(b *testing.B) {
	spec, setup := workloads.PyFlextrkr(quickPft)
	res := runReplicaBench(b, spec, setup, nil)
	var stage9 []*trace.TaskTrace
	for _, tt := range res.Traces {
		if tt.Task == "run_speed" {
			stage9 = append(stage9, tt)
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g := analyzer.BuildSDG(stage9, res.Manifest, analyzer.Options{})
		if len(g.NodesOfKind("dataset")) == 0 {
			b.Fatal("no dataset nodes")
		}
	}
}

var quickDDMD = workloads.DDMDConfig{
	SimTasks: 4, ContactMapBytes: 32 << 10, SmallBytes: 4 << 10, Epochs: 4,
}

// BenchmarkFig6 measures the DDMD replica run + FTG build.
func BenchmarkFig6(b *testing.B) {
	for i := 0; i < b.N; i++ {
		spec, setup := workloads.DDMD(quickDDMD)
		res := runReplicaBench(b, spec, setup, nil)
		if analyzer.BuildFTG(res.Traces, res.Manifest).NumNodes() == 0 {
			b.Fatal("empty FTG")
		}
	}
}

// BenchmarkFig7 measures the aggregate/training SDG with metadata nodes.
func BenchmarkFig7(b *testing.B) {
	spec, setup := workloads.DDMD(quickDDMD)
	res := runReplicaBench(b, spec, setup, nil)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g := analyzer.BuildSDG(res.Traces, res.Manifest, analyzer.Options{IncludeFileMetadata: true})
		if g.NumEdges() == 0 {
			b.Fatal("empty SDG")
		}
	}
}

// BenchmarkFig8 measures the ARLDM stage-1 VL write under each layout.
func BenchmarkFig8(b *testing.B) {
	for _, layout := range []hdf5.Layout{hdf5.Contiguous, hdf5.Chunked} {
		b.Run(layout.String(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				spec, setup := workloads.ARLDM(workloads.ARLDMConfig{
					Stories: 24, ImageBytes: 8 << 10, Layout: layout,
				})
				runReplicaBench(b, spec, setup, nil)
			}
		})
	}
}

// BenchmarkFig9d measures trace serialization (the storage overhead).
func BenchmarkFig9d(b *testing.B) {
	_, tt, err := workloads.RunCornerCase(workloads.CornerCaseConfig{ReadOps: 2000},
		tracer.New(tracer.Config{IOTrace: true}))
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n, err := tt.EncodedSize()
		if err != nil || n == 0 {
			b.Fatal("encode failed")
		}
		b.SetBytes(n)
	}
}

// BenchmarkFig11 measures baseline vs locality-planned execution of the
// PyFLEXTRKR stage 3-5 sub-workflow.
func BenchmarkFig11(b *testing.B) {
	b.Run("baseline", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			spec, setup := workloads.PyFlextrkrStages3to5(quickPft)
			runReplicaBench(b, spec, setup, nil)
		}
	})
	b.Run("optimized", func(b *testing.B) {
		spec, setup := workloads.PyFlextrkrStages3to5(quickPft)
		base := runReplicaBench(b, spec, setup, nil)
		plan := optimizer.PlanDataLocality(base.Traces, base.Manifest, optimizer.LocalityOptions{
			FastTier: "nvme", Nodes: 2, StageOutDisposable: true,
		})
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			spec, setup := workloads.PyFlextrkrStages3to5(quickPft)
			runReplicaBench(b, spec, setup, plan)
		}
	})
}

// BenchmarkFig12 measures baseline vs optimized DDMD iterations.
func BenchmarkFig12(b *testing.B) {
	b.Run("baseline", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			spec, setup := workloads.DDMD(quickDDMD)
			runReplicaBench(b, spec, setup, nil)
		}
	})
	b.Run("optimized", func(b *testing.B) {
		cfg := quickDDMD
		cfg.SkipUnusedDataset = true
		cfg.ParallelTrainInfer = true
		for i := 0; i < b.N; i++ {
			spec, setup := workloads.DDMD(cfg)
			runReplicaBench(b, spec, setup, nil)
		}
	})
}

// captureAccessOps builds a file and captures the access-phase op log.
func captureAccessOps(b *testing.B, build, access func(f *hdf5.File) error) []sim.Op {
	b.Helper()
	log := &vfd.OpLog{}
	drv := vfd.NewProfiledDriver(vfd.NewMemDriver(), "bench.h5", nil, log)
	f, err := hdf5.Create(drv, "bench.h5", hdf5.Config{})
	if err != nil {
		b.Fatal(err)
	}
	if err := build(f); err != nil {
		b.Fatal(err)
	}
	log.Reset()
	if err := access(f); err != nil {
		b.Fatal(err)
	}
	return log.SimOps()
}

// BenchmarkFig13a measures the scattered vs consolidated access kernel.
func BenchmarkFig13a(b *testing.B) {
	const datasets, accesses = 32, 23
	const size = int64(2 << 10)
	scattered := captureAccessOps(b,
		func(f *hdf5.File) error {
			for i := 0; i < datasets; i++ {
				ds, err := f.Root().CreateDataset(fmt.Sprintf("s%02d", i), hdf5.Uint8, []int64{size}, nil)
				if err != nil {
					return err
				}
				if err := ds.WriteAll(make([]byte, size)); err != nil {
					return err
				}
			}
			return nil
		},
		func(f *hdf5.File) error {
			for a := 0; a < accesses; a++ {
				for i := 0; i < datasets; i++ {
					ds, err := f.Root().OpenDataset(fmt.Sprintf("s%02d", i))
					if err != nil {
						return err
					}
					if _, err := ds.ReadAll(); err != nil {
						return err
					}
				}
			}
			return nil
		})
	consolidated := captureAccessOps(b,
		func(f *hdf5.File) error {
			ds, err := f.Root().CreateDataset("all", hdf5.Uint8, []int64{size * datasets}, nil)
			if err != nil {
				return err
			}
			return ds.WriteAll(make([]byte, size*datasets))
		},
		func(f *hdf5.File) error {
			ds, err := f.Root().OpenDataset("all")
			if err != nil {
				return err
			}
			for a := 0; a < accesses; a++ {
				for i := int64(0); i < datasets; i++ {
					if _, err := ds.Read(hdf5.Slab1D(i*size, size)); err != nil {
						return err
					}
				}
			}
			return nil
		})
	b.Run("scattered", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			_ = sim.Replay(scattered, sim.NVMeSSD, 4)
		}
	})
	b.Run("consolidated", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			_ = sim.Replay(consolidated, sim.NVMeSSD, 4)
		}
	})
	b.Logf("ops: scattered=%d consolidated=%d", len(scattered), len(consolidated))
}

// BenchmarkFig13b measures the chunked vs contiguous write+read kernel.
func BenchmarkFig13b(b *testing.B) {
	const size = int64(200 << 10)
	for _, layout := range []hdf5.Layout{hdf5.Chunked, hdf5.Contiguous} {
		b.Run(layout.String(), func(b *testing.B) {
			var opts *hdf5.DatasetOpts
			if layout == hdf5.Chunked {
				opts = &hdf5.DatasetOpts{Layout: hdf5.Chunked, ChunkDims: []int64{size / 8}}
			}
			for i := 0; i < b.N; i++ {
				f, err := hdf5.Create(vfd.NewMemDriver(), "b.h5", hdf5.Config{})
				if err != nil {
					b.Fatal(err)
				}
				for _, name := range workloads.DDMDDatasets {
					ds, err := f.Root().CreateDataset(name, hdf5.Uint8, []int64{size}, opts)
					if err != nil {
						b.Fatal(err)
					}
					if err := ds.WriteAll(make([]byte, size)); err != nil {
						b.Fatal(err)
					}
					if _, err := ds.ReadAll(); err != nil {
						b.Fatal(err)
					}
				}
				if err := f.Close(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkFig13c measures the VL write kernel per layout.
func BenchmarkFig13c(b *testing.B) {
	write := func(b *testing.B, layout hdf5.Layout) {
		const stories = 32
		opts := &hdf5.DatasetOpts{Layout: layout}
		if layout == hdf5.Chunked {
			opts.ChunkDims = []int64{8}
		}
		for i := 0; i < b.N; i++ {
			f, err := hdf5.Create(vfd.NewMemDriver(), "vl.h5", hdf5.Config{HeapCollectionSize: 96 << 10})
			if err != nil {
				b.Fatal(err)
			}
			ds, err := f.Root().CreateDataset("image0", hdf5.VLen, []int64{stories}, opts)
			if err != nil {
				b.Fatal(err)
			}
			for s := 0; s < stories; s += 4 {
				vals := make([][]byte, 4)
				for j := range vals {
					vals[j] = make([]byte, 12<<10+j*1024)
				}
				if err := ds.WriteVL(int64(s), vals); err != nil {
					b.Fatal(err)
				}
			}
			if err := f.Close(); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.Run("contiguous", func(b *testing.B) { write(b, hdf5.Contiguous) })
	b.Run("chunked", func(b *testing.B) { write(b, hdf5.Chunked) })
}

// --- Ablations (DESIGN.md §5) ---

// BenchmarkAblationMailbox isolates the cost of the VOL->VFD mailbox
// join: without it the VFD profiler runs but attribution is lost.
func BenchmarkAblationMailbox(b *testing.B) {
	run := func(b *testing.B, mb *semantics.Mailbox) {
		log := &vfd.OpLog{}
		drv := vfd.NewProfiledDriver(vfd.NewMemDriver(), "m.h5", mb, log)
		f, err := hdf5.Create(drv, "m.h5", hdf5.Config{Mailbox: mb})
		if err != nil {
			b.Fatal(err)
		}
		ds, err := f.Root().CreateDataset("d", hdf5.Uint8, []int64{4096}, nil)
		if err != nil {
			b.Fatal(err)
		}
		buf := make([]byte, 4096)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := ds.WriteAll(buf); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.Run("with-mailbox", func(b *testing.B) { run(b, semantics.NewMailbox()) })
	b.Run("without-mailbox", func(b *testing.B) { run(b, nil) })
}

// BenchmarkAblationIOTrace compares deferred hash-table statistics
// (the paper's design) against retaining every raw operation.
func BenchmarkAblationIOTrace(b *testing.B) {
	cfg := workloads.CornerCaseConfig{ReadOps: 1000}
	b.Run("stats-only", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, _, err := workloads.RunCornerCase(cfg, tracer.New(tracer.Config{})); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("full-io-trace", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, _, err := workloads.RunCornerCase(cfg, tracer.New(tracer.Config{IOTrace: true})); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkAblationCache measures what the customized-caching guideline
// buys: a reused file read through the memory buffer vs from NFS.
func BenchmarkAblationCache(b *testing.B) {
	payload := make([]byte, 128<<10)
	spec := workflow.Spec{Name: "reuse", Stages: []workflow.Stage{
		{Name: "produce", Tasks: []workflow.Task{{Name: "p", Fn: func(tc *workflow.TaskContext) error {
			f, err := tc.Create("shared.h5")
			if err != nil {
				return err
			}
			ds, err := f.Root().CreateDataset("d", hdf5.Uint8, []int64{int64(len(payload))}, nil)
			if err != nil {
				return err
			}
			return ds.WriteAll(payload)
		}}}},
		{Name: "consume", Tasks: []workflow.Task{{Name: "c", Fn: func(tc *workflow.TaskContext) error {
			f, err := tc.Open("shared.h5")
			if err != nil {
				return err
			}
			ds, err := f.OpenDatasetPath("/d")
			if err != nil {
				return err
			}
			_, err = ds.ReadAll()
			return err
		}}}},
	}}
	run := func(b *testing.B, plan *workflow.Plan) {
		for i := 0; i < b.N; i++ {
			eng, err := workflow.NewEngine(benchCluster(), plan, tracer.Config{})
			if err != nil {
				b.Fatal(err)
			}
			res, err := eng.Run(spec)
			if err != nil {
				b.Fatal(err)
			}
			if res.Total() <= 0 {
				b.Fatal("no simulated time")
			}
		}
	}
	b.Run("uncached", func(b *testing.B) { run(b, nil) })
	b.Run("cached", func(b *testing.B) {
		run(b, &workflow.Plan{CacheFiles: []string{"shared.h5"}})
	})
}

// BenchmarkAblationPageSize measures SDG construction cost across
// address-region page sizes (fidelity vs graph size).
func BenchmarkAblationPageSize(b *testing.B) {
	spec, setup := workloads.DDMD(quickDDMD)
	res := runReplicaBench(b, spec, setup, nil)
	for _, page := range []int64{512, 4096, 65536} {
		b.Run(fmt.Sprintf("page%d", page), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				g := analyzer.BuildSDG(res.Traces, res.Manifest, analyzer.Options{
					PageSize: page, IncludeRegions: true,
				})
				if g.NumNodes() == 0 {
					b.Fatal("empty SDG")
				}
			}
		})
	}
}
