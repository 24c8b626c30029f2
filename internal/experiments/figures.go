package experiments

import (
	"fmt"

	"dayu/internal/analyzer"
	"dayu/internal/diagnose"
	"dayu/internal/graph"
	"dayu/internal/hdf5"
	"dayu/internal/sim"
	"dayu/internal/trace"
	"dayu/internal/tracer"
	"dayu/internal/units"
	"dayu/internal/vfd"
	"dayu/internal/workflow"
	"dayu/internal/workloads"
)

// Table1 documents the VOL profiler's object-level semantics by
// producing a real Table I record set from a traced run.
func Table1(opts Options) (*Table, error) {
	tr := tracer.New(tracer.Config{})
	tr.BeginTask("demo_task")
	drv := tr.WrapDriver(vfd.NewMemDriver(), "demo.h5")
	f, err := hdf5.Create(drv, "demo.h5", hdf5.Config{
		Mailbox: tr.Mailbox(), Observer: tr.VOLObserver(), Task: "demo_task",
	})
	if err != nil {
		return nil, err
	}
	ds, err := f.Root().CreateDataset("temperature", hdf5.Float64, []int64{64}, nil)
	if err != nil {
		return nil, err
	}
	if err := ds.WriteAll(make([]byte, 512)); err != nil {
		return nil, err
	}
	if _, err := ds.ReadAll(); err != nil {
		return nil, err
	}
	if err := ds.Close(); err != nil {
		return nil, err
	}
	if err := f.Close(); err != nil {
		return nil, err
	}
	tt := tr.EndTask()

	t := &Table{ID: "table1", Title: "VOL Profiler Object-Level Semantics (live records)",
		Header: []string{"task", "file", "object", "lifetime", "description", "reads", "writes"}}
	for _, o := range tt.Objects {
		desc := fmt.Sprintf("%s %v %s", o.Datatype, o.Shape, o.Layout)
		t.AddRow(o.Task, o.File, o.Object, units.Duration(o.Lifetime()), desc,
			fmt.Sprint(o.Reads), fmt.Sprint(o.Writes))
	}
	t.AddNote("all six Table I parameters are captured: task name, file name, object lifetime, description (shape/type/layout), and read/write access counts")
	return t, nil
}

// Table2 documents the VFD profiler's file-level semantics the same way.
func Table2(opts Options) (*Table, error) {
	tr := tracer.New(tracer.Config{})
	tr.BeginTask("demo_task")
	drv := tr.WrapDriver(vfd.NewMemDriver(), "demo.h5")
	f, err := hdf5.Create(drv, "demo.h5", hdf5.Config{
		Mailbox: tr.Mailbox(), Observer: tr.VOLObserver(), Task: "demo_task",
	})
	if err != nil {
		return nil, err
	}
	ds, err := f.Root().CreateDataset("grid", hdf5.Float32, []int64{4096}, nil)
	if err != nil {
		return nil, err
	}
	if err := ds.WriteAll(make([]byte, 16384)); err != nil {
		return nil, err
	}
	if err := f.Close(); err != nil {
		return nil, err
	}
	tt := tr.EndTask()

	t := &Table{ID: "table2", Title: "VFD Profiler File-Level Semantics (live records)",
		Header: []string{"task", "file", "lifetime", "ops", "meta/data", "regions", "seq-ops"}}
	for _, fr := range tt.Files {
		t.AddRow(fr.Task, fr.File, units.Duration(fr.Lifetime()),
			fmt.Sprint(fr.Ops), fmt.Sprintf("%d/%d", fr.MetaOps, fr.DataOps),
			fmt.Sprint(len(fr.Regions)), fmt.Sprint(fr.SequentialOps))
	}
	for _, ms := range tt.Mapped {
		obj := ms.Object
		if obj == "" {
			obj = "(unattributed)"
		}
		t.AddNote("mapper attribution: %s -> %d meta + %d data ops over %d regions",
			obj, ms.MetaOps, ms.DataOps, len(ms.Regions))
	}
	return t, nil
}

// Table3 reports the simulated machine configurations.
func Table3(opts Options) (*Table, error) {
	t := &Table{ID: "table3", Title: "Machine configurations (simulated, Table III)",
		Header: []string{"machine", "compute/memory", "default storage", "node-local options"}}
	for _, m := range sim.Machines() {
		locals := ""
		for i, d := range m.Local {
			if i > 0 {
				locals += ", "
			}
			locals += d.Name
		}
		t.AddRow(m.Name, m.Notes, m.Default.Name, locals)
	}
	return t, nil
}

// graphArtifacts attaches the three render formats of a graph.
func graphArtifacts(t *Table, g *graph.Graph, baseName string) error {
	t.AddArtifact(baseName+".dot", g.DOT())
	t.AddArtifact(baseName+".svg", g.SVG())
	t.AddArtifact(baseName+".html", g.HTML())
	data, err := g.IndentedJSON()
	if err != nil {
		return err
	}
	t.AddArtifact(baseName+".json", string(data))
	return nil
}

// runReplica executes a workload replica on a cluster and returns the
// result.
func runReplica(spec workflow.Spec, setup func(*workflow.Engine) error,
	cluster workflow.Cluster, plan *workflow.Plan) (*workflow.Result, error) {
	eng, err := workflow.NewEngine(cluster, plan, tracer.Config{})
	if err != nil {
		return nil, err
	}
	if err := setup(eng); err != nil {
		return nil, err
	}
	return eng.Run(spec)
}

func defaultCluster() workflow.Cluster {
	return workflow.Cluster{Machine: sim.MachineCPU, Nodes: 2}
}

// Fig3 regenerates the example single-task SDG: one task writing two
// datasets whose content maps to distinct file address regions.
func Fig3(opts Options) (*Table, error) {
	spec := workflow.Spec{
		Name: "example",
		Stages: []workflow.Stage{{Name: "write", Tasks: []workflow.Task{{
			Name: "task",
			Fn: func(tc *workflow.TaskContext) error {
				f, err := tc.Create("file.h5")
				if err != nil {
					return err
				}
				for _, name := range []string{"dataset_1", "dataset_2"} {
					ds, err := f.Root().CreateDataset(name, hdf5.Float64, []int64{512}, nil)
					if err != nil {
						return err
					}
					if err := ds.WriteAll(make([]byte, 4096)); err != nil {
						return err
					}
					if err := ds.Close(); err != nil {
						return err
					}
				}
				return f.Close()
			},
		}}}},
	}
	res, err := runReplica(spec, func(*workflow.Engine) error { return nil }, defaultCluster(), nil)
	if err != nil {
		return nil, err
	}
	g := analyzer.BuildSDG(res.Traces, res.Manifest, analyzer.Options{
		PageSize: 4096, IncludeRegions: true, IncludeFileMetadata: true,
	})
	t := &Table{ID: "fig3", Title: "Example SDG: task -> datasets -> address regions -> file",
		Header: []string{"node kind", "count"}}
	s := analyzer.Summarize(g)
	t.AddRow("tasks", fmt.Sprint(s.Tasks))
	t.AddRow("datasets", fmt.Sprint(s.Datasets))
	t.AddRow("address regions", fmt.Sprint(s.Regions))
	t.AddRow("files", fmt.Sprint(s.Files))
	t.AddRow("edges", fmt.Sprint(s.Edges))
	if s.Datasets != 2 {
		t.AddNote("WARNING: expected 2 dataset nodes, got %d", s.Datasets)
	} else {
		t.AddNote("reproduced: dataset_1 and dataset_2 map to distinct address regions within the file node")
	}
	if err := graphArtifacts(t, g, "fig3_sdg"); err != nil {
		return nil, err
	}
	return t, nil
}

func pftConfig(opts Options) workloads.PyFlextrkrConfig {
	cfg := workloads.PyFlextrkrConfig{}
	if opts.Quick {
		cfg = workloads.PyFlextrkrConfig{
			ParallelTasks: 2, InputFiles: 2, FeatureBytes: 8 << 10,
			Stage9Datasets: 20, Stage9Accesses: 4,
		}
	}
	return cfg
}

// Fig4 regenerates the PyFLEXTRKR nine-stage FTG and verifies the
// paper's three FTG observations.
func Fig4(opts Options) (*Table, error) {
	spec, setup := workloads.PyFlextrkr(pftConfig(opts))
	res, err := runReplica(spec, setup, defaultCluster(), nil)
	if err != nil {
		return nil, err
	}
	g := analyzer.BuildFTG(res.Traces, res.Manifest)
	findings := diagnose.Analyze(res.Traces, res.Manifest, diagnose.Thresholds{ScatterMinDatasets: 10})

	t := &Table{ID: "fig4", Title: "PyFLEXTRKR workflow FTG (9 stages)",
		Header: []string{"observation", "paper", "reproduced"}}
	reuse := diagnose.ByKind(findings, diagnose.DataReuse)
	t.AddRow("data reuse (files read by >=2 tasks)", "stage-1 outputs reused by stages 2,3,4,6,8",
		fmt.Sprintf("%d reused files", len(reuse)))
	war := diagnose.ByKind(findings, diagnose.WriteAfterRead)
	t.AddRow("write-after-read (circle 1)", "run_gettracks stage-3", summarizeTasks(war))
	tdi := diagnose.ByKind(findings, diagnose.TimeDependentInput)
	t.AddRow("time-dependent inputs (circle 2)", "inputs first needed mid-workflow",
		fmt.Sprintf("%d late inputs", len(tdi)))
	disp := diagnose.ByKind(findings, diagnose.DisposableData)
	t.AddRow("disposable data (blue marks)", "initial inputs + single-consumer outputs",
		fmt.Sprintf("%d disposable files", len(disp)))
	s := analyzer.Summarize(g)
	t.AddNote("FTG: %d tasks, %d files, %d edges", s.Tasks, s.Files, s.Edges)
	if len(reuse) == 0 || len(war) == 0 || len(tdi) == 0 || len(disp) == 0 {
		t.AddNote("WARNING: an expected observation is missing")
	}
	if err := graphArtifacts(t, g, "fig4_ftg"); err != nil {
		return nil, err
	}
	t.AddArtifact("fig4_timeline.html", analyzer.BuildTimeline(res.Traces, res.Manifest).HTML())
	return t, nil
}

func summarizeTasks(fs []diagnose.Finding) string {
	if len(fs) == 0 {
		return "NOT FOUND"
	}
	return fs[0].Task + " on " + fs[0].File
}

// Fig5 regenerates the PyFLEXTRKR stage-9 SDG: many small datasets in
// one file driving metadata overhead.
func Fig5(opts Options) (*Table, error) {
	cfg := pftConfig(opts)
	spec, setup := workloads.PyFlextrkr(cfg)
	res, err := runReplica(spec, setup, defaultCluster(), nil)
	if err != nil {
		return nil, err
	}
	// Restrict to the stage-9 task, as the figure does.
	var stage9 []*trace.TaskTrace
	for _, tt := range res.Traces {
		if tt.Task == "run_speed" {
			stage9 = append(stage9, tt)
		}
	}
	g := analyzer.BuildSDG(stage9, res.Manifest, analyzer.Options{})
	findings := diagnose.Analyze(res.Traces, res.Manifest, diagnose.Thresholds{ScatterMinDatasets: 10})

	t := &Table{ID: "fig5", Title: "PyFLEXTRKR stage-9 SDG: scattered small datasets",
		Header: []string{"metric", "value"}}
	s := analyzer.Summarize(g)
	nDatasets := cfg.Stage9Datasets
	if nDatasets == 0 {
		nDatasets = 32
	}
	t.AddRow("datasets in stage-9 file", fmt.Sprint(s.Datasets))
	t.AddRow("dataset size", units.Bytes(400))
	t.AddRow("edges", fmt.Sprint(s.Edges))
	var scattering bool
	for _, f := range diagnose.ByKind(findings, diagnose.DataScattering) {
		if f.File == workloads.PftSpeedStats {
			scattering = true
			t.AddRow("small datasets flagged", fmt.Sprintf("%.0f of %.0f",
				f.Metrics["small_datasets"], f.Metrics["total_datasets"]))
		}
	}
	if scattering {
		t.AddNote("reproduced: many small (<500 B) datasets in one file cause frequent metadata access (paper circles 1 and 2)")
	} else {
		t.AddNote("WARNING: scattering not detected")
	}
	// Collapsed view: the analyzer's resolution adjustment.
	collapsed, err := analyzer.CollapseDatasets(g, 8)
	if err != nil {
		return nil, err
	}
	t.AddNote("resolution adjustment: %d dataset nodes collapse to %d",
		s.Datasets, analyzer.Summarize(collapsed).Datasets)
	if err := graphArtifacts(t, g, "fig5_sdg"); err != nil {
		return nil, err
	}
	return t, nil
}

func ddmdConfig(opts Options) workloads.DDMDConfig {
	cfg := workloads.DDMDConfig{}
	if opts.Quick {
		cfg = workloads.DDMDConfig{SimTasks: 4, ContactMapBytes: 32 << 10,
			SmallBytes: 4 << 10, Epochs: 10}
	}
	return cfg
}

// Fig6 regenerates the DDMD four-stage FTG and its observations.
func Fig6(opts Options) (*Table, error) {
	spec, setup := workloads.DDMD(ddmdConfig(opts))
	res, err := runReplica(spec, setup, defaultCluster(), nil)
	if err != nil {
		return nil, err
	}
	g := analyzer.BuildFTG(res.Traces, res.Manifest)
	findings := diagnose.Analyze(res.Traces, res.Manifest, diagnose.Thresholds{})

	t := &Table{ID: "fig6", Title: "DDMD workflow FTG (simulation/aggregate/training/inference)",
		Header: []string{"observation", "paper", "reproduced"}}
	seq := diagnose.ByKind(findings, diagnose.ReadOnlySequential)
	var aggSeq, infSeq int
	for _, f := range seq {
		switch {
		case f.Task == "aggregate_0000":
			aggSeq++
		case f.Task == "inference_0000":
			infSeq++
		}
	}
	t.AddRow("read-only sequential access (circles 1,3)",
		"aggregate and inference read all simulated data sequentially",
		fmt.Sprintf("aggregate: %d files, inference: %d files", aggSeq, infSeq))
	raw := diagnose.ByKind(findings, diagnose.ReadAfterWrite)
	t.AddRow("data reuse (circle 2)", "training re-reads embeddings 5 and 10",
		fmt.Sprintf("%d read-after-write files", len(raw)))
	ind := diagnose.ByKind(findings, diagnose.NoDataDependency)
	t.AddRow("no data dependency (circle 3)", "training and inference independent",
		fmt.Sprintf("%d independent pairs", len(ind)))
	if aggSeq == 0 || len(raw) < 2 || len(ind) == 0 {
		t.AddNote("WARNING: an expected observation is missing")
	}
	s := analyzer.Summarize(g)
	t.AddNote("FTG: %d tasks, %d files, %d edges", s.Tasks, s.Files, s.Edges)
	if err := graphArtifacts(t, g, "fig6_ftg"); err != nil {
		return nil, err
	}
	t.AddArtifact("fig6_timeline.html", analyzer.BuildTimeline(res.Traces, res.Manifest).HTML())
	return t, nil
}

// Fig7 regenerates the DDMD aggregate/training SDG with the
// contact_map metadata-only access.
func Fig7(opts Options) (*Table, error) {
	spec, setup := workloads.DDMD(ddmdConfig(opts))
	res, err := runReplica(spec, setup, defaultCluster(), nil)
	if err != nil {
		return nil, err
	}
	var sub []*trace.TaskTrace
	for _, tt := range res.Traces {
		if tt.Task == "aggregate_0000" || tt.Task == "training_0000" {
			sub = append(sub, tt)
		}
	}
	g := analyzer.BuildSDG(sub, res.Manifest, analyzer.Options{IncludeFileMetadata: true})
	findings := diagnose.Analyze(res.Traces, res.Manifest, diagnose.Thresholds{})

	t := &Table{ID: "fig7", Title: "DDMD aggregate->training SDG: contact_map unused by training",
		Header: []string{"metric", "value"}}
	// The pop-up of Figure 7: training's access statistics for the
	// aggregated contact_map.
	aggFile := workloads.DDMDAggFile(0)
	for _, tt := range sub {
		if tt.Task != "training_0000" {
			continue
		}
		for _, ms := range tt.Mapped {
			if ms.File == aggFile && ms.Object == "/contact_map" {
				t.AddRow("Access Volume", units.Bytes(ms.Bytes()))
				t.AddRow("Access Count", fmt.Sprint(ms.Ops()))
				t.AddRow("HDF5 Data Access Count", fmt.Sprint(ms.DataOps))
				t.AddRow("HDF5 Metadata Access Count", fmt.Sprint(ms.MetaOps))
				t.AddRow("Operation", "read_only")
			}
		}
	}
	var metaOnly bool
	for _, f := range diagnose.ByKind(findings, diagnose.MetadataOnlyAccess) {
		if f.Object == "/contact_map" && f.File == aggFile {
			metaOnly = true
			t.AddRow("unused content (partial-access saving)",
				units.Bytes(int64(f.Metrics["content_bytes"])))
		}
	}
	if metaOnly {
		t.AddNote("reproduced: training touches only contact_map's metadata in the aggregated file; its content is read from simulation output instead (circles 1-3)")
	} else {
		t.AddNote("WARNING: metadata-only contact_map access not detected")
	}
	if err := graphArtifacts(t, g, "fig7_sdg"); err != nil {
		return nil, err
	}
	return t, nil
}

// Fig8 regenerates the ARLDM stage-1 SDGs for contiguous and chunked
// VL layouts, comparing fragmentation and write-operation counts.
func Fig8(opts Options) (*Table, error) {
	stories := 48
	imageBytes := int64(16 << 10)
	if opts.Quick {
		stories, imageBytes = 24, 8<<10
	}
	run := func(layout hdf5.Layout) (*workflow.Result, *graph.Graph, error) {
		spec, setup := workloads.ARLDM(workloads.ARLDMConfig{
			Stories: stories, ImageBytes: imageBytes, Layout: layout,
		})
		res, err := runReplica(spec, setup, defaultCluster(), nil)
		if err != nil {
			return nil, nil, err
		}
		var sub []*trace.TaskTrace
		for _, tt := range res.Traces {
			if tt.Task == "arldm_saveh5" {
				sub = append(sub, tt)
			}
		}
		g := analyzer.BuildSDG(sub, res.Manifest, analyzer.Options{
			PageSize: 64 << 10, IncludeRegions: true, IncludeFileMetadata: true,
		})
		return res, g, nil
	}
	contigRes, contigG, err := run(hdf5.Contiguous)
	if err != nil {
		return nil, err
	}
	chunkRes, chunkG, err := run(hdf5.Chunked)
	if err != nil {
		return nil, err
	}

	writeOps := func(res *workflow.Result) (int64, int64) {
		for _, tt := range res.Traces {
			if tt.Task != "arldm_saveh5" {
				continue
			}
			for _, fr := range tt.Files {
				if fr.File == workloads.ARLDMOutFile {
					return fr.Writes, fr.BytesWritten
				}
			}
		}
		return 0, 0
	}
	cw, cb := writeOps(contigRes)
	kw, kb := writeOps(chunkRes)

	t := &Table{ID: "fig8", Title: "ARLDM stage-1 SDG: contiguous (a) vs chunked (b) VL datasets",
		Header: []string{"metric", "contiguous", "chunked"}}
	cs, ks := analyzer.Summarize(contigG), analyzer.Summarize(chunkG)
	t.AddRow("datasets", fmt.Sprint(cs.Datasets), fmt.Sprint(ks.Datasets))
	t.AddRow("address regions", fmt.Sprint(cs.Regions), fmt.Sprint(ks.Regions))
	t.AddRow("POSIX write ops", fmt.Sprint(cw), fmt.Sprint(kw))
	t.AddRow("bytes written", units.Bytes(cb), units.Bytes(kb))
	t.AddRow("file size", units.Bytes(contigRes.Traces[0].Files[0].Regions[len(contigRes.Traces[0].Files[0].Regions)-1].End),
		units.Bytes(chunkRes.Traces[0].Files[0].Regions[len(chunkRes.Traces[0].Files[0].Regions)-1].End))
	ratio := float64(cw) / float64(kw)
	t.AddNote("reproduced: chunked layout issues %.2fx fewer write operations than contiguous for VL data (paper: ~2x)", ratio)
	if ratio < 1.3 {
		t.AddNote("WARNING: write-op reduction below expected range")
	}
	t.AddNote("box 1: datasets fragment across address regions in both layouts; box 2: the chunked layout adds a File-Metadata region")
	if err := graphArtifacts(t, contigG, "fig8a_contiguous_sdg"); err != nil {
		return nil, err
	}
	if err := graphArtifacts(t, chunkG, "fig8b_chunked_sdg"); err != nil {
		return nil, err
	}
	return t, nil
}
