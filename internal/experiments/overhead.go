package experiments

import (
	"errors"
	"fmt"
	"os"
	"time"

	"dayu/internal/tracer"
	"dayu/internal/units"
	"dayu/internal/workloads"
)

// The Figure 9/10 overhead experiments measure the real Data Semantic
// Mapper. Scales are reduced from the paper's testbed (80 GB files
// become tens of MiB) because the substrate is in-memory; the reported
// shapes - overhead decreasing with file size and process count,
// worst-case overhead growing with object-access frequency, VOL storage
// flat vs VFD storage linear - are the reproduction targets.

// minDuration runs fn reps times and returns the fastest run.
func minDuration(reps int, fn func() (time.Duration, error)) (time.Duration, error) {
	var best time.Duration
	for i := 0; i < reps; i++ {
		d, err := fn()
		if err != nil {
			return 0, err
		}
		if best == 0 || d < best {
			best = d
		}
	}
	return best, nil
}

// measureTracer measures one workload under the tracer config cfg (a
// config file's JSON): the Data Semantic Mapper's cost by replay
// (tracer.MeasureBreakdown, each component the median of reps warm
// replays), and the workload's untraced wall time, the fastest of reps
// runs. run executes the workload, untraced when given a nil tracer.
func measureTracer(cfg string, reps int, run func(*tracer.Tracer) error) (tracer.Breakdown, time.Duration, error) {
	// A real config file, so the Input Parser does measurable work as
	// in the paper's breakdown. It is removed once measured.
	f, err := os.CreateTemp("", "dayu-config-*.json")
	if err != nil {
		return tracer.Breakdown{}, 0, err
	}
	defer os.Remove(f.Name())
	_, err = f.WriteString(cfg)
	if err := errors.Join(err, f.Close()); err != nil {
		return tracer.Breakdown{}, 0, err
	}
	b, err := tracer.MeasureBreakdown(f.Name(), reps, run)
	if err != nil {
		return tracer.Breakdown{}, 0, err
	}
	app, err := minDuration(reps, func() (time.Duration, error) {
		t0 := time.Now()
		err := run(nil)
		return time.Since(t0), err
	})
	return b, app, err
}

// layerOverheads measures a workload's VFD-only and VOL-only tracer
// overhead: the Access Tracker plus Characteristic Mapper replay time
// of each layer alone, as a percentage of the untraced run. The Input
// Parser runs once per task, not per op, and is left out. vfdCfg is the
// VFD-only config.
func layerOverheads(vfdCfg string, reps int, run func(*tracer.Tracer) error) (vfdPct, volPct float64, err error) {
	pct := func(cfg string) (float64, error) {
		b, app, err := measureTracer(cfg, reps, run)
		return 100 * float64(b.AccessTracker+b.CharacteristicMapper) / float64(app), err
	}
	if vfdPct, err = pct(vfdCfg); err != nil {
		return 0, 0, err
	}
	volPct, err = pct(`{"disable_vfd":true}`)
	return vfdPct, volPct, err
}

// h5bench runs h5bench under cfg, untraced when given a nil tracer.
func h5bench(cfg workloads.H5benchConfig) func(*tracer.Tracer) error {
	return func(tr *tracer.Tracer) error { _, _, err := workloads.RunH5bench(cfg, tr); return err }
}

// cornerCase runs the corner case under cfg, untraced when given a nil
// tracer.
func cornerCase(cfg workloads.CornerCaseConfig) func(*tracer.Tracer) error {
	return func(tr *tracer.Tracer) error { _, _, err := workloads.RunCornerCase(cfg, tr); return err }
}

// Fig9a: h5bench overhead vs total file size.
func Fig9a(opts Options) (*Table, error) {
	opts = opts.withDefaults()
	sizes := []int64{8 << 20, 16 << 20, 32 << 20, 64 << 20}
	if opts.Quick {
		sizes = []int64{1 << 20, 2 << 20, 4 << 20}
	}
	t := &Table{ID: "fig9a", Title: "Data Semantic Mapper overhead vs file size (h5bench)",
		Header: []string{"file size", "VFD overhead %", "VOL overhead %"}}
	var first, last float64
	for i, size := range sizes {
		vfdPct, volPct, err := layerOverheads(`{"disable_vol":true}`, opts.Reps, h5bench(workloads.H5benchConfig{
			Procs: 1, BytesPerProc: size, IOSize: 256 << 10,
		}))
		if err != nil {
			return nil, err
		}
		t.AddRow(units.Bytes(size), fmt.Sprintf("%.3f", vfdPct), fmt.Sprintf("%.3f", volPct))
		if i == 0 {
			first = vfdPct + volPct
		}
		last = vfdPct + volPct
	}
	t.AddNote("paper: overhead stays below 0.23%% and decreases with file size (fixed per-object cost amortized over larger transfers)")
	if last <= first {
		t.AddNote("reproduced: overhead decreases (or stays flat) as file size grows")
	} else {
		t.AddNote("WARNING: overhead did not decrease with file size this run")
	}
	return t, nil
}

// Fig9b: h5bench overhead vs process count at fixed volume per process.
func Fig9b(opts Options) (*Table, error) {
	opts = opts.withDefaults()
	procs := []int{1, 2, 4, 8}
	per := int64(4 << 20)
	if opts.Quick {
		procs = []int{1, 2, 4}
		per = 1 << 20
	}
	t := &Table{ID: "fig9b", Title: "Data Semantic Mapper overhead vs process count (h5bench)",
		Header: []string{"processes", "VFD overhead %", "VOL overhead %"}}
	for _, p := range procs {
		vfdPct, volPct, err := layerOverheads(`{"disable_vol":true}`, opts.Reps, h5bench(workloads.H5benchConfig{
			Procs: p, BytesPerProc: per, IOSize: 256 << 10,
		}))
		if err != nil {
			return nil, err
		}
		t.AddRow(fmt.Sprint(p), fmt.Sprintf("%.3f", vfdPct), fmt.Sprintf("%.3f", volPct))
	}
	t.AddNote("paper: overhead below 0.16%% and decreasing with process count (per-process profiler state, fixed 1 GB/process)")
	return t, nil
}

// Fig9c: corner-case overhead vs dataset read-operation count.
func Fig9c(opts Options) (*Table, error) {
	opts = opts.withDefaults()
	ops := []int{1000, 2000, 4000, 8000}
	if opts.Quick {
		ops = []int{500, 1000, 2000}
	}
	t := &Table{ID: "fig9c", Title: "Worst-case overhead vs dataset I/O count (200 datasets, small file)",
		Header: []string{"dataset I/O ops", "VFD overhead %", "VOL overhead %"}}
	for _, n := range ops {
		vfdPct, volPct, err := layerOverheads(`{"disable_vol":true,"io_trace":true}`, opts.Reps,
			cornerCase(workloads.CornerCaseConfig{ReadOps: n}))
		if err != nil {
			return nil, err
		}
		t.AddRow(fmt.Sprint(n), fmt.Sprintf("%.2f", vfdPct), fmt.Sprintf("%.2f", volPct))
	}
	t.AddNote("paper: worst-case runtime overhead grows with I/O activity within a file's open/close period, reaching ~4%% (2.97%% VFD + 1.0%% VOL)")
	return t, nil
}

// Fig9d: trace storage overhead vs program data volume.
func Fig9d(opts Options) (*Table, error) {
	opts = opts.withDefaults()
	ops := []int{1000, 2000, 4000, 8000}
	if opts.Quick {
		ops = []int{500, 1000, 2000}
	}
	t := &Table{ID: "fig9d", Title: "Trace storage overhead vs I/O operations",
		Header: []string{"I/O ops", "VFD trace", "VFD storage %", "VOL trace", "VOL storage %"}}
	var volSizes []int64
	var vfdSizes []int64
	for _, n := range ops {
		cfg := workloads.CornerCaseConfig{ReadOps: n, DatasetBytes: 128 << 10}
		programBytes := int64(200) * (128 << 10)
		_, vfdTrace, err := workloads.RunCornerCase(cfg, tracer.New(tracer.Config{DisableVOL: true, IOTrace: true}))
		if err != nil {
			return nil, err
		}
		vfdSize, err := vfdTrace.EncodedSize()
		if err != nil {
			return nil, err
		}
		_, volTrace, err := workloads.RunCornerCase(cfg, tracer.New(tracer.Config{DisableVFD: true}))
		if err != nil {
			return nil, err
		}
		volSize, err := volTrace.EncodedSize()
		if err != nil {
			return nil, err
		}
		vfdSizes = append(vfdSizes, vfdSize)
		volSizes = append(volSizes, volSize)
		t.AddRow(fmt.Sprint(n),
			units.Bytes(vfdSize), units.Percent(float64(vfdSize), float64(programBytes)),
			units.Bytes(volSize), units.Percent(float64(volSize), float64(programBytes)))
	}
	// Shape checks: VOL flat, VFD linear in ops.
	volFlat := volSizes[len(volSizes)-1] < volSizes[0]*2
	vfdGrows := vfdSizes[len(vfdSizes)-1] > vfdSizes[0]*2
	if volFlat && vfdGrows {
		t.AddNote("reproduced: VOL trace storage is constant in op count; VFD time-sensitive trace grows linearly (turn off I/O tracing for constant storage)")
	} else {
		t.AddNote("WARNING: storage shape unexpected (VOL flat=%v, VFD linear=%v)", volFlat, vfdGrows)
	}
	t.AddNote("paper: VOL storage ~0.2%%, VFD linear up to ~0.35%% of the 200 MB program data (here scaled to a 25 MiB file)")
	return t, nil
}

// fig10 tabulates one workload's Data Semantic Mapper breakdown and
// compares its total with the workload's untraced wall time; paper is
// the paper's reading, as a note.
func fig10(id, title, paper string, opts Options, run func(*tracer.Tracer) error) (*Table, error) {
	reps := opts.withDefaults().Reps
	b, app, err := measureTracer(`{"page_size": 4096}`, reps, run)
	if err != nil {
		return nil, err
	}
	total := b.InputParser + b.AccessTracker + b.CharacteristicMapper
	share := func(d time.Duration) string { return units.Percent(float64(d), float64(total)) }
	t := &Table{ID: id, Title: title, Header: []string{"component", "time", "share"}}
	t.AddRow("Input_Parser", units.Duration(b.InputParser), share(b.InputParser))
	t.AddRow("Access_Tracker", units.Duration(b.AccessTracker), share(b.AccessTracker))
	t.AddRow("Characteristic_Mapper", units.Duration(b.CharacteristicMapper), share(b.CharacteristicMapper))
	t.AddRow("Total", units.Duration(total), "100%")
	t.AddNote("tracer total is %s of the untraced application's %s run (%s); each component is the median of %d warm replays of the recorded stream",
		units.Percent(float64(total), float64(app)), units.Duration(app), units.Duration(total), reps)
	t.AddNote("%s", paper)
	return t, nil
}

// Fig10a: component breakdown under h5bench (bulk I/O).
func Fig10a(opts Options) (*Table, error) {
	cfg := workloads.H5benchConfig{Procs: 16, BytesPerProc: 8 << 20, IOSize: 512 << 10}
	if opts.Quick {
		cfg = workloads.H5benchConfig{Procs: 4, BytesPerProc: 2 << 20, IOSize: 256 << 10}
	}
	return fig10("fig10a", "DaYu execution breakdown: h5bench (bulk parallel I/O)",
		"paper: h5bench shows minimal total overhead (0.008% of execution), dominated by per-op mapper/tracker work",
		opts, h5bench(cfg))
}

// Fig10b: component breakdown under the corner-case benchmark.
func Fig10b(opts Options) (*Table, error) {
	cfg := workloads.CornerCaseConfig{ReadOps: 8000}
	if opts.Quick {
		cfg = workloads.CornerCaseConfig{ReadOps: 2000}
	}
	return fig10("fig10b", "DaYu execution breakdown: corner-case (frequent object access)",
		"paper: the corner case shifts cost toward the Access Tracker, which records every data-object access (~4% total overhead)",
		opts, cornerCase(cfg))
}
