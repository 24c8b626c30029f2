// Command benchmark is the repository's performance benchmark: four
// workloads that each stress a different set of layers, end-to-end
// metrics measured with tracing off, and per-layer metrics from a
// separate traced run. See README.md in this directory for the metric
// definitions and the measurement rules; BENCHMARK.json at the repo
// root declares the names this program must print.
//
//	go run ./benchmark --workload stream_live --seed 1 --seconds 20 --trace 0
//	go run ./benchmark -compare A.json B.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

// metricDef is one declared metric; the lists below must equal
// BENCHMARK.json (a test pins that).
type metricDef struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
}

// endToEnd are the numbers a user of the system sees. Every workload
// reports every one; what each means on each workload is the table in
// README.md (and aliases below).
var endToEnd = []metricDef{
	{"setup_s", "s", "lower"},
	{"wait_p50_ms", "ms", "lower"},
	{"vs_baseline_x", "x", "lower"},
	{"alloc_mb", "MB", "lower"},
}

// aliases names what each end-to-end slot measures on each workload
// family, in the vocabulary of the issue that defined the benchmark.
var aliases = map[string]map[string]string{
	"trace":  {"wait_p50_ms": "traced corner-case pass", "vs_baseline_x": "slowdown_x (traced / untraced)", "alloc_mb": "traced pass TotalAlloc"},
	"stream": {"wait_p50_ms": "visible_p50_ms (push start -> SSE event)", "vs_baseline_x": "stream_wall / no-sink wall", "alloc_mb": "probe phase TotalAlloc"},
	"batch":  {"wait_p50_ms": "analyze_p50_ms (one pass)", "vs_baseline_x": "default / Parallelism-1 pass", "alloc_mb": "analyze_alloc_mb"},
}

var perLayer = []metricDef{
	// tracer (+vol, vfd, semantics) — home workload trace_overhead
	{"tracer.ns_per_op", "ns", "lower"},
	{"tracer.vol_ns_per_op", "ns", "lower"},
	{"tracer.vfd_ns_per_op", "ns", "lower"},
	{"tracer.alloc_bytes_per_op", "B", "lower"},
	{"tracer.checkpoint_us", "us", "lower"},
	{"tracer.trace_bytes", "B", "lower"},
	{"tracer.bulk_slowdown_x", "x", "lower"},
	{"tracer.traced_kops_per_s", "kop/s", "higher"},
	{"vfd.untraced_ns_per_op", "ns", "lower"},
	{"vfd.mem_slowdown_x", "x", "lower"},
	// trace codec and delta framing — stream_live (encode), batch_analyze (decode)
	{"codec.diff_us", "us", "lower"},
	{"codec.encode_us", "us", "lower"},
	{"codec.record_bytes", "B", "lower"},
	{"codec.delta_share", "ratio", "higher"},
	{"codec.decode_us_per_task", "us", "lower"},
	{"codec.json_decode_us_per_task", "us", "lower"},
	// serve/client + ingest handler — stream_live
	{"push.ack_us", "us", "lower"},
	{"push.ack_tail_us", "us", "lower"},
	{"push.retries", "count", "lower"},
	{"push.resyncs", "count", "lower"},
	{"push.duplicates", "count", "lower"},
	// serve WAL + fold — stream_live
	{"wal.append_us", "us", "lower"},
	{"serve.fold_us", "us", "lower"},
	{"serve.wal_replay_ms", "ms", "lower"},
	// serve snapshot (ingest.go, shard) — stream_loaded
	{"serve.snapshot_ms", "ms", "lower"},
	{"serve.snapshots_per_record", "ratio", "lower"},
	{"serve.ack_to_event_ms", "ms", "lower"},
	{"serve.event_delivery_ms", "ms", "lower"},
	{"serve.event_render_ms", "ms", "lower"},
	{"serve.events_per_record", "ratio", "lower"},
	{"serve.contrib_hit_ratio", "ratio", "higher"},
	{"serve.parse_count", "count", "lower"},
	{"serve.visible_tail_ms", "ms", "lower"},
	{"serve.cold_start_ms", "ms", "lower"},
	{"flow.stream_wall_ms", "ms", "lower"},
	{"flow.converge_ms", "ms", "lower"},
	// render (graph, analyzer.TimeAggCache) — stream_loaded
	{"render.live_ftg_cold_ms", "ms", "lower"},
	{"render.live_ftg_warm_us", "us", "lower"},
	{"render.window_cold_ms", "ms", "lower"},
	{"render.body_kb", "kB", "lower"},
	// analyzer / graph / diagnose batch — batch_analyze
	{"trace.load_ms", "ms", "lower"},
	{"analyzer.ftg_ms", "ms", "lower"},
	{"analyzer.sdg_ms", "ms", "lower"},
	{"analyzer.sdg_serial_ms", "ms", "lower"},
	{"diagnose.analyze_ms", "ms", "lower"},
	{"graph.render_json_ms", "ms", "lower"},
	{"graph.render_dot_ms", "ms", "lower"},
	{"graph.nodes", "count", "lower"},
	{"graph.edges", "count", "lower"},
	{"diagnose.findings", "count", "lower"},
	// the benchmark itself
	{"bench.trace_overhead_pct", "%", "lower"},
	{"bench.accounted_share", "ratio", "higher"},
	{"bench.loadavg_start", "load", "lower"},
	{"bench.nproc", "count", "higher"},
	{"bench.samples", "count", "higher"},
}

// config is one run's arguments.
type config struct {
	workload string
	seed     uint64
	budget   time.Duration
	traced   bool
	quick    bool
	scratch  string // directory for everything the run writes
}

// iter is one repetition's position in the run. swap alternates which
// side of an A/B pair runs first; rec is nil when this repetition runs
// with tracing off (always in a measured run, every second repetition
// in a traced run, which is how the tracing overhead is measured).
type iter struct {
	i    int
	swap bool
	rec  *recorder
	warm bool // warm-up repetition: checks count, samples are discarded
}

func (it iter) id(prefix string) string { return fmt.Sprintf("%s%03d", prefix, it.i) }

// result is what one workload run measured.
type result struct {
	attempted int
	failed    int
	notes     []string // one line per failed check

	setup []float64 // seconds, one per set-up

	// samples holds one value per repetition for every user-visible
	// series (the end-to-end slots and the workload's own extras);
	// tracedSamples holds the same series from repetitions that ran
	// with spans on.
	samples       map[string][]float64
	tracedSamples map[string][]float64

	layer map[string]float64 // per-layer metrics, traced runs only
}

func newResult() *result {
	return &result{samples: map[string][]float64{}, tracedSamples: map[string][]float64{}, layer: map[string]float64{}}
}

func (r *result) add(it iter, name string, v float64) {
	if it.warm {
		return
	}
	if it.rec != nil {
		r.tracedSamples[name] = append(r.tracedSamples[name], v)
		return
	}
	r.samples[name] = append(r.samples[name], v)
}

// check counts one verified operation and records why it failed.
func (r *result) check(ok bool, format string, args ...any) {
	r.attempted++
	if !ok {
		r.failed++
		if len(r.notes) < 20 {
			r.notes = append(r.notes, fmt.Sprintf(format, args...))
		}
	}
}

// repeat runs rep until the budget is spent, and at least min times.
// runtime.GC between repetitions keeps one repetition's garbage out of
// the next one's timed regions.
func repeat(c config, rec *recorder, min int, rep func(iter) error) error {
	stride := 1
	if rec != nil {
		stride = 2
	}
	start := time.Now()
	for i := 0; i < min*stride || time.Since(start) < c.budget; i++ {
		it := iter{i: i, swap: (i/stride)%2 == 1}
		if rec != nil && i%2 == 0 {
			it.rec = rec
		}
		if err := rep(it); err != nil {
			return err
		}
		runtime.GC()
	}
	return nil
}

// setupTimes is how often a run sets up; set-up time is reported as the
// median. Five, because on ext4 creating files is an order of magnitude
// slower just after files were deleted (freed inodes are reused first),
// which the previous run's clean-up always has done: the first set-up of
// a run pays that, the second is unusually cheap (it rewrites files whose
// blocks were never allocated), and only from the third on is the
// directory write steady. Set-ups after the first rewrite the same files
// in place instead of deleting them.
const setupTimes = 5

type workload struct {
	name   string
	family string // workloads of one family produce the same per-layer metrics
	why    string
	run    func(c config, rec *recorder) (*result, error)
}

var allWorkloads = []workload{
	{"trace_overhead", "trace",
		"tracer alone on the file-backed VFD: the 200-dataset corner case does per-object tracker work on every op, bulk h5bench almost none",
		runTraceOverhead},
	{"stream_live", "stream",
		"whole push-to-SSE pipeline on a 15-task state: per-record fixed costs (diff, encode, HTTP, WAL append, fold, SSE) dominate",
		func(c config, rec *recorder) (*result, error) { return runStream(c, rec, liveSizes(c.quick)) }},
	{"stream_loaded", "stream",
		"same stream into a server holding 1000 preloaded tasks: snapshot rebuild and render dominate, codec and WAL costs vanish",
		func(c config, rec *recorder) (*result, error) { return runStream(c, rec, loadedSizes(c.quick)) }},
	{"batch_analyze", "batch",
		"offline load, FTG/SDG build, diagnose and render of a 3000-task directory: codec as decoder, analyzer cold with the parallel merge",
		runBatch},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range allWorkloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// runWorkload runs one workload and, in a traced run, a quick-size
// traced pass of one workload from every other family, so that every
// layer has a reading in every traced run (a change that slows a layer
// this workload bypasses still shows). Readings taken that way are
// listed in offPath.
func runWorkload(c config, rec *recorder) (res *result, offPath []string, err error) {
	w, ok := findWorkload(c.workload)
	if !ok {
		return nil, nil, fmt.Errorf("unknown workload %q", c.workload)
	}
	if err := os.MkdirAll(c.scratch, 0o755); err != nil {
		return nil, nil, err
	}
	loadavg := loadAverage()
	if res, err = w.run(c, rec); err != nil {
		return nil, nil, fmt.Errorf("%s: %w", w.name, err)
	}
	if rec == nil {
		return res, nil, nil
	}
	done := map[string]bool{w.family: true}
	for _, other := range allWorkloads {
		if done[other.family] {
			continue
		}
		done[other.family] = true
		oc := c
		oc.workload, oc.quick, oc.budget = other.name, true, time.Second
		oc.scratch = filepath.Join(c.scratch, "offpath-"+other.name)
		if err := os.MkdirAll(oc.scratch, 0o755); err != nil {
			return nil, nil, err
		}
		ores, err := other.run(oc, newRecorder())
		if err != nil {
			return nil, nil, fmt.Errorf("%s (off-path): %w", other.name, err)
		}
		res.attempted += ores.attempted
		res.failed += ores.failed
		res.notes = append(res.notes, ores.notes...)
		for name, v := range ores.layer {
			if _, own := res.layer[name]; !own {
				res.layer[name] = v
				offPath = append(offPath, name)
			}
		}
	}
	sort.Strings(offPath)

	if base, traced := median(res.samples["wait_p50_ms"]), median(res.tracedSamples["wait_p50_ms"]); base > 0 {
		res.layer["bench.trace_overhead_pct"] = 100 * (traced/base - 1)
	}
	res.layer["bench.loadavg_start"] = loadavg
	res.layer["bench.nproc"] = float64(runtime.NumCPU())
	res.layer["bench.samples"] = float64(len(res.tracedSamples["wait_p50_ms"]))
	return res, offPath, nil
}

// loadAverage reads the 1-minute load average (0 where /proc is absent).
func loadAverage() float64 {
	data, err := os.ReadFile("/proc/loadavg")
	if err != nil {
		return 0
	}
	var v float64
	fmt.Sscan(string(data), &v)
	return v
}

// report is the contract's last line of standard output.
type report struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// endToEndValues reduces a measured run to the declared end-to-end
// metrics: the median over repetitions of each series.
func endToEndValues(res *result) map[string]float64 {
	out := map[string]float64{}
	for _, m := range endToEnd {
		out[m.Name] = median(res.samples[m.Name])
	}
	out["setup_s"] = median(res.setup)
	return out
}

func buildReport(res *result, traced bool) report {
	rep := report{Correct: res.failed == 0, Attempted: res.attempted, Failed: res.failed, Metrics: map[string]metricValue{}}
	if traced {
		for _, m := range perLayer {
			rep.Metrics[m.Name] = metricValue{res.layer[m.Name], m.Unit}
		}
		return rep
	}
	vals := endToEndValues(res)
	for _, m := range endToEnd {
		rep.Metrics[m.Name] = metricValue{vals[m.Name], m.Unit}
	}
	return rep
}

// printHuman lists every series by name with its unit before the
// contract line, so one command shows everything that was measured.
func printHuman(w workload, c config, res *result, offPath []string) {
	fmt.Printf("workload %s  seed %d  budget %s  traced %v\n", w.name, c.seed, c.budget, c.traced)
	fmt.Printf("  %-28s %14.6g s   (median of %d set-ups)\n", "setup_s", median(res.setup), len(res.setup))
	units := map[string]string{}
	for _, m := range endToEnd {
		units[m.Name] = m.Unit
	}
	for _, name := range sortedKeys(res.samples) {
		s := summarize(res.samples[name])
		unit := units[name] // other series carry their unit in the name
		line := fmt.Sprintf("  %-28s %14.6g %-4s n=%-4d iqr/median=%.3f", name, s.Median, unit, s.N, s.spread())
		if s.TailPct > 50 {
			line += fmt.Sprintf("  p%d=%.6g", s.TailPct, s.Tail)
		}
		if a := aliases[w.family][name]; a != "" {
			line += "  = " + a
		}
		fmt.Println(line)
	}
	if c.traced {
		off := map[string]bool{}
		for _, n := range offPath {
			off[n] = true
		}
		for _, m := range perLayer {
			mark := ""
			if off[m.Name] {
				mark = "  (off-path: quick-size pass of its home workload)"
			}
			fmt.Printf("  %-32s %14.6g %s%s\n", m.Name, res.layer[m.Name], m.Unit, mark)
		}
	}
	for _, n := range res.notes {
		fmt.Println("  FAILED:", n)
	}
	fmt.Printf("  failed_share %d/%d\n", res.failed, res.attempted)
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

func main() {
	fs := flag.NewFlagSet("benchmark", flag.ExitOnError)
	name := fs.String("workload", "all", "workload to run: "+strings.Join(workloadNames(), ", ")+", or all")
	seed := fs.Uint64("seed", 1, "seed for every generated input")
	seconds := fs.Float64("seconds", 20, "seconds to measure per workload")
	traceFlag := fs.Int("trace", 0, "1 = traced run: spans and counters on, per-layer metrics out")
	traceOut := fs.String("trace-out", "", "write the traced run's spans as Chrome-trace JSON (default: beside the result file)")
	out := fs.String("out", filepath.Join(".bench_build", "result.json"), "result file; each run is appended to it")
	quick := fs.Bool("quick", false, "tiny inputs, for smoke tests; numbers are not comparable")
	compare := fs.Bool("compare", false, "compare two result files: -compare A.json B.json")
	fs.Parse(os.Args[1:])

	if *compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "usage: benchmark -compare A.json B.json")
			os.Exit(2)
		}
		regressed, err := compareFiles(os.Stdout, "BENCHMARK.json", fs.Arg(0), fs.Arg(1))
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			os.Exit(2)
		}
		if regressed {
			os.Exit(1)
		}
		return
	}

	names := []string{*name}
	if *name == "all" {
		names = workloadNames()
	}
	for _, n := range names {
		c := config{workload: n, seed: *seed, budget: time.Duration(*seconds * float64(time.Second)),
			traced: *traceFlag != 0, quick: *quick}
		rep, err := runAndRecord(c, *out, *traceOut)
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			os.Exit(2)
		}
		// Exit code 0 whenever a result line is printed: the line's
		// "correct" carries the verdict.
		line, _ := json.Marshal(rep)
		fmt.Println(string(line))
	}
}

func workloadNames() []string {
	var names []string
	for _, w := range allWorkloads {
		names = append(names, w.name)
	}
	return names
}

// runAndRecord runs one workload in a scratch directory of its own
// under .bench_build (inside the checkout, removed afterwards), prints
// the human-readable listing, appends the run to the result file and
// returns the contract report.
func runAndRecord(c config, outPath, traceOut string) (report, error) {
	if err := os.MkdirAll(".bench_build", 0o755); err != nil {
		return report{}, err
	}
	scratch, err := os.MkdirTemp(".bench_build", "scratch-")
	if err != nil {
		return report{}, err
	}
	defer os.RemoveAll(scratch)
	c.scratch = scratch

	var rec *recorder
	if c.traced {
		rec = newRecorder()
	}
	env := captureEnv()
	res, offPath, err := runWorkload(c, rec)
	if err != nil {
		return report{}, err
	}
	w, _ := findWorkload(c.workload)
	printHuman(w, c, res, offPath)
	if err := appendRun(outPath, newRunRecord(env, c, res, offPath)); err != nil {
		return report{}, err
	}
	if rec != nil {
		if traceOut == "" {
			traceOut = strings.TrimSuffix(outPath, ".json") + "." + c.workload + ".spans.json"
		}
		if err := rec.writeChromeTrace(traceOut); err != nil {
			return report{}, err
		}
		fmt.Printf("  spans written to %s\n", traceOut)
	}
	return buildReport(res, c.traced), nil
}
