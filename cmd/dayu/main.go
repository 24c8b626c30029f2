// Command dayu is the workflow tracing and analysis CLI.
//
// Subcommands:
//
//	dayu run -workflow <pyflextrkr|ddmd|arldm> [-machine m] [-nodes n] -traces dir
//	        [-stream url] [-checkpoint-ops n] [-delta]
//	    Execute a workload replica on the simulated cluster, saving
//	    per-task traces and the workflow manifest. With -stream, each
//	    task additionally streams cumulative checkpoint records (every
//	    -checkpoint-ops file operations; 0 streams finals only, a negative
//	    period is an error) and its completed trace to a
//	    running dayu serve instance's durable ingest, feeding the
//	    /v1/live/* endpoints while the workflow is still executing.
//	    -delta frames each checkpoint as a delta against the last
//	    acknowledged one, cutting pushed bytes for long tasks; the
//	    server reassembles cumulative state and NACK-resyncs after
//	    restarts, so the live view is byte-identical either way.
//
//	dayu analyze -traces dir [-out dir] [-sdg] [-regions] [-page n]
//	             [-by-stage] [-collapse n]
//	    Build the FTG (default) or SDG from saved traces and write
//	    DOT/SVG/HTML/JSON renderings.
//
//	dayu diagnose -traces dir
//	    Run the observation rules and print findings with their
//	    optimization guidelines.
//
//	dayu plan -traces dir [-tier nvme] [-nodes n]
//	    Derive a data-locality plan (placement, co-scheduling, staging)
//	    from saved traces and print it.
//
//	dayu report -traces dir [-o report.md] [-tier nvme] [-nodes n]
//	    Render a Markdown optimization report: summary, per-task I/O,
//	    dependence chains, findings by guideline, derived plan.
//
//	dayu faults -workflow <name> [-seed n] [-read-rate p] [-write-rate p]
//	            [-meta-rate p] [-torn p] [-corrupt p] [-fail-after n]
//	            [-fault-latency d] [-retries n] [-backoff d] [-reschedule]
//	    Execute a workload under deterministic fault injection and report
//	    per-task attempts, failures and the virtual-time cost of
//	    self-healing.
//
//	dayu metrics -workflow <name> [-machine m] [-nodes n] [-json]
//	    Execute a workload replica with the observability layer attached
//	    and emit the metrics registry in Prometheus text format (default)
//	    or JSON (-json): engine stage/task spans on the virtual-time
//	    axis, retry/rollback counters, per-driver VFD op histograms.
//
//	dayu serve -dir traces [-addr :8080] [-poll 2s] [-tier nvme] [-nodes n]
//	           [-wal dir] [-wal-fsync always|interval|never] [-ingest-queue n]
//	           [-max-body bytes] [-request-timeout d]
//	           [-history dir] [-history-retain n]
//	    Run the incremental analysis service: watch a trace directory
//	    and serve FTG/SDG renderings, diagnostics and locality plans
//	    over HTTP from a content-addressed result cache. See
//	    /healthz, /metrics and the /v1/{ftg,sdg,diagnose,plan,tasks}
//	    endpoints. With -wal, POST /v1/ingest accepts pushed traces
//	    into a crash-safe write-ahead log folded by one ingest pipeline;
//	    SIGINT/SIGTERM drain in-flight requests and flush the WAL before
//	    exit. -history records every converged snapshot for /v1/history
//	    replay.
//
//	dayu push -traces dir -server http://host:8080 [-attempts n] [-timeout d]
//	    Push every trace file in a directory (plus manifest.json) to a
//	    running dayu serve instance's durable ingest endpoint, retrying
//	    transient failures and 429 backpressure with capped exponential
//	    backoff. Idempotent: re-pushing already-ingested traces is
//	    acknowledged as duplicates.
//
//	dayu watch -server http://host:8080 [-interval d] [-once] [-horizon d]
//	    Follow a serve instance from the terminal: subscribe to the
//	    /v1/live/events stream (one pushed event per snapshot change,
//	    resumed with Last-Event-ID across reconnects) and, on each
//	    event, print stream progress (complete vs in-flight tasks, WAL
//	    state) plus any anti-pattern findings from /healthz and
//	    /v1/live/diagnostics. A server without the stream is an error.
//	    -horizon restricts diagnostics to the trailing window (must be
//	    non-negative); -interval is the delay before reconnecting a
//	    dropped stream; -once prints a single observation for scripts.
//
//	dayu convert -traces dir -o dir [-format dtb|json]
//	    Rewrite a trace directory in the requested serialization
//	    (dtb/v2 binary by default), carrying the manifest along.
//	    Analyses over the converted directory are byte-identical to
//	    the original.
package main

import (
	"bufio"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"

	"dayu/internal/analyzer"
	"dayu/internal/diagnose"
	"dayu/internal/graph"
	"dayu/internal/obs"
	"dayu/internal/optimizer"
	"dayu/internal/report"
	"dayu/internal/serve"
	"dayu/internal/serve/client"
	"dayu/internal/sim"
	"dayu/internal/trace"
	"dayu/internal/tracer"
	"dayu/internal/units"
	"dayu/internal/vfd"
	"dayu/internal/workflow"
	"dayu/internal/workloads"
)

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	var err error
	switch os.Args[1] {
	case "run":
		err = cmdRun(os.Args[2:])
	case "analyze":
		err = cmdAnalyze(os.Args[2:])
	case "diagnose":
		err = cmdDiagnose(os.Args[2:])
	case "plan":
		err = cmdPlan(os.Args[2:])
	case "report":
		err = cmdReport(os.Args[2:])
	case "faults":
		err = cmdFaults(os.Args[2:])
	case "metrics":
		err = cmdMetrics(os.Args[2:])
	case "serve":
		err = cmdServe(os.Args[2:])
	case "push":
		err = cmdPush(os.Args[2:])
	case "watch":
		err = cmdWatch(os.Args[2:])
	case "convert":
		err = cmdConvert(os.Args[2:])
	case "help", "-h", "--help":
		usage()
	default:
		fmt.Fprintf(os.Stderr, "dayu: unknown subcommand %q\n", os.Args[1])
		usage()
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "dayu: %v\n", err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage: dayu <run|analyze|diagnose|plan|report|faults|metrics|serve|push|watch|convert> [flags]
  run       execute a workload replica with tracing on the simulated cluster
  analyze   build FTG/SDG graphs from saved traces
  diagnose  detect I/O observations and print optimization guidelines
  plan      derive a data-locality optimization plan from traces
  report    render a Markdown optimization report from traces
  faults    execute a workload under deterministic fault injection with retry
  metrics   run a workload with the obs layer on and dump its metrics
  serve     watch a trace directory and serve cached analyses over HTTP
  push      push a trace directory to a serve instance's durable ingest
  watch     follow a serve instance's live diagnostics from the terminal
  convert   rewrite a trace directory between JSON and dtb/v2 binary`)
}

func loadWorkload(name string) (workflow.Spec, func(*workflow.Engine) error, error) {
	switch name {
	case "pyflextrkr":
		spec, setup := workloads.PyFlextrkr(workloads.PyFlextrkrConfig{})
		return spec, setup, nil
	case "pyflextrkr-s3to5":
		spec, setup := workloads.PyFlextrkrStages3to5(workloads.PyFlextrkrConfig{})
		return spec, setup, nil
	case "ddmd":
		spec, setup := workloads.DDMD(workloads.DDMDConfig{})
		return spec, setup, nil
	case "arldm":
		spec, setup := workloads.ARLDM(workloads.ARLDMConfig{})
		return spec, setup, nil
	}
	return workflow.Spec{}, nil, fmt.Errorf("unknown workflow %q (pyflextrkr, pyflextrkr-s3to5, ddmd, arldm)", name)
}

func cmdRun(args []string) error {
	fs := flag.NewFlagSet("run", flag.ExitOnError)
	name := fs.String("workflow", "pyflextrkr", "workload replica to run")
	machine := fs.String("machine", "cpu-cluster", "simulated machine (cpu-cluster, gpu-cluster)")
	nodes := fs.Int("nodes", 2, "cluster node count")
	tracesDir := fs.String("traces", "traces", "trace output directory")
	format := fs.String("format", "json", "trace serialization (json, dtb)")
	ioTrace := fs.Bool("io-trace", false, "record time-sensitive raw I/O traces")
	parallel := fs.Bool("parallel", false, "execute stage tasks on goroutines (per-task profilers)")
	stream := fs.String("stream", "", "dayu serve base URL to stream live checkpoints and traces to")
	checkpointOps := fs.Int64("checkpoint-ops", 64, "file operations between streamed checkpoints (with -stream)")
	streamAttempts := fs.Int("stream-attempts", 8, "delivery attempts per streamed record (with -stream)")
	delta := fs.Bool("delta", false, "frame streamed checkpoints as deltas against the last acknowledged one (with -stream)")
	fs.Parse(args)

	if *checkpointOps < 0 {
		// 0 means finals only; a negative period would stream no
		// checkpoints with no error.
		return fmt.Errorf("run: -checkpoint-ops must be non-negative (got %d)", *checkpointOps)
	}

	tf, err := trace.ParseFormat(*format)
	if err != nil {
		return err
	}
	m, err := sim.MachineByName(*machine)
	if err != nil {
		return err
	}
	spec, setup, err := loadWorkload(*name)
	if err != nil {
		return err
	}
	tcfg := tracer.Config{IOTrace: *ioTrace}
	var sink *client.StreamSink
	var streamClient *client.Client
	if *stream != "" {
		streamClient, err = client.New(*stream, client.Options{MaxAttempts: *streamAttempts})
		if err != nil {
			return err
		}
		sink = client.NewStreamSinkOpts(context.Background(), streamClient, client.StreamOptions{Delta: *delta})
		tcfg.Sink = sink
		tcfg.CheckpointOps = *checkpointOps
	}
	eng, err := workflow.NewEngine(workflow.Cluster{Machine: m, Nodes: *nodes, Parallel: *parallel}, nil, tcfg)
	if err != nil {
		return err
	}
	if err := setup(eng); err != nil {
		return err
	}
	res, err := eng.Run(spec)
	if sink != nil {
		// Records were queued during the run; deliver them before the
		// manifest completes the server's view.
		sink.Flush()
	}
	if err != nil {
		return err
	}
	if err := res.SaveTraces(*tracesDir, tf); err != nil {
		return err
	}
	fmt.Printf("workflow %s: %d tasks, simulated time %s\n",
		spec.Name, len(res.Traces), units.Duration(res.Total()))
	for _, s := range res.Stages {
		fmt.Printf("  %-24s %s\n", s.Name, units.Duration(s.Time))
	}
	fmt.Printf("traces written to %s\n", *tracesDir)
	if sink != nil {
		// The manifest completes the server's live view (stage ordering
		// for the analyzer); it only exists after the run.
		if data, err := os.ReadFile(filepath.Join(*tracesDir, "manifest.json")); err == nil {
			if _, err := streamClient.PushManifestBytes(context.Background(), data); err != nil {
				return fmt.Errorf("stream manifest: %w", err)
			}
		} else if !os.IsNotExist(err) {
			return err
		}
		checkpoints, finals, dropped := sink.Stats()
		fmt.Printf("streamed to %s: %d checkpoints, %d finals", *stream, checkpoints, finals)
		if superseded := sink.Superseded(); superseded > 0 {
			fmt.Printf(", %d superseded", superseded)
		}
		if dropped > 0 {
			fmt.Printf(", %d dropped", dropped)
		}
		if *delta {
			deltas, resyncs, pushed := sink.DeltaStats()
			fmt.Printf(" (%d deltas, %d resyncs, %s pushed)", deltas, resyncs, units.Bytes(pushed))
		}
		fmt.Println()
		if err := sink.Err(); err != nil {
			return fmt.Errorf("streaming was degraded (the live view may lag the saved traces): %w", err)
		}
	}
	return nil
}

func loadTraceDir(dir string) ([]*trace.TaskTrace, *trace.Manifest, error) {
	traces, err := trace.LoadDir(dir)
	if err != nil {
		return nil, nil, err
	}
	if len(traces) == 0 {
		return nil, nil, fmt.Errorf("no traces in %s", dir)
	}
	m, err := trace.LoadManifest(dir)
	if err != nil {
		return nil, nil, err
	}
	return traces, m, nil
}

func cmdAnalyze(args []string) error {
	fs := flag.NewFlagSet("analyze", flag.ExitOnError)
	tracesDir := fs.String("traces", "traces", "trace input directory")
	out := fs.String("out", "out", "graph output directory")
	sdg := fs.Bool("sdg", false, "build the Semantic Dataflow Graph instead of the FTG")
	regions := fs.Bool("regions", false, "add file address-region nodes (SDG only)")
	page := fs.Int64("page", 4096, "address-region page size")
	byStage := fs.Bool("by-stage", false, "aggregate task nodes by manifest stage")
	collapse := fs.Int("collapse", 0, "collapse datasets of files holding more than N")
	timeline := fs.Bool("timeline", false, "also emit the time-ordered task/file timeline")
	fs.Parse(args)

	traces, m, err := loadTraceDir(*tracesDir)
	if err != nil {
		return err
	}
	start := time.Now()
	var g *graph.Graph
	base := "ftg"
	if *sdg {
		g = analyzer.BuildSDG(traces, m, analyzer.Options{
			PageSize: *page, IncludeRegions: *regions, IncludeFileMetadata: *regions,
		})
		base = "sdg"
	} else {
		g = analyzer.BuildFTG(traces, m)
	}
	if *byStage {
		if g, err = analyzer.AggregateByStage(g, m); err != nil {
			return err
		}
	}
	if *collapse > 0 {
		if g, err = analyzer.CollapseDatasets(g, *collapse); err != nil {
			return err
		}
	}
	buildTime := time.Since(start)

	if err := os.MkdirAll(*out, 0o755); err != nil {
		return err
	}
	outputs := map[string]string{
		base + ".dot":  g.DOT(),
		base + ".svg":  g.SVG(),
		base + ".html": g.HTML(),
	}
	if data, err := g.IndentedJSON(); err == nil {
		outputs[base+".json"] = string(data)
	}
	for name, content := range outputs {
		if err := os.WriteFile(filepath.Join(*out, name), []byte(content), 0o644); err != nil {
			return err
		}
	}
	if *timeline {
		tl := analyzer.BuildTimeline(traces, m)
		if err := os.WriteFile(filepath.Join(*out, "timeline.html"), []byte(tl.HTML()), 0o644); err != nil {
			return err
		}
		fmt.Print(tl.Text(100))
		fmt.Printf("wrote %s/timeline.html\n", *out)
	}
	s := analyzer.Summarize(g)
	fmt.Printf("%s: %d tasks, %d files, %d datasets, %d regions, %d edges, %s volume (built in %s)\n",
		base, s.Tasks, s.Files, s.Datasets, s.Regions, s.Edges,
		units.Bytes(s.Volume), units.Duration(buildTime))
	fmt.Printf("wrote %s/{%s.dot,%s.svg,%s.html,%s.json}\n", *out, base, base, base, base)
	return nil
}

func cmdDiagnose(args []string) error {
	fs := flag.NewFlagSet("diagnose", flag.ExitOnError)
	tracesDir := fs.String("traces", "traces", "trace input directory")
	asJSON := fs.Bool("json", false, "emit findings as JSON")
	fs.Parse(args)

	traces, m, err := loadTraceDir(*tracesDir)
	if err != nil {
		return err
	}
	findings := diagnose.Analyze(traces, m, diagnose.Thresholds{})
	if *asJSON {
		data, err := diagnose.EncodeJSON(findings)
		if err != nil {
			return err
		}
		_, err = os.Stdout.Write(data)
		return err
	}
	if len(findings) == 0 {
		fmt.Println("no findings")
		return nil
	}
	for _, f := range findings {
		fmt.Println(f.String())
	}
	fmt.Printf("%d findings\n", len(findings))
	return nil
}

func cmdReport(args []string) error {
	fs := flag.NewFlagSet("report", flag.ExitOnError)
	tracesDir := fs.String("traces", "traces", "trace input directory")
	out := fs.String("o", "", "output file (default stdout)")
	tier := fs.String("tier", "nvme", "fast tier for the derived plan")
	nodes := fs.Int("nodes", 2, "cluster node count for the derived plan")
	fs.Parse(args)

	traces, m, err := loadTraceDir(*tracesDir)
	if err != nil {
		return err
	}
	md := report.Generate(traces, m, report.Options{
		Plan: &optimizer.LocalityOptions{
			FastTier: *tier, Nodes: *nodes,
			StageOutDisposable: true, CacheReused: true,
		},
	})
	if *out == "" {
		fmt.Print(md)
		return nil
	}
	if err := os.WriteFile(*out, []byte(md), 0o644); err != nil {
		return err
	}
	fmt.Printf("wrote %s\n", *out)
	return nil
}

func cmdFaults(args []string) error {
	fs := flag.NewFlagSet("faults", flag.ExitOnError)
	name := fs.String("workflow", "pyflextrkr-s3to5", "workload replica to run")
	machine := fs.String("machine", "cpu-cluster", "simulated machine (cpu-cluster, gpu-cluster)")
	nodes := fs.Int("nodes", 2, "cluster node count")
	parallel := fs.Bool("parallel", false, "execute stage tasks on goroutines")
	seed := fs.Int64("seed", 1, "base fault seed (same seed => same faults, same virtual time)")
	readRate := fs.Float64("read-rate", 0.02, "transient read-error probability per data operation")
	writeRate := fs.Float64("write-rate", 0.02, "transient write-error probability per data operation")
	metaRate := fs.Float64("meta-rate", -1, "metadata-op fault probability (default: same as data rates)")
	torn := fs.Float64("torn", 0.005, "torn-write probability (partial write lands, op fails)")
	corrupt := fs.Float64("corrupt", 0, "silent read-corruption probability (bit flips)")
	failAfter := fs.Int64("fail-after", 0, "fail-stop each file session after N operations (0 = off)")
	faultLatency := fs.Duration("fault-latency", time.Millisecond, "virtual latency billed per injected fault")
	retries := fs.Int("retries", 5, "max attempts per task (1 = fail-fast)")
	backoff := fs.Duration("backoff", 10*time.Millisecond, "virtual backoff before the first retry (doubles per attempt)")
	reschedule := fs.Bool("reschedule", true, "move retried tasks to a different node")
	fs.Parse(args)

	m, err := sim.MachineByName(*machine)
	if err != nil {
		return err
	}
	spec, setup, err := loadWorkload(*name)
	if err != nil {
		return err
	}
	eng, err := workflow.NewEngine(workflow.Cluster{Machine: m, Nodes: *nodes, Parallel: *parallel}, nil, tracer.Config{})
	if err != nil {
		return err
	}
	if err := setup(eng); err != nil {
		return err
	}
	rr, wr := vfd.Uniform(*readRate), vfd.Uniform(*writeRate)
	if *metaRate >= 0 {
		rr.Meta, wr.Meta = *metaRate, *metaRate
	}
	eng.SetFaults(&vfd.FaultPlan{
		Seed: *seed, ReadError: rr, WriteError: wr,
		TornWrite: *torn, CorruptRead: *corrupt,
		FailStopAfter: *failAfter, Latency: *faultLatency,
	})
	if *retries > 1 {
		eng.SetRetry(&workflow.RetryPolicy{
			MaxAttempts: *retries, Backoff: *backoff, Reschedule: *reschedule,
		})
	}

	res, runErr := eng.Run(spec)
	if res == nil {
		return runErr
	}
	fmt.Printf("workflow %s under faults (seed %d): simulated time %s\n",
		spec.Name, *seed, units.Duration(res.Total()))
	var retried, failed int
	for _, s := range res.Stages {
		if len(s.Tasks) == 0 {
			continue
		}
		fmt.Printf("  stage %s (%s)\n", s.Name, units.Duration(s.Time))
		for _, tr := range s.Tasks {
			status := "ok"
			if tr.Failed {
				status = "FAILED"
				failed++
			}
			if tr.Attempts > 1 {
				retried++
			}
			fmt.Printf("    %-20s node %d  attempts %d  io %-12s backoff %-12s %s\n",
				tr.Name, tr.Node, tr.Attempts, units.Duration(tr.IO),
				units.Duration(tr.Backoff), status)
		}
	}
	fmt.Printf("tasks: %d traced, %d retried, %d failed\n", len(res.Traces), retried, failed)
	if runErr != nil {
		return fmt.Errorf("workflow completed partially: %w", runErr)
	}
	return nil
}

func cmdMetrics(args []string) error {
	fs := flag.NewFlagSet("metrics", flag.ExitOnError)
	name := fs.String("workflow", "pyflextrkr", "workload replica to run")
	machine := fs.String("machine", "cpu-cluster", "simulated machine (cpu-cluster, gpu-cluster)")
	nodes := fs.Int("nodes", 2, "cluster node count")
	parallel := fs.Bool("parallel", false, "execute stage tasks on goroutines")
	asJSON := fs.Bool("json", false, "emit the registry as JSON instead of Prometheus text")
	fs.Parse(args)

	m, err := sim.MachineByName(*machine)
	if err != nil {
		return err
	}
	spec, setup, err := loadWorkload(*name)
	if err != nil {
		return err
	}
	eng, err := workflow.NewEngine(workflow.Cluster{Machine: m, Nodes: *nodes, Parallel: *parallel}, nil, tracer.Config{})
	if err != nil {
		return err
	}
	reg := obs.NewRegistry()
	eng.SetMetrics(reg)
	if err := setup(eng); err != nil {
		return err
	}
	if _, err := eng.Run(spec); err != nil {
		return err
	}
	if *asJSON {
		data, err := reg.JSON()
		if err != nil {
			return err
		}
		fmt.Println(string(data))
		return nil
	}
	fmt.Print(reg.PrometheusText())
	return nil
}

func cmdServe(args []string) error {
	fs := flag.NewFlagSet("serve", flag.ExitOnError)
	dir := fs.String("dir", "traces", "trace directory to watch and serve")
	addr := fs.String("addr", ":8080", "HTTP listen address")
	poll := fs.Duration("poll", 2*time.Second, "directory poll interval (0 = rescan only on request)")
	tier := fs.String("tier", "nvme", "fast tier for /v1/plan defaults")
	nodes := fs.Int("nodes", 2, "cluster node count for /v1/plan defaults")
	page := fs.Int64("page", 4096, "SDG address-region page size")
	walDir := fs.String("wal", "", "write-ahead log directory for POST /v1/ingest (empty = push ingest disabled)")
	walFsync := fs.String("wal-fsync", "interval", "WAL fsync policy (always, interval, never)")
	walFsyncEvery := fs.Duration("wal-fsync-interval", 100*time.Millisecond, "fsync period for -wal-fsync=interval")
	walSegBytes := fs.Int64("wal-segment-bytes", 4<<20, "rotate WAL segments at this size")
	ingestQueue := fs.Int("ingest-queue", 64, "pushes admitted ahead of folding before 429 backpressure")
	maxBody := fs.Int64("max-body", 32<<20, "largest accepted request body in bytes")
	reqTimeout := fs.Duration("request-timeout", 30*time.Second, "per-request handler timeout (0 = none)")
	historyDir := fs.String("history", "", "snapshot-history store directory for /v1/history (empty = history disabled)")
	historyRetain := fs.Int("history-retain", 64, "snapshots retained in the history store before compaction")
	fs.Parse(args)

	cfg := serve.Config{
		Dir:        *dir,
		Registry:   obs.NewRegistry(),
		SDGOptions: analyzer.Options{PageSize: *page},
		PlanOptions: optimizer.LocalityOptions{
			FastTier: *tier, Nodes: *nodes, StageOutDisposable: true,
		},
		Poll:          *poll,
		IngestQueue:   *ingestQueue,
		MaxBodyBytes:  *maxBody,
		HistoryDir:    *historyDir,
		HistoryRetain: *historyRetain,
	}
	if *walDir != "" {
		policy, err := serve.ParseFsyncPolicy(*walFsync)
		if err != nil {
			return err
		}
		cfg.WALDir = *walDir
		cfg.WAL = serve.WALOptions{
			Fsync:         policy,
			FsyncInterval: *walFsyncEvery,
			SegmentBytes:  *walSegBytes,
		}
	}
	s, err := serve.NewServer(cfg)
	if err != nil {
		return err
	}
	s.Start()

	var handler http.Handler = s
	if *reqTimeout > 0 {
		// TimeoutHandler buffers the whole response, which would turn the
		// SSE stream into a 30s-delayed timeout error; route the events
		// endpoint straight to the server (it manages its own lifetime
		// via heartbeats and connection deadlines).
		timed := http.TimeoutHandler(s, *reqTimeout, "request timed out\n")
		mux := http.NewServeMux()
		mux.Handle("/v1/live/events", s)
		mux.Handle("/", timed)
		handler = mux
	}
	srv := &http.Server{
		Handler:           handler,
		ReadHeaderTimeout: 10 * time.Second,
		ReadTimeout:       2 * time.Minute,
		WriteTimeout:      2 * time.Minute,
		IdleTimeout:       2 * time.Minute,
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		s.Close()
		return err
	}
	mode := "pull-only"
	if *walDir != "" {
		mode = fmt.Sprintf("push ingest on (wal %s, fsync %s)", *walDir, *walFsync)
	}
	if *historyDir != "" {
		mode += fmt.Sprintf(", history %s", *historyDir)
	}
	fmt.Printf("dayu serve: watching %s, listening on %s (poll %s, %s)\n", *dir, ln.Addr(), *poll, mode)

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	errc := make(chan error, 1)
	go func() { errc <- srv.Serve(ln) }()

	select {
	case err := <-errc:
		s.Close()
		return err
	case <-ctx.Done():
	}
	stop() // a second signal kills immediately
	fmt.Fprintln(os.Stderr, "dayu serve: shutting down (draining in-flight requests, flushing WAL)")
	sctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	shutdownErr := srv.Shutdown(sctx)
	s.Close() // drains acknowledged records and flushes + closes the WAL
	if shutdownErr != nil {
		return fmt.Errorf("shutdown: %w", shutdownErr)
	}
	return nil
}

// watchFinding mirrors the diagnose JSON wire form (the CLI decodes
// the serve response rather than importing the analysis internals'
// in-memory type).
type watchFinding struct {
	Kind     string `json:"kind"`
	Severity string `json:"severity"`
	Task     string `json:"task,omitempty"`
	File     string `json:"file,omitempty"`
	Object   string `json:"object,omitempty"`
	Detail   string `json:"detail"`
}

// sseEvent is one parsed server-sent event.
type sseEvent struct {
	id, event string
	data      string
}

// readSSEEvent parses the next event off an SSE stream, skipping
// comment lines (heartbeats). Multi-line data fields are rejoined with
// \n, which reassembles the server's payload byte-identically.
func readSSEEvent(rd *bufio.Reader) (sseEvent, error) {
	var ev sseEvent
	var data []string
	haveData := false
	for {
		raw, err := rd.ReadString('\n')
		if err != nil {
			return ev, err
		}
		line := strings.TrimRight(raw, "\r\n")
		switch {
		case line == "":
			if ev.id != "" || ev.event != "" || haveData {
				ev.data = strings.Join(data, "\n")
				return ev, nil
			}
		case strings.HasPrefix(line, ":"): // comment (heartbeat)
		case strings.HasPrefix(line, "id: "):
			ev.id = strings.TrimPrefix(line, "id: ")
		case strings.HasPrefix(line, "event: "):
			ev.event = strings.TrimPrefix(line, "event: ")
		case strings.HasPrefix(line, "data: "):
			data = append(data, strings.TrimPrefix(line, "data: "))
			haveData = true
		}
	}
}

func cmdWatch(args []string) error {
	fs := flag.NewFlagSet("watch", flag.ExitOnError)
	server := fs.String("server", "http://127.0.0.1:8080", "dayu serve base URL")
	interval := fs.Duration("interval", 2*time.Second, "delay before reconnecting a dropped event stream")
	once := fs.Bool("once", false, "print one observation and exit")
	horizon := fs.Duration("horizon", 0, "restrict diagnostics to the trailing horizon (0 = whole run)")
	fs.Parse(args)

	if *horizon < 0 {
		// Mirror the server's 400: a negative horizon is a mistake, not
		// "whole run" — silently ignoring it hid typos like -horizon -5s.
		return fmt.Errorf("watch: -horizon must be non-negative (got %s)", *horizon)
	}
	eventsURL := *server + "/v1/live/events"

	hc := &http.Client{Timeout: 30 * time.Second}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	// observe prints one observation: /healthz plus the live findings.
	// Without -horizon they are the snapshot event's own; with it they
	// come from /v1/live/diagnostics?horizon=, because the event's are
	// always whole-run. The findings list is re-printed only when the
	// snapshot changed.
	lastSnapshot := ""
	observe := func(ev sseEvent) error {
		var health serve.Health
		if err := getJSON(hc, *server+"/healthz", &health); err != nil {
			return err
		}
		var state liveState
		if *horizon > 0 {
			if err := getDiagnostics(ctx, hc, *server+"/v1/live/diagnostics?horizon="+horizon.String(), &state); err != nil {
				return err
			}
		} else if err := json.Unmarshal([]byte(ev.data), &state); err != nil {
			return fmt.Errorf("decode event %s: %w", ev.id, err)
		}
		line := fmt.Sprintf("%s %s: %d complete, %d in flight, %d findings",
			time.Now().Format("15:04:05"), health.Status, state.CompleteTasks, state.PartialTasks, len(state.Findings))
		if wal := health.WAL; wal != nil {
			line += fmt.Sprintf(" | wal: %d pending, %d quarantined", wal.PendingRecords, wal.Quarantined)
		}
		fmt.Println(line)
		if state.Snapshot != lastSnapshot {
			for _, f := range state.Findings {
				loc := f.Task
				if f.File != "" {
					loc += " " + f.File
				}
				if f.Object != "" {
					loc += " " + f.Object
				}
				fmt.Printf("  [%s] %s %s: %s\n", f.Severity, f.Kind, loc, f.Detail)
			}
			lastSnapshot = state.Snapshot
		}
		return nil
	}

	// follow holds one /v1/live/events connection open and observes on
	// every snapshot event. It returns retry=true when
	// the connection dropped and is worth re-establishing (resuming from
	// lastID), retry=false when watch is finished — -once was satisfied,
	// or the server has no event stream at all.
	lastID := ""
	follow := func() (retry bool, err error) {
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, eventsURL, nil)
		if err != nil {
			return false, err
		}
		if lastID != "" {
			req.Header.Set("Last-Event-ID", lastID)
		}
		// No client timeout: the stream is long-lived and heartbeats keep
		// it distinguishable from a dead peer.
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			return true, err
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			// A 5xx may pass (the first ingest still running); a 4xx or
			// 501 — no such endpoint — will not fix itself.
			body, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
			return resp.StatusCode >= 500 && resp.StatusCode != http.StatusNotImplemented,
				fmt.Errorf("%s: status %d: %s (dayu watch needs the server's event stream)", eventsURL, resp.StatusCode, strings.TrimSpace(string(body)))
		}
		if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/event-stream") {
			return false, fmt.Errorf("%s answered %q, not an event stream (a buffering proxy in between?)", eventsURL, ct)
		}
		rd := bufio.NewReader(resp.Body)
		for {
			ev, err := readSSEEvent(rd)
			if err != nil {
				return true, err
			}
			switch ev.event {
			case "lagged":
				fmt.Fprintln(os.Stderr, "dayu watch: lagging behind the event stream (intermediate states skipped)")
			case "snapshot":
				if ev.id != "" {
					lastID = ev.id
				}
				err := observe(ev)
				if *once {
					return false, err
				}
				if err != nil {
					fmt.Fprintf(os.Stderr, "dayu watch: %v\n", err)
				}
			}
		}
	}

	for {
		retry, err := follow()
		if ctx.Err() != nil {
			return nil
		}
		if !retry {
			return err
		}
		fmt.Fprintf(os.Stderr, "dayu watch: event stream: %v (reconnecting in %s)\n", err, *interval)
		select {
		case <-ctx.Done():
			return nil
		case <-time.After(*interval):
		}
	}
}

// liveState is what watch prints of one live snapshot: the
// `event: snapshot` payload, or the same read off
// /v1/live/diagnostics's headers and body.
type liveState struct {
	Snapshot      string         `json:"snapshot"`
	PartialTasks  int            `json:"partial_tasks"`
	CompleteTasks int            `json:"complete_tasks"`
	Findings      []watchFinding `json:"findings"`
}

// getDiagnostics reads /v1/live/diagnostics (url carries its query) into
// state.
func getDiagnostics(ctx context.Context, hc *http.Client, url string, state *liveState) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return err
	}
	resp, err := hc.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
		return fmt.Errorf("%s: status %d: %s", url, resp.StatusCode, string(body))
	}
	if err := json.NewDecoder(resp.Body).Decode(&state.Findings); err != nil {
		return fmt.Errorf("decode diagnostics: %w", err)
	}
	state.Snapshot = resp.Header.Get("X-Dayu-Snapshot")
	state.PartialTasks, _ = strconv.Atoi(resp.Header.Get("X-Dayu-Partial-Tasks"))
	state.CompleteTasks, _ = strconv.Atoi(resp.Header.Get("X-Dayu-Complete-Tasks"))
	return nil
}

// getJSON fetches a URL and decodes its JSON body into out. Non-2xx
// statuses are not errors here: /healthz answers 503 with a valid body
// while degraded, which is exactly what watch wants to display.
func getJSON(hc *http.Client, url string, out any) error {
	resp, err := hc.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	return json.NewDecoder(resp.Body).Decode(out)
}

func cmdPush(args []string) error {
	fs := flag.NewFlagSet("push", flag.ExitOnError)
	tracesDir := fs.String("traces", "traces", "trace directory to push")
	server := fs.String("server", "http://127.0.0.1:8080", "dayu serve base URL")
	attempts := fs.Int("attempts", 8, "delivery attempts per record before giving up")
	timeout := fs.Duration("timeout", 5*time.Minute, "overall deadline for the whole push")
	manifest := fs.Bool("manifest", true, "also push manifest.json when present")
	fs.Parse(args)

	c, err := client.New(*server, client.Options{MaxAttempts: *attempts})
	if err != nil {
		return err
	}
	ctx := context.Background()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}
	var sum client.DirSummary
	if *manifest {
		sum, err = c.PushDir(ctx, *tracesDir)
	} else {
		sum, err = c.PushTraces(ctx, *tracesDir)
	}
	if err != nil {
		return err
	}
	fmt.Printf("pushed %d traces to %s: %d accepted, %d duplicates", sum.Pushed, *server, sum.Accepted, sum.Duplicates)
	if sum.Manifest {
		fmt.Printf(", manifest updated")
	}
	fmt.Println()
	return nil
}

func cmdConvert(args []string) error {
	fs := flag.NewFlagSet("convert", flag.ExitOnError)
	tracesDir := fs.String("traces", "traces", "trace input directory")
	out := fs.String("o", "", "output directory (required, distinct from -traces)")
	format := fs.String("format", "dtb", "target serialization (json, dtb)")
	fs.Parse(args)

	tf, err := trace.ParseFormat(*format)
	if err != nil {
		return err
	}
	if *out == "" {
		return fmt.Errorf("convert: -o output directory required")
	}
	traces, m, err := loadTraceDir(*tracesDir)
	if err != nil {
		return err
	}
	if err := os.MkdirAll(*out, 0o755); err != nil {
		return err
	}
	var inBytes, outBytes int64
	for _, tt := range traces {
		path, err := tt.SaveFormat(*out, tf)
		if err != nil {
			return err
		}
		info, err := os.Stat(path)
		if err != nil {
			return err
		}
		outBytes += info.Size()
		n, err := tt.EncodedSizeIn(trace.FormatJSON)
		if err != nil {
			return err
		}
		inBytes += n
	}
	if m != nil {
		if err := trace.SaveManifest(*out, m); err != nil {
			return err
		}
	}
	fmt.Printf("converted %d traces to %s (%s) — %s as JSON, %s on disk (%.1f%%)\n",
		len(traces), *out, tf, units.Bytes(inBytes), units.Bytes(outBytes),
		100*float64(outBytes)/float64(inBytes))
	return nil
}

func cmdPlan(args []string) error {
	fs := flag.NewFlagSet("plan", flag.ExitOnError)
	tracesDir := fs.String("traces", "traces", "trace input directory")
	tier := fs.String("tier", "nvme", "node-local fast tier for placement")
	nodes := fs.Int("nodes", 2, "cluster node count")
	fs.Parse(args)

	traces, m, err := loadTraceDir(*tracesDir)
	if err != nil {
		return err
	}
	plan := optimizer.PlanDataLocality(traces, m, optimizer.LocalityOptions{
		FastTier: *tier, Nodes: *nodes, StageOutDisposable: true,
	})
	out, err := json.MarshalIndent(plan, "", "  ")
	if err != nil {
		return err
	}
	fmt.Println(string(out))
	return nil
}
