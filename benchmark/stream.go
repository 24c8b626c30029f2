package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"dayu/internal/analyzer"
	"dayu/internal/obs"
	"dayu/internal/serve"
	"dayu/internal/serve/client"
	"dayu/internal/sim"
	"dayu/internal/trace"
	"dayu/internal/tracer"
	"dayu/internal/workflow"
	"dayu/internal/workloads"
)

// streamSizes distinguishes the two stream workloads: the size of the
// state the server already holds is the traffic dimension the serve
// layer is sensitive to.
type streamSizes struct {
	ddmd          workloads.DDMDConfig
	checkpointOps int64
	// preload is the number of synthetic tasks in the server's directory
	// before the first push. 0 means every phase gets a fresh, empty
	// server; otherwise one preloaded server takes every phase, each
	// under its own task-name prefix.
	preload int
}

func liveSizes(quick bool) streamSizes {
	if quick {
		return streamSizes{ddmd: quickDDMD, checkpointOps: 64}
	}
	return streamSizes{checkpointOps: 16}
}

func loadedSizes(quick bool) streamSizes {
	if quick {
		return streamSizes{ddmd: quickDDMD, checkpointOps: 64, preload: 60}
	}
	// 128, not the CLI's default 64: at 64 a repetition is 69 records,
	// which straddles the 64-slot ingest queue while each snapshot
	// rebuild takes ~0.1 s; a full queue answers 429 with Retry-After
	// 1 s, and repetitions split into a 0.2 s and a 1.1 s mode. A metric
	// that flips between modes cannot carry a bound, so the workload
	// stays below the queue (~42 records).
	return streamSizes{checkpointOps: 128, preload: 1000}
}

var quickDDMD = workloads.DDMDConfig{SimTasks: 2, ContactMapBytes: 32 << 10, SmallBytes: 4 << 10, Epochs: 2}

// eventTimeout is how long a pushed record may stay invisible before it
// counts as failed.
const eventTimeout = 30 * time.Second

// sdgOptions are `dayu serve`'s defaults (-page 4096), used by the
// server under test and by the batch reference render alike.
var sdgOptions = analyzer.Options{PageSize: 4096}

// ---------- server fixture ----------

// fixture is one in-process `dayu serve`: the serve.Server behind a
// real loopback net/http listener, configured like the CLI's defaults
// (WAL fsync every 100 ms, ingest queue 64, one shard, history off,
// 30 s request timeout around everything but the event stream) with
// Poll 0 — the folder goroutine already rescans after each burst.
type fixture struct {
	root     string
	srv      *serve.Server
	httpSrv  *http.Server
	serveErr chan error
	url      string
	hc       *http.Client
	cl       *client.Client
	sub      *subscriber

	manifest *trace.Manifest
	expect   []*trace.TaskTrace // every trace the server's directory should hold
	coldMS   float64            // NewServer, including the first ingest
}

func startFixture(root string, reg *obs.Registry, preload []traceFile, manifest *trace.Manifest, traces []*trace.TaskTrace) (*fixture, error) {
	fx := &fixture{root: root, manifest: manifest, expect: append([]*trace.TaskTrace(nil), traces...)}
	dir := filepath.Join(root, "traces")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	if len(preload) > 0 {
		if err := writeTraceDir(dir, preload, manifest); err != nil {
			return nil, err
		}
	}
	// A reused root starts with an empty log.
	if err := os.RemoveAll(filepath.Join(root, "wal")); err != nil {
		return nil, err
	}
	t0 := time.Now()
	srv, err := serve.NewServer(serve.Config{
		Dir: dir, Registry: reg, SDGOptions: sdgOptions,
		WALDir: filepath.Join(root, "wal"),
		WAL:    serve.WALOptions{Fsync: serve.FsyncInterval, FsyncInterval: 100 * time.Millisecond},
	})
	if err != nil {
		return nil, err
	}
	fx.coldMS = ms(time.Since(t0))
	fx.srv = srv

	mux := http.NewServeMux()
	mux.Handle("/v1/live/events", srv)
	mux.Handle("/", http.TimeoutHandler(srv, 30*time.Second, "request timed out\n"))
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Close()
		return nil, err
	}
	fx.httpSrv = &http.Server{Handler: mux, ReadHeaderTimeout: 10 * time.Second}
	fx.serveErr = make(chan error, 1)
	go func() { fx.serveErr <- fx.httpSrv.Serve(ln) }()
	fx.url = "http://" + ln.Addr().String()

	// One connection for pushes and reads (they never overlap: the
	// producer is a task blocked on its ack), one for the subscriber.
	fx.hc = &http.Client{Timeout: 30 * time.Second, Transport: &http.Transport{MaxIdleConnsPerHost: 1}}
	fx.cl, err = client.New(fx.url, client.Options{HTTPClient: fx.hc})
	if err == nil {
		fx.sub, err = subscribe(fx.url)
	}
	if err != nil {
		fx.close()
		return nil, err
	}
	return fx, nil
}

func (fx *fixture) close() {
	if fx.sub != nil {
		fx.sub.close()
	}
	fx.srv.Close() // also ends any open event stream handler
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	if err := fx.httpSrv.Shutdown(ctx); err != nil {
		fx.httpSrv.Close()
	}
	cancel()
	<-fx.serveErr
	if fx.hc != nil {
		fx.hc.CloseIdleConnections()
	}
}

// get fetches a path and returns the body and the wall time.
func (fx *fixture) get(path string) ([]byte, time.Duration, error) {
	t0 := time.Now()
	resp, err := fx.hc.Get(fx.url + path)
	if err != nil {
		return nil, 0, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, 0, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, 0, fmt.Errorf("GET %s: status %d: %s", path, resp.StatusCode, strings.TrimSpace(string(body)))
	}
	return body, time.Since(t0), nil
}

// gate checks that the served batch graphs equal the batch render of
// the traces the directory should now hold.
func (fx *fixture) gate(res *result) error {
	ftg, err := json.MarshalIndent(analyzer.BuildFTG(fx.expect, fx.manifest), "", " ")
	if err != nil {
		return err
	}
	sdg, err := json.MarshalIndent(analyzer.BuildSDG(fx.expect, fx.manifest, sdgOptions), "", " ")
	if err != nil {
		return err
	}
	for path, want := range map[string][]byte{"/v1/ftg": ftg, "/v1/sdg": sdg} {
		got, _, err := fx.get(path)
		if err != nil {
			return err
		}
		res.check(bytes.Equal(got, want), "%s differs from the batch render (%d vs %d bytes, %d tasks)", path, len(got), len(want), len(fx.expect))
	}
	return nil
}

// ---------- SSE subscriber ----------

// event is one `event: snapshot` as the subscriber saw it: first is
// when its first line arrived (the server had rendered the payload and
// begun writing), at when its last byte did.
type event struct {
	first    time.Time
	at       time.Time
	partial  int
	complete int
}

// subscriber is the run's one watcher of /v1/live/events.
type subscriber struct {
	events chan event
	cancel context.CancelFunc
	done   chan struct{}
}

// subscribe connects and waits for the current-state event every new
// connection starts with.
func subscribe(url string) (*subscriber, error) {
	ctx, cancel := context.WithCancel(context.Background())
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url+"/v1/live/events", nil)
	if err != nil {
		cancel()
		return nil, err
	}
	// No client timeout: the stream is long-lived.
	resp, err := (&http.Client{Transport: &http.Transport{}}).Do(req)
	if err != nil {
		cancel()
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		resp.Body.Close()
		cancel()
		return nil, fmt.Errorf("GET /v1/live/events: status %d", resp.StatusCode)
	}
	// The reader must never block on the consumer, or event receipt
	// times would include the consumer's work: room for every event of
	// the longest phase (a few hundred records) with a wide margin.
	s := &subscriber{events: make(chan event, 8192), cancel: cancel, done: make(chan struct{})}
	go s.read(resp.Body)
	if _, ok := s.next(eventTimeout); !ok {
		s.close()
		return nil, fmt.Errorf("no initial event from /v1/live/events")
	}
	return s, nil
}

func (s *subscriber) read(body io.ReadCloser) {
	defer close(s.done)
	defer body.Close()
	rd := bufio.NewReaderSize(body, 64<<10)
	var kind string
	var data []byte
	var first time.Time
	for {
		line, err := rd.ReadBytes('\n')
		if err != nil {
			return
		}
		line = bytes.TrimRight(line, "\n")
		if first.IsZero() && len(line) > 0 {
			first = time.Now()
		}
		switch {
		case len(line) == 0:
			at := time.Now()
			// `event: lagged` notices are skipped: every snapshot event
			// carries the full state, so a skipped one loses nothing here.
			if kind == "snapshot" {
				if partial, complete, ok := eventHead(data); ok {
					s.events <- event{first: first, at: at, partial: partial, complete: complete}
				}
			}
			kind, data, first = "", data[:0], time.Time{}
		case bytes.HasPrefix(line, []byte("event: ")):
			kind = string(line[len("event: "):])
		case bytes.HasPrefix(line, []byte("data: ")):
			if len(data) > 0 {
				data = append(data, '\n')
			}
			data = append(data, line[len("data: "):]...)
		}
	}
}

// eventHead reads the two task counts off the front of a snapshot
// event's payload and stops there: the findings that follow can run to
// a megabyte, and parsing them here would take CPU from the server
// under test.
func eventHead(payload []byte) (partial, complete int, ok bool) {
	dec := json.NewDecoder(bytes.NewReader(payload))
	if tok, err := dec.Token(); err != nil || tok != json.Delim('{') {
		return 0, 0, false
	}
	seen := 0
	for seen < 2 && dec.More() {
		key, err := dec.Token()
		if err != nil {
			return 0, 0, false
		}
		var v json.RawMessage
		if dec.Decode(&v) != nil {
			return 0, 0, false
		}
		var dst *int
		switch key {
		case "partial_tasks":
			dst = &partial
		case "complete_tasks":
			dst = &complete
		default:
			continue
		}
		if json.Unmarshal(v, dst) != nil {
			return 0, 0, false
		}
		seen++
	}
	return partial, complete, seen == 2
}

func (s *subscriber) next(timeout time.Duration) (event, bool) {
	select {
	case ev := <-s.events:
		return ev, true
	case <-time.After(timeout):
		return event{}, false
	}
}

// pending discards queued events and reports how many there were.
func (s *subscriber) pending() int {
	n := 0
	for {
		select {
		case <-s.events:
			n++
		default:
			return n
		}
	}
}

func (s *subscriber) close() {
	s.cancel()
	<-s.done
}

// ---------- sinks ----------

// hookSink wraps the sink under test with the benchmark's observation
// points: before runs as a record is handed over (push start), after
// once it is acknowledged. It also owns the record's root span.
type hookSink struct {
	inner  tracer.Sink
	rec    *recorder
	phase  string
	n      int
	root   int // span of the record in flight, for the traced sink's children
	before func()
	after  func()
}

func (h *hookSink) around(emit func()) {
	h.n++
	h.root = h.rec.begin("record", -1, fmt.Sprintf("%s-%04d", h.phase, h.n))
	h.before()
	emit()
	h.after()
	h.rec.end(h.root)
}

func (h *hookSink) EmitCheckpoint(t *trace.TaskTrace, seq uint64) {
	h.around(func() { h.inner.EmitCheckpoint(t, seq) })
}

func (h *hookSink) EmitFinal(t *trace.TaskTrace) {
	h.around(func() { h.inner.EmitFinal(t) })
}

// sinkCounts is what the traced sink counts across a run.
type sinkCounts struct {
	checkpoints, deltas          int
	retries, resyncs, duplicates int
	dropped                      int
	bytes                        []float64
	payloads                     [][]byte // the first traced phase's records, for the WAL replay measurement
}

// tracedSink performs client.StreamSink's delta-mode steps itself —
// trace.Diff, EncodeBinaryOpts, Client.PushBytes — so each gets a
// span. The engine runs tasks one at a time here, so no lock.
type tracedSink struct {
	cl     *client.Client
	rec    *recorder
	hook   *hookSink
	counts *sinkCounts
	bases  map[string]tracedBase
	keep   bool // retain delivered payloads
}

type tracedBase struct {
	seq uint64
	t   *trace.TaskTrace
}

func (s *tracedSink) push(data []byte) (*client.PushResult, bool) {
	sp := s.rec.begin("client.push", s.hook.root, "")
	res, err := s.cl.PushBytes(context.Background(), data)
	s.rec.end(sp)
	if err != nil {
		s.counts.dropped++
		return nil, false
	}
	s.counts.retries += res.Attempts - 1
	if res.Duplicate() {
		s.counts.duplicates++
	}
	return res, true
}

func (s *tracedSink) encode(t *trace.TaskTrace, opts trace.BinaryOptions) ([]byte, bool) {
	sp := s.rec.begin("codec.encode", s.hook.root, "")
	var buf bytes.Buffer
	err := t.EncodeBinaryOpts(&buf, opts)
	s.rec.end(sp)
	if err != nil {
		s.counts.dropped++
		return nil, false
	}
	return buf.Bytes(), true
}

func (s *tracedSink) delivered(data []byte) {
	s.counts.bytes = append(s.counts.bytes, float64(len(data)))
	if s.keep {
		s.counts.payloads = append(s.counts.payloads, data)
	}
}

func (s *tracedSink) EmitCheckpoint(t *trace.TaskTrace, seq uint64) {
	if base, ok := s.bases[t.Task]; ok {
		sp := s.rec.begin("codec.diff", s.hook.root, "")
		d, exact := trace.Diff(base.t, t)
		s.rec.end(sp)
		if exact {
			data, ok := s.encode(d, trace.BinaryOptions{Incremental: true, CheckpointSeq: seq, Delta: true, DeltaBaseSeq: base.seq})
			if !ok {
				return
			}
			res, ok := s.push(data)
			if !ok {
				return
			}
			if !res.NeedsResync() {
				s.counts.checkpoints++
				s.counts.deltas++
				s.delivered(data)
				s.bases[t.Task] = tracedBase{seq, t}
				return
			}
			s.counts.resyncs++
		}
	}
	data, ok := s.encode(t, trace.BinaryOptions{Incremental: true, CheckpointSeq: seq})
	if !ok {
		return
	}
	if _, ok := s.push(data); !ok {
		return
	}
	s.counts.checkpoints++
	s.delivered(data)
	s.bases[t.Task] = tracedBase{seq, t}
}

func (s *tracedSink) EmitFinal(t *trace.TaskTrace) {
	data, ok := s.encode(t, trace.BinaryOptions{})
	if !ok {
		return
	}
	if _, ok := s.push(data); !ok {
		return
	}
	s.delivered(data)
	delete(s.bases, t.Task)
}

// ---------- the workload ----------

type streamRun struct {
	c      config
	sz     streamSizes
	res    *result
	counts sinkCounts

	// reg receives the series of every server of a traced run (nil
	// otherwise). Coalescing only means something in the flow phase, so
	// its two counters are also summed over flow phases alone.
	reg                         *obs.Registry
	flowIngests, flowAccepted   int64
	probeIngests, probeIngestNS int64 // snapshot rebuilds during probe phases, and their summed time

	loaded *fixture // the one long-lived server of a preloaded workload
	phases int      // phases pushed so far, for task-name prefixes
	seq    int      // fresh fixtures made so far, for directory names

	// Probe phases cost many times a flow phase once the state is
	// large (every record waits out a snapshot rebuild), so they are
	// scheduled by time: see repetition.
	deadline            time.Time
	flowTime, probeTime time.Duration
	lastProbe           time.Duration
	probes              int
	rec                 *recorder // the run's recorder; probe phases take turns with it
}

func runStream(c config, rec *recorder, sz streamSizes) (*result, error) {
	sz.ddmd.Seed = c.seed
	r := &streamRun{c: c, sz: sz, res: newResult(), rec: rec}
	if rec != nil {
		r.reg = obs.NewRegistry()
	}
	defer func() {
		if r.loaded != nil {
			r.loaded.close()
		}
	}()

	for s := 0; s < setupTimes; s++ {
		t0 := time.Now()
		if r.loaded != nil {
			r.loaded.close()
			r.loaded = nil
		}
		if sz.preload > 0 {
			traces, manifest, files, err := syntheticInputs(c.seed, sz.preload)
			if err != nil {
				return nil, err
			}
			// Only the server that is measured reports into the registry.
			var reg *obs.Registry
			if s == setupTimes-1 {
				reg = r.reg
			}
			r.loaded, err = startFixture(filepath.Join(c.scratch, "loaded"), reg, files, manifest, traces)
			if err != nil {
				return nil, err
			}
		}
		// The warm-up repetition (connection set-up, heap growth, page
		// cache) belongs to set-up; with a fresh server per phase it also
		// covers what NewServer costs. It has no probe phase: a probe's
		// per-repetition median over tens of records shrugs off cold ones.
		if err := r.repetition(iter{i: -1, warm: true}); err != nil {
			return nil, err
		}
		r.res.setup = append(r.res.setup, time.Since(t0).Seconds())
		runtime.GC()
	}
	r.deadline = time.Now().Add(c.budget)
	if err := repeat(c, rec, 3, r.repetition); err != nil {
		return nil, err
	}
	// The no-sink run is tens of milliseconds and its time depends on
	// where the collector happens to be, so a per-pair ratio is mostly
	// the denominator's noise: each flow phase is set against the run's
	// median no-sink time instead.
	for _, m := range []map[string][]float64{r.res.samples, r.res.tracedSamples} {
		base := median(m["baseline_wall_ms"])
		for _, wall := range m["stream_wall_ms"] {
			m["vs_baseline_x"] = append(m["vs_baseline_x"], wall/base)
		}
	}
	if r.loaded != nil {
		// With a large state the batch reference is too dear to render
		// after every repetition; once, over everything pushed, at the end.
		if err := r.loaded.gate(r.res); err != nil {
			return nil, err
		}
	}
	if rec != nil {
		if err := r.layerMetrics(rec); err != nil {
			return nil, err
		}
	}
	return r.res, nil
}

// spec builds this phase's DDMD workflow. On a long-lived server every
// phase's tasks get a prefix of their own, so each phase adds tasks
// instead of rewriting the previous phase's.
func (r *streamRun) spec() workflow.Spec {
	spec, _ := workloads.DDMD(r.sz.ddmd)
	if r.sz.preload > 0 {
		prefix := fmt.Sprintf("p%04d_", r.phases)
		for si := range spec.Stages {
			for ti := range spec.Stages[si].Tasks {
				spec.Stages[si].Tasks[ti].Name = prefix + spec.Stages[si].Tasks[ti].Name
			}
		}
	}
	r.phases++
	return spec
}

func (r *streamRun) engineRun(spec workflow.Spec, tcfg tracer.Config) (*workflow.Result, time.Duration, error) {
	eng, err := workflow.NewEngine(workflow.Cluster{Machine: sim.MachineCPU, Nodes: 2}, nil, tcfg)
	if err != nil {
		return nil, 0, err
	}
	t0 := time.Now()
	out, err := eng.Run(spec)
	return out, time.Since(t0), err
}

// fixtureFor returns the server a phase pushes into and how to release it.
func (r *streamRun) fixtureFor(it iter) (*fixture, func(), error) {
	if r.loaded != nil {
		r.loaded.sub.pending() // nothing of an earlier phase may count for this one
		return r.loaded, func() {}, nil
	}
	var reg *obs.Registry
	if it.rec != nil {
		reg = r.reg
	}
	r.seq++
	fx, err := startFixture(filepath.Join(r.c.scratch, fmt.Sprintf("live-%d", r.seq)), reg, nil, nil, nil)
	if err != nil {
		return nil, nil, err
	}
	return fx, func() { fx.close(); os.RemoveAll(fx.root) }, nil
}

// sinkFor builds the sink under test: the stock client.StreamSink in
// delta mode, or in a traced repetition the span-recording equivalent.
func (r *streamRun) sinkFor(it iter, fx *fixture, hook *hookSink) func() (dropped int, err error) {
	hook.rec = it.rec
	if it.rec != nil {
		before := r.counts.dropped
		hook.inner = &tracedSink{cl: fx.cl, rec: it.rec, hook: hook, counts: &r.counts, bases: map[string]tracedBase{},
			keep: len(r.counts.payloads) == 0}
		return func() (int, error) { return r.counts.dropped - before, nil }
	}
	stock := client.NewStreamSinkOpts(context.Background(), fx.cl, client.StreamOptions{Delta: true})
	hook.inner = stock
	return func() (int, error) {
		_, _, dropped := stock.Stats()
		return dropped, stock.Err()
	}
}

func (r *streamRun) repetition(it iter) error {
	start := time.Now()
	// Flow first, then the same workflow traced without a sink (what
	// the scientist pays without -stream), or the other way round.
	err := pair(it.swap,
		func() error { return r.flow(it) },
		func() error {
			for k := 0; k < 3; k++ {
				spec, _ := workloads.DDMD(r.sz.ddmd)
				_, wall, err := r.engineRun(spec, tracer.Config{})
				if err != nil {
					return err
				}
				r.res.add(it, "baseline_wall_ms", ms(wall))
			}
			return nil
		})
	if err != nil {
		return err
	}
	// A probe phase follows the first two repetitions, and after that
	// while probing has taken no more than two thirds of the run and one
	// more fits before the deadline. In a traced run probe phases
	// alternate between tracing on and off by their own count, whatever
	// the repetition's turn is.
	r.flowTime += time.Since(start)
	fits := r.probeTime <= 2*r.flowTime && time.Now().Add(r.lastProbe).Before(r.deadline)
	if it.warm || (r.probes >= 2 && !fits) {
		return nil
	}
	it.rec = nil
	if r.probes%2 == 0 {
		it.rec = r.rec
	}
	r.probes++
	t0 := time.Now()
	err = r.probe(it)
	r.lastProbe = time.Since(t0)
	r.probeTime += r.lastProbe
	return err
}

// flow is real behaviour: the workflow streams through the sink without
// waiting for anything but acks; the server coalesces rescans.
func (r *streamRun) flow(it iter) error {
	fx, release, err := r.fixtureFor(it)
	if err != nil {
		return err
	}
	defer release()
	spec := r.spec()

	var first time.Time
	records := 0
	hook := &hookSink{phase: it.id("flow"), after: func() {}}
	hook.before = func() {
		if records++; records == 1 {
			first = time.Now()
		}
	}
	outcome := r.sinkFor(it, fx, hook)

	ingests, accepted := r.reg.Counter("dayu_serve_ingests_total"), r.reg.Counter(obs.Name("dayu_serve_push_total", "result", "accepted"))
	ingests0, accepted0 := ingests.Value(), accepted.Value()
	out, wall, err := r.engineRun(spec, tracer.Config{Sink: hook, CheckpointOps: r.sz.checkpointOps})
	if err != nil {
		return err
	}
	fx.expect = append(fx.expect, out.Traces...)
	// Converged: no partials left and every final in the snapshot.
	events, converged := 0, time.Time{}
	for converged.IsZero() {
		ev, ok := fx.sub.next(eventTimeout)
		if !ok {
			break
		}
		events++
		if ev.partial == 0 && ev.complete == len(fx.expect) {
			converged = ev.at
		}
	}
	dropped, sinkErr := outcome()
	r.res.attempted += records
	r.res.failed += dropped
	r.res.check(sinkErr == nil, "flow: sink reported %v", sinkErr)
	r.res.check(!converged.IsZero(), "flow: no converged event within %s of the last push", eventTimeout)
	if converged.IsZero() {
		return nil
	}
	if it.rec != nil && !it.warm {
		r.flowIngests += ingests.Value() - ingests0
		r.flowAccepted += accepted.Value() - accepted0
	}
	r.res.add(it, "stream_wall_ms", ms(wall))
	r.res.add(it, "converge_ms", ms(converged.Sub(first)))
	r.res.add(it, "flow_events_per_record", float64(events)/float64(records))
	if r.loaded == nil {
		return fx.gate(r.res)
	}
	return nil
}

// probe makes latency exact from outside: after each ack the sink
// blocks until the next snapshot event arrives, so events map one to
// one to records; then the client reads the live graph, cold and warm.
func (r *streamRun) probe(it iter) error {
	fx, release, err := r.fixtureFor(it)
	if err != nil {
		return err
	}
	defer release()
	spec := r.spec()

	var visible, ackToEvent, delivery, cold, warm, window, bodyKB []float64
	var pushStart time.Time
	records, seen := 0, 0
	hook := &hookSink{phase: it.id("probe")}
	hook.before = func() { records++; pushStart = time.Now() }
	hook.after = func() {
		acked := time.Now()
		sp := it.rec.begin("serve.ack_to_event", hook.root, "")
		ev, ok := fx.sub.next(eventTimeout)
		it.rec.end(sp)
		if !ok {
			return
		}
		seen++
		visible = append(visible, ms(ev.at.Sub(pushStart)))
		ackToEvent = append(ackToEvent, ms(ev.at.Sub(acked)))
		delivery = append(delivery, ms(ev.at.Sub(ev.first)))
		// The two reads happen after the record is visible and are not
		// part of its latency; they are what the operator does next.
		body, d, err := fx.get("/v1/live/ftg?format=json")
		if err != nil {
			return
		}
		cold = append(cold, ms(d))
		bodyKB = append(bodyKB, float64(len(body))/1e3)
		if _, d, err = fx.get("/v1/live/ftg?format=json"); err == nil {
			warm = append(warm, ms(d))
		}
		if it.rec != nil {
			if _, d, err = fx.get("/v1/live/ftg?format=json&window=1s"); err == nil {
				window = append(window, ms(d))
			}
		}
	}
	outcome := r.sinkFor(it, fx, hook)
	rebuilds := r.reg.Histogram("dayu_serve_ingest_ns", obs.LatencyBuckets())
	rebuilds0, rebuildNS0 := rebuilds.Count(), rebuilds.Sum()
	// Allocation is taken over the probe phase, where every record is
	// rebuilt and read exactly once; in the flow phase the number of
	// coalesced rebuilds, and with it the bytes allocated, is up to timing.
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	out, _, err := r.engineRun(spec, tracer.Config{Sink: hook, CheckpointOps: r.sz.checkpointOps})
	if err != nil {
		return err
	}
	runtime.ReadMemStats(&m1)
	fx.expect = append(fx.expect, out.Traces...)
	dropped, sinkErr := outcome()
	r.res.attempted += records
	r.res.failed += dropped + (records - dropped - seen) // dropped, or acknowledged but never visible
	r.res.check(sinkErr == nil, "probe: sink reported %v", sinkErr)
	extra := fx.sub.pending()
	r.res.check(extra == 0 && len(cold) == seen, "probe: %d records, %d events, %d stray events, %d reads", records, seen, extra, len(cold))
	if len(visible) == 0 {
		return nil
	}
	r.res.add(it, "wait_p50_ms", median(visible))
	r.res.add(it, "read_p50_ms", median(cold))
	r.res.add(it, "alloc_mb", float64(m1.TotalAlloc-m0.TotalAlloc)/1e6)
	if it.rec != nil && !it.warm {
		r.probeIngests += rebuilds.Count() - rebuilds0
		r.probeIngestNS += rebuilds.Sum() - rebuildNS0
		t := r.res.tracedSamples
		t["visible_ms_all"] = append(t["visible_ms_all"], visible...)
		t["ack_to_event_ms"] = append(t["ack_to_event_ms"], ackToEvent...)
		t["event_delivery_ms"] = append(t["event_delivery_ms"], delivery...)
		t["read_cold_ms"] = append(t["read_cold_ms"], cold...)
		t["read_warm_ms"] = append(t["read_warm_ms"], warm...)
		t["read_window_ms"] = append(t["read_window_ms"], window...)
		t["body_kb"] = append(t["body_kb"], bodyKB...)
	}
	return nil
}

// layerMetrics reduces the traced repetitions' spans, the sink's counts
// and the series `serve` exports into the supplied registries to the
// per-layer metrics.
func (r *streamRun) layerMetrics(rec *recorder) error {
	L, t := r.res.layer, r.res.tracedSamples
	us := func(msVals []float64) float64 { return 1e3 * median(msVals) }
	d := rec.durationsMS()
	L["codec.diff_us"] = us(d["codec.diff"])
	L["codec.encode_us"] = us(d["codec.encode"])
	L["codec.record_bytes"] = median(r.counts.bytes)
	if r.counts.checkpoints > 0 {
		L["codec.delta_share"] = float64(r.counts.deltas) / float64(r.counts.checkpoints)
	}
	acks := summarize(d["client.push"])
	L["push.ack_us"] = 1e3 * acks.Median
	L["push.ack_tail_us"] = 1e3 * acks.Tail
	L["push.retries"] = float64(r.counts.retries)
	L["push.resyncs"] = float64(r.counts.resyncs)
	L["push.duplicates"] = float64(r.counts.duplicates)

	// The registry's histograms have power-of-two buckets, so a quantile
	// read from them can be off by tens of percent; count and sum are
	// exact, and a mean is what adds up across layers.
	mean := func(name string) float64 {
		return r.reg.Histogram(name, obs.LatencyBuckets()).Mean()
	}
	L["wal.append_us"] = mean("dayu_serve_wal_append_ns") / 1e3
	L["serve.fold_us"] = mean(obs.Name("dayu_serve_shard_fold_ns", "shard", "0")) / 1e3
	if r.probeIngests > 0 {
		L["serve.snapshot_ms"] = float64(r.probeIngestNS) / float64(r.probeIngests) / 1e6
	}
	if r.flowAccepted > 0 {
		L["serve.snapshots_per_record"] = float64(r.flowIngests) / float64(r.flowAccepted)
	}
	L["serve.events_per_record"] = median(t["flow_events_per_record"])
	L["serve.ack_to_event_ms"] = median(t["ack_to_event_ms"])
	L["serve.event_delivery_ms"] = median(t["event_delivery_ms"])
	// By difference, not measured: what lies between the end of the
	// rebuild and the event's first byte is the payload render (live
	// diagnostics over the whole trace set), and serve exports no series
	// for it yet.
	L["serve.event_render_ms"] = L["serve.ack_to_event_ms"] - L["serve.event_delivery_ms"] - L["serve.fold_us"]/1e3 - L["serve.snapshot_ms"]
	hits := float64(r.reg.Counter(obs.Name("dayu_serve_cache_hits_total", "cache", "contribution")).Value())
	misses := float64(r.reg.Counter(obs.Name("dayu_serve_cache_misses_total", "cache", "contribution")).Value())
	if hits+misses > 0 {
		L["serve.contrib_hit_ratio"] = hits / (hits + misses)
	}
	L["serve.parse_count"] = float64(r.reg.Counter("dayu_serve_trace_parses_total").Value())
	vis := summarize(t["visible_ms_all"])
	L["serve.visible_tail_ms"] = vis.Tail
	L["flow.stream_wall_ms"] = median(t["stream_wall_ms"])
	L["flow.converge_ms"] = median(t["converge_ms"])
	L["render.live_ftg_cold_ms"] = median(t["read_cold_ms"])
	L["render.live_ftg_warm_us"] = us(t["read_warm_ms"])
	L["render.window_cold_ms"] = median(t["read_window_ms"])
	L["render.body_kb"] = median(t["body_kb"])

	// What the benchmark can attribute of a record's visible latency:
	// its own spans, the server's fold and snapshot-rebuild series, and
	// the event's delivery (first to last byte). The rest is
	// serve.event_render_ms, known only by difference.
	if vis.Median > 0 {
		own := median(d["codec.diff"]) + median(d["codec.encode"]) + acks.Median
		server := L["serve.fold_us"]/1e3 + L["serve.snapshot_ms"] + L["serve.event_delivery_ms"]
		L["bench.accounted_share"] = (own + server) / vis.Median
	}
	return r.replayMetrics()
}

// replayMetrics measures the WAL read beside its write, and a cold
// start: the first traced phase's payloads are appended through
// serve.OpenWAL, then NewServer's replay-and-fold of that log is timed.
func (r *streamRun) replayMetrics() error {
	root := filepath.Join(r.c.scratch, "replay")
	defer os.RemoveAll(root)
	walDir := filepath.Join(root, "wal")
	opts := serve.WALOptions{Fsync: serve.FsyncInterval}
	wal, _, err := serve.OpenWAL(walDir, opts)
	if err != nil {
		return err
	}
	for _, p := range r.counts.payloads {
		if _, err := wal.Append(p); err != nil {
			wal.Close()
			return err
		}
	}
	if err := wal.Close(); err != nil {
		return err
	}
	dir := filepath.Join(root, "traces")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	t0 := time.Now()
	srv, err := serve.NewServer(serve.Config{Dir: dir, SDGOptions: sdgOptions, WALDir: walDir, WAL: opts})
	if err != nil {
		return err
	}
	r.res.layer["serve.wal_replay_ms"] = ms(time.Since(t0))
	srv.Close()

	if r.loaded != nil {
		r.res.layer["serve.cold_start_ms"] = r.loaded.coldMS
		return nil
	}
	// Without a preloaded state, cold start is an empty directory's.
	dir = filepath.Join(root, "empty")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	t0 = time.Now()
	empty, err := serve.NewServer(serve.Config{Dir: dir, SDGOptions: sdgOptions})
	if err != nil {
		return err
	}
	r.res.layer["serve.cold_start_ms"] = ms(time.Since(t0))
	empty.Close()
	return nil
}
