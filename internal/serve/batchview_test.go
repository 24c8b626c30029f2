package serve

import (
	"bytes"
	"errors"
	"fmt"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"dayu/internal/obs"
	"dayu/internal/trace"
	"dayu/internal/workloads"
)

// foldAndIngest applies one pushed payload exactly as a folder
// goroutine does and publishes the resulting snapshot, synchronously.
func foldAndIngest(t *testing.T, s *Server, data []byte) *snapshot {
	t.Helper()
	if err := s.foldBytes(data); err != nil {
		t.Fatal(err)
	}
	snap, err := s.Ingest()
	if err != nil {
		t.Fatal(err)
	}
	return snap
}

func encodeFinal(t *testing.T, tt *trace.TaskTrace) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := tt.EncodeFormat(&buf, trace.FormatBinary); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// fixtureEnv is a WAL-enabled server over the 24-task fixture with a
// metrics registry.
func fixtureEnv(t *testing.T, shards int) (*pushEnv, *obs.Registry) {
	t.Helper()
	reg := obs.NewRegistry()
	env := newPushEnv(t, func(c *Config) {
		c.Dir = writeFixtureDir(t)
		c.Registry = reg
		c.Shards = shards
	})
	return env, reg
}

// rewriteTrace changes one trace file's bytes without touching its
// object descriptions and makes the change visible to the stat scan.
func rewriteTrace(t *testing.T, dir, path string, gen int) {
	t.Helper()
	tt, err := trace.Load(path)
	if err != nil {
		t.Fatal(err)
	}
	tt.Files[0].BytesRead += 4096
	if _, err := tt.Save(dir); err != nil {
		t.Fatal(err)
	}
	bumpMtimes(t, dir, gen)
}

// TestRenderCacheSingleFlightPerKey pins the render cache's contract on
// both of a snapshot's caches: a compute blocked on key A does not
// delay a render of key B, concurrent renders of A compute once, and a
// failed or panicking compute is not cached.
func TestRenderCacheSingleFlightPerKey(t *testing.T) {
	reg := obs.NewRegistry()
	s := &Server{
		responseHits:   reg.Counter("hits"),
		responseMisses: reg.Counter("misses"),
	}
	snap := &snapshot{batchView: &batchView{}}
	for name, cache := range map[string]*renderCache{"batch": &snap.rendered, "live": &snap.liveRendered} {
		hits0, misses0 := s.responseHits.Value(), s.responseMisses.Value()
		started, release := make(chan struct{}), make(chan struct{})
		var computes atomic.Int32
		slowA := func() ([]byte, error) {
			if computes.Add(1) == 1 {
				close(started)
			}
			<-release
			return []byte("a"), nil
		}
		var wg sync.WaitGroup
		bodies := make([][]byte, 2)
		for i := range bodies {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				body, err := s.render(cache, "A", slowA)
				if err != nil {
					t.Errorf("%s: render A: %v", name, err)
				}
				bodies[i] = body
			}(i)
		}
		<-started

		doneB := make(chan []byte, 1)
		go func() {
			body, _ := s.render(cache, "B", func() ([]byte, error) { return []byte("b"), nil })
			doneB <- body
		}()
		select {
		case body := <-doneB:
			if string(body) != "b" {
				t.Errorf("%s: render B = %q", name, body)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("%s: render of key B waited for the blocked compute of key A", name)
		}

		close(release)
		wg.Wait()
		if n := computes.Load(); n != 1 {
			t.Errorf("%s: two concurrent renders of A ran compute %d times, want 1", name, n)
		}
		if string(bodies[0]) != "a" || string(bodies[1]) != "a" {
			t.Errorf("%s: renders of A = %q, %q", name, bodies[0], bodies[1])
		}
		if body, err := s.render(cache, "A", func() ([]byte, error) { return nil, errors.New("recomputed") }); err != nil || string(body) != "a" {
			t.Errorf("%s: cached A = %q, %v", name, body, err)
		}
		// A and B were each computed once; the second concurrent A and
		// the repeat read were cache hits.
		if h, m := s.responseHits.Value()-hits0, s.responseMisses.Value()-misses0; h != 2 || m != 2 {
			t.Errorf("%s: response cache hits/misses = %d/%d, want 2/2", name, h, m)
		}

		// Errors are returned, not cached.
		boom := errors.New("boom")
		if _, err := s.render(cache, "E", func() ([]byte, error) { return nil, boom }); !errors.Is(err, boom) {
			t.Errorf("%s: failing render = %v", name, err)
		}
		if body, err := s.render(cache, "E", func() ([]byte, error) { return []byte("e"), nil }); err != nil || string(body) != "e" {
			t.Errorf("%s: render after a failed one = %q, %v", name, body, err)
		}
		// Nor is a panic: the panicking caller unwinds, the next retries.
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: compute panic was swallowed", name)
				}
			}()
			_, _ = s.render(cache, "P", func() ([]byte, error) { panic("render bug") })
		}()
		if body, err := s.render(cache, "P", func() ([]byte, error) { return []byte("p"), nil }); err != nil || string(body) != "p" {
			t.Errorf("%s: render after a panicked one = %q, %v", name, body, err)
		}
	}
}

// TestBatchViewSharedAcrossCheckpoints: checkpoint folds with no
// directory change publish new snapshots over the same batch view —
// same graph pointers, no trace parses, /v1/ftg served from the body
// rendered once — while a final landing, a delete, a rewrite and a
// manifest change each produce a new one.
func TestBatchViewSharedAcrossCheckpoints(t *testing.T) {
	env, reg := fixtureEnv(t, 1)
	s, dir := env.s, env.dir
	parses := reg.Counter("dayu_serve_trace_parses_total")
	responseMisses := reg.Counter(obs.Name("dayu_serve_cache_misses_total", "cache", "response"))

	first, err := s.Ingest()
	if err != nil {
		t.Fatal(err)
	}
	ftgBody := get(t, env.srv, "/v1/ftg")
	parses0, misses0 := parses.Value(), responseMisses.Value()

	live := liveTask("zz_live")
	prev := first
	for i := 1; i <= 8; i++ {
		live.EndNS++
		snap := foldAndIngest(t, s, encodeCheckpoint(t, checkpointTrace(live, 1.0), uint64(i)))
		if snap == prev || snap.id == prev.id {
			t.Fatalf("checkpoint %d published no new snapshot", i)
		}
		if snap.batchView != first.batchView || snap.ftg != first.ftg || snap.sdg != first.sdg {
			t.Fatalf("checkpoint %d rebuilt the batch view", i)
		}
		if snap.partialTasks != 1 || snap.liveFTG == snap.ftg || snap.liveSDG == snap.sdg {
			t.Fatalf("checkpoint %d: partialTasks=%d, live graphs alias batch: %v", i, snap.partialTasks, snap.liveFTG == snap.ftg)
		}
		if got := get(t, env.srv, "/v1/ftg"); !bytes.Equal(got, ftgBody) {
			t.Fatalf("checkpoint %d changed /v1/ftg", i)
		}
		prev = snap
	}
	if parses.Value() != parses0 {
		t.Errorf("partial-only refreshes parsed %d traces", parses.Value()-parses0)
	}
	if responseMisses.Value() != misses0 {
		t.Errorf("/v1/ftg was re-rendered %d times across partial-only refreshes", responseMisses.Value()-misses0)
	}

	// Each kind of directory change builds a new batch view; the
	// previous snapshots keep theirs.
	expectNew := func(what string, snap *snapshot) *snapshot {
		t.Helper()
		if snap.batchView == prev.batchView || snap.ftg == prev.ftg || snap.sdg == prev.sdg {
			t.Fatalf("%s: batch view not rebuilt", what)
		}
		checkAllEndpoints(t, env.srv, dir, what)
		prev = snap
		return snap
	}
	landed := expectNew("final landing", foldAndIngest(t, s, encodeFinal(t, live)))
	if landed.partialTasks != 0 || landed.liveFTG != landed.ftg || landed.liveSDG != landed.sdg {
		t.Errorf("final landing: partialTasks=%d, live graphs do not alias batch", landed.partialTasks)
	}
	if first.batchView == landed.batchView || len(first.traces) != 24 || len(landed.traces) != 25 {
		t.Errorf("earlier snapshot's batch view was disturbed: %d -> %d traces", len(first.traces), len(landed.traces))
	}

	paths, err := filepath.Glob(filepath.Join(dir, "*.trace.json"))
	if err != nil || len(paths) < 2 {
		t.Fatalf("glob: %v (%d files)", err, len(paths))
	}
	ingest := func() *snapshot {
		t.Helper()
		snap, err := s.Ingest()
		if err != nil {
			t.Fatal(err)
		}
		return snap
	}
	if err := os.Remove(paths[0]); err != nil {
		t.Fatal(err)
	}
	expectNew("delete", ingest())
	rewriteTrace(t, dir, paths[1], 1)
	expectNew("rewrite", ingest())

	// A touch with the same bytes is no change at all.
	bumpMtimes(t, dir, 2)
	if snap := ingest(); snap != prev {
		t.Errorf("touch without new bytes published a snapshot")
	}

	m, err := trace.LoadManifest(dir)
	if err != nil {
		t.Fatal(err)
	}
	m.TaskOrder[0], m.TaskOrder[1] = m.TaskOrder[1], m.TaskOrder[0]
	if err := trace.SaveManifest(dir, m); err != nil {
		t.Fatal(err)
	}
	bumpMtimes(t, dir, 3)
	expectNew("manifest change", ingest())
}

// inflightOverriding builds an in-flight task (not in the manifest, so
// ordered last) that re-describes a shared input dataset several final
// tasks map: in the live view those tasks get SDG contributions under a
// different description fingerprint than in the batch view.
func inflightOverriding(file string, reads int64) *trace.TaskTrace {
	const task = "zz_inflight"
	return &trace.TaskTrace{
		Task: task, StartNS: 1 << 40, EndNS: 1<<40 + 5000,
		Files: []trace.FileRecord{{
			Task: task, File: file, OpenNS: 1<<40 + 10, CloseNS: 1<<40 + 4000,
			Ops: 4, Reads: 4, BytesRead: 1 << 14, MetaOps: 1, DataOps: 3, MetaBytes: 64, DataBytes: 1<<14 - 64,
		}},
		Objects: []trace.ObjectRecord{{
			Task: task, File: file, Object: "/input", Type: "dataset",
			Datatype: "int16", Layout: "contiguous", Shape: []int64{8, 8}, ElemSize: 2,
			AcquiredNS: 1<<40 + 20, ReleasedNS: 1<<40 + 3000, Reads: reads, BytesRead: 1 << 14,
		}},
		Mapped: []trace.MappedStat{{
			Task: task, File: file, Object: "/input",
			MetaOps: 1, DataOps: 3, MetaBytes: 64, DataBytes: 1<<14 - 64, Reads: 4,
			FirstNS: 1<<40 + 30, LastNS: 1<<40 + 2900,
		}},
	}
}

// TestPartialRefreshKeepsBatchContributions pins the prune rule by
// exact contribution-miss counts — the ones the pre-sharing builder
// (which gathered the batch view on every refresh) counts for the same
// sequence. Partial-only refreshes gather the live overlay alone; if
// pruning after them dropped what the batch view was built from, the
// directory changes at the end would recompute it and miss more.
func TestPartialRefreshKeepsBatchContributions(t *testing.T) {
	for _, shards := range []int{1, 4} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			env, reg := fixtureEnv(t, shards)
			s, dir := env.s, env.dir
			misses := reg.Counter(obs.Name("dayu_serve_cache_misses_total", "cache", "contribution"))
			parses := reg.Counter("dayu_serve_trace_parses_total")
			step := func(what string, want int64, do func()) {
				t.Helper()
				before := misses.Value()
				do()
				if got := misses.Value() - before; got != want {
					t.Errorf("%s: %d contribution misses, want %d", what, got, want)
				}
			}
			const shared = "stage_00/shared_000.h5"
			inflight := inflightOverriding(shared, 1)
			seq := uint64(0)
			checkpoint := func() {
				seq++
				foldAndIngest(t, s, encodeCheckpoint(t, inflight, seq))
			}

			if misses.Value() != 2*24 {
				t.Fatalf("cold build: %d misses, want %d", misses.Value(), 2*24)
			}
			// The first checkpoint: its own FTG and SDG shares, plus a
			// live SDG variant for each of the 4 finals mapping the
			// dataset it re-describes.
			step("first checkpoint", 2+4, checkpoint)
			// Later checkpoints that leave the description alone cost
			// the checkpoint's own two shares.
			for i := 0; i < 5; i++ {
				inflight.EndNS++
				step("checkpoint, same descriptions", 2, checkpoint)
			}
			// One that moves the description re-derives the 4 variants.
			inflight.Objects[0].Reads++
			step("checkpoint, new description", 2+4, checkpoint)
			inflight.EndNS++
			step("checkpoint, same descriptions again", 2, checkpoint)

			paths, err := filepath.Glob(filepath.Join(dir, "*.trace.json"))
			if err != nil || len(paths) != 24 {
				t.Fatalf("glob: %v (%d files)", err, len(paths))
			}
			var dependent, independent string
			for _, p := range paths {
				tt, err := trace.Load(p)
				if err != nil {
					t.Fatal(err)
				}
				if tt.Files[0].File == shared {
					dependent = p
				} else {
					independent = p
				}
			}
			parsesBefore := parses.Value()
			// A one-task directory change after all those partial-only
			// refreshes: the 2 shares TestServeEquivalence pins for a
			// modify, and nothing else — every other batch contribution
			// is still cached.
			step("modify an independent final", 2, func() {
				rewriteTrace(t, dir, independent, 1)
				if _, err := s.Ingest(); err != nil {
					t.Fatal(err)
				}
			})
			// A final that maps the re-described dataset also has a live
			// SDG variant to recompute.
			step("modify a dependent final", 3, func() {
				rewriteTrace(t, dir, dependent, 2)
				if _, err := s.Ingest(); err != nil {
					t.Fatal(err)
				}
			})
			if got := parses.Value() - parsesBefore; got != 2 {
				t.Errorf("two modifies parsed %d traces, want 2", got)
			}
			// The in-flight task's final lands: its own two shares. The 4
			// finals that map the dataset it re-describes are now
			// re-described in the batch view too — by the same record, so
			// under the fingerprint their live variants are cached by.
			step("final landing", 2, func() { foldAndIngest(t, s, encodeFinal(t, inflight)) })
			checkAllEndpoints(t, env.srv, dir, "after landing")

			// The overlay dissolved: nothing but the batch view's
			// contributions stays cached.
			if ftg, sdg := len(s.cache.ftg), len(s.cache.sdg); ftg != 25 || sdg != 25 {
				t.Errorf("converged caches hold %d FTG / %d SDG contributions, want 25 / 25", ftg, sdg)
			}
		})
	}
}

// TestContributionCachesBoundedUnderCheckpointStream: 500 successive
// checkpoints of one task with no directory change leave the workers'
// caches at tasks + in-flight; superseded checkpoints' contributions
// disappear with the snapshot that replaced them.
func TestContributionCachesBoundedUnderCheckpointStream(t *testing.T) {
	env, _ := fixtureEnv(t, 2)
	s := env.s
	live := liveTask("zz_live")
	for i := 1; i <= 500; i++ {
		live.EndNS++
		foldAndIngest(t, s, encodeCheckpoint(t, checkpointTrace(live, 1.0), uint64(i)))
		if i%100 != 0 {
			continue
		}
		if ftg, sdg := len(s.cache.ftg), len(s.cache.sdg); ftg > 24+1 || sdg > 24+1 {
			t.Fatalf("after %d checkpoints the caches hold %d FTG / %d SDG contributions, want <= 25", i, ftg, sdg)
		}
	}
}

// TestRefreshErrorKeepsDirectoryChange: a refresh that scanned a
// changed trace and then failed (a torn manifest) must not lose the
// change when the failure clears without one of its own.
func TestRefreshErrorKeepsDirectoryChange(t *testing.T) {
	dir := writeFixtureDir(t)
	s := mustServer(t, Config{Dir: dir, PlanOptions: testPlanOpts})
	defer s.Close()
	srv := httptest.NewServer(s)
	defer srv.Close()
	checkAllEndpoints(t, srv, dir, "initial")

	manifestPath := filepath.Join(dir, "manifest.json")
	good, err := os.ReadFile(manifestPath)
	if err != nil {
		t.Fatal(err)
	}
	paths, err := filepath.Glob(filepath.Join(dir, "*.trace.json"))
	if err != nil || len(paths) == 0 {
		t.Fatalf("glob: %v", err)
	}
	if err := os.WriteFile(manifestPath, []byte("{torn"), 0o644); err != nil {
		t.Fatal(err)
	}
	rewriteTrace(t, dir, paths[0], 1)
	if _, err := s.Ingest(); err == nil {
		t.Fatal("ingest accepted a torn manifest")
	}
	if err := os.WriteFile(manifestPath, good, 0o644); err != nil {
		t.Fatal(err)
	}
	bumpMtimes(t, dir, 2)
	checkAllEndpoints(t, srv, dir, "after the manifest came back")
}

// parseSSE reads one event stream the way the SSE specification tells a
// client to: fields split at the first colon with one leading space of
// the value dropped, data fields joined with \n, the event dispatched
// at a blank line with the final \n removed.
func parseSSE(t *testing.T, stream []byte) []sseEvent {
	t.Helper()
	var events []sseEvent
	var ev sseEvent
	var data []byte
	sawData := false
	if !bytes.HasSuffix(stream, []byte("\n")) {
		t.Fatalf("stream does not end with a line terminator: %q", stream)
	}
	for _, line := range strings.Split(strings.TrimSuffix(string(stream), "\n"), "\n") {
		if line == "" {
			if sawData {
				ev.data = strings.TrimSuffix(string(data), "\n")
				events = append(events, ev)
			}
			ev, data, sawData = sseEvent{}, nil, false
			continue
		}
		if strings.HasPrefix(line, ":") {
			continue
		}
		field, value, _ := strings.Cut(line, ":")
		value = strings.TrimPrefix(value, " ")
		switch field {
		case "id":
			ev.id = value
		case "event":
			ev.event = value
		case "data":
			data = append(append(data, value...), '\n')
			sawData = true
		}
	}
	if sawData || ev != (sseEvent{}) {
		t.Fatalf("stream ends inside an event: %q", stream)
	}
	return events
}

// TestEventFrameReassembles: whatever the payload's line structure and
// wherever its segments are cut, a spec-following client reassembles
// exactly the payload bytes.
func TestEventFrameReassembles(t *testing.T) {
	env, _ := fixtureEnv(t, 1)
	snap := foldAndIngest(t, env.s, encodeCheckpoint(t, checkpointTrace(liveTask("zz_live"), 1.0), 1))
	real, err := env.s.liveEventPayload(nil, snap)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Count(real[1], []byte("\n")) < 10 {
		t.Fatalf("live event findings are not multi-line: %q", real[1])
	}
	one := func(payload string) [][]byte { return [][]byte{[]byte(payload)} }
	payloads := map[string][][]byte{
		"live event payload":  real[:],
		"no newline":          one(`{"one":"line"}`),
		"trailing newline":    one("[\n  1\n]\n"),
		"empty lines":         one("a\n\n\nb"),
		"only newlines":       one("\n\n"),
		"leading space kept":  one(" x\n  y"),
		"colon in first line": one("data: not a field\nid: 9"),
		"empty":               nil,
		// Segment boundaries are not line boundaries.
		"line spans segments":        {[]byte("{\"a\":"), []byte("[\n  1,"), []byte(" 2\n]"), []byte("}")},
		"segment ends in newline":    {[]byte("a\n"), []byte("b\n"), []byte("c")},
		"last segment ends the line": {[]byte("a\nb"), []byte("\n")},
		"newline alone in a segment": {[]byte("a"), []byte("\n"), []byte("\n"), []byte("b")},
		"empty segments":             {nil, []byte("a\n"), {}, []byte("b"), nil},
	}
	var stream []byte
	var order []string
	for name, segments := range payloads {
		payload := string(bytes.Join(segments, nil))
		frame := appendEventFrame(nil, uint64(len(order)+1), segments...)
		events := parseSSE(t, frame)
		if len(events) != 1 {
			t.Fatalf("%s: frame parses to %d events: %q", name, len(events), frame)
		}
		if ev := events[0]; ev.event != "snapshot" || ev.id != fmt.Sprint(len(order)+1) || ev.data != payload {
			t.Errorf("%s: reassembled id=%q event=%q data=%q, want data %q", name, ev.id, ev.event, ev.data, payload)
		}
		// However the payload is cut, the frame is the same bytes.
		if whole := appendEventFrame(nil, uint64(len(order)+1), []byte(payload)); !bytes.Equal(frame, whole) {
			t.Errorf("%s: framing the segments gives %q, framing their concatenation %q", name, frame, whole)
		}
		// Frames append: a connection reuses one buffer per event.
		stream = appendEventFrame(stream, uint64(len(order)+1), segments...)
		order = append(order, name)
	}
	events := parseSSE(t, stream)
	if len(events) != len(order) {
		t.Fatalf("concatenated frames parse to %d events, want %d", len(events), len(order))
	}
	for i, name := range order {
		if events[i].data != string(bytes.Join(payloads[name], nil)) {
			t.Errorf("%s: payload changed inside a concatenated stream", name)
		}
	}
}

// TestEventWriteAllocatesNoPayload: with the findings body in the render
// cache, putting an event on a connection — header, framing, the reused
// buffers — allocates a handful of small objects whatever the body's
// size; the megabyte is copied once, into the connection's frame.
func TestEventWriteAllocatesNoPayload(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not stable under the race detector")
	}
	var allocs []float64
	var sizes []int
	for _, tasks := range []int{24, 240} {
		env := newPushEnv(t, func(c *Config) {
			c.Dir = writeSyntheticDir(t, workloads.SyntheticTraceConfig{Tasks: tasks, Stages: 4})
		})
		snap := foldAndIngest(t, env.s, encodeCheckpoint(t, checkpointTrace(liveTask("zz_live"), 1.0), 1))
		var head, frame []byte
		write := func() {
			payload, err := env.s.liveEventPayload(head[:0], snap)
			if err != nil {
				t.Fatal(err)
			}
			head = payload[0]
			frame = appendEventFrame(frame[:0], 7, payload[:]...)
		}
		write() // renders the body, grows the buffers
		allocs = append(allocs, testing.AllocsPerRun(50, write))
		sizes = append(sizes, len(frame))
	}
	if sizes[1] < 5*sizes[0] {
		t.Fatalf("frames are %d and %d bytes; the second was meant to be several times larger", sizes[0], sizes[1])
	}
	if allocs[0] != allocs[1] || allocs[1] > 4 {
		t.Errorf("writing a %d-byte event allocates %.0f times, a %d-byte one %.0f; want the same small number (<= 4)",
			sizes[0], allocs[0], sizes[1], allocs[1])
	}
}

// TestLiveEventsMetrics: every delivered event is observed in the three
// event series, and the byte series counts exactly the framed bytes.
func TestLiveEventsMetrics(t *testing.T) {
	env, reg := fixtureEnv(t, 1)
	render := reg.Histogram("dayu_serve_event_render_ns", nil)
	write := reg.Histogram("dayu_serve_event_write_ns", nil)
	size := reg.Histogram("dayu_serve_event_bytes", nil)

	c := dialSSE(t, env.srv, "")
	first := c.next(t)
	postIngest(t, env.srv, encodeCheckpoint(t, checkpointTrace(liveTask("zz_live"), 1.0), 1))
	second := c.next(t)

	want := int64(len(appendEventFrame(nil, 1, []byte(first.data))) + len(appendEventFrame(nil, 2, []byte(second.data))))
	deadline := time.Now().Add(10 * time.Second)
	for size.Count() < 2 && time.Now().Before(deadline) {
		time.Sleep(2 * time.Millisecond) // observed just after the flush the client saw
	}
	if render.Count() != 2 || write.Count() != 2 || size.Count() != 2 {
		t.Fatalf("event series counts render=%d write=%d bytes=%d, want 2 each", render.Count(), write.Count(), size.Count())
	}
	if size.Sum() != want {
		t.Errorf("dayu_serve_event_bytes sum = %d, want the %d framed bytes", size.Sum(), want)
	}
	if render.Sum() <= 0 || write.Sum() <= 0 {
		t.Errorf("event timings not recorded: render=%dns write=%dns", render.Sum(), write.Sum())
	}
	if metrics := string(get(t, env.srv, "/metrics")); !strings.Contains(metrics, "dayu_serve_event_render_ns") ||
		!strings.Contains(metrics, "dayu_serve_event_write_ns") || !strings.Contains(metrics, "dayu_serve_event_bytes") {
		t.Error("/metrics misses the event series")
	}
}
