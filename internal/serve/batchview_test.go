package serve

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
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
	if _, _, err := s.foldBytes(data); err != nil {
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
func fixtureEnv(t *testing.T) (*pushEnv, *obs.Registry) {
	t.Helper()
	reg := obs.NewRegistry()
	env := newPushEnv(t, func(c *Config) {
		c.Dir = writeFixtureDir(t)
		c.Registry = reg
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
	snap := &snapshot{batch: &view{}, live: &view{}}
	for name, cache := range map[string]*renderCache{"batch": &snap.batch.rendered, "live": &snap.live.rendered} {
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
	env, reg := fixtureEnv(t)
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
		if snap.batch != first.batch || snap.batch.ftg != first.batch.ftg || snap.batch.sdg != first.batch.sdg {
			t.Fatalf("checkpoint %d rebuilt the batch view", i)
		}
		if snap.partialTasks != 1 || snap.live.ftg == snap.batch.ftg || snap.live.sdg == snap.batch.sdg {
			t.Fatalf("checkpoint %d: partialTasks=%d, live graphs alias batch: %v", i, snap.partialTasks, snap.live.ftg == snap.batch.ftg)
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
		if snap.batch == prev.batch || snap.batch.ftg == prev.batch.ftg || snap.batch.sdg == prev.batch.sdg {
			t.Fatalf("%s: batch view not rebuilt", what)
		}
		checkAllEndpoints(t, env.srv, dir, what)
		prev = snap
		return snap
	}
	landed := expectNew("final landing", foldAndIngest(t, s, encodeFinal(t, live)))
	if landed.partialTasks != 0 || landed.live.ftg != landed.batch.ftg || landed.live.sdg != landed.batch.sdg {
		t.Errorf("final landing: partialTasks=%d, live graphs do not alias batch", landed.partialTasks)
	}
	if first.batch == landed.batch || len(first.batch.traces) != 24 || len(landed.batch.traces) != 25 {
		t.Errorf("earlier snapshot's batch view was disturbed: %d -> %d traces", len(first.batch.traces), len(landed.batch.traces))
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

// TestRenderPlacement pins where each body is cached. While a
// checkpoint is retained, every batch endpoint answers the batch build
// of the directory alone (/v1/diagnose then runs Analyze from scratch),
// and /v1/tasks names the snapshot it was served from, so its body must
// not land in the batch view that partial-only refreshes share. Once the
// final lands, each live endpoint is a response-cache hit on the body
// its batch twin rendered.
func TestRenderPlacement(t *testing.T) {
	env, reg := fixtureEnv(t)
	s, dir := env.s, env.dir
	live := liveTask("zz_live")
	for i := 1; i <= 3; i++ {
		live.EndNS++
		snap := foldAndIngest(t, s, encodeCheckpoint(t, checkpointTrace(live, 1.0), uint64(i)))
		if snap.partialTasks != 1 {
			t.Fatalf("checkpoint %d: partialTasks=%d, want 1", i, snap.partialTasks)
		}
		phase := fmt.Sprintf("checkpoint %d", i)
		checkAllEndpoints(t, env.srv, dir, phase)
		body, hdr := getHdr(t, env.srv, "/v1/tasks")
		var listed struct {
			Snapshot string `json:"snapshot"`
		}
		if err := json.Unmarshal(body, &listed); err != nil {
			t.Fatal(err)
		}
		if listed.Snapshot != hdr.Get("X-Dayu-Snapshot") || listed.Snapshot != snap.id {
			t.Errorf("%s: /v1/tasks names snapshot %s, served as %s, published %s",
				phase, listed.Snapshot, hdr.Get("X-Dayu-Snapshot"), snap.id)
		}
	}

	foldAndIngest(t, s, encodeFinal(t, live))
	hits := reg.Counter(obs.Name("dayu_serve_cache_hits_total", "cache", "response"))
	pairs := map[string]string{"/v1/live/diagnostics": "/v1/diagnose"}
	for _, g := range []string{"ftg", "sdg"} {
		for _, format := range []string{"json", "dot", "html", "svg"} {
			pairs["/v1/live/"+g+"?format="+format] = "/v1/" + g + "?format=" + format
		}
	}
	for livePath, batchPath := range pairs {
		want := get(t, env.srv, batchPath)
		before := hits.Value()
		if got := get(t, env.srv, livePath); !bytes.Equal(got, want) {
			t.Errorf("%s differs from %s after the final landed", livePath, batchPath)
		}
		if hits.Value() != before+1 {
			t.Errorf("%s was not a response-cache hit on the body %s rendered", livePath, batchPath)
		}
	}
}

// TestPlanRenderCacheBounded pins /v1/plan to the one-body-per-slot
// rule: the batch view lives across every partial-only refresh and
// ?tier= is free text, so a client sweeping ?nodes= and ?tier= on an
// idle server must leave the batch render cache's entry count constant,
// and repeating the last request must be a response-cache hit.
func TestPlanRenderCacheBounded(t *testing.T) {
	reg := obs.NewRegistry()
	s := mustServer(t, Config{Dir: writeFixtureDir(t), PlanOptions: testPlanOpts, Registry: reg})
	defer s.Close()
	snap, err := s.current()
	if err != nil {
		t.Fatal(err)
	}
	get := func(path string) {
		t.Helper()
		rec := httptest.NewRecorder()
		s.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, path, nil))
		if rec.Code != http.StatusOK {
			t.Fatalf("GET %s = %d", path, rec.Code)
		}
		if got := rec.Header().Get("X-Dayu-Snapshot"); got != snap.id {
			t.Fatalf("GET %s served snapshot %s on an idle server, want %s", path, got, snap.id)
		}
	}
	entries := func() int {
		snap.batch.rendered.mu.Lock()
		defer snap.batch.rendered.mu.Unlock()
		return len(snap.batch.rendered.entries)
	}
	get("/v1/plan")
	want := entries()
	for n := 1; n <= 300; n++ {
		get(fmt.Sprintf("/v1/plan?nodes=%d", n))
	}
	last := ""
	for i := 0; i < 50; i++ {
		last = fmt.Sprintf("/v1/plan?tier=tier-%d@x&nodes=%d", i, i+1)
		get(last)
	}
	if got := entries(); got != want {
		t.Errorf("batch render cache holds %d entries after the sweep, want %d", got, want)
	}
	hits := reg.Counter(obs.Name("dayu_serve_cache_hits_total", "cache", "response"))
	before := hits.Value()
	get(last)
	if hits.Value() != before+1 {
		t.Error("repeating the last plan request was not a response-cache hit")
	}
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

// TestPartialRefreshKeepsBatchContributions pins the contribution cache
// rule by exact contribution-miss counts. Partial-only refreshes sync
// the live graph index alone; if they dropped what the batch index
// holds, or the two indexes stopped taking contributions from each
// other, the directory changes at the end would recompute more.
func TestPartialRefreshKeepsBatchContributions(t *testing.T) {
	env, reg := fixtureEnv(t)
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
	// One that moves the description in a field the SDG does not read
	// costs the same; one that moves what it reads re-derives the 4
	// variants.
	inflight.Objects[0].Reads++
	step("checkpoint, description moved outside what the SDG reads", 2, checkpoint)
	inflight.Objects[0].Datatype = "int32"
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
	// re-described in the batch view too — alike, so the batch index
	// takes their live variants from the live index.
	step("final landing", 2, func() { foldAndIngest(t, s, encodeFinal(t, inflight)) })
	checkAllEndpoints(t, env.srv, dir, "after landing")

	// The live view dissolved: the live index follows the batch set,
	// so nothing but the batch index's contributions stays cached.
	if ftg, sdg := retained(s); ftg != 25 || sdg != 25 {
		t.Errorf("converged caches hold %d FTG / %d SDG contributions, want 25 / 25", ftg, sdg)
	}
}

// TestContributionCachesBoundedUnderCheckpointStream: 500 successive
// checkpoints of one task with no directory change leave the workers'
// caches at tasks + in-flight; superseded checkpoints' contributions
// disappear with the snapshot that replaced them.
func TestContributionCachesBoundedUnderCheckpointStream(t *testing.T) {
	env, _ := fixtureEnv(t)
	s := env.s
	live := liveTask("zz_live")
	for i := 1; i <= 500; i++ {
		live.EndNS++
		foldAndIngest(t, s, encodeCheckpoint(t, checkpointTrace(live, 1.0), uint64(i)))
		if i%100 != 0 {
			continue
		}
		if ftg, sdg := retained(s); ftg > 24+1 || sdg > 24+1 {
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

// TestEventFrameIsOneDataLine: every snapshot event is three lines —
// `id:`, `event: snapshot` and exactly one `data:` — and a blank one,
// and a spec-following client reads back exactly the payload, alone or
// behind a lagged notice and other frames in one stream.
func TestEventFrameIsOneDataLine(t *testing.T) {
	env, _ := fixtureEnv(t)
	first, err := env.s.current()
	if err != nil {
		t.Fatal(err)
	}
	second := foldAndIngest(t, env.s, encodeCheckpoint(t, checkpointTrace(liveTask("zz_live"), 1.0), 1))
	if second.findings.Findings() == nil || second.id == first.id {
		t.Fatal("the fixture's snapshots carry no findings, or one id")
	}
	stream := []byte(laggedNotice)
	for _, snap := range []*snapshot{first, second} {
		frame, err := appendEvent(nil, snap)
		if err != nil {
			t.Fatal(err)
		}
		lines := strings.Split(string(frame), "\n")
		if len(lines) != 5 || lines[0] != "id: "+snap.id || lines[1] != "event: snapshot" ||
			!strings.HasPrefix(lines[2], "data: {") || lines[3] != "" || lines[4] != "" {
			t.Fatalf("snapshot %s is not framed as id, event, one data line and a blank line: %q", snap.id, frame)
		}
		events := parseSSE(t, frame)
		if len(events) != 1 || events[0].id != snap.id || events[0].event != "snapshot" || events[0].data != lines[2][len("data: "):] {
			t.Fatalf("snapshot %s's frame parses to %+v", snap.id, events)
		}
		// Frames append: a connection reuses one buffer per event.
		if again, err := appendEvent(stream, snap); err != nil || !bytes.Equal(again[len(stream):], frame) {
			t.Fatalf("appending snapshot %s behind other frames changes its bytes (%v)", snap.id, err)
		} else {
			stream = again
		}
	}
	events := parseSSE(t, stream)
	if len(events) != 3 || events[0].event != "lagged" || events[1].id != first.id || events[2].id != second.id {
		t.Fatalf("the lagged notice and two frames parse to %+v", events)
	}
}

// TestEventWriteAllocatesNoPayload: with the findings' compact bytes
// memoised in the view's groups, putting an event on a connection —
// header, framing, the reused buffer — allocates a handful of small
// objects whatever the body's size; the megabyte is copied once, into
// the connection's frame.
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
		var frame []byte
		write := func() {
			var err error
			if frame, err = appendEvent(frame[:0], snap); err != nil {
				t.Fatal(err)
			}
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
	env, reg := fixtureEnv(t)
	render := reg.Histogram("dayu_serve_event_render_ns", nil)
	write := reg.Histogram("dayu_serve_event_write_ns", nil)
	size := reg.Histogram("dayu_serve_event_bytes", nil)

	c := dialSSE(t, env.srv, "")
	first := c.next(t)
	postIngest(t, env.srv, encodeCheckpoint(t, checkpointTrace(liveTask("zz_live"), 1.0), 1))
	second := c.next(t)

	framed := func(ev sseEvent) int { return len("id: " + ev.id + "\nevent: snapshot\ndata: " + ev.data + "\n\n") }
	want := int64(framed(first) + framed(second))
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
