package serve

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"dayu/internal/analyzer"
	"dayu/internal/diagnose"
	"dayu/internal/obs"
	"dayu/internal/trace"
	"dayu/internal/workloads"
)

// sseEvent is one parsed server-sent event.
type sseEvent struct {
	id    string
	event string
	data  string
}

// sseConn is one open /v1/live/events connection under test.
type sseConn struct {
	rd     *bufio.Reader
	resp   *http.Response
	cancel context.CancelFunc
}

// dialSSE opens the event stream, optionally resuming from lastID.
func dialSSE(t *testing.T, srv *httptest.Server, lastID string) *sseConn {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, srv.URL+"/v1/live/events", nil)
	if err != nil {
		cancel()
		t.Fatal(err)
	}
	if lastID != "" {
		req.Header.Set("Last-Event-ID", lastID)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		cancel()
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		cancel()
		t.Fatalf("GET /v1/live/events = %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		cancel()
		t.Fatalf("Content-Type = %q, want text/event-stream", ct)
	}
	c := &sseConn{rd: bufio.NewReader(resp.Body), resp: resp, cancel: cancel}
	t.Cleanup(c.close)
	return c
}

func (c *sseConn) close() {
	c.cancel()
	c.resp.Body.Close()
}

// next reads the next event, skipping heartbeat comments. The
// connection's context deadline bounds the wait.
func (c *sseConn) next(t *testing.T) sseEvent {
	t.Helper()
	var ev sseEvent
	var data []string
	for {
		line, err := c.rd.ReadString('\n')
		if err != nil {
			t.Fatalf("sse read: %v", err)
		}
		line = strings.TrimRight(line, "\n")
		switch {
		case line == "":
			if ev.event != "" || len(data) != 0 || ev.id != "" {
				// Per the SSE spec, consecutive data fields rejoin
				// with \n.
				ev.data = strings.Join(data, "\n")
				return ev
			}
		case strings.HasPrefix(line, ":"):
			// heartbeat comment
		case strings.HasPrefix(line, "id: "):
			ev.id = line[len("id: "):]
		case strings.HasPrefix(line, "event: "):
			ev.event = line[len("event: "):]
		case strings.HasPrefix(line, "data: "):
			data = append(data, line[len("data: "):])
		}
	}
}

// expectQuiet reads raw lines until a heartbeat comment arrives,
// failing on any event line before it: the server had nothing to send.
func (c *sseConn) expectQuiet(t *testing.T) {
	t.Helper()
	for {
		line, err := c.rd.ReadString('\n')
		if err != nil {
			t.Fatalf("waiting for heartbeat: %v", err)
		}
		switch {
		case strings.HasPrefix(line, ": heartbeat"):
			return
		case line != "\n":
			t.Fatalf("want no event before the heartbeat, got %q", line)
		}
	}
}

// expectHeartbeat reads raw lines until a heartbeat comment arrives.
func (c *sseConn) expectHeartbeat(t *testing.T) {
	t.Helper()
	for {
		line, err := c.rd.ReadString('\n')
		if err != nil {
			t.Fatalf("waiting for heartbeat: %v", err)
		}
		if strings.HasPrefix(line, ": heartbeat") {
			return
		}
	}
}

// expectPayload reconstructs the exact event data an endpoint's
// current state should produce: the snapshot header fields plus
// json.Compact of the endpoint's body. Comparing against it asserts
// byte-identity between SSE-delivered findings and the polling
// endpoint, up to insignificant whitespace.
func expectPayload(t *testing.T, srv *httptest.Server, path string, partial, complete int) string {
	t.Helper()
	body, hdr := getHdr(t, srv, path)
	var findings bytes.Buffer
	if err := json.Compact(&findings, body); err != nil {
		t.Fatal(err)
	}
	return fmt.Sprintf(`{"snapshot":%q,"partial_tasks":%d,"complete_tasks":%d,"findings":%s}`,
		hdr.Get("X-Dayu-Snapshot"), partial, complete, findings.Bytes())
}

// eventPayload is the decoded `event: snapshot` data line.
type eventPayload struct {
	Snapshot      string          `json:"snapshot"`
	PartialTasks  int             `json:"partial_tasks"`
	CompleteTasks int             `json:"complete_tasks"`
	Findings      json.RawMessage `json:"findings"`
}

func decodeEvent(t *testing.T, ev sseEvent) eventPayload {
	t.Helper()
	if ev.event != "snapshot" {
		t.Fatalf("event type %q, want snapshot", ev.event)
	}
	var p eventPayload
	if err := json.Unmarshal([]byte(ev.data), &p); err != nil {
		t.Fatalf("bad event payload %q: %v", ev.data, err)
	}
	if ev.id != p.Snapshot {
		t.Fatalf("event id %q is not its snapshot id %q", ev.id, p.Snapshot)
	}
	return p
}

// sseEnv builds a WAL-enabled server over a complete fixture with a
// fast heartbeat, so SSE tests observe both framing kinds quickly.
func sseEnv(t *testing.T) (*Server, *httptest.Server) {
	t.Helper()
	fixture := writeFixtureDir(t)
	s := mustServer(t, Config{
		Dir: fixture, WALDir: t.TempDir(), WAL: WALOptions{Fsync: FsyncNever},
		PlanOptions:  testPlanOpts,
		sseHeartbeat: 50 * time.Millisecond,
	})
	srv := httptest.NewServer(s)
	t.Cleanup(func() { srv.Close(); s.Close() })
	return s, srv
}

// TestLiveEventsStream covers the happy path: the first event carries
// the current converged state (findings byte-identical to
// /v1/diagnose), a push produces a follow-up event whose findings
// match the polling endpoint for the same snapshot, and heartbeats
// flow between events.
func TestLiveEventsStream(t *testing.T) {
	s, srv := sseEnv(t)

	conn := dialSSE(t, srv, "")
	firstEv := conn.next(t)
	first := decodeEvent(t, firstEv)
	if first.PartialTasks != 0 || first.CompleteTasks != 24 {
		t.Fatalf("first event counts = %d partial / %d complete, want 0/24",
			first.PartialTasks, first.CompleteTasks)
	}
	_, hdr := getHdr(t, srv, "/v1/live/ftg")
	if first.Snapshot != hdr.Get("X-Dayu-Snapshot") {
		t.Errorf("first event snapshot %q != live header %q", first.Snapshot, hdr.Get("X-Dayu-Snapshot"))
	}
	// Converged: the event body embeds the /v1/live/diagnostics bytes,
	// which are themselves byte-identical to /v1/diagnose.
	if want := expectPayload(t, srv, "/v1/live/diagnostics", 0, 24); firstEv.data != want {
		t.Error("converged event payload differs from /v1/live/diagnostics state")
	}
	liveBody, _ := getHdr(t, srv, "/v1/live/diagnostics")
	if diag := get(t, srv, "/v1/diagnose"); !bytes.Equal(liveBody, diag) {
		t.Error("converged /v1/live/diagnostics differs from /v1/diagnose")
	}

	conn.expectHeartbeat(t)

	// A pushed checkpoint changes the snapshot and must produce exactly
	// one more event, matching what polling would see.
	tt := liveTask("sse_task")
	if status, pr, _ := postIngest(t, srv, encodeCheckpoint(t, tt, 1)); status != http.StatusOK || pr.Status != "accepted" {
		t.Fatalf("checkpoint push = %d %q", status, pr.Status)
	}
	secondEv := conn.next(t)
	second := decodeEvent(t, secondEv)
	if second.PartialTasks != 1 || second.CompleteTasks != 24 {
		t.Fatalf("second event counts = %d partial / %d complete, want 1/24",
			second.PartialTasks, second.CompleteTasks)
	}
	if second.Snapshot == first.Snapshot {
		t.Error("snapshot id did not change after a checkpoint push")
	}
	if want := expectPayload(t, srv, "/v1/live/diagnostics", 1, 24); secondEv.data != want {
		t.Error("partial event payload differs from /v1/live/diagnostics state")
	}

	s.Close() // the stream must end rather than hang on shutdown
	if _, err := conn.rd.ReadString(0); err == nil {
		t.Error("stream still open after server close")
	}
}

// TestLiveEventsRenderFailureIsLoud pins that an event the server
// cannot render is not just skipped: /healthz turns degraded with the
// cause and the failure is counted, while the stream itself stays up
// and delivers the next snapshot.
func TestLiveEventsRenderFailureIsLoud(t *testing.T) {
	fixture := writeFixtureDir(t)
	reg := obs.NewRegistry()
	s := mustServer(t, Config{
		Dir: fixture, WALDir: t.TempDir(), WAL: WALOptions{Fsync: FsyncNever},
		PlanOptions: testPlanOpts, Registry: reg,
	})
	srv := httptest.NewServer(s)
	t.Cleanup(func() { srv.Close(); s.Close() })

	// Give the current snapshot findings with a NaN metric, which the
	// encoder refuses: a view from an index of its own, so that no other
	// snapshot shares the poisoned groups, with one metric overwritten
	// through the map Findings shares with the view.
	snap, err := s.current()
	if err != nil {
		t.Fatal(err)
	}
	poisoned := diagnose.NewIndex(diagnose.Thresholds{}).Apply(snap.live.ordered, snap.live.manifest, analyzer.Change{})
	var key string
	for _, f := range poisoned.Findings() {
		for key = range f.Metrics {
			f.Metrics[key] = math.NaN()
			break
		}
		if key != "" {
			break
		}
	}
	if key == "" {
		t.Fatal("the fixture's findings carry no metric to poison")
	}
	snap.findings = poisoned

	conn := dialSSE(t, srv, "")
	// Health reflects but never triggers ingestion, so the degradation
	// stays visible until the next successful rescan.
	deadline := time.Now().Add(10 * time.Second)
	for {
		resp, err := http.Get(srv.URL + "/healthz")
		if err != nil {
			t.Fatal(err)
		}
		var h Health
		err = json.NewDecoder(resp.Body).Decode(&h)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if h.Status == "degraded" && strings.Contains(h.LastIngestError, fmt.Sprintf("metric %q: unsupported value NaN", key)) {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("healthz never reported the dropped event: %+v", h)
		}
		time.Sleep(2 * time.Millisecond)
	}
	if status, _, _ := postIngest(t, srv, makeTraceBytes(t, "after_failure", trace.FormatBinary)); status != http.StatusOK {
		t.Fatalf("push = %d", status)
	}
	// The first event on the wire is the post-push snapshot: the
	// unrenderable one was dropped, and by now accounted for.
	p := decodeEvent(t, conn.next(t))
	if p.Snapshot == snap.id {
		t.Fatalf("the unrenderable snapshot %s was delivered", snap.id)
	}
	if got := reg.Counter("dayu_serve_event_render_errors_total").Value(); got != 1 {
		t.Errorf("event_render_errors_total = %d, want 1", got)
	}
}

// TestEventIsCompact: on a loaded server the one-line event is well
// under the same payload with the indented body, framed one `data:`
// field per line as SSE requires of multi-line data. Measured by what
// the server observes in dayu_serve_event_bytes.
func TestEventIsCompact(t *testing.T) {
	reg := obs.NewRegistry()
	env := newPushEnv(t, func(c *Config) {
		c.Dir = writeSyntheticDir(t, workloads.SyntheticTraceConfig{Tasks: 1000})
		c.Registry = reg
	})
	ev := dialSSE(t, env.srv, "").next(t)
	p := decodeEvent(t, ev)
	size := reg.Histogram("dayu_serve_event_bytes", nil)
	for deadline := time.Now().Add(10 * time.Second); size.Count() < 1 && time.Now().Before(deadline); {
		time.Sleep(2 * time.Millisecond) // observed just after the flush the client saw
	}
	if size.Count() != 1 {
		t.Fatalf("%d events observed, want 1", size.Count())
	}
	body, hdr := getHdr(t, env.srv, "/v1/live/diagnostics")
	if hdr.Get("X-Dayu-Snapshot") != ev.id {
		t.Fatalf("the state moved on from the event's snapshot %s to %s", ev.id, hdr.Get("X-Dayu-Snapshot"))
	}
	indented := fmt.Sprintf(`{"snapshot":%q,"partial_tasks":%d,"complete_tasks":%d,"findings":%s}`,
		p.Snapshot, p.PartialTasks, p.CompleteTasks, body)
	indentedFrame := "id: " + ev.id + "\nevent: snapshot\ndata: " + strings.ReplaceAll(indented, "\n", "\ndata: ") + "\n\n"
	if got, bound := size.Sum(), 0.85*float64(len(indentedFrame)); float64(got) > bound {
		t.Errorf("a 1000-task event is %d bytes, over 0.85 of the %d-byte indented frame", got, len(indentedFrame))
	} else {
		t.Logf("a 1000-task event is %d bytes, %.2f of the %d-byte indented frame (%d lines)",
			got, float64(got)/float64(len(indentedFrame)), len(indentedFrame), strings.Count(indented, "\n")+1)
	}
}

// TestLiveEventsResume pins the one Last-Event-ID rule: the newest
// event's id gets nothing, any other value — none, an older id, an
// unknown one, garbage — gets exactly one event, the newest.
func TestLiveEventsResume(t *testing.T) {
	_, srv := sseEnv(t)

	conn := dialSSE(t, srv, "")
	first := conn.next(t)
	firstPayload := decodeEvent(t, first)

	// Two pushes, each waited to its own snapshot so they publish two
	// distinct events rather than coalescing.
	if status, _, _ := postIngest(t, srv, encodeCheckpoint(t, liveTask("resume_a"), 1)); status != http.StatusOK {
		t.Fatalf("push a = %d", status)
	}
	waitLiveCounts(t, srv, 1, 24)
	if status, _, _ := postIngest(t, srv, encodeCheckpoint(t, liveTask("resume_b"), 2)); status != http.StatusOK {
		t.Fatalf("push b = %d", status)
	}
	waitLiveCounts(t, srv, 2, 24)

	evA := conn.next(t)
	evB := conn.next(t)
	if evA.id == first.id || evB.id == evA.id {
		t.Fatalf("event ids %s, %s, %s are not three states", first.id, evA.id, evB.id)
	}

	// Resuming from an older id skips the intermediate event: exactly
	// one event, the newest, verbatim.
	resumed := dialSSE(t, srv, first.id)
	if got := resumed.next(t); got.id != evB.id || got.data != evB.data {
		t.Errorf("resume from an older id got id %s, want the newest %s", got.id, evB.id)
	}
	resumed.expectQuiet(t)

	// The newest id is current: nothing to send.
	dialSSE(t, srv, evB.id).expectQuiet(t)

	// No id, an unknown id and a garbage one all get the newest state
	// once: full-state events make "treat as fresh" always correct.
	for _, lastID := range []string{"", "99999", "not-a-snapshot"} {
		c := dialSSE(t, srv, lastID)
		if ev := c.next(t); ev.id != evB.id || decodeEvent(t, ev).Snapshot == firstPayload.Snapshot {
			t.Errorf("Last-Event-ID %q got id %s, want the newest %s", lastID, ev.id, evB.id)
		}
		c.expectQuiet(t)
	}
}

// TestResumeAcrossRestart: a watcher that reconnects to a restarted
// server over a changed directory is told the new state. Event ids are
// snapshot ids, so an id from before the restart names the old state and
// is never mistaken for the new one.
func TestResumeAcrossRestart(t *testing.T) {
	fixture := writeFixtureDir(t)
	start := func() *httptest.Server {
		s := mustServer(t, Config{Dir: fixture, sseHeartbeat: 50 * time.Millisecond})
		srv := httptest.NewServer(s)
		t.Cleanup(func() { srv.Close(); s.Close() })
		return srv
	}

	srv1 := start()
	conn := dialSSE(t, srv1, "")
	lastID := conn.next(t).id
	conn.close()
	srv1.Close()

	if _, err := liveTask("restart_added").Save(fixture); err != nil {
		t.Fatal(err)
	}
	srv2 := start()
	_, hdr := getHdr(t, srv2, "/v1/live/ftg")
	resumed := dialSSE(t, srv2, lastID)
	p := decodeEvent(t, resumed.next(t))
	if want := hdr.Get("X-Dayu-Snapshot"); p.Snapshot != want || p.Snapshot == lastID {
		t.Errorf("resume across restart got snapshot %s, want server 2's %s (old id %s)", p.Snapshot, want, lastID)
	}
	resumed.expectQuiet(t)
}

// TestLiveParamValidation is the regression table for live-endpoint
// parameter handling: a negative, zero, or malformed ?window=/?horizon=
// must be rejected with 400 on every live endpoint — never silently
// treated as unset.
func TestLiveParamValidation(t *testing.T) {
	_, srv := sseEnv(t)
	endpoints := []struct{ path, param string }{
		{"/v1/live/ftg", "window"},
		{"/v1/live/sdg", "window"},
		{"/v1/live/diagnostics", "horizon"},
		{"/v1/live/events", "window"},
		{"/v1/live/events", "horizon"},
	}
	for _, ep := range endpoints {
		for _, bad := range []string{"-5s", "0s", "garbage"} {
			url := fmt.Sprintf("%s%s?%s=%s", srv.URL, ep.path, ep.param, bad)
			resp, err := http.Get(url)
			if err != nil {
				t.Fatal(err)
			}
			resp.Body.Close()
			if resp.StatusCode != http.StatusBadRequest {
				t.Errorf("GET %s?%s=%s = %d, want 400", ep.path, ep.param, bad, resp.StatusCode)
			}
		}
	}
}

// TestEventsBroadcaster unit-tests the resume rule and fan-out
// semantics that the integration tests cannot reach deterministically:
// what a subscriber is sent first, a republished state staying silent,
// and the lagged mark on overflow.
func TestEventsBroadcaster(t *testing.T) {
	b := &eventsBroadcaster{}
	snapN := func(i int) *snapshot { return &snapshot{id: fmt.Sprintf("snap-%d", i)} }
	sub, first := b.subscribe("")
	if first != nil {
		t.Errorf("subscribe before any publish sent %s, want nothing", first.id)
	}
	b.unsubscribe(sub)
	for i := 1; i <= 40; i++ {
		b.publish(snapN(i))
	}

	cases := []struct {
		name, lastID string
		want         string // the first event's id; "" = nothing
	}{
		{"fresh", "", "snap-40"},
		{"current", "snap-40", ""},
		{"older", "snap-38", "snap-40"},
		{"unknown", "snap-1000", "snap-40"},
	}
	for _, tc := range cases {
		sub, first := b.subscribe(tc.lastID)
		got := ""
		if first != nil {
			got = first.id
		}
		if got != tc.want {
			t.Errorf("%s: subscribe(%q) first event %q, want %q", tc.name, tc.lastID, got, tc.want)
		}
		b.unsubscribe(sub)
	}

	// Republishing the newest state (an equal id) is not an event.
	sub, _ = b.subscribe("snap-40")
	b.publish(snapN(40))
	if len(sub.ch) != 0 {
		t.Errorf("republishing snap-40 fanned out %d events, want 0", len(sub.ch))
	}

	// Overflowing a subscriber's buffer marks it lagged instead of
	// blocking the publisher; the mark is consumed once.
	for i := 41; i <= 41+cap(sub.ch); i++ {
		b.publish(snapN(i))
	}
	if !b.takeLagged(sub) {
		t.Error("overflowed subscriber not marked lagged")
	}
	if b.takeLagged(sub) {
		t.Error("lagged mark not consumed by takeLagged")
	}
	if len(sub.ch) != cap(sub.ch) {
		t.Errorf("subscriber buffer holds %d, want full %d", len(sub.ch), cap(sub.ch))
	}
	if got, want := (<-sub.ch).id, fmt.Sprintf("snap-%d", 41+cap(sub.ch)); got != want {
		t.Errorf("subscriber mailbox holds %s, want the newest %s", got, want)
	}
	b.unsubscribe(sub)
}

// TestBroadcasterRetainsOnlyNewest pins that the broadcaster keeps one
// snapshot alive, the newest: every replaced one — and the graphs and
// render caches it holds — is collectable.
func TestBroadcasterRetainsOnlyNewest(t *testing.T) {
	const published = 64
	b := &eventsBroadcaster{}
	var collected atomic.Int64
	for i := 1; i <= published; i++ {
		snap := &snapshot{id: fmt.Sprintf("snap-%d", i), batch: &view{}}
		runtime.SetFinalizer(snap, func(*snapshot) { collected.Add(1) })
		b.publish(snap)
	}
	const want = published - 1
	for deadline := time.Now().Add(5 * time.Second); collected.Load() < want && time.Now().Before(deadline); {
		runtime.GC()
		time.Sleep(time.Millisecond)
	}
	if got := collected.Load(); got != want {
		t.Errorf("%d of %d published snapshots collected, want %d (only the newest stays)", got, published, want)
	}
	runtime.KeepAlive(b)
}

// stalledWriter is an SSE connection that has stopped reading: every
// Write blocks until release closes.
type stalledWriter struct {
	header  http.Header
	stalled chan struct{} // signalled as a Write blocks
	release chan struct{}

	mu  sync.Mutex
	buf bytes.Buffer
}

func (w *stalledWriter) Header() http.Header { return w.header }
func (w *stalledWriter) WriteHeader(int)     {}
func (w *stalledWriter) Flush()              {}

func (w *stalledWriter) Write(p []byte) (int, error) {
	select {
	case w.stalled <- struct{}{}:
	default:
	}
	<-w.release
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.buf.Write(p)
}

func (w *stalledWriter) String() string {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.buf.String()
}

// TestSlowSubscriberHoldsOneSnapshot pins the subscriber mailbox: a
// subscriber that does not read keeps at most one snapshot reachable,
// the newest, and once it reads again it gets `event: lagged` and then
// only the newest event.
func TestSlowSubscriberHoldsOneSnapshot(t *testing.T) {
	const published = 64
	b := &eventsBroadcaster{}
	sub, _ := b.subscribe("")
	var collected atomic.Int64
	for i := 1; i <= published; i++ {
		snap := &snapshot{id: fmt.Sprintf("snap-%d", i), batch: &view{}}
		runtime.SetFinalizer(snap, func(*snapshot) { collected.Add(1) })
		b.publish(snap)
	}
	const want = published - 1 // the newest, in b.newest and the mailbox
	for deadline := time.Now().Add(5 * time.Second); collected.Load() < want && time.Now().Before(deadline); {
		runtime.GC()
		time.Sleep(time.Millisecond)
	}
	if got := collected.Load(); got != want {
		t.Errorf("%d of %d snapshots collected with a subscriber not reading, want %d", got, published, want)
	}
	runtime.KeepAlive(sub)
	runtime.KeepAlive(b)

	// The same through the handler, with the connection stalled in the
	// write of its first event while three states are published.
	s, srv := sseEnv(t)
	w := &stalledWriter{header: http.Header{}, stalled: make(chan struct{}, 1), release: make(chan struct{})}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	done := make(chan struct{})
	go func() {
		defer close(done)
		s.handleLiveEvents(w, httptest.NewRequest(http.MethodGet, "/v1/live/events", nil).WithContext(ctx))
	}()
	<-w.stalled
	first, err := s.current()
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 3; i++ {
		if status, _, _ := postIngest(t, srv, encodeCheckpoint(t, liveTask(fmt.Sprintf("stalled_%d", i)), uint64(i))); status != http.StatusOK {
			t.Fatalf("push %d = %d", i, status)
		}
		waitLiveCounts(t, srv, i, 24)
	}
	newest := waitLiveCounts(t, srv, 3, 24).Get("X-Dayu-Snapshot")
	close(w.release)
	for deadline := time.Now().Add(10 * time.Second); !strings.Contains(w.String(), "id: "+newest+"\n"); time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("the newest event %s never reached the resumed subscriber:\n%s", newest, w.String())
		}
	}
	cancel()
	<-done

	var got []string
	for _, frame := range strings.Split(w.String(), "\n\n") {
		var id, event string
		for _, line := range strings.Split(frame, "\n") {
			if v, ok := strings.CutPrefix(line, "id: "); ok {
				id = v
			}
			if v, ok := strings.CutPrefix(line, "event: "); ok {
				event = v
			}
		}
		if event != "" {
			got = append(got, strings.TrimSpace(event+" "+id))
		}
	}
	if want := []string{"snapshot " + first.id, "lagged", "snapshot " + newest}; fmt.Sprint(got) != fmt.Sprint(want) {
		t.Errorf("stalled subscriber received %v, want %v", got, want)
	}
}
