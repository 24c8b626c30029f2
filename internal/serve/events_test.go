package serve

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"time"

	"dayu/internal/obs"
	"dayu/internal/trace"
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
// current state should produce: the snapshot header fields plus the
// endpoint's verbatim body. Comparing against it asserts byte-identity
// between SSE-delivered findings and the polling endpoint.
func expectPayload(t *testing.T, srv *httptest.Server, path string, partial, complete int) string {
	t.Helper()
	body, hdr := getHdr(t, srv, path)
	return fmt.Sprintf(`{"snapshot":%q,"partial_tasks":%d,"complete_tasks":%d,"findings":%s}`,
		hdr.Get("X-Dayu-Snapshot"), partial, complete, body)
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
	if _, err := strconv.ParseUint(ev.id, 10, 64); err != nil {
		t.Fatalf("event id %q is not a number: %v", ev.id, err)
	}
	var p eventPayload
	if err := json.Unmarshal([]byte(ev.data), &p); err != nil {
		t.Fatalf("bad event payload %q: %v", ev.data, err)
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
		SSEHeartbeat: 50 * time.Millisecond,
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

	// Park a failed diagnose render in the current snapshot's cache —
	// what diagnose.EncodeJSON rejecting a NaN metric leaves behind for
	// the callers that waited on it.
	snap, err := s.current()
	if err != nil {
		t.Fatal(err)
	}
	failed := &renderEntry{err: errors.New("diagnose: metric is NaN")}
	failed.once.Do(func() {})
	snap.rendered.mu.Lock()
	snap.rendered.entries = map[string]*renderEntry{"diagnose": failed}
	snap.rendered.mu.Unlock()

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
		if h.Status == "degraded" && strings.Contains(h.LastIngestError, "metric is NaN") {
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

// TestLiveEventsResume pins Last-Event-ID semantics: an id inside the
// replay ring resumes with exactly the missed events, a fresh or stale
// id gets one full current-state event.
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

	// Resuming from the first event's id replays the two missed events
	// verbatim.
	resumed := dialSSE(t, srv, first.id)
	gotA := resumed.next(t)
	gotB := resumed.next(t)
	if gotA.id != evA.id || gotA.data != evA.data {
		t.Errorf("resume replayed id %s, want %s", gotA.id, evA.id)
	}
	if gotB.id != evB.id || gotB.data != evB.data {
		t.Errorf("resume replayed id %s, want %s", gotB.id, evB.id)
	}

	// A fresh connection gets only the newest state.
	fresh := dialSSE(t, srv, "")
	if ev := fresh.next(t); ev.id != evB.id {
		t.Errorf("fresh connection got id %s, want newest %s", ev.id, evB.id)
	}

	// A stale/unknown id (server restarted, ring outgrown) falls back
	// to one full current-state event.
	stale := dialSSE(t, srv, "99999")
	if ev := stale.next(t); ev.id != evB.id {
		t.Errorf("stale resume got id %s, want newest %s", ev.id, evB.id)
	}

	// Garbage ids are ignored rather than erroring: full-state events
	// make "treat as fresh" always correct.
	garbage := dialSSE(t, srv, "not-a-number")
	if ev := decodeEvent(t, garbage.next(t)); ev.Snapshot == firstPayload.Snapshot {
		t.Error("garbage Last-Event-ID did not observe the newest snapshot")
	}
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

// TestEventsBroadcaster unit-tests the ring and fan-out semantics that
// the integration tests cannot reach deterministically: ring trimming,
// exact replay windows, and the lagged mark on overflow.
func TestEventsBroadcaster(t *testing.T) {
	b := &eventsBroadcaster{}
	snapN := func(i int) *snapshot { return &snapshot{id: fmt.Sprintf("snap-%d", i)} }
	for i := 1; i <= 40; i++ {
		b.publish(snapN(i))
	}
	if n := len(b.ring); n != eventRingSize {
		t.Fatalf("ring holds %d events, want %d", n, eventRingSize)
	}
	if newest := b.ring[len(b.ring)-1]; newest.id != 40 {
		t.Fatalf("newest id %d, want 40", newest.id)
	}

	// Publishing the same snapshot id again is a no-op.
	b.publish(snapN(40))
	if b.nextID != 40 {
		t.Errorf("duplicate publish advanced nextID to %d", b.nextID)
	}

	cases := []struct {
		lastID uint64
		want   []uint64 // expected backlog ids; nil = empty
	}{
		{0, []uint64{40}},      // fresh: newest only
		{40, nil},              // current: nothing
		{38, []uint64{39, 40}}, // in-ring: exact suffix
		{8, idRange(9, 40)},    // exactly the ring's reach
		{5, []uint64{40}},      // outgrown: full state
		{1000, []uint64{40}},   // pre-restart id: unknown, full state
	}
	for _, tc := range cases {
		sub, backlog := b.subscribe(tc.lastID, nil)
		var got []uint64
		for _, ev := range backlog {
			got = append(got, ev.id)
		}
		if fmt.Sprint(got) != fmt.Sprint(tc.want) {
			t.Errorf("subscribe(lastID=%d) backlog = %v, want %v", tc.lastID, got, tc.want)
		}
		b.unsubscribe(sub)
	}

	// Overflowing a subscriber's buffer marks it lagged instead of
	// blocking the publisher; the mark is consumed once.
	sub, _ := b.subscribe(40, nil)
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
	b.unsubscribe(sub)

	// A first subscriber before any publish seeds the stream from the
	// current snapshot.
	b2 := &eventsBroadcaster{}
	sub2, backlog := b2.subscribe(0, snapN(1))
	if len(backlog) != 1 || backlog[0].id != 1 || backlog[0].snap.id != "snap-1" {
		t.Fatalf("seed backlog = %+v, want one event for snap-1", backlog)
	}
	b2.unsubscribe(sub2)
}

func idRange(lo, hi uint64) []uint64 {
	var out []uint64
	for i := lo; i <= hi; i++ {
		out = append(out, i)
	}
	return out
}
