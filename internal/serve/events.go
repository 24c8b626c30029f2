package serve

// Server-sent events for the live view: /v1/live/events pushes one
// event per converged snapshot change instead of making dashboards
// poll /v1/live/* for the X-Dayu-Snapshot header to move.
//
// Design constraints, in order:
//
//   - Ingest must never block on a slow consumer. Subscribers get a
//     bounded buffer and a non-blocking fan-out; an overflowing
//     subscriber is marked lagging and simply misses intermediate
//     events. That is safe because every event carries the full
//     current state (snapshot id + live diagnostics), never a diff —
//     the next event a lagging client receives supersedes everything
//     it missed. A skip is surfaced as an `event: lagged` line so the
//     client knows intermediate states existed.
//   - Zero cost when unused. The broadcaster only tracks (id,
//     snapshot) pairs; payload rendering happens in the subscriber's
//     handler goroutine through the snapshot render cache, so a
//     deployment with no SSE clients never renders an event and the
//     refresh path never waits on one.
//   - Resume must be cheap and correct. Events get monotone ids and a
//     small replay ring; a Last-Event-ID inside the ring resumes with
//     exactly the missed events, and an unknown or stale id (a server
//     restart, an outgrown ring) falls back to one full current-state
//     event — again correct because events are full-state.
//
// Event schema (`event: snapshot`):
//
//	{"snapshot":"<id>","partial_tasks":N,"complete_tasks":M,"findings":<...>}
//
// where findings is the exact /v1/live/diagnostics JSON body for the
// same snapshot — shared bytes via the render cache, so an SSE-fed
// dashboard and a polling one can never disagree.

import (
	"bytes"
	"fmt"
	"net/http"
	"strconv"
	"sync"
	"time"

	"dayu/internal/obs"
)

// eventRingSize bounds Last-Event-ID replay. Full-state events make
// the ring a latency optimization, not a correctness requirement.
const eventRingSize = 32

// liveEvent pairs a monotone event id with the snapshot it announced.
type liveEvent struct {
	id   uint64
	snap *snapshot
}

// eventSub is one /v1/live/events connection.
type eventSub struct {
	ch     chan liveEvent
	lagged bool // guarded by the broadcaster's mutex
}

// eventsBroadcaster fans snapshot changes out to SSE subscribers. The
// zero value is ready; its mutex is never held across I/O.
type eventsBroadcaster struct {
	mu     sync.Mutex
	nextID uint64
	lastID string // snapshot id of the newest published event
	ring   []liveEvent
	subs   map[*eventSub]struct{}

	metrics eventMetrics
}

// eventMetrics is what one delivered event cost, per subscriber: the
// payload render (a render-cache read for every subscriber but the
// first), framing plus the write and flush to the connection, and the
// framed size. Handles are nil-safe; the zero value records nothing.
type eventMetrics struct {
	renderNS     *obs.Histogram
	writeNS      *obs.Histogram
	bytes        *obs.Histogram
	renderErrors *obs.Counter
}

func newEventMetrics(reg *obs.Registry) eventMetrics {
	return eventMetrics{
		renderNS:     reg.Histogram("dayu_serve_event_render_ns", obs.LatencyBuckets()),
		writeNS:      reg.Histogram("dayu_serve_event_write_ns", obs.LatencyBuckets()),
		bytes:        reg.Histogram("dayu_serve_event_bytes", obs.SizeBuckets()),
		renderErrors: reg.Counter("dayu_serve_event_render_errors_total"),
	}
}

// publish announces a snapshot if it differs from the last announced
// one. Called from refresh (single writer under ingestMu); never
// blocks.
func (b *eventsBroadcaster) publish(snap *snapshot) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.lastID == snap.id {
		return
	}
	b.appendLocked(snap)
}

// appendLocked assigns the next id, records the event in the replay
// ring, and fans it out non-blocking. Callers hold b.mu.
func (b *eventsBroadcaster) appendLocked(snap *snapshot) liveEvent {
	b.nextID++
	b.lastID = snap.id
	ev := liveEvent{id: b.nextID, snap: snap}
	b.ring = append(b.ring, ev)
	if len(b.ring) > eventRingSize {
		b.ring = b.ring[len(b.ring)-eventRingSize:]
	}
	for sub := range b.subs {
		select {
		case sub.ch <- ev:
		default:
			sub.lagged = true
		}
	}
	return ev
}

// subscribe registers a connection and returns the events it must send
// first: the replay suffix after lastID when the ring still covers it,
// else one full current-state event (seeded from snap if nothing was
// ever published). snap may be nil only when the server has never
// built a snapshot; then there is nothing to send until publish.
func (b *eventsBroadcaster) subscribe(lastID uint64, snap *snapshot) (*eventSub, []liveEvent) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.subs == nil {
		b.subs = map[*eventSub]struct{}{}
	}
	sub := &eventSub{ch: make(chan liveEvent, 16)}
	b.subs[sub] = struct{}{}

	if len(b.ring) == 0 {
		if snap == nil {
			return sub, nil
		}
		// First subscriber before any publish: seed the stream so every
		// connection starts with the current state.
		return sub, []liveEvent{b.appendLocked(snap)}
	}
	newest := b.ring[len(b.ring)-1]
	if lastID == 0 {
		// A fresh connection (no Last-Event-ID): current state only.
		return sub, []liveEvent{newest}
	}
	if lastID == newest.id {
		return sub, nil // already current
	}
	oldest := b.ring[0]
	if lastID >= oldest.id-1 && lastID < newest.id {
		// The ring covers the gap: replay exactly the missed suffix.
		start := int(lastID - (oldest.id - 1))
		return sub, append([]liveEvent(nil), b.ring[start:]...)
	}
	// lastID > newest means an id from a previous server incarnation
	// (ids restart at 1): unknown, so catch up with full state below.
	// Stale or unknown id: one full-state event catches the client up.
	return sub, []liveEvent{newest}
}

func (b *eventsBroadcaster) unsubscribe(sub *eventSub) {
	b.mu.Lock()
	delete(b.subs, sub)
	b.mu.Unlock()
}

// takeLagged consumes the subscriber's lagged mark.
func (b *eventsBroadcaster) takeLagged(sub *eventSub) bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	l := sub.lagged
	sub.lagged = false
	return l
}

// liveEventPayload returns one event's data as the segments it is made
// of — the snapshot header (appended to head, a buffer the caller may
// reuse), the exact /v1/live/diagnostics body for the snapshot, shared
// through the snapshot's render cache, and the closing brace — so that
// no subscriber copies the megabyte in the middle just to join them.
func (s *Server) liveEventPayload(head []byte, snap *snapshot) ([3][]byte, error) {
	findings, err := s.render(snap.diagnoseRender(true, 0))
	if err != nil {
		return [3][]byte{}, err
	}
	head = append(head, `{"snapshot":`...)
	head = strconv.AppendQuote(head, snap.id)
	head = append(head, `,"partial_tasks":`...)
	head = strconv.AppendInt(head, int64(snap.partialTasks), 10)
	head = append(head, `,"complete_tasks":`...)
	head = strconv.AppendInt(head, int64(len(snap.traces)), 10)
	head = append(head, `,"findings":`...)
	return [3][]byte{head, findings, eventTail}, nil
}

var eventTail = []byte("}")

// appendEventFrame appends one `event: snapshot` in SSE framing; its
// payload is the concatenation of segments. The payload is multi-line
// JSON and SSE wants one "data:" field per line; a client rejoins the
// fields with \n, so the reassembled payload is byte-identical. A
// "data: " prefix follows every \n wherever the segment boundaries fall
// — a line may span segments, a segment may end one. One scan of the
// payload, no per-line formatting: on a loaded server it is a megabyte
// and many thousand lines.
func appendEventFrame(frame []byte, id uint64, segments ...[]byte) []byte {
	frame = append(frame, "id: "...)
	frame = strconv.AppendUint(frame, id, 10)
	frame = append(frame, "\nevent: snapshot\n"...)
	lineStart := true
	for _, seg := range segments {
		for len(seg) > 0 {
			if lineStart {
				frame = append(frame, "data: "...)
			}
			i := bytes.IndexByte(seg, '\n')
			if i < 0 {
				frame = append(frame, seg...)
				lineStart = false
				break
			}
			frame = append(frame, seg[:i+1]...)
			seg = seg[i+1:]
			lineStart = true
		}
	}
	if lineStart {
		// The payload's last line is empty (or the payload is): it is
		// still a field, which is what makes the client's join restore
		// a trailing \n.
		frame = append(frame, "data: "...)
	}
	return append(frame, "\n\n"...)
}

// handleLiveEvents is GET /v1/live/events: the SSE stream. It must be
// routed around any buffering middleware (http.TimeoutHandler would
// buffer the whole response); cmd/dayu serve exempts this path.
func (s *Server) handleLiveEvents(w http.ResponseWriter, r *http.Request) {
	fl, canFlush := w.(http.Flusher)
	if !canFlush {
		http.Error(w, "streaming unsupported by this connection", http.StatusNotImplemented)
		return
	}
	// The stream is long-lived: clear the connection deadlines so the
	// http.Server's Read/WriteTimeout does not sever it between
	// heartbeats. Errors are ignored — a ResponseWriter that does not
	// support deadlines (tests, exotic middleware) simply keeps them.
	rc := http.NewResponseController(w)
	_ = rc.SetWriteDeadline(time.Time{})
	_ = rc.SetReadDeadline(time.Time{})
	// Validate live-endpoint parameters exactly like /v1/live/*: the
	// stream takes none, but a mistyped ?window=/-5s must fail loudly
	// with 400, not be silently ignored.
	if _, ok := durationParam(w, r, "window"); !ok {
		return
	}
	if _, ok := durationParam(w, r, "horizon"); !ok {
		return
	}
	snap, err := s.current()
	if err != nil {
		http.Error(w, err.Error(), http.StatusServiceUnavailable)
		return
	}
	var lastID uint64
	if v := r.Header.Get("Last-Event-ID"); v != "" {
		if n, err := strconv.ParseUint(v, 10, 64); err == nil {
			lastID = n
		}
	}
	sub, backlog := s.events.subscribe(lastID, snap)
	defer s.events.unsubscribe(sub)

	h := w.Header()
	h.Set("Content-Type", "text/event-stream")
	h.Set("Cache-Control", "no-cache")
	h.Set("X-Accel-Buffering", "no")
	w.WriteHeader(http.StatusOK)
	fl.Flush()

	// frame and head are this connection's framing and header buffers,
	// reused across events.
	var frame, head []byte
	writeEvent := func(ev liveEvent) bool {
		start := time.Now()
		payload, err := s.liveEventPayload(head[:0], ev.snap)
		if err != nil {
			// The stream is already committed; drop the event rather
			// than corrupting the framing, and say so on /healthz — a
			// watcher that stops seeing updates must not be the only
			// symptom. The next event retries.
			s.events.metrics.renderErrors.Inc()
			s.lastErr.Store(&ingestError{err: fmt.Errorf("serve: render live event %d: %w", ev.id, err), when: time.Now()})
			return true
		}
		rendered := time.Now()
		s.events.metrics.renderNS.Observe(rendered.Sub(start).Nanoseconds())
		frame = frame[:0]
		if s.events.takeLagged(sub) {
			frame = append(frame, "event: lagged\ndata: {}\n\n"...)
		}
		head = payload[0]
		frame = appendEventFrame(frame, ev.id, payload[:]...)
		if _, err := w.Write(frame); err != nil {
			return false
		}
		fl.Flush()
		s.events.metrics.writeNS.Observe(time.Since(rendered).Nanoseconds())
		s.events.metrics.bytes.Observe(int64(len(frame)))
		return true
	}
	for _, ev := range backlog {
		if !writeEvent(ev) {
			return
		}
	}

	heartbeat := s.cfg.SSEHeartbeat
	if heartbeat <= 0 {
		heartbeat = 15 * time.Second
	}
	ticker := time.NewTicker(heartbeat)
	defer ticker.Stop()
	for {
		select {
		case <-r.Context().Done():
			return
		case <-s.stop:
			return
		case ev := <-sub.ch:
			if !writeEvent(ev) {
				return
			}
		case <-ticker.C:
			if _, err := fmt.Fprint(w, ": heartbeat\n\n"); err != nil {
				return
			}
			fl.Flush()
		}
	}
}
