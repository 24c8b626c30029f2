package serve

// Server-sent events for the live view: /v1/live/events pushes one
// event per converged snapshot change instead of making dashboards
// poll /v1/live/* for the X-Dayu-Snapshot header to move.
//
// Design constraints, in order:
//
//   - Ingest must never block on a slow consumer. Each subscriber has a
//     mailbox of one and a non-blocking fan-out: a publish that finds
//     the mailbox full replaces the undelivered snapshot and marks the
//     subscriber lagging, so it simply misses intermediate events.
//     That is safe because every event carries the full current state
//     (snapshot id + live diagnostics), never a diff — the next event a
//     lagging client receives supersedes everything it missed. A skip
//     is surfaced as an `event: lagged` line so the client knows
//     intermediate states existed.
//   - Zero cost when unused. The broadcaster only tracks snapshots;
//     the payload is framed in the subscriber's handler goroutine, so a
//     deployment with no SSE clients never frames an event and the
//     refresh path never waits on one.
//   - Memory proportional to state, not to history. The broadcaster
//     keeps only the newest event, and a subscriber at most one
//     undelivered one, so the served state is one snapshot plus what
//     slow subscribers are still writing. An event's id is its
//     snapshot id, the content address of the state it announces:
//     equal ids mean equal states, across restarts too. Resume has one
//     rule: a Last-Event-ID equal to the newest event's id gets
//     nothing, any other value gets the newest event — correct because
//     events are full-state.
//
// Event schema (`event: snapshot`, one `data:` line):
//
//	{"snapshot":"<id>","partial_tasks":N,"complete_tasks":M,"findings":[...]}
//
// where findings is exactly json.Compact of the /v1/live/diagnostics
// body for the same snapshot: the same JSON value, so an SSE-fed
// dashboard and a polling one can never disagree, without the
// indentation that made every event tens of thousands of `data:`
// lines. The findings are appended straight from the snapshot's
// diagnose view, whose groups memoise their compact bytes, into the
// connection's reused frame buffer: no per-event body, and the
// indented body is rendered only for the clients that GET it.

import (
	"fmt"
	"net/http"
	"strconv"
	"sync"
	"time"

	"dayu/internal/obs"
)

// eventSub is one /v1/live/events connection. ch is its mailbox: it
// holds at most the newest undelivered snapshot.
type eventSub struct {
	ch     chan *snapshot
	lagged bool // guarded by the broadcaster's mutex
}

// eventsBroadcaster fans snapshot changes out to SSE subscribers. The
// zero value is ready; its mutex is never held across I/O.
type eventsBroadcaster struct {
	mu     sync.Mutex
	newest *snapshot // the newest published event
	subs   map[*eventSub]struct{}

	metrics eventMetrics
}

// eventMetrics is what one delivered event cost, per subscriber: the
// framing (the findings encoded for the first subscriber to need a
// group, memoised bytes copied for every other), the write and flush to
// the connection, and the framed size. Handles are nil-safe; the zero
// value records nothing.
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

// publish makes snap the newest event and, when its id differs from the
// previous newest one's, puts it in every subscriber's mailbox, replacing
// an undelivered one. Called from refresh (single writer under ingestMu)
// with every snapshot it stores, so the broadcaster never holds one the
// server has replaced; never blocks.
func (b *eventsBroadcaster) publish(snap *snapshot) {
	b.mu.Lock()
	defer b.mu.Unlock()
	prev := b.newest
	b.newest = snap
	if prev != nil && prev.id == snap.id {
		return
	}
	for sub := range b.subs {
		select {
		case <-sub.ch:
			sub.lagged = true
		default:
		}
		// Only publish sends, under b.mu, and the mailbox is now empty.
		sub.ch <- snap
	}
}

// subscribe registers a connection and returns the event it must send
// first: the newest one, unless lastID (the client's Last-Event-ID)
// already names it. It is nil then, and before the first publish, which
// delivers through the subscriber's channel.
func (b *eventsBroadcaster) subscribe(lastID string) (*eventSub, *snapshot) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.subs == nil {
		b.subs = map[*eventSub]struct{}{}
	}
	sub := &eventSub{ch: make(chan *snapshot, 1)}
	b.subs[sub] = struct{}{}
	if b.newest == nil || b.newest.id == lastID {
		return sub, nil
	}
	return sub, b.newest
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

// appendEvent appends snap as one `event: snapshot` in SSE framing:
// the id, the event type and the payload on a single `data:` line. On
// error — a finding the encoder refuses — frame is returned as given.
func appendEvent(frame []byte, snap *snapshot) ([]byte, error) {
	start := len(frame)
	frame = append(frame, "id: "...)
	frame = append(frame, snap.id...)
	frame = append(frame, "\nevent: snapshot\ndata: "...)
	frame = append(frame, `{"snapshot":`...)
	frame = strconv.AppendQuote(frame, snap.id)
	frame = append(frame, `,"partial_tasks":`...)
	frame = strconv.AppendInt(frame, int64(snap.partialTasks), 10)
	frame = append(frame, `,"complete_tasks":`...)
	frame = strconv.AppendInt(frame, int64(len(snap.batch.traces)), 10)
	frame = append(frame, `,"findings":`...)
	frame, err := snap.findings.AppendCompactJSON(frame)
	if err != nil {
		return frame[:start], err
	}
	return append(frame, "}\n\n"...), nil
}

// laggedNotice tells a subscriber that states between its last event
// and the next one were skipped.
const laggedNotice = "event: lagged\ndata: {}\n\n"

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
	// current refreshes, and refresh publishes every snapshot it stores:
	// the subscriber's first event, or a publish already under way that
	// reaches it through its channel, is at least this fresh.
	if _, err := s.current(); err != nil {
		http.Error(w, err.Error(), http.StatusServiceUnavailable)
		return
	}
	sub, first := s.events.subscribe(r.Header.Get("Last-Event-ID"))
	defer s.events.unsubscribe(sub)

	h := w.Header()
	h.Set("Content-Type", "text/event-stream")
	h.Set("Cache-Control", "no-cache")
	h.Set("X-Accel-Buffering", "no")
	w.WriteHeader(http.StatusOK)
	fl.Flush()

	// frame is this connection's buffer, reused across events. An
	// event is framed behind room for the lagged notice, which is
	// filled in only when the subscriber turns out to have lagged.
	var frame []byte
	writeEvent := func(snap *snapshot) bool {
		start := time.Now()
		var err error
		frame, err = appendEvent(append(frame[:0], laggedNotice...), snap)
		if err != nil {
			// The stream is already committed; drop the event rather
			// than corrupting the framing, and say so on /healthz — a
			// watcher that stops seeing updates must not be the only
			// symptom. The next event retries.
			s.events.metrics.renderErrors.Inc()
			s.lastErr.Store(&ingestError{err: fmt.Errorf("serve: render live event %s: %w", snap.id, err), when: time.Now()})
			return true
		}
		rendered := time.Now()
		s.events.metrics.renderNS.Observe(rendered.Sub(start).Nanoseconds())
		out := frame[len(laggedNotice):]
		if s.events.takeLagged(sub) {
			out = frame
		}
		if _, err := w.Write(out); err != nil {
			return false
		}
		fl.Flush()
		s.events.metrics.writeNS.Observe(time.Since(rendered).Nanoseconds())
		s.events.metrics.bytes.Observe(int64(len(out)))
		return true
	}
	if first != nil && !writeEvent(first) {
		return
	}

	heartbeat := s.cfg.sseHeartbeat
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
		case snap := <-sub.ch:
			if !writeEvent(snap) {
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
