package client

import (
	"bytes"
	"context"
	"fmt"
	"sync"

	"dayu/internal/trace"
)

// StreamSink adapts a Client to the tracer's streaming Sink interface
// (satisfied structurally — this package does not import the tracer):
// checkpoints go out as incremental records, finals as complete trace
// records, both through the durable /v1/ingest path with the client's
// usual retry policy.
//
// Delivery is off the caller's path. EmitCheckpoint and EmitFinal only
// queue the trace and return; the Sink contract lets a sink retain an
// emitted trace, because the tracer never mutates one it has handed
// over. One sender goroutine, started when the queue becomes non-empty
// and gone once it drains, delivers the queue in order, so a task's
// records reach the server in the order they were emitted. The queue
// holds at most one record per task: a newer checkpoint or the task's
// final replaces a queued checkpoint, in the queued one's place, and
// counts it as superseded — never as dropped, because checkpoints are
// cumulative and the successor carries every row the replaced one had.
// Nothing replaces a queued final. Flush waits for the queue to drain;
// Stats, DeltaStats, Superseded and Err flush first, so they report
// every record emitted before the call.
//
// In delta mode the sender retains each task's last acknowledged
// checkpoint and ships only the rows changed since it (trace.Diff).
// The first checkpoint of a task is always cumulative — the server
// has no base to fold onto — and so is any checkpoint for which no
// exact delta exists. When the server NACKs a delta because its
// retained partial is at a different sequence (a crash, a restart, or
// an eviction), the sender re-pushes the same checkpoint cumulatively
// at the same sequence: the resync is one extra round trip, after
// which delta framing resumes.
//
// A record that exhausts its retries is dropped — the task's next
// checkpoint or its final supersedes it anyway — but an error is
// retained for Err so the caller can report degraded streaming; a
// permanent rejection takes precedence over an earlier transient
// give-up because it indicates a protocol problem retries cannot fix.
// A checkpoint acknowledged as a content-hash duplicate is a success
// (the server already holds identical bytes), never a drop. Safe for
// concurrent use by parallel stages.
type StreamSink struct {
	client *Client
	ctx    context.Context
	delta  bool

	mu sync.Mutex
	// queue is the records awaiting the sender, in first-enqueue order;
	// queued indexes its checkpoints by task, the ones a newer record
	// may replace. sending is set while a sender goroutine runs, which
	// is whenever queue is non-empty; idle is signalled when it exits.
	queue   []*pendingRecord
	queued  map[string]*pendingRecord
	sending bool
	idle    *sync.Cond

	err          error
	errPermanent bool
	bases        map[string]streamBase
	checkpoints  int
	deltas       int
	resyncs      int
	finals       int
	dropped      int
	superseded   int
	pushedBytes  int64
}

// pendingRecord is one queued record: a checkpoint at seq, or a final.
type pendingRecord struct {
	t     *trace.TaskTrace
	seq   uint64
	final bool
}

// streamBase is a task's last acknowledged checkpoint, the diff base
// for the next delta. Retaining the trace is safe: the tracer's
// Checkpoint allocates fresh row slices per call.
type streamBase struct {
	seq uint64
	t   *trace.TaskTrace
}

// StreamOptions tunes a StreamSink.
type StreamOptions struct {
	// Delta enables delta checkpoint framing (cumulative fallback on
	// first checkpoint, inexact diffs, and server resync NACKs).
	Delta bool
}

// NewStreamSink builds a sink pushing cumulative checkpoints through c
// under ctx.
func NewStreamSink(ctx context.Context, c *Client) *StreamSink {
	return NewStreamSinkOpts(ctx, c, StreamOptions{})
}

// NewStreamSinkOpts builds a sink with explicit options.
func NewStreamSinkOpts(ctx context.Context, c *Client, opts StreamOptions) *StreamSink {
	s := &StreamSink{
		client: c, ctx: ctx, delta: opts.Delta,
		queued: make(map[string]*pendingRecord),
		bases:  make(map[string]streamBase),
	}
	s.idle = sync.NewCond(&s.mu)
	return s
}

// EmitCheckpoint queues one checkpoint record for delivery and returns.
func (s *StreamSink) EmitCheckpoint(t *trace.TaskTrace, seq uint64) {
	s.enqueue(pendingRecord{t: t, seq: seq})
}

// EmitFinal queues the completed trace record for delivery and returns.
func (s *StreamSink) EmitFinal(t *trace.TaskTrace) {
	s.enqueue(pendingRecord{t: t, final: true})
}

func (s *StreamSink) enqueue(rec pendingRecord) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if p := s.queued[rec.t.Task]; p != nil {
		*p = rec
		s.superseded++
		if rec.final {
			delete(s.queued, rec.t.Task)
		}
	} else {
		p := new(pendingRecord)
		*p = rec
		s.queue = append(s.queue, p)
		if !rec.final {
			s.queued[rec.t.Task] = p
		}
	}
	if !s.sending {
		s.sending = true
		go s.send()
	}
}

// send is the sender goroutine: it delivers queued records one at a
// time, without holding the lock across a push, and exits once the
// queue is empty.
func (s *StreamSink) send() {
	s.mu.Lock()
	for len(s.queue) > 0 {
		p := s.queue[0]
		n := copy(s.queue, s.queue[1:])
		s.queue[n] = nil
		s.queue = s.queue[:n]
		if !p.final {
			delete(s.queued, p.t.Task)
		}
		s.mu.Unlock()
		if p.final {
			s.deliverFinal(p.t)
		} else {
			s.deliverCheckpoint(p.t, p.seq)
		}
		s.mu.Lock()
	}
	s.sending = false
	s.idle.Broadcast()
	s.mu.Unlock()
}

// Flush waits until every record emitted before the call has been
// delivered or dropped.
func (s *StreamSink) Flush() {
	s.mu.Lock()
	for s.sending {
		s.idle.Wait()
	}
	s.mu.Unlock()
}

// deliverCheckpoint pushes one checkpoint record: cumulative, or — in
// delta mode, when the task has an acknowledged base and an exact diff
// exists — delta-framed with resync fallback.
func (s *StreamSink) deliverCheckpoint(t *trace.TaskTrace, seq uint64) {
	s.mu.Lock()
	base, haveBase := s.bases[t.Task]
	useDelta := s.delta && haveBase
	s.mu.Unlock()

	if useDelta {
		if d, ok := trace.Diff(base.t, t); ok {
			var buf bytes.Buffer
			if err := d.EncodeBinaryOpts(&buf, trace.BinaryOptions{
				Incremental:   true,
				CheckpointSeq: seq,
				Delta:         true,
				DeltaBaseSeq:  base.seq,
			}); err != nil {
				s.record(fmt.Errorf("stream delta checkpoint %s@%d: %w", t.Task, seq, err))
				return
			}
			res, err := s.client.PushBytes(s.ctx, buf.Bytes())
			if err != nil {
				s.record(fmt.Errorf("stream delta checkpoint %s@%d: %w", t.Task, seq, err))
				return
			}
			if !res.NeedsResync() {
				s.acked(t, seq, true, int64(buf.Len()))
				return
			}
			// The server's partial is not at our base: fall through to a
			// cumulative re-push of this same checkpoint.
			s.mu.Lock()
			s.resyncs++
			s.mu.Unlock()
		}
	}

	var buf bytes.Buffer
	if err := t.EncodeBinaryOpts(&buf, trace.BinaryOptions{Incremental: true, CheckpointSeq: seq}); err != nil {
		s.record(fmt.Errorf("stream checkpoint %s@%d: %w", t.Task, seq, err))
		return
	}
	if _, err := s.client.PushBytes(s.ctx, buf.Bytes()); err != nil {
		s.record(fmt.Errorf("stream checkpoint %s@%d: %w", t.Task, seq, err))
		return
	}
	s.acked(t, seq, false, int64(buf.Len()))
}

// deliverFinal pushes the completed trace record.
func (s *StreamSink) deliverFinal(t *trace.TaskTrace) {
	var buf bytes.Buffer
	if err := t.EncodeFormat(&buf, trace.FormatBinary); err != nil {
		s.record(fmt.Errorf("stream final %s: %w", t.Task, err))
		return
	}
	if _, err := s.client.PushBytes(s.ctx, buf.Bytes()); err != nil {
		s.record(fmt.Errorf("stream final %s: %w", t.Task, err))
		return
	}
	s.mu.Lock()
	s.finals++
	s.pushedBytes += int64(buf.Len())
	delete(s.bases, t.Task)
	s.mu.Unlock()
}

// acked books one delivered checkpoint and advances the task's diff
// base to it.
func (s *StreamSink) acked(t *trace.TaskTrace, seq uint64, wasDelta bool, size int64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.checkpoints++
	if wasDelta {
		s.deltas++
	}
	s.pushedBytes += size
	if s.delta {
		s.bases[t.Task] = streamBase{seq: seq, t: t}
	}
}

func (s *StreamSink) record(err error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.dropped++
	permanent := IsPermanent(err)
	if s.err == nil || (permanent && !s.errPermanent) {
		s.err, s.errPermanent = err, permanent
	}
}

// Err flushes, then returns the retained delivery error, if any: the
// first permanent rejection when one occurred, else the first transient
// give-up. Streaming is best-effort per record, but the caller should
// know the live view may be missing data.
func (s *StreamSink) Err() error {
	s.Flush()
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.err
}

// Stats flushes, then reports delivered checkpoint/final counts and
// records dropped after exhausting retries.
func (s *StreamSink) Stats() (checkpoints, finals, dropped int) {
	s.Flush()
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.checkpoints, s.finals, s.dropped
}

// DeltaStats flushes, then reports delta-mode bookkeeping: checkpoints
// that went out delta-framed, resync round trips forced by server
// NACKs, and the total encoded bytes of every delivered record.
func (s *StreamSink) DeltaStats() (deltas, resyncs int, pushedBytes int64) {
	s.Flush()
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.deltas, s.resyncs, s.pushedBytes
}

// Superseded flushes, then reports the queued checkpoints a newer
// record of the same task replaced before they were sent.
func (s *StreamSink) Superseded() int {
	s.Flush()
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.superseded
}
