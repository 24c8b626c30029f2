package client

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"dayu/internal/trace"
)

func streamTrace(task string) *trace.TaskTrace {
	return &trace.TaskTrace{
		Task: task, StartNS: 100, EndNS: 900,
		Files: []trace.FileRecord{{
			Task: task, File: "out.h5",
			OpenNS: 150, CloseNS: 800,
			Ops: 2, Writes: 2, BytesWritten: 2048,
			MetaOps: 1, DataOps: 1, MetaBytes: 64, DataBytes: 1984,
		}},
	}
}

// received is what the capture server decoded from one /v1/ingest body.
type received struct {
	task string
	meta trace.RecordMeta
}

// captureServer acknowledges every push and decodes each body so tests
// can assert the wire framing (incremental flag, checkpoint seq).
func captureServer(t *testing.T) (*httptest.Server, func() []received) {
	return captureServerWith(t, nil)
}

// captureServerWith is captureServer with a hook that runs on each
// decoded push before it is recorded: returning false answers 503
// instead, and the push is not recorded.
func captureServerWith(t *testing.T, hook func(received) bool) (*httptest.Server, func() []received) {
	t.Helper()
	var mu sync.Mutex
	var got []received
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		body, err := io.ReadAll(r.Body)
		if err != nil {
			t.Errorf("read push body: %v", err)
		}
		tt, meta, err := trace.DecodeBytesMeta(body, trace.DecodeOptions{})
		if err != nil {
			t.Errorf("pushed bytes do not decode: %v", err)
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		rec := received{task: tt.Task, meta: meta}
		if hook != nil && !hook(rec) {
			http.Error(w, "synthetic outage", http.StatusServiceUnavailable)
			return
		}
		mu.Lock()
		got = append(got, rec)
		mu.Unlock()
		ackHandler("accepted", tt.Task)(w, r)
	}))
	t.Cleanup(srv.Close)
	return srv, func() []received {
		mu.Lock()
		defer mu.Unlock()
		return append([]received(nil), got...)
	}
}

// TestPushTraceAndCheckpointFraming pins the wire contract of the
// typed push helpers: PushTrace ships a complete record, while
// PushCheckpoint ships an incremental record carrying the stream seq.
func TestPushTraceAndCheckpointFraming(t *testing.T) {
	srv, recvd := captureServer(t)
	c, err := New(srv.URL, fastOptions())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.PushCheckpoint(context.Background(), streamTrace("w/ckpt"), 3); err != nil {
		t.Fatal(err)
	}
	if _, err := c.PushTrace(context.Background(), streamTrace("w/final"), trace.FormatBinary); err != nil {
		t.Fatal(err)
	}
	if _, err := c.PushTrace(context.Background(), streamTrace("w/json"), trace.FormatJSON); err != nil {
		t.Fatal(err)
	}
	got := recvd()
	if len(got) != 3 {
		t.Fatalf("server decoded %d records, want 3", len(got))
	}
	if got[0].task != "w/ckpt" || !got[0].meta.Incremental || got[0].meta.CheckpointSeq != 3 {
		t.Errorf("checkpoint framing = %+v, want incremental seq 3", got[0])
	}
	if got[1].task != "w/final" || got[1].meta.Incremental {
		t.Errorf("final framing = %+v, want complete record", got[1])
	}
	if got[2].task != "w/json" || got[2].meta.Incremental {
		t.Errorf("json framing = %+v, want complete record", got[2])
	}
}

// TestStreamSinkDelivers pins the happy path: emits count, no error,
// and both record kinds reach the server with the right framing.
func TestStreamSinkDelivers(t *testing.T) {
	srv, recvd := captureServer(t)
	c, err := New(srv.URL, fastOptions())
	if err != nil {
		t.Fatal(err)
	}
	sink := NewStreamSink(context.Background(), c)
	sink.EmitCheckpoint(streamTrace("w/task"), 1)
	sink.Flush()
	sink.EmitCheckpoint(streamTrace("w/task"), 2)
	sink.Flush()
	sink.EmitFinal(streamTrace("w/task"))
	if err := sink.Err(); err != nil {
		t.Fatalf("sink error: %v", err)
	}
	cks, finals, dropped := sink.Stats()
	if cks != 2 || finals != 1 || dropped != 0 {
		t.Fatalf("stats = %d/%d/%d, want 2/1/0", cks, finals, dropped)
	}
	if got := recvd(); len(got) != 3 || !got[0].meta.Incremental || got[2].meta.Incremental {
		t.Fatalf("server decoded %+v", got)
	}
}

// TestStreamSinkRecordsDropsAndFirstError pins degraded streaming:
// exhausted retries drop the record, count it, and retain the FIRST
// error for Err while later emits keep flowing.
func TestStreamSinkRecordsDropsAndFirstError(t *testing.T) {
	var fail bool
	var mu sync.Mutex
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		mu.Lock()
		f := fail
		mu.Unlock()
		if f {
			http.Error(w, "synthetic outage", http.StatusServiceUnavailable)
			return
		}
		ackHandler("accepted", "w/task")(w, r)
	}))
	defer srv.Close()
	setFail := func(v bool) { mu.Lock(); fail = v; mu.Unlock() }

	opts := fastOptions()
	opts.MaxAttempts = 2
	c, err := New(srv.URL, opts)
	if err != nil {
		t.Fatal(err)
	}
	sink := NewStreamSink(context.Background(), c)

	setFail(true)
	sink.EmitCheckpoint(streamTrace("w/task"), 1)
	sink.Flush()
	sink.EmitFinal(streamTrace("w/task"))
	sink.Flush()
	setFail(false)
	sink.EmitCheckpoint(streamTrace("w/task"), 2)

	first := sink.Err()
	if first == nil || !strings.Contains(first.Error(), "stream checkpoint w/task@1") {
		t.Fatalf("Err = %v, want the first (checkpoint) failure", first)
	}
	cks, finals, dropped := sink.Stats()
	if cks != 1 || finals != 0 || dropped != 2 {
		t.Fatalf("stats = %d/%d/%d, want 1/0/2", cks, finals, dropped)
	}
}

// streamTraceN returns streamTrace(task) grown by extra file rows —
// monotone growth an exact delta exists for.
func streamTraceN(task string, extra int) *trace.TaskTrace {
	tt := streamTrace(task)
	for i := 0; i < extra; i++ {
		tt.EndNS += 300
		tt.Files = append(tt.Files, trace.FileRecord{
			Task: task, File: fmt.Sprintf("out_extra_%d.h5", i),
			OpenNS: tt.EndNS - 250, CloseNS: tt.EndNS - 100,
			Ops: 2, Writes: 2, BytesWritten: 1024,
			MetaOps: 1, DataOps: 1, MetaBytes: 32, DataBytes: 992,
		})
	}
	return tt
}

// TestStreamSinkDeltaFraming pins delta mode's wire contract: first
// checkpoint cumulative (no base), subsequent ones delta-framed
// against the acknowledged base, and the base dropped by the final so
// a reused task name starts cumulative again.
func TestStreamSinkDeltaFraming(t *testing.T) {
	srv, recvd := captureServer(t)
	c, err := New(srv.URL, fastOptions())
	if err != nil {
		t.Fatal(err)
	}
	sink := NewStreamSinkOpts(context.Background(), c, StreamOptions{Delta: true})
	sink.EmitCheckpoint(streamTraceN("w/task", 0), 1)
	sink.Flush()
	sink.EmitCheckpoint(streamTraceN("w/task", 1), 2)
	sink.Flush()
	sink.EmitFinal(streamTraceN("w/task", 2))
	sink.Flush()
	sink.EmitCheckpoint(streamTraceN("w/task", 2), 3)
	if err := sink.Err(); err != nil {
		t.Fatalf("sink error: %v", err)
	}

	got := recvd()
	if len(got) != 4 {
		t.Fatalf("server decoded %d records, want 4", len(got))
	}
	if !got[0].meta.Incremental || got[0].meta.Delta || got[0].meta.CheckpointSeq != 1 {
		t.Errorf("first checkpoint framing = %+v, want cumulative seq 1", got[0].meta)
	}
	if !got[1].meta.Delta || got[1].meta.CheckpointSeq != 2 || got[1].meta.DeltaBaseSeq != 1 {
		t.Errorf("second checkpoint framing = %+v, want delta 1->2", got[1].meta)
	}
	if got[2].meta.Incremental {
		t.Errorf("final framing = %+v, want complete record", got[2].meta)
	}
	if got[3].meta.Delta {
		t.Errorf("post-final checkpoint framing = %+v, want cumulative (final dropped the base)", got[3].meta)
	}

	cks, finals, dropped := sink.Stats()
	if cks != 3 || finals != 1 || dropped != 0 {
		t.Fatalf("stats = %d/%d/%d, want 3/1/0", cks, finals, dropped)
	}
	deltas, resyncs, pushed := sink.DeltaStats()
	if deltas != 1 || resyncs != 0 || pushed <= 0 {
		t.Fatalf("delta stats = %d/%d/%d, want 1 delta, 0 resyncs, >0 bytes", deltas, resyncs, pushed)
	}
}

// TestStreamSinkDeltaResync pins the NACK protocol: a 409 resync is
// not an error — the sink re-pushes the same checkpoint cumulatively
// at the same sequence, then resumes delta framing from the new base.
func TestStreamSinkDeltaResync(t *testing.T) {
	var mu sync.Mutex
	var got []received
	deltasSeen := 0
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		body := make([]byte, r.ContentLength)
		if _, err := r.Body.Read(body); err != nil && err.Error() != "EOF" {
			t.Errorf("read push body: %v", err)
		}
		tt, meta, err := trace.DecodeBytesMeta(body, trace.DecodeOptions{})
		if err != nil {
			t.Errorf("pushed bytes do not decode: %v", err)
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		mu.Lock()
		got = append(got, received{task: tt.Task, meta: meta})
		first := meta.Delta && func() bool { deltasSeen++; return deltasSeen == 1 }()
		mu.Unlock()
		if first {
			w.Header().Set("Content-Type", "application/json")
			w.WriteHeader(http.StatusConflict)
			_ = json.NewEncoder(w).Encode(PushResult{Status: "resync", Task: tt.Task, Seq: 1})
			return
		}
		ackHandler("accepted", tt.Task)(w, r)
	}))
	defer srv.Close()

	c, err := New(srv.URL, fastOptions())
	if err != nil {
		t.Fatal(err)
	}
	sink := NewStreamSinkOpts(context.Background(), c, StreamOptions{Delta: true})
	sink.EmitCheckpoint(streamTraceN("w/task", 0), 1)
	sink.Flush()
	sink.EmitCheckpoint(streamTraceN("w/task", 1), 2) // delta NACKed -> cumulative
	sink.Flush()
	sink.EmitCheckpoint(streamTraceN("w/task", 2), 3) // delta again, accepted
	if err := sink.Err(); err != nil {
		t.Fatalf("resync surfaced as an error: %v", err)
	}

	mu.Lock()
	wire := append([]received(nil), got...)
	mu.Unlock()
	if len(wire) != 4 {
		t.Fatalf("server saw %d records, want 4 (cum, NACKed delta, cum, delta)", len(wire))
	}
	if wire[1].meta.Delta != true || wire[1].meta.CheckpointSeq != 2 {
		t.Errorf("second record = %+v, want the NACKed delta@2", wire[1].meta)
	}
	if wire[2].meta.Delta || wire[2].meta.CheckpointSeq != 2 {
		t.Errorf("third record = %+v, want the cumulative resync@2", wire[2].meta)
	}
	if !wire[3].meta.Delta || wire[3].meta.CheckpointSeq != 3 || wire[3].meta.DeltaBaseSeq != 2 {
		t.Errorf("fourth record = %+v, want delta 2->3", wire[3].meta)
	}

	cks, _, dropped := sink.Stats()
	if cks != 3 || dropped != 0 {
		t.Fatalf("stats = %d checkpoints / %d dropped, want 3/0", cks, dropped)
	}
	deltas, resyncs, _ := sink.DeltaStats()
	if deltas != 1 || resyncs != 1 {
		t.Fatalf("delta stats = %d deltas / %d resyncs, want 1/1", deltas, resyncs)
	}
}

// TestStreamSinkDuplicateIsSuccess pins that a content-hash duplicate
// acknowledgement counts as a delivered checkpoint, never a drop: the
// server already holds identical bytes.
func TestStreamSinkDuplicateIsSuccess(t *testing.T) {
	srv := httptest.NewServer(ackHandler("duplicate", "w/task"))
	defer srv.Close()
	c, err := New(srv.URL, fastOptions())
	if err != nil {
		t.Fatal(err)
	}
	sink := NewStreamSink(context.Background(), c)
	sink.EmitCheckpoint(streamTrace("w/task"), 1)
	sink.Flush()
	sink.EmitCheckpoint(streamTrace("w/task"), 1) // identical retry
	if err := sink.Err(); err != nil {
		t.Fatalf("duplicate ack surfaced as an error: %v", err)
	}
	cks, _, dropped := sink.Stats()
	if cks != 2 || dropped != 0 {
		t.Fatalf("stats = %d checkpoints / %d dropped, want 2/0 (duplicates are successes)", cks, dropped)
	}
}

// TestStreamSinkPermanentErrorPrecedence pins Err's contract: a
// permanent rejection (a protocol problem retries cannot fix)
// supersedes an earlier transient give-up, and is not displaced by a
// later one.
func TestStreamSinkPermanentErrorPrecedence(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		body := make([]byte, r.ContentLength)
		if _, err := r.Body.Read(body); err != nil && err.Error() != "EOF" {
			t.Errorf("read push body: %v", err)
		}
		tt, _, err := trace.DecodeBytesMeta(body, trace.DecodeOptions{})
		if err == nil && tt.Task == "w/bad" {
			http.Error(w, "bad trace payload", http.StatusBadRequest)
			return
		}
		http.Error(w, "synthetic outage", http.StatusServiceUnavailable)
	}))
	defer srv.Close()

	opts := fastOptions()
	opts.MaxAttempts = 2
	c, err := New(srv.URL, opts)
	if err != nil {
		t.Fatal(err)
	}
	sink := NewStreamSink(context.Background(), c)

	sink.EmitCheckpoint(streamTrace("w/task"), 1) // transient give-up
	if err := sink.Err(); err == nil || IsPermanent(err) {
		t.Fatalf("after transient give-up Err = %v, want non-permanent error", err)
	}
	sink.EmitCheckpoint(streamTrace("w/bad"), 2) // permanent rejection
	err = sink.Err()
	if err == nil || !IsPermanent(err) || !strings.Contains(err.Error(), "w/bad") {
		t.Fatalf("Err = %v, want the permanent w/bad rejection", err)
	}
	sink.EmitCheckpoint(streamTrace("w/task"), 3) // later transient must not displace it
	if got := sink.Err(); got == nil || !strings.Contains(got.Error(), "w/bad") {
		t.Fatalf("Err = %v, want the permanent rejection retained", got)
	}
	_, _, dropped := sink.Stats()
	if dropped != 3 {
		t.Fatalf("dropped = %d, want 3", dropped)
	}
}

// TestPermanentErrorWrapsCause pins that a permanent rejection's
// detail survives the retry loop's wrapping and unwraps to the cause.
func TestPermanentErrorWrapsCause(t *testing.T) {
	cause := fmt.Errorf("status 400: bad trace payload")
	pe := &permanentError{cause}
	if pe.Error() != cause.Error() {
		t.Errorf("Error() = %q, want %q", pe.Error(), cause.Error())
	}
	if !errors.Is(pe, cause) {
		t.Error("permanentError does not unwrap to its cause")
	}
}

// TestStreamSinkEmitIndependentOfAckLatency pins that emitting costs
// the traced task nothing like a round trip: against a server that
// acknowledges after 50 ms every emit returns at once, and Stats, which
// flushes, accounts for every checkpoint as delivered or superseded.
func TestStreamSinkEmitIndependentOfAckLatency(t *testing.T) {
	srv, recvd := captureServerWith(t, func(received) bool {
		time.Sleep(50 * time.Millisecond)
		return true
	})
	c, err := New(srv.URL, fastOptions())
	if err != nil {
		t.Fatal(err)
	}
	sink := NewStreamSinkOpts(context.Background(), c, StreamOptions{Delta: true})
	tasks := []string{"w/a", "w/b", "w/c"}
	var slowest time.Duration
	timed := func(emit func()) {
		t0 := time.Now()
		emit()
		if d := time.Since(t0); d > slowest {
			slowest = d
		}
	}
	var seq uint64
	for round := 0; round < 10; round++ {
		for _, task := range tasks {
			seq++
			tt, s := streamTraceN(task, round), seq
			timed(func() { sink.EmitCheckpoint(tt, s) })
		}
	}
	for _, task := range tasks {
		tt := streamTraceN(task, 10)
		timed(func() { sink.EmitFinal(tt) })
	}
	if slowest >= 10*time.Millisecond {
		t.Errorf("slowest emit took %s against a 50ms ack: delivery is on the caller's path", slowest)
	}
	cks, finals, dropped := sink.Stats()
	superseded := sink.Superseded()
	if dropped != 0 || finals != len(tasks) || cks+superseded != int(seq) || superseded == 0 {
		t.Fatalf("stats = %d checkpoints / %d finals / %d dropped / %d superseded, want %d delivered or superseded, some superseded, 3 finals",
			cks, finals, dropped, superseded, seq)
	}
	if got := len(recvd()); got != cks+finals {
		t.Fatalf("server received %d records, want %d", got, cks+finals)
	}
}

// senderGoroutines counts running StreamSink sender goroutines.
func senderGoroutines() int {
	buf := make([]byte, 1<<20)
	n := runtime.Stack(buf, true)
	return strings.Count(string(buf[:n]), "(*StreamSink).send(")
}

// TestStreamSinkQueueHoldsOnePerTask pins the queue's rules behind a
// record held in flight: a newer checkpoint replaces a task's queued
// one in its place, the final replaces a queued checkpoint, nothing
// replaces a queued final, and the sender goroutine exits once idle.
func TestStreamSinkQueueHoldsOnePerTask(t *testing.T) {
	arrived := make(chan string, 16)
	release := make(chan struct{})
	srv, recvd := captureServerWith(t, func(r received) bool {
		arrived <- r.task
		<-release
		return true
	})
	c, err := New(srv.URL, fastOptions())
	if err != nil {
		t.Fatal(err)
	}
	sink := NewStreamSink(context.Background(), c)
	if n := senderGoroutines(); n != 0 {
		t.Fatalf("%d sender goroutines before the first emit", n)
	}
	sink.EmitCheckpoint(streamTrace("w/a"), 1)
	<-arrived // w/a@1 is in flight and held

	seq := uint64(1)
	for i := 0; i < 20; i++ {
		for _, task := range []string{"w/a", "w/b", "w/c"} {
			seq++
			sink.EmitCheckpoint(streamTrace(task), seq)
		}
	}
	sink.EmitFinal(streamTrace("w/b"))
	seq++
	sink.EmitCheckpoint(streamTrace("w/b"), seq) // a reused name queues behind the final

	sink.mu.Lock()
	var queued []string
	for _, p := range sink.queue {
		queued = append(queued, fmt.Sprintf("%s@%d/final=%v", p.t.Task, p.seq, p.final))
	}
	superseded := sink.superseded
	sink.mu.Unlock()
	want := []string{"w/a@59/final=false", "w/b@0/final=true", "w/c@61/final=false", "w/b@62/final=false"}
	if fmt.Sprint(queued) != fmt.Sprint(want) {
		t.Errorf("queue = %v, want %v", queued, want)
	}
	if superseded != 58 {
		t.Errorf("superseded = %d, want 58 (57 checkpoints by newer ones, 1 by the final)", superseded)
	}
	if n := senderGoroutines(); n != 1 {
		t.Errorf("%d sender goroutines with a record in flight, want 1", n)
	}

	close(release)
	cks, finals, dropped := sink.Stats()
	if cks != 4 || finals != 1 || dropped != 0 {
		t.Fatalf("stats = %d/%d/%d, want 4/1/0", cks, finals, dropped)
	}
	var wire []string
	for _, r := range recvd() {
		wire = append(wire, fmt.Sprintf("%s@%d/final=%v", r.task, r.meta.CheckpointSeq, !r.meta.Incremental))
	}
	if want := append([]string{"w/a@1/final=false"}, want...); fmt.Sprint(wire) != fmt.Sprint(want) {
		t.Errorf("server received %v, want %v", wire, want)
	}
	for deadline := time.Now().Add(5 * time.Second); senderGoroutines() != 0; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("the sender goroutine outlived the drained queue")
		}
	}
}

// TestStreamSinkFinalIsDeliveredLast pins delivery order under load:
// each task's records reach the server in emit order with strictly
// increasing checkpoint seqs, and its final is the last of them.
func TestStreamSinkFinalIsDeliveredLast(t *testing.T) {
	srv, recvd := captureServerWith(t, func(received) bool {
		time.Sleep(time.Millisecond)
		return true
	})
	c, err := New(srv.URL, fastOptions())
	if err != nil {
		t.Fatal(err)
	}
	sink := NewStreamSinkOpts(context.Background(), c, StreamOptions{Delta: true})
	// Task i takes 3+2i checkpoints, so finals interleave with other
	// tasks' checkpoints.
	const tasks = 4
	var seq uint64
	for round := 0; round < 3+2*tasks; round++ {
		for i := 0; i < tasks; i++ {
			task := fmt.Sprintf("w/task%d", i)
			switch {
			case round < 3+2*i:
				seq++
				sink.EmitCheckpoint(streamTraceN(task, round), seq)
			case round == 3+2*i:
				sink.EmitFinal(streamTraceN(task, round))
			}
		}
	}
	if err := sink.Err(); err != nil {
		t.Fatal(err)
	}
	lastSeq := map[string]uint64{}
	finals := map[string]bool{}
	for _, r := range recvd() {
		if finals[r.task] {
			t.Fatalf("%s: a record arrived after the final", r.task)
		}
		if !r.meta.Incremental {
			finals[r.task] = true
			continue
		}
		if r.meta.CheckpointSeq <= lastSeq[r.task] {
			t.Fatalf("%s: checkpoint %d arrived after %d", r.task, r.meta.CheckpointSeq, lastSeq[r.task])
		}
		lastSeq[r.task] = r.meta.CheckpointSeq
	}
	if len(finals) != tasks {
		t.Fatalf("%d finals delivered, want %d", len(finals), tasks)
	}
}

// TestStreamSinkDeltaBaseIsLastAcked pins the delta base: a delta is
// framed against the last checkpoint the server acknowledged — not a
// superseded one, which the server never saw, nor a dropped one.
func TestStreamSinkDeltaBaseIsLastAcked(t *testing.T) {
	arrived := make(chan struct{}, 1)
	release := make(chan struct{})
	var mu sync.Mutex
	fail, held := false, false
	srv, recvd := captureServerWith(t, func(received) bool {
		mu.Lock()
		f, hold := fail, !held
		held = true
		mu.Unlock()
		if hold {
			arrived <- struct{}{}
			<-release
		}
		return !f
	})
	opts := fastOptions()
	opts.MaxAttempts = 2
	c, err := New(srv.URL, opts)
	if err != nil {
		t.Fatal(err)
	}
	sink := NewStreamSinkOpts(context.Background(), c, StreamOptions{Delta: true})
	sink.EmitCheckpoint(streamTraceN("w/task", 0), 1)
	<-arrived // @1 is in flight and held
	sink.EmitCheckpoint(streamTraceN("w/task", 1), 2)
	sink.EmitCheckpoint(streamTraceN("w/task", 2), 3) // supersedes @2
	close(release)
	sink.Flush()

	mu.Lock()
	fail = true
	mu.Unlock()
	sink.EmitCheckpoint(streamTraceN("w/task", 3), 4) // dropped
	sink.Flush()
	mu.Lock()
	fail = false
	mu.Unlock()
	sink.EmitCheckpoint(streamTraceN("w/task", 4), 5)

	cks, _, dropped := sink.Stats()
	if cks != 3 || dropped != 1 || sink.Superseded() != 1 {
		t.Fatalf("stats = %d checkpoints / %d dropped / %d superseded, want 3/1/1", cks, dropped, sink.Superseded())
	}
	var wire []string
	for _, r := range recvd() {
		wire = append(wire, fmt.Sprintf("@%d delta=%v base=%d", r.meta.CheckpointSeq, r.meta.Delta, r.meta.DeltaBaseSeq))
	}
	want := []string{"@1 delta=false base=0", "@3 delta=true base=1", "@5 delta=true base=3"}
	if fmt.Sprint(wire) != fmt.Sprint(want) {
		t.Fatalf("server received %v, want %v", wire, want)
	}
}

// BenchmarkStreamSinkEmit measures what EmitCheckpoint costs the traced
// task when the server acknowledges each push after about 300 µs.
func BenchmarkStreamSinkEmit(b *testing.B) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		_, _ = io.Copy(io.Discard, r.Body)
		time.Sleep(300 * time.Microsecond)
		ackHandler("accepted", "")(w, r)
	}))
	defer srv.Close()
	c, err := New(srv.URL, Options{})
	if err != nil {
		b.Fatal(err)
	}
	sink := NewStreamSinkOpts(context.Background(), c, StreamOptions{Delta: true})
	traces := make([]*trace.TaskTrace, 8)
	for i := range traces {
		traces[i] = streamTraceN(fmt.Sprintf("w/task%d", i), 4)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sink.EmitCheckpoint(traces[i%len(traces)], uint64(i+1))
	}
	b.StopTimer()
	sink.Flush()
}
