package main

import (
	"bufio"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"testing"
)

// TestWatchRejectsNegativeHorizon pins the fix for the silently-ignored
// negative -horizon: `dayu watch -horizon -5s` used to behave like
// "whole run" because only `> 0` values were forwarded; now it fails
// loudly, mirroring the server's 400 for ?horizon=-5s.
func TestWatchRejectsNegativeHorizon(t *testing.T) {
	for _, args := range [][]string{
		{"-horizon", "-5s"},
		{"-horizon=-1ns"},
		{"-horizon", "-10m", "-once"},
	} {
		err := cmdWatch(args)
		if err == nil || !strings.Contains(err.Error(), "non-negative") {
			t.Errorf("cmdWatch(%v) = %v, want non-negative horizon error", args, err)
		}
	}
}

// TestRunRejectsNegativeCheckpointOps: a negative checkpoint period
// used to stream no checkpoints without an error. The check comes
// before anything runs, so the unreachable server is never contacted.
func TestRunRejectsNegativeCheckpointOps(t *testing.T) {
	err := cmdRun([]string{"-stream", "http://127.0.0.1:1", "-checkpoint-ops", "-1", "-traces", t.TempDir()})
	if err == nil || !strings.Contains(err.Error(), "non-negative") {
		t.Errorf("cmdRun(-checkpoint-ops -1) = %v, want non-negative error", err)
	}
}

// stubServe fakes just enough of a dayu serve instance for watch:
// health, live diagnostics, and (optionally) the SSE event stream. The
// event payload carries a whole-run finding while the diagnostics
// endpoint answers ?horizon= with a different one, so a test can tell
// which of the two watch printed. Every horizon value the diagnostics
// endpoint was asked for is sent on the returned channel.
func stubServe(t *testing.T, events bool) (*httptest.Server, <-chan string) {
	t.Helper()
	const wholeRun = `[{"kind":"small-io","severity":"warn","task":"t0","detail":"whole-run finding"}]`
	const trailing = `[{"kind":"small-io","severity":"warn","task":"t9","detail":"horizon finding"}]`
	horizons := make(chan string, 16) // one per observation; tests make a handful
	mux := http.NewServeMux()
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprint(w, `{"status":"ok"}`)
	})
	mux.HandleFunc("/v1/live/diagnostics", func(w http.ResponseWriter, r *http.Request) {
		horizon := r.URL.Query().Get("horizon")
		horizons <- horizon
		w.Header().Set("X-Dayu-Snapshot", "stub-1")
		w.Header().Set("X-Dayu-Partial-Tasks", "0")
		w.Header().Set("X-Dayu-Complete-Tasks", "2")
		if horizon != "" {
			fmt.Fprint(w, trailing)
			return
		}
		fmt.Fprint(w, wholeRun)
	})
	if events {
		mux.HandleFunc("/v1/live/events", func(w http.ResponseWriter, r *http.Request) {
			w.Header().Set("Content-Type", "text/event-stream")
			w.WriteHeader(http.StatusOK)
			fmt.Fprint(w, "id: 1\nevent: snapshot\n")
			fmt.Fprintf(w, "data: {\"snapshot\":\"stub-1\",\"partial_tasks\":0,\ndata: \"complete_tasks\":2,\"findings\":%s}\n\n", wholeRun)
			w.(http.Flusher).Flush()
			<-r.Context().Done()
		})
	}
	srv := httptest.NewServer(mux)
	t.Cleanup(srv.Close)
	return srv, horizons
}

// captureStdout runs fn with os.Stdout redirected and returns what it
// printed.
func captureStdout(t *testing.T, fn func()) string {
	t.Helper()
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	real := os.Stdout
	os.Stdout = w
	defer func() { os.Stdout = real }()
	out := make(chan string)
	go func() {
		data, _ := io.ReadAll(r)
		out <- string(data)
	}()
	fn()
	w.Close()
	return <-out
}

// TestWatchOnceSSE consumes one pushed event (with multi-line data
// framing), observes once and exits.
func TestWatchOnceSSE(t *testing.T) {
	srv, _ := stubServe(t, true)
	var err error
	out := captureStdout(t, func() { err = cmdWatch([]string{"-server", srv.URL, "-once"}) })
	if err != nil {
		t.Fatalf("cmdWatch sse: %v", err)
	}
	if !strings.Contains(out, "2 complete, 0 in flight, 1 findings") || !strings.Contains(out, "whole-run finding") {
		t.Errorf("watch -once printed:\n%s", out)
	}
}

// TestWatchPrintsFromEvent: without -horizon the snapshot event is the
// payload — what watch prints comes from it, and it asks the server for
// no diagnostics body.
func TestWatchPrintsFromEvent(t *testing.T) {
	srv, horizons := stubServe(t, true)
	var err error
	out := captureStdout(t, func() { err = cmdWatch([]string{"-server", srv.URL, "-once", "-horizon", "0"}) })
	if err != nil {
		t.Fatalf("cmdWatch -horizon 0: %v", err)
	}
	if len(horizons) != 0 {
		t.Errorf("watch -horizon 0 requested /v1/live/diagnostics %d times, want none", len(horizons))
	}
	if !strings.Contains(out, "2 complete, 0 in flight, 1 findings") || !strings.Contains(out, "whole-run finding") {
		t.Errorf("watch -horizon 0 printed:\n%s", out)
	}
}

// TestWatchHorizonOverSSE pins the fix for -horizon being silently
// ignored on the event-stream transport: the stream used to be the
// payload too, and its findings are always whole-run. Now the event is
// only the change signal, and what watch prints comes from
// /v1/live/diagnostics?horizon=.
func TestWatchHorizonOverSSE(t *testing.T) {
	srv, horizons := stubServe(t, true)
	var err error
	out := captureStdout(t, func() { err = cmdWatch([]string{"-server", srv.URL, "-once", "-horizon", "5s"}) })
	if err != nil {
		t.Fatalf("cmdWatch -horizon: %v", err)
	}
	select {
	case got := <-horizons:
		if got != "5s" {
			t.Errorf("diagnostics asked with horizon=%q, want 5s", got)
		}
	default:
		t.Fatal("watch never requested /v1/live/diagnostics")
	}
	if !strings.Contains(out, "horizon finding") || strings.Contains(out, "whole-run finding") {
		t.Errorf("watch -horizon 5s printed the wrong findings:\n%s", out)
	}
}

// TestWatchRequiresEventStream: a server without /v1/live/events (404)
// is a clear error naming the endpoint, not a silent downgrade to some
// other transport.
func TestWatchRequiresEventStream(t *testing.T) {
	srv, horizons := stubServe(t, false)
	err := cmdWatch([]string{"-server", srv.URL, "-once"})
	if err == nil || !strings.Contains(err.Error(), "/v1/live/events") || !strings.Contains(err.Error(), "404") {
		t.Fatalf("cmdWatch against a non-SSE server = %v, want an error naming /v1/live/events and the 404", err)
	}
	if len(horizons) != 0 {
		t.Error("watch observed through a server that has no event stream")
	}
}

// TestReadSSEEvent pins the client-side framing rules: comments
// (heartbeats) are skipped, and multi-line data fields rejoin with \n
// byte-identically.
func TestReadSSEEvent(t *testing.T) {
	stream := ": heartbeat\n\n" +
		"id: 7\nevent: snapshot\ndata: {\"a\":\ndata:  1}\n\n" +
		"event: lagged\ndata: {}\n\n"
	rd := bufio.NewReader(strings.NewReader(stream))

	ev, err := readSSEEvent(rd)
	if err != nil {
		t.Fatal(err)
	}
	if ev.id != "7" || ev.event != "snapshot" || ev.data != "{\"a\":\n 1}" {
		t.Fatalf("first event = %+v", ev)
	}
	ev, err = readSSEEvent(rd)
	if err != nil {
		t.Fatal(err)
	}
	if ev.event != "lagged" || ev.data != "{}" {
		t.Fatalf("second event = %+v", ev)
	}
}
