package serve

import (
	"bytes"
	"context"
	"net/http"
	"strings"
	"sync"
	"testing"

	"dayu/internal/diagnose"
	"dayu/internal/obs"
	"dayu/internal/serve/client"
	"dayu/internal/sim"
	"dayu/internal/trace"
	"dayu/internal/tracer"
	"dayu/internal/workflow"
	"dayu/internal/workloads"
)

// afterEachRecord wraps a sink and runs check once each record has been
// delivered, on the (single) goroutine the engine runs tasks on.
type afterEachRecord struct {
	inner tracer.Sink
	check func()
}

func (s afterEachRecord) EmitCheckpoint(t *trace.TaskTrace, seq uint64) {
	s.inner.EmitCheckpoint(t, seq)
	s.check()
}

func (s afterEachRecord) EmitFinal(t *trace.TaskTrace) {
	s.inner.EmitFinal(t)
	s.check()
}

// TestLiveDiagnosticsEqualFreshAnalyze streams a DDMD run, delta-framed,
// into a server holding the 24-task fixture — whose manifest ranks the
// fixture's tasks and none of the stream's — and after every record
// holds the three places the live findings surface to a from-scratch
// Analyze of that snapshot's live set: the SSE event, the polling
// endpoint, and with zero partials /v1/diagnose. Readers hammer the
// diagnose endpoints meanwhile, so under -race a view encoding while the
// index moves on would show.
func TestLiveDiagnosticsEqualFreshAnalyze(t *testing.T) {
	env, _ := fixtureEnv(t, 1)
	conn := dialSSE(t, env.srv, "")
	conn.next(t) // the current-state event every connection starts with

	stop := make(chan struct{})
	var readers sync.WaitGroup
	for _, path := range []string{"/v1/live/diagnostics", "/v1/diagnose", "/v1/live/diagnostics?horizon=1s"} {
		readers.Add(1)
		go func(path string) {
			defer readers.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				resp, err := http.Get(env.srv.URL + path)
				if err != nil {
					t.Errorf("GET %s: %v", path, err)
					return
				}
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					t.Errorf("GET %s = %d", path, resp.StatusCode)
					return
				}
			}
		}(path)
	}
	defer func() { close(stop); readers.Wait() }()

	records, converged := 0, 0
	check := func() {
		records++
		// Nothing else is in flight, so once the record has folded and a
		// rescan has run the published snapshot stands until the next
		// record — and it is the only one the record announced, whenever
		// the readers' refreshes ran.
		waitWALDrained(t, env.s)
		snap, err := env.s.Ingest()
		if err != nil {
			t.Fatal(err)
		}
		ev := decodeEvent(t, conn.next(t))
		if ev.Snapshot != snap.id {
			t.Fatalf("record %d: its event announces snapshot %s, not the snapshot %s that holds it",
				records, ev.Snapshot, snap.id)
		}
		want, err := diagnose.EncodeJSON(diagnose.Analyze(snap.liveTraces, snap.manifest, diagnose.Thresholds{}))
		if err != nil {
			t.Fatal(err)
		}
		if got := append(append([]byte(nil), ev.Findings...), '\n'); !bytes.Equal(got, want) {
			t.Fatalf("record %d (%d partial): SSE findings differ from a fresh Analyze of the live set (%d vs %d bytes)",
				records, snap.partialTasks, len(got), len(want))
		}
		body, hdr := getHdr(t, env.srv, "/v1/live/diagnostics")
		if hdr.Get("X-Dayu-Snapshot") != snap.id || !bytes.Equal(body, want) {
			t.Fatalf("record %d: /v1/live/diagnostics (snapshot %s) differs from a fresh Analyze of snapshot %s",
				records, hdr.Get("X-Dayu-Snapshot"), snap.id)
		}
		if snap.partialTasks == 0 {
			converged++
			if batch := get(t, env.srv, "/v1/diagnose"); !bytes.Equal(batch, want) {
				t.Fatalf("record %d: zero partials, but /v1/diagnose differs from /v1/live/diagnostics", records)
			}
		}
	}

	cl, err := client.New(env.srv.URL, client.Options{})
	if err != nil {
		t.Fatal(err)
	}
	sink := client.NewStreamSinkOpts(context.Background(), cl, client.StreamOptions{Delta: true})
	eng, err := workflow.NewEngine(workflow.Cluster{Machine: sim.MachineCPU, Nodes: 2}, nil,
		tracer.Config{Sink: afterEachRecord{sink, check}, CheckpointOps: 8})
	if err != nil {
		t.Fatal(err)
	}
	spec, setup := workloads.DDMD(workloads.DDMDConfig{SimTasks: 2, ContactMapBytes: 32 << 10, SmallBytes: 4 << 10, Epochs: 2})
	if err := setup(eng); err != nil {
		t.Fatal(err)
	}
	out, err := eng.Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	if err := sink.Err(); err != nil {
		t.Fatal(err)
	}
	checkpoints, deltas, dropped := sink.Stats()
	if dropped != 0 || deltas == 0 || records != checkpoints+len(out.Traces) {
		t.Fatalf("%d records checked; the sink sent %d checkpoints (%d deltas, %d dropped) and %d finals",
			records, checkpoints, deltas, dropped, len(out.Traces))
	}
	if converged < len(out.Traces)/2 {
		t.Errorf("only %d of %d records left zero partials", converged, records)
	}
	t.Logf("%d records (%d deltas), %d of them leaving zero partials", records, deltas, converged)
}

// TestDiagnoseSyncSeries reads the index's own series: one sync per
// built snapshot, and — as a count, not a time — a folded checkpoint and
// a final landing after the ranked tasks recompute the same few scopes
// whether the server holds 100 tasks or 400.
func TestDiagnoseSyncSeries(t *testing.T) {
	var perFold, perFinal []int64
	for _, tasks := range []int{100, 400} {
		reg := obs.NewRegistry()
		env := newPushEnv(t, func(c *Config) {
			c.Dir = writeSyntheticDir(t, workloads.SyntheticTraceConfig{Tasks: tasks})
			c.Registry = reg
		})
		recomputed := reg.Counter(obs.Name("dayu_serve_diagnose_scopes_total", "result", "recomputed"))
		reused := reg.Counter(obs.Name("dayu_serve_diagnose_scopes_total", "result", "reused"))
		syncs := reg.Histogram("dayu_serve_diagnose_sync_ns", nil)
		if recomputed.Value() < int64(tasks) || reused.Value() != 0 {
			t.Fatalf("first build over %d tasks: %d scopes recomputed, %d reused", tasks, recomputed.Value(), reused.Value())
		}

		final := liveTask("zz_live")
		foldAndIngest(t, env.s, encodeCheckpoint(t, checkpointTrace(final, 0.5), 1))
		before, kept := recomputed.Value(), reused.Value()
		foldAndIngest(t, env.s, encodeCheckpoint(t, checkpointTrace(final, 1.0), 2))
		perFold = append(perFold, recomputed.Value()-before)
		if reused.Value()-kept < int64(tasks) {
			t.Errorf("%d tasks: the fold reused %d scopes", tasks, reused.Value()-kept)
		}
		// The final is unranked too: it lands where its checkpoint stood,
		// after the manifest's tasks, and moves nobody.
		before = recomputed.Value()
		foldAndIngest(t, env.s, encodeFinal(t, final))
		perFinal = append(perFinal, recomputed.Value()-before)

		if got, want := syncs.Count(), env.s.ingests.Value(); got != want || got != 4 {
			t.Errorf("%d tasks: %d syncs observed for %d built snapshots, want 4 each", tasks, got, want)
		}
		metrics := string(get(t, env.srv, "/metrics"))
		for _, series := range []string{"dayu_serve_diagnose_sync_ns", `dayu_serve_diagnose_scopes_total{result="reused"}`,
			`dayu_serve_diagnose_scopes_total{result="recomputed"}`} {
			if !strings.Contains(metrics, series) {
				t.Errorf("/metrics misses %s", series)
			}
		}
	}
	if perFold[0] != perFold[1] || perFinal[0] != perFinal[1] {
		t.Errorf("scopes recomputed per fold %v and per final %v at 100 and 400 tasks; want each pair equal", perFold, perFinal)
	}
	if perFold[0] == 0 || perFold[0] > 10 || perFinal[0] == 0 || perFinal[0] > 10 {
		t.Errorf("scopes recomputed per fold %v, per final %v; a task with two files has about five", perFold, perFinal)
	}
}
