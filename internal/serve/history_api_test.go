package serve

import (
	"bytes"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"testing"

	"dayu/internal/trace"
)

// historyEnv is a server with the snapshot-history store enabled.
func historyEnv(t *testing.T, retain int) (*Server, *httptest.Server, string) {
	t.Helper()
	dir := writeFixtureDir(t)
	s := mustServer(t, Config{
		Dir: dir, PlanOptions: testPlanOpts,
		HistoryDir: t.TempDir(), HistoryRetain: retain,
	})
	srv := httptest.NewServer(s)
	t.Cleanup(func() { srv.Close(); s.Close() })
	return s, srv, dir
}

func TestHistoryDisabledWithout(t *testing.T) {
	dir := writeFixtureDir(t)
	s := mustServer(t, Config{Dir: dir, PlanOptions: testPlanOpts})
	defer s.Close()
	srv := httptest.NewServer(s)
	defer srv.Close()
	for _, path := range []string{"/v1/history", "/v1/history/abc/ftg"} {
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotImplemented {
			t.Errorf("GET %s = %d without -history, want 501", path, resp.StatusCode)
		}
	}
}

// TestHistoryRecordsAndReplaysSnapshots pins the replay contract: the
// listed snapshot's recorded bodies are byte-identical to what
// /v1/{ftg,sdg} served while it was current — even after the
// directory moves on.
func TestHistoryRecordsAndReplaysSnapshots(t *testing.T) {
	_, srv, dir := historyEnv(t, 0)

	ftgThen := get(t, srv, "/v1/ftg")
	sdgThen := get(t, srv, "/v1/sdg")
	var list HistoryList
	getJSON(t, srv, "/v1/history", &list)
	if len(list.Snapshots) != 1 {
		t.Fatalf("history holds %d snapshots, want 1", len(list.Snapshots))
	}
	first := list.Snapshots[0]
	if first.Tasks != 24 {
		t.Errorf("recorded snapshot has %d tasks, want 24", first.Tasks)
	}

	// Advance the directory: a second snapshot lands; the first still
	// replays its original bytes.
	paths, err := filepath.Glob(filepath.Join(dir, "*.trace.json"))
	if err != nil || len(paths) == 0 {
		t.Fatal("no trace files")
	}
	tt, err := trace.Load(paths[0])
	if err != nil {
		t.Fatal(err)
	}
	tt.Files[0].BytesRead += 1024
	if _, err := tt.Save(dir); err != nil {
		t.Fatal(err)
	}
	bumpMtimes(t, dir, 1)
	ftgNow := get(t, srv, "/v1/ftg")
	if bytes.Equal(ftgNow, ftgThen) {
		t.Fatal("fixture mutation did not change the FTG; test is vacuous")
	}

	getJSON(t, srv, "/v1/history", &list)
	if len(list.Snapshots) != 2 {
		t.Fatalf("history holds %d snapshots after mutation, want 2", len(list.Snapshots))
	}
	if list.Snapshots[0].ID == first.ID {
		t.Fatal("newest-first listing does not lead with the new snapshot")
	}

	replayFTG := get(t, srv, "/v1/history/"+first.ID+"/ftg")
	if !bytes.Equal(replayFTG, ftgThen) {
		t.Error("replayed FTG diverges from the bytes served while current")
	}
	replaySDG := get(t, srv, "/v1/history/"+first.ID+"/sdg")
	if !bytes.Equal(replaySDG, sdgThen) {
		t.Error("replayed SDG diverges from the bytes served while current")
	}
	// The bare-id path returns the manifest.
	manifest := get(t, srv, "/v1/history/"+first.ID)
	if !bytes.Contains(manifest, []byte(first.ID)) {
		t.Errorf("manifest body does not carry the snapshot ID: %s", manifest)
	}

	// Unknown ID and unknown graph name.
	resp, err := http.Get(srv.URL + "/v1/history/deadbeef/ftg")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("unknown snapshot = %d, want 404", resp.StatusCode)
	}
	resp, err = http.Get(srv.URL + "/v1/history/" + first.ID + "/nope")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("unknown graph = %d, want 400", resp.StatusCode)
	}
}

// TestHistoryRetentionOverRestarts pins compaction and persistence:
// the store keeps the newest Retain snapshots across mutations, and a
// restarted server lists what the previous process recorded.
func TestHistoryRetentionOverRestarts(t *testing.T) {
	dir := writeFixtureDir(t)
	histDir := t.TempDir()
	cfg := Config{Dir: dir, PlanOptions: testPlanOpts, HistoryDir: histDir, HistoryRetain: 3}
	s := mustServer(t, cfg)
	srv := httptest.NewServer(s)

	paths, err := filepath.Glob(filepath.Join(dir, "*.trace.json"))
	if err != nil || len(paths) == 0 {
		t.Fatal("no trace files")
	}
	for gen := 1; gen <= 5; gen++ {
		tt, err := trace.Load(paths[0])
		if err != nil {
			t.Fatal(err)
		}
		tt.Files[0].BytesRead += int64(gen * 100)
		if _, err := tt.Save(dir); err != nil {
			t.Fatal(err)
		}
		bumpMtimes(t, dir, gen)
		get(t, srv, "/v1/ftg")
	}
	var list HistoryList
	getJSON(t, srv, "/v1/history", &list)
	if len(list.Snapshots) != 3 {
		t.Fatalf("history holds %d snapshots with retain=3, want 3", len(list.Snapshots))
	}
	newestID := list.Snapshots[0].ID
	srv.Close()
	s.Close()

	s2 := mustServer(t, cfg)
	srv2 := httptest.NewServer(s2)
	defer func() { srv2.Close(); s2.Close() }()
	getJSON(t, srv2, "/v1/history", &list)
	if len(list.Snapshots) != 3 {
		t.Fatalf("restarted history holds %d snapshots, want 3", len(list.Snapshots))
	}
	found := false
	for _, m := range list.Snapshots {
		if m.ID == newestID {
			found = true
		}
	}
	if !found {
		t.Fatal("restart lost the newest recorded snapshot")
	}
	if body := get(t, srv2, "/v1/history/"+newestID+"/sdg"); len(body) == 0 {
		t.Fatal("restarted replay returned an empty body")
	}
}

// TestHistorySkipsPartialSnapshots pins that only converged states are
// recorded: a snapshot carrying live streaming partials never enters
// the store.
func TestHistorySkipsPartialSnapshots(t *testing.T) {
	histDir := t.TempDir()
	env := newPushEnv(t, func(cfg *Config) {
		cfg.HistoryDir = histDir
		cfg.HistoryRetain = 8
	})
	// Stream a checkpoint (incremental record) without its final: the
	// live view gains a partial task, and no new history entry may
	// appear for that state.
	cp := &trace.TaskTrace{
		Task: "hist/streaming_task", StartNS: 100, EndNS: 900,
		Files: []trace.FileRecord{{
			Task: "hist/streaming_task", File: "streaming_out.h5",
			OpenNS: 150, CloseNS: 800,
			Ops: 1, Writes: 1, BytesWritten: 1024,
			MetaOps: 1, MetaBytes: 64, DataBytes: 960,
		}},
	}
	status, pr, _ := postIngest(t, env.srv, encodeCheckpoint(t, cp, 1))
	if status != http.StatusOK || pr.Status != "accepted" {
		t.Fatalf("checkpoint push = %d %+v", status, pr)
	}
	waitWALDrained(t, env.s)
	snap, err := env.s.Ingest()
	if err != nil {
		t.Fatal(err)
	}
	if snap.partialTasks != 1 {
		t.Fatalf("partialTasks = %d, want 1", snap.partialTasks)
	}
	var list HistoryList
	getJSON(t, env.srv, "/v1/history", &list)
	for _, m := range list.Snapshots {
		if m.ID == snap.id {
			t.Fatal("a partial-bearing snapshot was recorded to history")
		}
	}
	// The final lands; the converged snapshot is recorded.
	status, pr, _ = postIngest(t, env.srv, makeTraceBytes(t, "hist/streaming_task", trace.FormatJSON))
	if status != http.StatusOK || pr.Status != "accepted" {
		t.Fatalf("final push = %d %+v", status, pr)
	}
	waitTasks(t, env.s, 1)
	waitWALDrained(t, env.s)
	snap, err = env.s.Ingest()
	if err != nil {
		t.Fatal(err)
	}
	if snap.partialTasks != 0 {
		t.Fatalf("partialTasks = %d after final, want 0", snap.partialTasks)
	}
	getJSON(t, env.srv, "/v1/history", &list)
	found := false
	for _, m := range list.Snapshots {
		if m.ID == snap.id {
			found = true
		}
	}
	if !found {
		t.Fatal("converged snapshot missing from history")
	}
}
