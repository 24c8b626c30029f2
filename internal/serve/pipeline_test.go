package serve

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"testing"

	"dayu/internal/trace"
)

// TestShardedPushEquivalence drives the durable push path with mixed
// formats across stages and pins byte-identity to batch, the one WAL
// namespace the records land in, and a re-push answered as a duplicate.
func TestShardedPushEquivalence(t *testing.T) {
	env := newPushEnv(t, nil)
	const tasks = 12
	for i := 0; i < tasks; i++ {
		f := trace.FormatJSON
		if i%2 == 1 {
			f = trace.FormatBinary
		}
		status, pr, _ := postIngest(t, env.srv, makeTraceBytes(t, fmt.Sprintf("stage%d/task_%02d", i%3, i), f))
		if status != http.StatusOK || pr.Status != "accepted" {
			t.Fatalf("push %d = %d %+v", i, status, pr)
		}
	}
	waitTasks(t, env.s, tasks)
	waitWALDrained(t, env.s)
	checkAllEndpoints(t, env.srv, env.dir, "push")

	// The WAL landed under shard-0/, not the flat root.
	if segs, _ := filepath.Glob(filepath.Join(env.walDir, "wal-*.seg")); len(segs) != 0 {
		t.Errorf("server wrote %d segments into the flat root", len(segs))
	}
	if ns, _ := filepath.Glob(filepath.Join(env.walDir, "shard-*")); len(ns) != 1 || filepath.Base(ns[0]) != "shard-0" {
		t.Errorf("WAL namespaces = %v, want only shard-0", ns)
	}

	status, pr, _ := postIngest(t, env.srv, makeTraceBytes(t, "stage0/task_00", trace.FormatJSON))
	if status != http.StatusOK || pr.Status != "duplicate" {
		t.Fatalf("re-push = %d %+v, want duplicate", status, pr)
	}
}

// TestLegacyWALNamespacesDrain pins the upgrade from servers that wrote
// several WAL namespaces: the unfolded records an older server left in
// the flat WALDir root and in shard-0 … shard-3 are all served after one
// start, every namespace but the live shard-0 is retired, and each record
// stays acknowledged — a re-push of it is a duplicate.
func TestLegacyWALNamespacesDrain(t *testing.T) {
	dir, walDir := t.TempDir(), t.TempDir()
	var records [][]byte
	for k, ns := range []string{"", "shard-0", "shard-1", "shard-2", "shard-3"} {
		w, _, err := OpenWAL(filepath.Join(walDir, ns), WALOptions{Fsync: FsyncNever})
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 3; i++ {
			f := trace.FormatBinary
			if i%2 == 1 {
				f = trace.FormatJSON
			}
			data := makeTraceBytes(t, fmt.Sprintf("ns%d/task_%02d", k, i), f)
			if _, err := w.Append(data); err != nil {
				t.Fatal(err)
			}
			records = append(records, data)
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
	}

	env := newPushEnv(t, func(cfg *Config) { cfg.Dir, cfg.WALDir = dir, walDir })
	waitTasks(t, env.s, len(records))
	checkAllEndpoints(t, env.srv, dir, "legacy namespaces drained")

	if left, _ := filepath.Glob(filepath.Join(walDir, "shard-*")); len(left) != 1 || filepath.Base(left[0]) != "shard-0" {
		t.Errorf("WAL namespaces after startup = %v, want only shard-0", left)
	}
	if segs, _ := filepath.Glob(filepath.Join(walDir, "wal-*.seg")); len(segs) != 0 {
		t.Errorf("flat root holds %d segments after startup", len(segs))
	}
	for i, data := range records {
		if status, pr, _ := postIngest(t, env.srv, data); status != http.StatusOK || pr.Status != "duplicate" {
			t.Errorf("re-push of legacy record %d = %d %+v, want duplicate", i, status, pr)
		}
	}
}

// TestShardedHealthzBreakdown pins the /healthz WAL section of the one
// pipeline: no per-shard breakdown, sequence numbers counting every
// record, and an admission pool as large as IngestQueue.
func TestShardedHealthzBreakdown(t *testing.T) {
	env := newPushEnv(t, func(cfg *Config) { cfg.IngestQueue = 3 })
	for i := 0; i < 3; i++ {
		status, _, _ := postIngest(t, env.srv, makeTraceBytes(t, fmt.Sprintf("hz/task_%d", i), trace.FormatJSON))
		if status != http.StatusOK {
			t.Fatalf("push %d = %d", i, status)
		}
	}
	waitWALDrained(t, env.s)
	body := get(t, env.srv, "/healthz")
	var raw struct {
		WAL map[string]json.RawMessage `json:"wal"`
	}
	if err := json.Unmarshal(body, &raw); err != nil {
		t.Fatal(err)
	}
	if _, ok := raw.WAL["shards"]; raw.WAL == nil || ok {
		t.Errorf("/healthz wal section = %s, want one without a shards key", body)
	}
	var h Health
	getJSON(t, env.srv, "/healthz", &h)
	if h.WAL.NextSeq != 3 || h.WAL.FoldedSeq != 3 {
		t.Errorf("seq = %d/%d, want 3/3", h.WAL.NextSeq, h.WAL.FoldedSeq)
	}
	if h.WAL.QueueCapacity != 3 {
		t.Errorf("queue capacity = %d, want IngestQueue = 3", h.WAL.QueueCapacity)
	}
}

// getJSON fetches a 200 response and decodes it.
func getJSON(t *testing.T, srv *httptest.Server, path string, into any) {
	t.Helper()
	body := get(t, srv, path)
	if err := json.Unmarshal(body, into); err != nil {
		t.Fatalf("decode %s: %v: %s", path, err, body)
	}
}
