package serve

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"dayu/internal/obs"
	"dayu/internal/trace"
)

// shardCounts returns the shard counts under test: {1, 2, 4, 8} by
// default, overridable via DAYU_SHARDS (comma-separated) so the CI
// matrix can pin one count per job.
func shardCounts(t *testing.T) []int {
	env := os.Getenv("DAYU_SHARDS")
	if env == "" {
		return []int{1, 2, 4, 8}
	}
	var counts []int
	for _, f := range strings.Split(env, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(f))
		if err != nil || n < 1 {
			t.Fatalf("bad DAYU_SHARDS %q", env)
		}
		counts = append(counts, n)
	}
	return counts
}

// TestShardServeEquivalence is the shard-matrix acceptance gate: at
// every shard count, every endpoint's bytes equal the batch CLI's
// across add, modify and delete — and equal every other shard count's
// bytes, because both sides equal the same batch rendering. CI greps
// the SHARD-EQUIVALENCE marker from the -v output.
func TestShardServeEquivalence(t *testing.T) {
	for _, n := range shardCounts(t) {
		t.Run(fmt.Sprintf("shards=%d", n), func(t *testing.T) {
			dir := writeFixtureDir(t)
			s := mustServer(t, Config{Dir: dir, Registry: obs.NewRegistry(), PlanOptions: testPlanOpts, Shards: n})
			defer s.Close()
			srv := httptest.NewServer(s)
			defer srv.Close()

			checkAllEndpoints(t, srv, dir, "initial")

			// Modify one task: the change must propagate identically
			// regardless of which shard owns the victim.
			paths, err := filepath.Glob(filepath.Join(dir, "*.trace.json"))
			if err != nil || len(paths) == 0 {
				t.Fatalf("glob: %v (%d files)", err, len(paths))
			}
			victim := paths[1]
			tt, err := trace.Load(victim)
			if err != nil {
				t.Fatal(err)
			}
			tt.Files[0].BytesWritten += 8192
			if _, err := tt.Save(dir); err != nil {
				t.Fatal(err)
			}
			bumpMtimes(t, dir, 1)
			checkAllEndpoints(t, srv, dir, "modify")

			// Add a trace, then delete one.
			extra := &trace.TaskTrace{
				Task: "zz/task_sharded", StartNS: 1 << 40, EndNS: 1<<40 + 1000,
				Files: []trace.FileRecord{{
					Task: "zz/task_sharded", File: "sharded_out.h5",
					OpenNS: 1<<40 + 10, CloseNS: 1<<40 + 900,
					Ops: 4, Writes: 4, BytesWritten: 1 << 14,
					MetaOps: 1, DataOps: 3, MetaBytes: 64, DataBytes: 1<<14 - 64,
				}},
			}
			if _, err := extra.Save(dir); err != nil {
				t.Fatal(err)
			}
			bumpMtimes(t, dir, 2)
			checkAllEndpoints(t, srv, dir, "add")

			if err := os.Remove(victim); err != nil {
				t.Fatal(err)
			}
			bumpMtimes(t, dir, 3)
			checkAllEndpoints(t, srv, dir, "delete")

			if !t.Failed() {
				t.Logf("SHARD-EQUIVALENCE: shards=%d byte-identical to batch", n)
			}
		})
	}
}

// TestShardCountInvariantSnapshotID pins that the snapshot content
// address — and therefore every response header and cache key — is a
// function of the directory state only, never of the shard count.
func TestShardCountInvariantSnapshotID(t *testing.T) {
	dir := writeFixtureDir(t)
	ids := map[string]bool{}
	bodies := map[string]bool{}
	for _, n := range []int{1, 2, 4, 8} {
		s := mustServer(t, Config{Dir: dir, PlanOptions: testPlanOpts, Shards: n})
		snap, err := s.Ingest()
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		ids[snap.id] = true
		body, err := renderGraph(snap.sdg, "json")
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		bodies[string(body)] = true
		s.Close()
	}
	if len(ids) != 1 {
		t.Errorf("snapshot ID varies with shard count: %d distinct values", len(ids))
	}
	if len(bodies) != 1 {
		t.Errorf("SDG bytes vary with shard count: %d distinct renderings", len(bodies))
	}
}

// TestShardedPushEquivalence drives the durable push path at 4 shards
// (mixed formats, streaming checkpoints superseded by finals) and pins
// byte-identity plus the shard-<k> WAL layout.
func TestShardedPushEquivalence(t *testing.T) {
	env := newPushEnv(t, func(cfg *Config) { cfg.Shards = 4 })
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
	checkAllEndpoints(t, env.srv, env.dir, "sharded-push")

	// The WAL landed under per-shard namespaces, not the flat root.
	if segs, _ := filepath.Glob(filepath.Join(env.walDir, "wal-*.seg")); len(segs) != 0 {
		t.Errorf("sharded server wrote %d segments into the flat root", len(segs))
	}
	shardDirs, _ := filepath.Glob(filepath.Join(env.walDir, "shard-*"))
	if len(shardDirs) != 4 {
		t.Errorf("WAL shard namespaces = %v, want 4", shardDirs)
	}

	// Identical re-push is a duplicate on every shard.
	status, pr, _ := postIngest(t, env.srv, makeTraceBytes(t, "stage0/task_00", trace.FormatJSON))
	if status != http.StatusOK || pr.Status != "duplicate" {
		t.Fatalf("re-push = %d %+v, want duplicate", status, pr)
	}
}

// TestShardCountChangeAcrossRestart pins that acknowledged data
// survives any -shards change: records folded under one count are all
// present after restarting at another, orphaned WAL namespaces are
// drained and retired, and responses stay byte-identical to batch. The
// 1→4→1 leg starts from a pre-sharding flat-root log with unfolded
// records in it — what an existing deployment has on disk — so the
// migration path (orphan replay of the flat root) is part of the walk.
func TestShardCountChangeAcrossRestart(t *testing.T) {
	for _, leg := range []struct {
		name     string
		flatSeed int
		counts   []int
	}{
		{"4-2-1", 0, []int{4, 2, 1}},
		{"flat-1-4-1", 3, []int{1, 4, 1}},
	} {
		t.Run(leg.name, func(t *testing.T) {
			dir := t.TempDir()
			walDir := t.TempDir()
			base := Config{Dir: dir, WALDir: walDir, WAL: WALOptions{Fsync: FsyncNever}, PlanOptions: testPlanOpts}

			if leg.flatSeed > 0 {
				w, _, err := OpenWAL(walDir, base.WAL)
				if err != nil {
					t.Fatal(err)
				}
				for i := 0; i < leg.flatSeed; i++ {
					if _, err := w.Append(makeTraceBytes(t, fmt.Sprintf("flat/task_%02d", i), trace.FormatBinary)); err != nil {
						t.Fatal(err)
					}
				}
				if err := w.Close(); err != nil {
					t.Fatal(err)
				}
			}

			for step, n := range leg.counts {
				cfg := base
				cfg.Shards = n
				s := mustServer(t, cfg)
				srv := httptest.NewServer(s)
				for i := 0; i < 4; i++ {
					task := fmt.Sprintf("gen%d/task_%02d", step, i)
					status, pr, _ := postIngest(t, srv, makeTraceBytes(t, task, trace.FormatJSON))
					if status != http.StatusOK || pr.Status != "accepted" {
						t.Fatalf("step %d push %s = %d %+v", step, task, status, pr)
					}
				}
				waitTasks(t, s, leg.flatSeed+(step+1)*4)
				waitWALDrained(t, s)
				checkAllEndpoints(t, srv, dir, fmt.Sprintf("shards=%d", n))
				srv.Close()
				s.Close()

				// The flat root is never a live namespace: whatever it
				// held was folded at startup and nothing new lands there.
				if segs, _ := filepath.Glob(filepath.Join(walDir, "wal-*.seg")); len(segs) != 0 {
					t.Errorf("step %d (shards=%d): flat root holds %d segments", step, n, len(segs))
				}
			}

			// After the final single-shard run every namespace but
			// shard-0 was replayed empty and retired.
			left, _ := filepath.Glob(filepath.Join(walDir, "shard-*"))
			if len(left) != 1 || filepath.Base(left[0]) != "shard-0" {
				t.Errorf("WAL namespaces after the final run = %v, want only shard-0", left)
			}
		})
	}
}

// TestShardedHealthzBreakdown pins the healthz aggregation contract:
// the top-level WAL numbers are sums over the per-shard breakdown, which
// is present at every shard count (one entry at -shards 1).
func TestShardedHealthzBreakdown(t *testing.T) {
	env := newPushEnv(t, func(cfg *Config) { cfg.Shards = 2; cfg.IngestQueue = 3 })
	for i := 0; i < 4; i++ {
		status, _, _ := postIngest(t, env.srv, makeTraceBytes(t, fmt.Sprintf("hz/task_%d", i), trace.FormatJSON))
		if status != http.StatusOK {
			t.Fatalf("push %d = %d", i, status)
		}
	}
	waitWALDrained(t, env.s)
	var h Health
	getJSON(t, env.srv, "/healthz", &h)
	if h.WAL == nil {
		t.Fatal("no WAL health")
	}
	if len(h.WAL.Shards) != 2 {
		t.Fatalf("per-shard breakdown has %d entries, want 2", len(h.WAL.Shards))
	}
	var next, folded uint64
	var qcap int
	for _, sh := range h.WAL.Shards {
		next += sh.NextSeq
		folded += sh.FoldedSeq
		qcap += sh.QueueCapacity
	}
	if next != h.WAL.NextSeq || folded != h.WAL.FoldedSeq || qcap != h.WAL.QueueCapacity {
		t.Errorf("top-level WAL health is not the shard sum: %+v", h.WAL)
	}
	if h.WAL.NextSeq != 4 || h.WAL.FoldedSeq != 4 {
		t.Errorf("aggregate seq = %d/%d, want 4/4", h.WAL.NextSeq, h.WAL.FoldedSeq)
	}
	if h.WAL.QueueCapacity != 6 {
		t.Errorf("aggregate queue capacity = %d, want 2*3", h.WAL.QueueCapacity)
	}

	single := newPushEnv(t, nil)
	getJSON(t, single.srv, "/healthz", &h)
	if h.WAL == nil || len(h.WAL.Shards) != 1 || h.WAL.Shards[0].Shard != 0 {
		t.Errorf("single-shard breakdown = %+v, want exactly shard 0", h.WAL)
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
