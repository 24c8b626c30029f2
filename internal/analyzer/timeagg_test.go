package analyzer

import (
	"encoding/json"
	"errors"
	"fmt"
	"testing"

	"dayu/internal/trace"
)

// timeAggTraces builds n tasks spread across two well-separated launch
// windows so a 1000ns window yields two buckets.
func timeAggTraces(n int) []*trace.TaskTrace {
	var out []*trace.TaskTrace
	for i := 0; i < n; i++ {
		start := int64(1000 + 100*i)
		if i >= n/2 {
			start += 50_000 // second window
		}
		task := fmt.Sprintf("task_%02d", i)
		out = append(out, &trace.TaskTrace{
			Task: task, StartNS: start, EndNS: start + 500,
			Files: []trace.FileRecord{{
				Task: task, File: fmt.Sprintf("f_%02d.h5", i),
				OpenNS: start + 10, CloseNS: start + 400,
				BytesWritten: 4096, Writes: 1, DataOps: 1, Ops: 1,
			}},
		})
	}
	return out
}

func graphJSON(t *testing.T, g interface{}) []byte {
	t.Helper()
	b, err := json.MarshalIndent(g, "", " ")
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestTimeAggCacheByteIdentity is the contract test: whatever the
// mutation between snapshots, the cached aggregation must serialize to
// the exact bytes a direct AggregateByTime produces.
func TestTimeAggCacheByteIdentity(t *testing.T) {
	cache := NewTimeAggCache(0)
	traces := timeAggTraces(6)
	step := 0
	check := func(label string) {
		t.Helper()
		step++
		g := BuildFTG(traces, nil)
		for _, window := range []int64{1000, 500, 100_000} {
			got, _, err := cache.Aggregate(g, "ftg", fmt.Sprintf("snap-%d", step), window)
			if err != nil {
				t.Fatalf("%s window %d: %v", label, window, err)
			}
			want, err := AggregateByTime(g, window)
			if err != nil {
				t.Fatal(err)
			}
			if string(graphJSON(t, got)) != string(graphJSON(t, want)) {
				t.Errorf("%s window %d: cached aggregation diverged from AggregateByTime", label, window)
			}
		}
	}

	check("initial")
	traces[1].Files[0].BytesWritten += 8192 // change one task in bucket 0
	check("volume change")
	traces = append(traces, timeAggTraces(8)[7]) // add a task to bucket 1
	check("task added")
	traces = traces[1:] // drop a task (shifts minStart)
	check("task removed")
	traces[0].StartNS += 60_000 // move a task across buckets
	check("task moved")
}

// TestTimeAggCacheReuse pins the cache's positive paths: a same-
// snapshot repeat is a pure hit, and a NEW snapshot whose windowed
// inputs are unchanged (a rebuilt but identical graph) reuses the
// built output without rebuilding.
func TestTimeAggCacheReuse(t *testing.T) {
	cache := NewTimeAggCache(0)
	traces := timeAggTraces(6)

	g1 := BuildFTG(traces, nil)
	out1, hit, err := cache.Aggregate(g1, "ftg", "snap-1", 1000)
	if err != nil {
		t.Fatal(err)
	}
	if s := cache.Stats(); s.Misses != 1 || s.Hits != 0 || hit {
		t.Fatalf("after first call stats = %+v", s)
	}

	// Same snapshot id: no hashing, same graph back.
	again, hit, err := cache.Aggregate(g1, "ftg", "snap-1", 1000)
	if err != nil {
		t.Fatal(err)
	}
	if again != out1 || !hit {
		t.Error("same-snapshot repeat rebuilt the graph")
	}
	if s := cache.Stats(); s.Hits != 1 {
		t.Fatalf("same-snapshot repeat not a hit: %+v", s)
	}

	// A new snapshot with identical content (fresh pointers): the
	// fingerprints prove every bucket unchanged and the output is
	// reused wholesale.
	g2 := BuildFTG(traces, nil)
	out2, hit, err := cache.Aggregate(g2, "ftg", "snap-2", 1000)
	if err != nil {
		t.Fatal(err)
	}
	if out2 != out1 || !hit {
		t.Error("unchanged snapshot rebuilt the windowed graph")
	}
	s := cache.Stats()
	if s.Hits != 2 || s.Misses != 1 || s.BucketsReused == 0 {
		t.Fatalf("after unchanged snapshot stats = %+v", s)
	}

	// A change confined to the second launch window: rebuild, but the
	// first window's bucket fingerprint still matches.
	traces[len(traces)-1].Files[0].BytesWritten *= 2
	g3 := BuildFTG(traces, nil)
	out3, hit, err := cache.Aggregate(g3, "ftg", "snap-3", 1000)
	if err != nil {
		t.Fatal(err)
	}
	if out3 == out1 || hit {
		t.Error("changed snapshot returned the stale graph")
	}
	s2 := cache.Stats()
	if s2.Misses != 2 {
		t.Fatalf("changed snapshot not a miss: %+v", s2)
	}
	if s2.BucketsReused <= s.BucketsReused || s2.BucketsRebuilt == 0 {
		t.Fatalf("partial-change accounting wrong: %+v -> %+v", s, s2)
	}

	// Streams are independent: the same window under another stream
	// key must not collide.
	if _, _, err := cache.Aggregate(g3, "sdg", "snap-3", 1000); err != nil {
		t.Fatal(err)
	}
	if s3 := cache.Stats(); s3.Misses != 3 {
		t.Fatalf("stream namespace collided: %+v", s3)
	}
}

// TestTimeAggCacheBounds pins the LRU bound and the error contract.
func TestTimeAggCacheBounds(t *testing.T) {
	cache := NewTimeAggCache(2)
	g := BuildFTG(timeAggTraces(4), nil)
	for _, w := range []int64{100, 200, 300, 400} {
		if _, _, err := cache.Aggregate(g, "ftg", "snap-1", w); err != nil {
			t.Fatal(err)
		}
	}
	cache.mu.Lock()
	n := len(cache.entries)
	cache.mu.Unlock()
	if n != 2 {
		t.Fatalf("cache holds %d entries, want 2 (LRU bound)", n)
	}
	// The most recent windows survived.
	if _, _, err := cache.Aggregate(g, "ftg", "snap-1", 400); err != nil {
		t.Fatal(err)
	}
	if s := cache.Stats(); s.Hits != 1 {
		t.Fatalf("most-recent window evicted: %+v", s)
	}

	for _, w := range []int64{0, -5} {
		if _, _, err := cache.Aggregate(g, "ftg", "snap-1", w); !errors.Is(err, ErrNonPositiveWindow) {
			t.Errorf("window %d: err = %v, want ErrNonPositiveWindow", w, err)
		}
	}
}
