package analyzer

// Incremental windowed aggregation for live serving. The live view
// re-renders on every folded checkpoint, but a windowed graph
// (AggregateByTime) usually does not change when a snapshot advances:
// most folds touch one task, and the windowed projection of every
// other bucket — and often even the touched one — is identical.
// TimeAggCache makes the common live polling pattern (same windows
// requested against a slowly-advancing snapshot stream) cheap by
// detecting, per window-bucket, that the aggregation inputs did not
// change, and reusing the previously built graph wholesale when no
// bucket did.
//
// Correctness contract: Aggregate returns a graph BYTE-IDENTICAL (once
// rendered) to AggregateByTime(g, windowNS) — reuse happens only when
// a fingerprint of everything AggregateByTime reads (task nodes and
// their bucket assignment, non-task nodes, every edge with remapped
// endpoints, insertion order, graph name) is unchanged. Fingerprints
// are 64-bit FNV-1a over the full field values, so a false "unchanged"
// requires a hash collision between two observed states of one window.
//
// The returned graph is shared and must be treated as immutable, the
// same ownership rule the serve render cache already imposes on
// snapshot graphs.

import (
	"fmt"
	"hash"
	"hash/fnv"
	"sync"

	"dayu/internal/graph"
)

// DefaultTimeAggWindows bounds distinct (stream, window) cache entries.
const DefaultTimeAggWindows = 8

// TimeAggCache caches AggregateByTime outputs across snapshots. Safe
// for concurrent use.
type TimeAggCache struct {
	mu         sync.Mutex
	maxEntries int
	entries    map[string]*timeAggEntry
	order      []string // LRU, most recently used last

	hits           int64
	misses         int64
	bucketsReused  int64
	bucketsRebuilt int64
}

// timeAggEntry is the retained state for one (stream, window) pair.
type timeAggEntry struct {
	snapshotID string
	restFP     uint64 // non-task nodes, unbucketed edges, name, minStart
	bucketFP   map[string]uint64
	out        *graph.Graph
}

// TimeAggStats reports cache effectiveness.
type TimeAggStats struct {
	// Hits are calls answered from cache: same snapshot, or a new
	// snapshot whose windowed projection was proven unchanged.
	Hits int64
	// Misses are calls that rebuilt the windowed graph.
	Misses int64
	// BucketsReused / BucketsRebuilt break misses and cross-snapshot
	// hits down by window bucket: reused buckets had identical inputs
	// to the previous snapshot's.
	BucketsReused  int64
	BucketsRebuilt int64
}

// NewTimeAggCache builds a cache holding at most maxEntries distinct
// (stream, window) pairs; maxEntries <= 0 means DefaultTimeAggWindows.
func NewTimeAggCache(maxEntries int) *TimeAggCache {
	if maxEntries <= 0 {
		maxEntries = DefaultTimeAggWindows
	}
	return &TimeAggCache{maxEntries: maxEntries, entries: map[string]*timeAggEntry{}}
}

// Aggregate returns AggregateByTime(g, windowNS), reusing the cached
// result when possible; hit reports that it did (the call counted in
// Stats().Hits rather than Misses). stream namespaces independent graph
// sequences (e.g. "ftg" vs "sdg"); snapshotID identifies g's generation
// — equal ids mean an identical graph, different ids mean "recheck via
// fingerprints".
func (c *TimeAggCache) Aggregate(g *graph.Graph, stream, snapshotID string, windowNS int64) (out *graph.Graph, hit bool, err error) {
	if windowNS <= 0 {
		return nil, false, fmt.Errorf("%w: %dns", ErrNonPositiveWindow, windowNS)
	}
	key := fmt.Sprintf("%s|%d", stream, windowNS)

	c.mu.Lock()
	e := c.entries[key]
	if e != nil && e.snapshotID == snapshotID {
		c.hits++
		c.touchLocked(key)
		out := e.out
		c.mu.Unlock()
		return out, true, nil
	}
	c.mu.Unlock()

	// Fingerprint outside the lock: hashing is the expensive part and
	// concurrent renders of different windows must not serialize on it.
	restFP, bucketFP := fingerprintWindow(g, windowNS)

	c.mu.Lock()
	defer c.mu.Unlock()
	e = c.entries[key]
	if e != nil && e.restFP == restFP && fpEqual(e.bucketFP, bucketFP) {
		// A new snapshot whose windowed inputs are unchanged: reuse the
		// built graph, remember the new snapshot id so the next call
		// short-circuits without hashing.
		c.hits++
		c.bucketsReused += int64(len(bucketFP))
		e.snapshotID = snapshotID
		c.touchLocked(key)
		return e.out, true, nil
	}

	out, err = AggregateByTime(g, windowNS)
	if err != nil {
		return nil, false, err
	}
	c.misses++
	for id, fp := range bucketFP {
		if e != nil && e.bucketFP[id] == fp {
			c.bucketsReused++
		} else {
			c.bucketsRebuilt++
		}
	}
	c.entries[key] = &timeAggEntry{snapshotID: snapshotID, restFP: restFP, bucketFP: bucketFP, out: out}
	c.touchLocked(key)
	c.evictLocked()
	return out, false, nil
}

// Stats returns a snapshot of the cache counters.
func (c *TimeAggCache) Stats() TimeAggStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return TimeAggStats{
		Hits: c.hits, Misses: c.misses,
		BucketsReused: c.bucketsReused, BucketsRebuilt: c.bucketsRebuilt,
	}
}

func (c *TimeAggCache) touchLocked(key string) {
	for i, k := range c.order {
		if k == key {
			c.order = append(append(c.order[:i:i], c.order[i+1:]...), key)
			return
		}
	}
	c.order = append(c.order, key)
}

func (c *TimeAggCache) evictLocked() {
	for len(c.order) > c.maxEntries {
		delete(c.entries, c.order[0])
		c.order = c.order[1:]
	}
}

func fpEqual(a, b map[string]uint64) bool {
	if len(a) != len(b) {
		return false
	}
	for k, v := range a {
		if b[k] != v {
			return false
		}
	}
	return true
}

// fingerprintWindow hashes everything AggregateByTime reads, split by
// window bucket. Task nodes and edges touching a bucket hash into that
// bucket's fingerprint (edges touching two buckets hash into both);
// everything else — non-task nodes, edges between non-task nodes, the
// graph name, the bucket-assignment origin — hashes into restFP.
// Insertion order is captured because values are hashed in iteration
// order with a position counter.
func fingerprintWindow(g *graph.Graph, windowNS int64) (restFP uint64, bucketFP map[string]uint64) {
	var minStart int64
	for _, n := range g.NodesOfKind(graph.KindTask) {
		if minStart == 0 || (n.StartNS != 0 && n.StartNS < minStart) {
			minStart = n.StartNS
		}
	}
	remap := map[string]string{}
	for _, n := range g.NodesOfKind(graph.KindTask) {
		remap[n.ID] = fmt.Sprintf("window:%d", (n.StartNS-minStart)/windowNS)
	}

	buckets := map[string]*posHasher{}
	bucketOf := func(id string) *posHasher {
		h := buckets[id]
		if h == nil {
			h = newPosHasher()
			buckets[id] = h
		}
		return h
	}
	rest := newPosHasher()
	rest.add(g.Name, minStart, windowNS)

	for i, n := range g.Nodes() {
		if w, ok := remap[n.ID]; ok {
			bucketOf(w).add(i, *n)
			continue
		}
		rest.add(i, *n)
	}
	for i, e := range g.Edges() {
		from, fromBucketed := remap[e.From]
		to, toBucketed := remap[e.To]
		if !fromBucketed && !toBucketed {
			rest.add(i, *e)
			continue
		}
		if fromBucketed {
			bucketOf(from).add(i, *e, from, to)
		}
		if toBucketed && to != from {
			bucketOf(to).add(i, *e, from, to)
		}
	}

	bucketFP = make(map[string]uint64, len(buckets))
	for id, h := range buckets {
		bucketFP[id] = h.sum()
	}
	return rest.sum(), bucketFP
}

// posHasher accumulates values into an FNV-1a stream. Values are
// formatted with %+v, which prints struct fields in order and map
// contents sorted, so the hash is deterministic.
type posHasher struct{ h hash.Hash64 }

func newPosHasher() *posHasher { return &posHasher{h: fnv.New64a()} }

func (p *posHasher) add(vs ...interface{}) {
	for _, v := range vs {
		fmt.Fprintf(p.h, "%+v\x00", v)
	}
}

func (p *posHasher) sum() uint64 { return p.h.Sum64() }
