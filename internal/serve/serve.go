// Package serve is DaYu's incremental analysis service: a long-running
// HTTP server that watches a trace directory, ingests new, changed and
// deleted per-task trace files incrementally, and answers FTG/SDG,
// diagnostics and optimizer-plan requests from a content-addressed
// cache. Chimbuko-style online analysis (PAPERS.md) applied to the
// paper's per-task trace files, which are naturally incremental units.
//
// Caching has three layers, all content-addressed from the trace
// bytes:
//
//  1. Parsed traces, keyed by file content hash: a touched-but-equal
//     file is re-hashed, never re-parsed; an untouched file (same
//     size and mtime) is not even re-read.
//  2. Per-task graph contributions (the analyzer's parallel-build
//     unit), keyed by trace hash — plus, for SDGs, a fingerprint of
//     the object descriptions the task references. One changed task
//     recomputes one contribution; the rest merge from cache.
//  3. Rendered responses, keyed per snapshot and format: repeat
//     requests against an unchanged directory are pure cache reads.
//
// A snapshot is a batch view — everything derived from the directory
// alone, built once per directory state and shared by pointer — plus a
// live overlay of streaming checkpoints, so a folded checkpoint costs
// the overlay, not the state.
//
// Concurrency follows a single-writer snapshot-swap model: one
// goroutine at a time may ingest (guarded by ingestMu; request-path
// refreshes use TryLock and fall back to the current snapshot), and
// the published *snapshot is immutable except for its lazily filled
// render caches, which are single-flight per key. Readers load the
// snapshot pointer atomically and never observe a half-built graph.
//
// Responses are byte-identical to the batch CLI path — BuildFTG /
// BuildSDG / diagnose.Analyze / PlanDataLocality over a fresh
// trace.LoadDir — which the equivalence tests pin across add, modify
// and delete of task traces.
package serve

import (
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"dayu/internal/analyzer"
	"dayu/internal/diagnose"
	"dayu/internal/graph"
	"dayu/internal/obs"
	"dayu/internal/optimizer"
	"dayu/internal/serve/history"
	"dayu/internal/trace"
)

// Config configures the service.
type Config struct {
	// Dir is the watched trace directory.
	Dir string
	// Registry receives the serve metrics; nil disables them (every
	// metric handle is nil-safe).
	Registry *obs.Registry
	// SDGOptions controls /v1/sdg construction (Parallelism is unused:
	// contributions are computed one task at a time on ingest).
	SDGOptions analyzer.Options
	// PlanOptions are the defaults for /v1/plan; tier and nodes can be
	// overridden per request with ?tier= and ?nodes=.
	PlanOptions optimizer.LocalityOptions
	// Poll is the background rescan interval; 0 disables the background
	// watcher. Requests rescan either way (current), incrementally and
	// through the caches.
	Poll time.Duration
	// MaxPollBackoff caps the exponential backoff applied to the poll
	// loop after repeated scan errors (default 1 minute; never below
	// Poll).
	MaxPollBackoff time.Duration

	// WALDir enables the durable push-ingest path (POST /v1/ingest):
	// acknowledged records are appended to a write-ahead log under this
	// directory and replayed on startup. Empty disables push ingest.
	WALDir string
	// WAL tunes the write-ahead log (fsync policy, segment size).
	WAL WALOptions
	// IngestQueue bounds acknowledged-but-unfolded push records; a
	// full queue answers 429 + Retry-After (default 64).
	IngestQueue int
	// MaxBodyBytes caps /v1/ingest request bodies (default 32 MiB).
	MaxBodyBytes int64
	// RetryAfter is the backpressure hint sent with 429 responses
	// (default 1s).
	RetryAfter time.Duration

	// Shards is the width N of the directory scan and contribution
	// loops and, with WALDir set, the number of push-ingest shards (WAL
	// namespace, admission pool and folder goroutine each), records
	// routed by FNV-1a hash of the task name; clamped to [1, MaxShards],
	// and 1 is the same code path and on-disk layout as any other
	// count. The count can never leak into response bytes: every loop
	// writes its results by position in the global task order.
	Shards int

	// HistoryDir enables the persistent snapshot-history store: every
	// converged snapshot's manifest and rendered /v1/{ftg,sdg} bodies
	// are recorded there (content-addressed, compacted by retention)
	// and served back via /v1/history. Empty disables history.
	HistoryDir string
	// HistoryRetain caps retained history snapshots (default 64).
	HistoryRetain int

	// SSEHeartbeat is the /v1/live/events keep-alive comment interval
	// (default 15s). Tests and smoke scripts shorten it.
	SSEHeartbeat time.Duration

	// foldHook, when set (tests only), runs in the folder goroutines
	// before each record folds — used to hold the queue full.
	foldHook func(foldJob)
}

// batchView is the immutable batch half of a snapshot: everything that
// is a function of the watched directory's content alone. It is built
// once per directory state and shared — the same pointer — by every
// snapshot published until the scan next reports a change, so a folded
// checkpoint (which only moves the live overlay) neither rebuilds these
// graphs nor re-renders their bodies, and the snapshots in the SSE
// replay ring hold one batch graph between them.
type batchView struct {
	traces   []*trace.TaskTrace
	manifest *trace.Manifest
	tasks    []TaskInfo
	taskSet  map[string]bool // task names with a final trace on disk
	hashes   map[string]bool // content hashes of every trace file
	// traceHash is each trace's content hash: its contribution cache key.
	traceHash map[*trace.TaskTrace]string
	// idLines is the batch part of the snapshot id's preimage: the
	// manifest hash and every trace file's name and content hash.
	idLines string
	ftg     *graph.Graph
	sdg     *graph.Graph

	// ordered is traces in analyzer.OrderTasks order: what the
	// contribution pass and the diagnose index take.
	ordered []*trace.TaskTrace

	// rendered caches the bodies that depend on nothing but this view:
	// "ftg.<format>", "sdg.<format>", "diagnose" and "plan:<tier>:<nodes>"
	// — which, with zero partials, are also the live endpoints' keys.
	rendered renderCache
}

// snapshot is an immutable view of one served state: the shared batch
// view plus the live overlay of retained checkpoints. The graphs are
// fully built at publish time; response bodies are cached lazily, in
// the batch view when they depend on it alone and in liveRendered when
// they depend on the overlay or the snapshot id.
type snapshot struct {
	id string
	*batchView

	// Live overlay: the trace set extended with retained checkpoint
	// records for tasks still in flight. With zero partials these
	// alias traces/ftg/sdg, making live and batch responses share
	// rendered bytes.
	liveTraces    []*trace.TaskTrace
	liveFTG       *graph.Graph
	liveSDG       *graph.Graph
	partialTasks  int
	partialHashes map[string]bool // content hashes of the retained checkpoints
	// findings is the diagnose index's view of liveTraces as of this
	// snapshot: references to the index's cached groups, encoded on
	// demand through the render caches (see diagnoseRender).
	findings *diagnose.View

	// liveRendered caches "tasks" (it names the snapshot id) and every
	// "live-…" key: the overlay graphs and diagnostics, windowed and
	// horizon-restricted renders.
	liveRendered renderCache
}

// hasHash reports whether content with this hash is already part of the
// snapshot, as a trace file or as a retained checkpoint.
func (snap *snapshot) hasHash(hash string) bool {
	return snap.hashes[hash] || snap.partialHashes[hash]
}

// shardIngest is one shard's slice of the push-ingest pipeline: its
// own WAL namespace, admission pool, fold queue and folder goroutine,
// plus the per-shard observability handles the scale work needs to
// spot a hot or lagging shard.
type shardIngest struct {
	idx      int
	wal      *WAL
	sem      chan struct{}
	foldQ    chan foldJob
	foldDone chan struct{}
	// stuck is what this shard's folder gave up on (written by it alone).
	stuck atomic.Pointer[stuckFolds]

	queueDepth  *obs.Gauge
	walPending  *obs.Gauge
	walSegments *obs.Gauge
	foldNS      *obs.Histogram
	appendNS    *obs.Histogram
}

// stuckFolds counts the acknowledged records a folder gave up on — still
// pending in the WAL, folded by the next startup replay — with the last
// one's cause.
type stuckFolds struct {
	records int
	err     error
}

// Server is the incremental analysis service. It implements
// http.Handler.
type Server struct {
	cfg Config
	mux *http.ServeMux

	// ingestMu serializes directory scans and snapshot builds: the
	// single-writer half of the snapshot-swap model. Its holder owns the
	// build cache.
	ingestMu sync.Mutex
	cache    *buildCache
	// diag is the diagnose rule index, kept in step with the live trace
	// set by buildSnapshot. Like the build cache it belongs to whoever
	// holds ingestMu; the views it hands out are immutable.
	diag *diagnose.Index
	// batchStale is set when a scan saw the directory change and cleared
	// once a snapshot of that state is built: a refresh that failed
	// part-way still rebuilds the batch view on the next attempt.
	batchStale bool

	// hist is the persistent snapshot-history store (nil unless
	// cfg.HistoryDir is set).
	hist *history.Store

	snap    atomic.Pointer[snapshot]
	lastErr atomic.Pointer[ingestError]
	histErr atomic.Pointer[ingestError]

	// Push-ingest state (nil/unused unless cfg.WALDir is set). Each
	// shard owns an admission pool (one slot per
	// acknowledged-but-unfolded push), a WAL namespace and a folder
	// goroutine; records route to shards by task name, so one task's
	// records always fold sequentially in one shard.
	shards     []*shardIngest
	pushMu     sync.Mutex
	pushClosed bool
	pushWG     sync.WaitGroup
	// acked maps the content hashes acknowledged by this process and
	// not yet covered by a snapshot or superseded (see pruneAcked).
	acked map[string]ackedRecord
	// pending holds content hashes whose WAL append is in flight; the
	// channel closes when the append settles (either way). Identical
	// concurrent pushes wait on it instead of double-appending — and
	// instead of being answered "duplicate" before the twin's bytes
	// are actually durable.
	pending   map[string]chan struct{}
	closePush sync.Once

	// Retained streaming checkpoints and acknowledged delta heads (the
	// type owns its lock); lastPartialsGen is the writer-owned
	// (ingestMu) generation the published snapshot was built from.
	partials        *partialSet
	lastPartialsGen uint64
	// SSE fan-out for /v1/live/events (its own lock: event delivery
	// must not contend with checkpoint folding).
	events eventsBroadcaster

	// Poll-loop backoff state, surfaced by /healthz.
	pollFailures  atomic.Int64
	pollBackoffNS atomic.Int64

	// Metric handles (nil-safe when cfg.Registry is nil).
	requests        func(path string) *obs.Counter
	requestNS       func(path string) *obs.Histogram
	inflight        *obs.Gauge
	ingests         *obs.Counter
	ingestNS        *obs.Histogram
	ingestErrors    *obs.Counter
	traceParses     *obs.Counter
	snapshotHits    *obs.Counter
	snapshotMisses  *obs.Counter
	contribHits     *obs.Counter
	contribMisses   *obs.Counter
	diagSyncNS      *obs.Histogram
	diagReused      *obs.Counter
	diagRecomputed  *obs.Counter
	responseHits    *obs.Counter
	responseMisses  *obs.Counter
	snapshotTasks   *obs.Gauge
	pushAccepted    *obs.Counter
	pushDuplicates  *obs.Counter
	pushRejected    *obs.Counter
	pushErrors      *obs.Counter
	foldErrors      *obs.Counter
	partialFolds    *obs.Counter
	partialRetracts *obs.Counter
	partialGauge    *obs.Gauge
	deltaFolds      *obs.Counter
	deltaResyncs    *obs.Counter
	deltaDrops      *obs.Counter
	walAppendNS     *obs.Histogram
	walPending      *obs.Gauge
	walSegments     *obs.Gauge
	queueDepth      *obs.Gauge

	// timeAgg caches windowed aggregations (?window=) across snapshots
	// so a live watcher polling a fixed window does not pay a full
	// AggregateByTime rebuild on every folded checkpoint.
	timeAgg *analyzer.TimeAggCache

	stop     chan struct{}
	done     chan struct{}
	watching bool // set by Start before the watcher goroutine exists
}

type ingestError struct {
	err  error
	when time.Time
}

// NewServer builds the service, recovers any write-ahead-logged push
// records (when cfg.WALDir is set) and performs the initial ingest; a
// missing or unreadable trace directory is reported by the first
// request (and /healthz) rather than failing construction. Only WAL
// open/recovery failures are construction errors: a server that
// cannot guarantee its durability contract must not start.
func NewServer(cfg Config) (*Server, error) {
	reg := cfg.Registry
	cfg.Shards = clampShards(cfg.Shards)
	s := &Server{
		cfg:      cfg,
		cache:    newBuildCache(cfg.Shards),
		diag:     diagnose.NewIndex(diagnose.Thresholds{}),
		partials: newPartialSet(),

		requests: func(path string) *obs.Counter {
			return reg.Counter(obs.Name("dayu_serve_requests_total", "path", path))
		},
		requestNS: func(path string) *obs.Histogram {
			return reg.Histogram(obs.Name("dayu_serve_request_ns", "path", path), obs.LatencyBuckets())
		},
		inflight:        reg.Gauge("dayu_serve_inflight_requests"),
		ingests:         reg.Counter("dayu_serve_ingests_total"),
		ingestNS:        reg.Histogram("dayu_serve_ingest_ns", obs.LatencyBuckets()),
		ingestErrors:    reg.Counter("dayu_serve_ingest_errors_total"),
		traceParses:     reg.Counter("dayu_serve_trace_parses_total"),
		snapshotHits:    reg.Counter(obs.Name("dayu_serve_cache_hits_total", "cache", "snapshot")),
		snapshotMisses:  reg.Counter(obs.Name("dayu_serve_cache_misses_total", "cache", "snapshot")),
		contribHits:     reg.Counter(obs.Name("dayu_serve_cache_hits_total", "cache", "contribution")),
		contribMisses:   reg.Counter(obs.Name("dayu_serve_cache_misses_total", "cache", "contribution")),
		diagSyncNS:      reg.Histogram("dayu_serve_diagnose_sync_ns", obs.LatencyBuckets()),
		diagReused:      reg.Counter(obs.Name("dayu_serve_diagnose_scopes_total", "result", "reused")),
		diagRecomputed:  reg.Counter(obs.Name("dayu_serve_diagnose_scopes_total", "result", "recomputed")),
		responseHits:    reg.Counter(obs.Name("dayu_serve_cache_hits_total", "cache", "response")),
		responseMisses:  reg.Counter(obs.Name("dayu_serve_cache_misses_total", "cache", "response")),
		snapshotTasks:   reg.Gauge("dayu_serve_snapshot_tasks"),
		pushAccepted:    reg.Counter(obs.Name("dayu_serve_push_total", "result", "accepted")),
		pushDuplicates:  reg.Counter(obs.Name("dayu_serve_push_total", "result", "duplicate")),
		pushRejected:    reg.Counter(obs.Name("dayu_serve_push_total", "result", "rejected")),
		pushErrors:      reg.Counter(obs.Name("dayu_serve_push_total", "result", "error")),
		foldErrors:      reg.Counter("dayu_serve_fold_errors_total"),
		partialFolds:    reg.Counter(obs.Name("dayu_serve_partial_total", "op", "fold")),
		partialRetracts: reg.Counter(obs.Name("dayu_serve_partial_total", "op", "retract")),
		partialGauge:    reg.Gauge("dayu_serve_partial_tasks"),
		deltaFolds:      reg.Counter(obs.Name("dayu_serve_delta_total", "op", "fold")),
		deltaResyncs:    reg.Counter(obs.Name("dayu_serve_delta_total", "op", "resync")),
		deltaDrops:      reg.Counter(obs.Name("dayu_serve_delta_total", "op", "drop")),
		walAppendNS:     reg.Histogram("dayu_serve_wal_append_ns", obs.LatencyBuckets()),
		walPending:      reg.Gauge("dayu_serve_wal_pending_records"),
		walSegments:     reg.Gauge("dayu_serve_wal_segments"),
		queueDepth:      reg.Gauge("dayu_serve_ingest_queue_depth"),

		timeAgg: analyzer.NewTimeAggCache(0),

		stop: make(chan struct{}),
		done: make(chan struct{}),
	}
	s.events.metrics = newEventMetrics(reg)

	mux := http.NewServeMux()
	mux.HandleFunc("/healthz", s.instrument("/healthz", s.handleHealthz))
	mux.HandleFunc("/v1/tasks", s.instrument("/v1/tasks", s.handleTasks))
	mux.HandleFunc("/v1/ftg", s.instrument("/v1/ftg", s.graphHandler("ftg", false)))
	mux.HandleFunc("/v1/sdg", s.instrument("/v1/sdg", s.graphHandler("sdg", false)))
	mux.HandleFunc("/v1/diagnose", s.instrument("/v1/diagnose", s.diagnoseHandler(false)))
	mux.HandleFunc("/v1/live/ftg", s.instrument("/v1/live/ftg", s.graphHandler("ftg", true)))
	mux.HandleFunc("/v1/live/sdg", s.instrument("/v1/live/sdg", s.graphHandler("sdg", true)))
	mux.HandleFunc("/v1/live/diagnostics", s.instrument("/v1/live/diagnostics", s.diagnoseHandler(true)))
	mux.HandleFunc("/v1/live/events", s.instrument("/v1/live/events", s.handleLiveEvents))
	mux.HandleFunc("/v1/plan", s.instrument("/v1/plan", s.handlePlan))
	mux.HandleFunc("/v1/ingest", s.instrumentMethods("/v1/ingest", []string{http.MethodPost}, s.maxBodyBytes(), s.handleIngest))
	mux.HandleFunc("/v1/ingest/manifest", s.instrumentMethods("/v1/ingest/manifest", []string{http.MethodPost}, s.maxBodyBytes(), s.handleIngestManifest))
	mux.HandleFunc("/v1/history", s.instrument("/v1/history", s.handleHistoryList))
	mux.HandleFunc("/v1/history/", s.instrument("/v1/history/", s.handleHistoryEntry))
	mux.Handle("/metrics", limitBody(obs.Handler(reg), readOnlyBodyLimit))
	s.mux = mux

	if cfg.HistoryDir != "" {
		h, err := history.Open(cfg.HistoryDir, history.Options{Retain: cfg.HistoryRetain})
		if err != nil {
			return nil, fmt.Errorf("serve: open history: %w", err)
		}
		s.hist = h
	}
	if cfg.WALDir != "" {
		if err := s.openWAL(); err != nil {
			return nil, err
		}
	}
	s.Ingest() // initial scan; errors surface via healthz/requests
	for _, sh := range s.shards {
		go s.folder(sh)
	}
	return s, nil
}

// openWAL opens one write-ahead log per shard under WALDir/shard-<k>/
// — at any shard count, one included — and synchronously folds every
// record recovered from them into the trace directory, so the first
// snapshot already reflects everything ever acknowledged. Namespaces
// no current shard owns (a previous run at a higher shard count, or
// the flat WALDir root every pre-sharding deployment wrote) are
// replayed and retired the same way: acknowledged data survives any
// -shards change. Records that fail to fold transiently stay pending
// in their WAL and fail construction (a durability guarantee the
// server cannot meet must not be silently weakened).
func (s *Server) openWAL() error {
	if err := os.MkdirAll(s.partialsDir(), 0o755); err != nil {
		return fmt.Errorf("serve: create partials dir: %w", err)
	}
	// Restore retained checkpoints before WAL replay so replayed
	// checkpoint records apply newest-wins against them.
	if err := s.loadPartials(); err != nil {
		return err
	}
	queue := s.cfg.IngestQueue
	if queue <= 0 {
		queue = 64
	}
	s.acked = make(map[string]ackedRecord)
	s.pending = make(map[string]chan struct{})
	for k := 0; k < s.cfg.Shards; k++ {
		wal, err := s.replayWAL(filepath.Join(s.cfg.WALDir, shardName(k)))
		if err != nil {
			s.closeWALs()
			return err
		}
		reg := s.cfg.Registry
		label := fmt.Sprintf("%d", k)
		sh := &shardIngest{
			idx:      k,
			wal:      wal,
			sem:      make(chan struct{}, queue),
			foldQ:    make(chan foldJob, queue),
			foldDone: make(chan struct{}),

			queueDepth:  reg.Gauge(obs.Name("dayu_serve_shard_queue_depth", "shard", label)),
			walPending:  reg.Gauge(obs.Name("dayu_serve_shard_wal_pending_records", "shard", label)),
			walSegments: reg.Gauge(obs.Name("dayu_serve_shard_wal_segments", "shard", label)),
			foldNS:      reg.Histogram(obs.Name("dayu_serve_shard_fold_ns", "shard", label), obs.LatencyBuckets()),
			appendNS:    reg.Histogram(obs.Name("dayu_serve_shard_wal_append_ns", "shard", label), obs.LatencyBuckets()),
		}
		s.shards = append(s.shards, sh)
	}
	if err := s.replayOrphanWALs(); err != nil {
		s.closeWALs()
		return err
	}
	s.updateWALGauges()
	return nil
}

// shardName is shard k's WAL namespace directory under WALDir.
func shardName(k int) string { return fmt.Sprintf("shard-%d", k) }

// closeWALs closes every WAL opened so far (construction error path).
func (s *Server) closeWALs() {
	for _, sh := range s.shards {
		sh.wal.Close()
	}
	s.shards = nil
}

// replayWAL opens the WAL namespace under dir and folds the
// acknowledged-but-unfolded records it hands back. A record left
// pending — a transient fold error, or a failed quarantine write —
// fails construction: acknowledged data must not be dropped silently.
func (s *Server) replayWAL(dir string) (*WAL, error) {
	wal, pending, err := OpenWAL(dir, s.cfg.WAL)
	if err != nil {
		return nil, fmt.Errorf("serve: open wal %s: %w", dir, err)
	}
	for _, rec := range pending {
		// A record that no longer decodes is quarantined by the fold;
		// a re-push of it would be refused before dedup is consulted.
		if tt, meta, err := trace.DecodeBytesMeta(rec.Data, trace.DecodeOptions{ZeroCopy: true}); err == nil {
			s.acked[trace.HashBytes(rec.Data)] = newAckedRecord(tt.Task, meta)
		}
		if err := s.foldRecord(wal, rec.Seq, rec.Data); err != nil {
			wal.Close()
			return nil, fmt.Errorf("serve: replay wal %s: %w", dir, err)
		}
	}
	return wal, nil
}

// replayOrphanWALs drains the WAL namespaces no current shard owns:
// the flat WALDir root (the pre-sharding layout, still on disk in
// existing deployments) and shard-<k> subdirectories outside the
// current shard set. Every pending record folds (it is acknowledged
// data), the namespace compacts to empty and is retired.
func (s *Server) replayOrphanWALs() error {
	orphans := []string{s.cfg.WALDir}
	entries, err := os.ReadDir(s.cfg.WALDir)
	if err != nil {
		return fmt.Errorf("serve: scan wal dir: %w", err)
	}
	for _, e := range entries {
		var k int
		if _, err := fmt.Sscanf(e.Name(), "shard-%d", &k); err != nil || shardName(k) != e.Name() {
			continue
		}
		if e.IsDir() && k >= len(s.shards) {
			orphans = append(orphans, filepath.Join(s.cfg.WALDir, e.Name()))
		}
	}
	for _, dir := range orphans {
		wal, err := s.replayWAL(dir)
		if err != nil {
			return err
		}
		wal.Close()
		// Fully drained: retire the namespace. Removal is best-effort —
		// a leftover empty namespace replays as empty next time.
		os.Remove(filepath.Join(dir, walCheckpointFile))
		if dir != s.cfg.WALDir {
			os.Remove(dir)
		}
	}
	return nil
}

// MaxShards bounds Config.Shards: the CLI flag should not be able to
// spawn an absurd number of goroutines and WAL namespaces.
const MaxShards = 64

func clampShards(n int) int {
	return max(1, min(n, MaxShards))
}

// route maps a key to one of n shards: FNV-1a(key) % n. The assignment
// depends only on the key bytes and the count, never on scheduling, so
// a restart with the same count routes identically.
func route(key string, n int) int {
	const (
		offset32 = 2166136261
		prime32  = 16777619
	)
	h := uint32(offset32)
	for i := 0; i < len(key); i++ {
		h ^= uint32(key[i])
		h *= prime32
	}
	return int(h % uint32(n))
}

// walFor routes a task's records to its owning shard. Routing is by
// task name, so one task's checkpoints and final always fold
// sequentially in one shard's folder goroutine.
func (s *Server) walFor(task string) *shardIngest {
	return s.shards[route(task, len(s.shards))]
}

// pushEnabled reports whether the durable push-ingest path is up.
func (s *Server) pushEnabled() bool { return len(s.shards) > 0 }

// walStats sums every shard's WAL stats.
func (s *Server) walStats() WALStats {
	var total WALStats
	for _, sh := range s.shards {
		st := sh.wal.Stats()
		total.Segments += st.Segments
		total.Pending += st.Pending
		total.NextSeq += st.NextSeq
		total.Folded += st.Folded
		total.ActiveBytes += st.ActiveBytes
	}
	return total
}

// maxBodyBytes is the /v1/ingest request body cap.
func (s *Server) maxBodyBytes() int64 {
	if s.cfg.MaxBodyBytes > 0 {
		return s.cfg.MaxBodyBytes
	}
	return 32 << 20
}

// Start launches the background watcher when cfg.Poll > 0. Close stops
// it. Start must be called at most once.
//
// Repeated scan errors back off exponentially (doubling from Poll up
// to MaxPollBackoff, with ±20% jitter) instead of hammering a broken
// directory at full poll frequency; one successful scan resets the
// cadence. The current backoff state is surfaced by /healthz.
func (s *Server) Start() {
	if s.cfg.Poll <= 0 {
		return
	}
	s.watching = true
	go func() {
		defer close(s.done)
		delay := s.cfg.Poll
		timer := time.NewTimer(delay)
		defer timer.Stop()
		var failures int64
		for {
			select {
			case <-s.stop:
				return
			case <-timer.C:
				if _, err := s.Ingest(); err != nil {
					failures++
					delay = s.pollBackoff(failures)
				} else {
					failures = 0
					delay = s.cfg.Poll
				}
				s.pollFailures.Store(failures)
				if failures > 0 {
					s.pollBackoffNS.Store(int64(delay))
				} else {
					s.pollBackoffNS.Store(0)
				}
				timer.Reset(delay)
			}
		}
	}()
}

// pollBackoff returns the rescan delay after the given number of
// consecutive failures: Poll doubled per failure, capped at
// MaxPollBackoff, jittered ±20% so recovering pollers do not stampede.
func (s *Server) pollBackoff(failures int64) time.Duration {
	maxDelay := s.cfg.MaxPollBackoff
	if maxDelay <= 0 {
		maxDelay = time.Minute
	}
	if maxDelay < s.cfg.Poll {
		maxDelay = s.cfg.Poll
	}
	delay := s.cfg.Poll
	for i := int64(1); i < failures && delay < maxDelay; i++ {
		delay *= 2
	}
	if delay > maxDelay {
		delay = maxDelay
	}
	jitter := time.Duration((rand.Float64()*0.4 - 0.2) * float64(delay))
	if delay += jitter; delay < time.Millisecond {
		delay = time.Millisecond
	}
	return delay
}

// Close stops the background watcher (a no-op when none is running),
// then drains the push-ingest path: in-flight /v1/ingest requests
// finish, every acknowledged record folds into the trace directory,
// and the write-ahead log is flushed and closed. Close is idempotent.
func (s *Server) Close() {
	select {
	case <-s.stop:
	default:
		close(s.stop)
	}
	if s.watching {
		<-s.done
	}
	if s.pushEnabled() {
		s.closePush.Do(func() {
			s.pushMu.Lock()
			s.pushClosed = true
			s.pushMu.Unlock()
			s.pushWG.Wait()
			for _, sh := range s.shards {
				close(sh.foldQ)
			}
			for _, sh := range s.shards {
				<-sh.foldDone
				sh.wal.Close()
			}
		})
	}
}

// Ingest synchronously rescans the directory (blocking on the writer
// lock) and returns the resulting snapshot or the scan error.
func (s *Server) Ingest() (*snapshot, error) {
	s.ingestMu.Lock()
	defer s.ingestMu.Unlock()
	snap, err := s.refresh()
	if err != nil {
		s.lastErr.Store(&ingestError{err: err, when: time.Now()})
		return s.snap.Load(), err
	}
	s.lastErr.Store(nil)
	return snap, nil
}

// current returns the freshest snapshot a request should serve: it
// opportunistically refreshes (TryLock — if an ingest is already
// running the request serves the published snapshot instead of
// queueing behind the writer).
func (s *Server) current() (*snapshot, error) {
	if s.ingestMu.TryLock() {
		snap, err := s.refresh()
		if err != nil {
			s.lastErr.Store(&ingestError{err: err, when: time.Now()})
		} else {
			s.lastErr.Store(nil)
		}
		s.ingestMu.Unlock()
		if err == nil {
			return snap, nil
		}
		if fallback := s.snap.Load(); fallback != nil {
			return fallback, nil // stale but consistent
		}
		return nil, err
	}
	if snap := s.snap.Load(); snap != nil {
		return snap, nil
	}
	// No snapshot published yet and the writer is busy: report rather
	// than block the request path.
	return nil, fmt.Errorf("serve: first ingest still in progress")
}

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.mux.ServeHTTP(w, r)
}

// readOnlyBodyLimit caps request bodies on endpoints that never read
// one: hygiene against a client streaming an unbounded body at a GET.
const readOnlyBodyLimit = 1 << 20

// instrument wraps a read-only handler with the request metrics, a
// GET/HEAD method gate and a body cap.
func (s *Server) instrument(path string, h http.HandlerFunc) http.HandlerFunc {
	return s.instrumentMethods(path, []string{http.MethodGet, http.MethodHead}, readOnlyBodyLimit, h)
}

// instrumentMethods wraps a handler with the request metrics,
// rejecting methods outside allowed with 405 (carrying an Allow
// header) and capping the request body at bodyLimit bytes.
func (s *Server) instrumentMethods(path string, allowed []string, bodyLimit int64, h http.HandlerFunc) http.HandlerFunc {
	allow := strings.Join(allowed, ", ")
	return func(w http.ResponseWriter, r *http.Request) {
		ok := false
		for _, m := range allowed {
			if r.Method == m {
				ok = true
				break
			}
		}
		if !ok {
			w.Header().Set("Allow", allow)
			http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
			return
		}
		r.Body = http.MaxBytesReader(w, r.Body, bodyLimit)
		s.inflight.Add(1)
		defer s.inflight.Add(-1)
		start := time.Now()
		s.requests(path).Inc()
		h(w, r)
		s.requestNS(path).Observe(time.Since(start).Nanoseconds())
	}
}

// limitBody caps the request body of a wrapped handler.
func limitBody(h http.Handler, limit int64) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		r.Body = http.MaxBytesReader(w, r.Body, limit)
		h.ServeHTTP(w, r)
	})
}

// renderCache is a lazily filled set of response bodies, single-flight
// per key: concurrent requests for one key compute it once, requests
// for different keys never wait for each other (a dashboard's graph
// read must not queue behind the SSE goroutine's diagnose render of the
// same snapshot). The zero value is ready.
type renderCache struct {
	mu      sync.Mutex // guards entries, never held across a compute
	entries map[string]*renderEntry
}

type renderEntry struct {
	once sync.Once
	body []byte
	err  error
}

// renderFunc computes one response body; a renderCache runs it at most
// once per key.
type renderFunc = func() ([]byte, error)

var errRenderAborted = errors.New("serve: render aborted")

// get returns the body cached under key, computing it on first use. hit
// reports that this call did not start the compute. A failed compute is
// not cached: the callers that waited for it share its error, later
// ones retry.
func (c *renderCache) get(key string, compute renderFunc) (body []byte, hit bool, err error) {
	c.mu.Lock()
	e, hit := c.entries[key]
	if !hit {
		if c.entries == nil {
			c.entries = map[string]*renderEntry{}
		}
		e = &renderEntry{}
		c.entries[key] = e
	}
	c.mu.Unlock()
	defer func() {
		if e.err != nil {
			c.mu.Lock()
			if c.entries[key] == e {
				delete(c.entries, key)
			}
			c.mu.Unlock()
		}
	}()
	e.once.Do(func() {
		e.err = errRenderAborted // what stays, for the waiters, if compute panics
		e.body, e.err = compute()
	})
	return e.body, hit, e.err
}

// render answers from one of a snapshot's render caches, counting the
// response cache hit or miss.
func (s *Server) render(cache *renderCache, key string, compute renderFunc) ([]byte, error) {
	body, hit, err := cache.get(key, compute)
	if hit {
		s.responseHits.Inc()
	} else {
		s.responseMisses.Inc()
	}
	return body, err
}

// serveRendered is the one shape every cached read endpoint has: load
// the freshest snapshot (503 when there is none), let the endpoint name
// its render cache, key and body for that snapshot, and answer from
// the cache with the snapshot headers — plus the stream-progress
// headers on live endpoints.
func (s *Server) serveRendered(w http.ResponseWriter, contentType string, live bool, endpoint func(*snapshot) (*renderCache, string, renderFunc)) {
	snap, err := s.current()
	if err != nil {
		http.Error(w, err.Error(), http.StatusServiceUnavailable)
		return
	}
	cache, key, compute := endpoint(snap)
	body, err := s.render(cache, key, compute)
	if err != nil {
		code := http.StatusInternalServerError
		if errors.Is(err, analyzer.ErrNonPositiveWindow) {
			code = http.StatusBadRequest
		}
		http.Error(w, err.Error(), code)
		return
	}
	w.Header().Set("Content-Type", contentType)
	w.Header().Set("X-Dayu-Snapshot", snap.id)
	if live {
		w.Header().Set("X-Dayu-Partial-Tasks", strconv.Itoa(snap.partialTasks))
		w.Header().Set("X-Dayu-Complete-Tasks", strconv.Itoa(len(snap.traces)))
	}
	_, _ = w.Write(body)
}

// graphContentTypes is the ?format= table of the graph endpoints.
var graphContentTypes = map[string]string{
	"json": "application/json",
	"dot":  "text/vnd.graphviz; charset=utf-8",
	"html": "text/html; charset=utf-8",
	"svg":  "image/svg+xml",
}

// graphHandler serves /v1/{ftg,sdg} and, with live set, /v1/live/
// {ftg,sdg} — the batch graph overlaid with checkpoint traces for tasks
// still in flight — in json (default), dot, html or svg form. On the
// live endpoints ?window=<duration> additionally aggregates task nodes
// along the time dimension (AggregateByTime) before rendering.
func (s *Server) graphHandler(which string, live bool) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		format := r.URL.Query().Get("format")
		if format == "" {
			format = "json"
		}
		contentType, ok := graphContentTypes[format]
		if !ok {
			http.Error(w, fmt.Sprintf("unknown format %q (json, dot, html, svg)", format), http.StatusBadRequest)
			return
		}
		var windowNS int64
		if live {
			if windowNS, ok = durationParam(w, r, "window"); !ok {
				return
			}
		}
		s.serveRendered(w, contentType, live, func(snap *snapshot) (*renderCache, string, renderFunc) {
			g := snap.ftg
			switch {
			case which == "sdg" && live:
				g = snap.liveSDG
			case which == "sdg":
				g = snap.sdg
			case live:
				g = snap.liveFTG
			}
			// With no partials the live graph aliases the batch graph,
			// and sharing the batch view's render key makes the responses
			// byte-identical (the equivalence gate at end of stream).
			cache, key := &snap.rendered, which+"."+format
			switch {
			case windowNS > 0:
				cache, key = &snap.liveRendered, fmt.Sprintf("live-%s.w%d.%s", which, windowNS, format)
			case live && snap.partialTasks > 0:
				cache, key = &snap.liveRendered, "live-"+key
			}
			return cache, key, func() ([]byte, error) {
				if windowNS > 0 {
					// The cross-snapshot cache: when only a few tasks
					// folded since the last render of this window, the
					// fingerprint pass proves the windowed projection
					// unchanged and the previous aggregation is reused
					// (byte-identical output is the cache's contract).
					agg, err := s.timeAgg.Aggregate(g, "live-"+which, snap.id, windowNS)
					if err != nil {
						return nil, err
					}
					g = agg
				}
				return renderGraph(g, format)
			}
		})
	}
}

// renderGraph serializes a graph in one of the supported response
// formats; json matches the batch CLI's analyze output encoding.
func renderGraph(g *graph.Graph, format string) ([]byte, error) {
	switch format {
	case "json":
		return json.MarshalIndent(g, "", " ")
	case "dot":
		return []byte(g.DOT()), nil
	case "html":
		return []byte(g.HTML()), nil
	default:
		return []byte(g.SVG()), nil
	}
}

func (s *Server) handlePlan(w http.ResponseWriter, r *http.Request) {
	opts := s.cfg.PlanOptions
	q := r.URL.Query()
	if tier := q.Get("tier"); tier != "" {
		opts.FastTier = tier
	}
	if nodes := q.Get("nodes"); nodes != "" {
		n, err := strconv.Atoi(nodes)
		if err != nil || n < 1 {
			http.Error(w, fmt.Sprintf("bad nodes %q", nodes), http.StatusBadRequest)
			return
		}
		opts.Nodes = n
	}
	s.serveRendered(w, "application/json", false, func(snap *snapshot) (*renderCache, string, renderFunc) {
		return &snap.rendered, fmt.Sprintf("plan:%s:%d", opts.FastTier, opts.Nodes), func() ([]byte, error) {
			plan := optimizer.PlanDataLocality(snap.traces, snap.manifest, opts)
			return json.MarshalIndent(plan, "", "  ")
		}
	})
}

func (s *Server) handleTasks(w http.ResponseWriter, r *http.Request) {
	s.serveRendered(w, "application/json", false, func(snap *snapshot) (*renderCache, string, renderFunc) {
		return &snap.liveRendered, "tasks", func() ([]byte, error) {
			return json.MarshalIndent(struct {
				Snapshot string     `json:"snapshot"`
				Tasks    []TaskInfo `json:"tasks"`
			}{Snapshot: snap.id, Tasks: snap.tasks}, "", "  ")
		}
	})
}

// Health is the /healthz response body.
type Health struct {
	Status          string         `json:"status"`
	Snapshot        string         `json:"snapshot,omitempty"`
	Tasks           int            `json:"tasks"`
	LastIngestError string         `json:"last_ingest_error,omitempty"`
	LastErrorAt     string         `json:"last_error_at,omitempty"`
	WAL             *WALHealth     `json:"wal,omitempty"`
	Poll            *PollHealth    `json:"poll,omitempty"`
	History         *HistoryHealth `json:"history,omitempty"`
}

// WALHealth reports the push-ingest durability state. The top-level
// numbers are sums across shards (NextSeq and FoldedSeq count records
// appended and folded in total); Shards carries the per-shard
// breakdown, one entry at a single shard.
type WALHealth struct {
	// PendingRecords counts acknowledged records not yet folded into
	// trace files (they survive in the WAL).
	PendingRecords uint64 `json:"pending_records"`
	// QueueDepth / QueueCapacity is the admission pool: at capacity,
	// pushes are answered 429 + Retry-After.
	QueueDepth    int    `json:"queue_depth"`
	QueueCapacity int    `json:"queue_capacity"`
	Segments      int    `json:"segments"`
	NextSeq       uint64 `json:"next_seq"`
	FoldedSeq     uint64 `json:"folded_seq"`
	// PartialTasks counts tasks currently represented by a streaming
	// checkpoint rather than a final trace.
	PartialTasks int `json:"partial_tasks"`
	// Quarantined counts acknowledged records that could not be folded
	// and were preserved under WALDir/quarantine for inspection.
	Quarantined int `json:"quarantined"`
	// CheckpointError is the cause when a shard's newest fold-checkpoint
	// write failed (a full or read-only WAL directory); it degrades the
	// overall status until a later checkpoint lands.
	CheckpointError string `json:"checkpoint_error,omitempty"`
	// FoldError is the cause when a shard's folder gave up on a record:
	// it is acknowledged but will not be visible before a restart replays
	// the WAL, so the status stays degraded until then.
	FoldError string `json:"fold_error,omitempty"`
	// Shards is the per-shard breakdown.
	Shards []WALShardHealth `json:"shards"`
}

// WALShardHealth is one shard's slice of the push-ingest state.
type WALShardHealth struct {
	Shard          int    `json:"shard"`
	PendingRecords uint64 `json:"pending_records"`
	QueueDepth     int    `json:"queue_depth"`
	QueueCapacity  int    `json:"queue_capacity"`
	Segments       int    `json:"segments"`
	NextSeq        uint64 `json:"next_seq"`
	FoldedSeq      uint64 `json:"folded_seq"`
	// StuckRecords counts the records the shard's folder gave up on.
	StuckRecords int `json:"stuck_records,omitempty"`
}

// HistoryHealth reports the snapshot-history store state.
type HistoryHealth struct {
	Snapshots   int    `json:"snapshots"`
	LastError   string `json:"last_error,omitempty"`
	LastErrorAt string `json:"last_error_at,omitempty"`
}

// PollHealth reports the background rescan loop's error-backoff state.
type PollHealth struct {
	ConsecutiveFailures int64 `json:"consecutive_failures"`
	BackoffMS           int64 `json:"backoff_ms"`
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	// Health reflects but never triggers ingestion: load whatever is
	// published and report the last ingest error, if any.
	snap := s.snap.Load()
	h := Health{Status: "ok"}
	if snap != nil {
		h.Snapshot = snap.id
		h.Tasks = len(snap.tasks)
	}
	if s.pushEnabled() {
		wh := &WALHealth{
			PartialTasks: s.partials.count(),
			Quarantined:  s.countQuarantined(),
		}
		for _, sh := range s.shards {
			stats := sh.wal.Stats()
			wh.PendingRecords += stats.Pending
			wh.QueueDepth += len(sh.sem)
			wh.QueueCapacity += cap(sh.sem)
			wh.Segments += stats.Segments
			wh.NextSeq += stats.NextSeq
			wh.FoldedSeq += stats.Folded
			var stuck stuckFolds
			if st := sh.stuck.Load(); st != nil {
				stuck = *st
				wh.FoldError = fmt.Sprintf("%s: %d record(s) pending until restart: %v", shardName(sh.idx), stuck.records, stuck.err)
				h.Status = "degraded"
			}
			wh.Shards = append(wh.Shards, WALShardHealth{
				Shard:          sh.idx,
				PendingRecords: stats.Pending,
				QueueDepth:     len(sh.sem),
				QueueCapacity:  cap(sh.sem),
				Segments:       stats.Segments,
				NextSeq:        stats.NextSeq,
				FoldedSeq:      stats.Folded,
				StuckRecords:   stuck.records,
			})
			if stats.CheckpointErr != nil {
				wh.CheckpointError = fmt.Sprintf("%s: %v", shardName(sh.idx), stats.CheckpointErr)
				h.Status = "degraded"
			}
		}
		h.WAL = wh
	}
	if s.hist != nil {
		hh := &HistoryHealth{Snapshots: s.hist.Len()}
		if he := s.histErr.Load(); he != nil {
			hh.LastError = he.err.Error()
			hh.LastErrorAt = he.when.UTC().Format(time.RFC3339Nano)
		}
		h.History = hh
	}
	if s.cfg.Poll > 0 {
		h.Poll = &PollHealth{
			ConsecutiveFailures: s.pollFailures.Load(),
			BackoffMS:           s.pollBackoffNS.Load() / int64(time.Millisecond),
		}
	}
	status := http.StatusOK
	if ie := s.lastErr.Load(); ie != nil {
		h.Status = "degraded"
		h.LastIngestError = ie.err.Error()
		h.LastErrorAt = ie.when.UTC().Format(time.RFC3339Nano)
		if snap == nil {
			status = http.StatusServiceUnavailable
		}
	}
	body, err := json.MarshalIndent(h, "", "  ")
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_, _ = w.Write(body)
}
