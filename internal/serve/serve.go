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
//  2. The graphs, kept by two analyzer.GraphIndex instances — one per
//     view — that patch the FTG and SDG per changed task: a changed
//     trace recomputes its own contributions and those of the tasks
//     whose object descriptions it moved, and an index takes the rest
//     from what it holds or from the other index.
//  3. Rendered responses, keyed per view and format: repeat requests
//     against an unchanged directory are pure cache reads.
//
// A snapshot is two views of one type, built by one builder: the batch
// view of the directory alone, built once per directory state and
// shared by pointer, and the live view of the directory plus the
// retained streaming checkpoints — the batch view itself when none is
// retained. A folded checkpoint costs the live view, not the state.
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
	"slices"
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
	// SDGOptions controls /v1/sdg construction: only PageSize and the
	// region flags (IncludeRegions, IncludeFileMetadata) matter.
	SDGOptions analyzer.Options
	// PlanOptions are the defaults for /v1/plan; tier and nodes can be
	// overridden per request with ?tier= and ?nodes=.
	PlanOptions optimizer.LocalityOptions
	// Poll is the interval of the background rescan, which lists the
	// whole directory as startup and every request do; 0 disables it.
	// The refresh after a burst of pushes lists nothing: it revises the
	// paths its folds wrote, so a file another writer puts in Dir is seen
	// by the next request or poll tick.
	Poll time.Duration

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

	// HistoryDir enables the persistent snapshot-history store: every
	// converged snapshot's manifest and rendered /v1/{ftg,sdg} bodies
	// are recorded there (content-addressed, compacted by retention)
	// and served back via /v1/history. Empty disables history.
	HistoryDir string
	// HistoryRetain caps retained history snapshots (default 64).
	HistoryRetain int

	// Test seams, unset outside this package's tests. foldHook runs in
	// the folder goroutine before each record folds (used to hold the
	// queue full); persistHook runs in it after a burst's snapshot is
	// published and before the burst persists (used to hold the crash
	// window open); retryAfter replaces the 1s backpressure hint sent
	// with 429 responses; sseHeartbeat replaces the 15s /v1/live/events
	// keep-alive comment interval.
	foldHook     func(foldJob)
	persistHook  func()
	retryAfter   time.Duration
	sseHeartbeat time.Duration
}

// view is one trace set and everything derived from it: the traces in
// trace.LoadDir order and in analyzer.OrderTasks order, the two graphs
// of that order, and a render cache for the bodies that depend on
// nothing else. Both halves of a snapshot are built from a TaskSet's
// orders and a graph index's Apply (ingest.go). A view is immutable
// once built, its render cache aside: the graph indexes never change a
// graph they returned, and the TaskSets never write an order they
// handed out.
type view struct {
	traces   []*trace.TaskTrace // trace.LoadDir order
	ordered  []*trace.TaskTrace // analyzer.OrderTasks order
	manifest *trace.Manifest
	ftg      *graph.Graph
	sdg      *graph.Graph
	rendered renderCache

	// The directory listing, set on the batch view only: the /v1/tasks
	// rows, the task names and content hashes of the trace files, and
	// the marshalled SHA-256 state after the batch part of the snapshot
	// id's preimage (the manifest hash and every trace file's name and
	// content hash), which snapshotID resumes.
	tasks   []TaskInfo
	taskSet map[string]bool
	hashes  []string // sorted
	idState []byte
}

// snapshot is an immutable view of one served state: two views, both
// fully built at publish time, with response bodies cached lazily in
// the view they depend on.
type snapshot struct {
	id string
	// batch is the view of the final traces on disk, shared by pointer
	// with every snapshot published until the directory changes, so a
	// folded checkpoint neither rebuilds its graphs nor re-renders its
	// bodies. live is the view of the same set plus the retained
	// checkpoints of tasks still in flight; with none retained it IS the
	// batch view, so live and batch responses share rendered bytes.
	batch, live   *view
	partialTasks  int
	partialHashes map[string]bool // content hashes of the retained checkpoints
	// findings is the diagnose index's view of the live trace set as of
	// this snapshot: references to the index's cached groups, encoded on
	// demand through the render caches (see diagnoseRender).
	findings *diagnose.View
}

// pick is the view a /v1/live/* endpoint (live) or its batch twin reads.
func (snap *snapshot) pick(live bool) *view {
	if live {
		return snap.live
	}
	return snap.batch
}

// hasHash reports whether content with this hash is already part of the
// snapshot, as a trace file or as a retained checkpoint.
func (snap *snapshot) hasHash(hash string) bool {
	_, found := slices.BinarySearch(snap.batch.hashes, hash)
	return found || snap.partialHashes[hash]
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
	// set by buildSnapshot, and batchGraphs and liveGraphs the graph
	// indexes of the batch and the live view, each taking contributions
	// from the other. The live index is first synced when a checkpoint
	// is first retained, and from then on at every snapshot. Like the
	// build cache they belong to whoever holds ingestMu; what they hand
	// out is immutable.
	diag                    *diagnose.Index
	batchGraphs, liveGraphs *analyzer.GraphIndex
	// batchSet and liveSet are the two views' trace sets in both orders,
	// edited by each snapshot's changes; livePartials are the checkpoints
	// the live set holds, by task; idLines are the batch view's id lines
	// in path order, and idBuf the scratch they are hashed from.
	batchSet, liveSet analyzer.TaskSet
	livePartials      map[string]*partialEntry
	idLines           []idLine
	idBuf             []byte
	// batchStale is set when a scan saw the directory change and cleared
	// once a snapshot of that state is built: a refresh that failed
	// part-way still rebuilds the batch view on the next attempt.
	batchStale bool
	// listFailed and manifestStale are what the last refresh left
	// unchecked: its listing failed, or the manifest was not revised (a
	// trace file's revise or the manifest's failed first). The folder's
	// refresh checks them again — the whole directory, the manifest — so
	// it never clears an error it did not re-check.
	listFailed, manifestStale bool

	// hist is the persistent snapshot-history store (nil unless
	// cfg.HistoryDir is set).
	hist *history.Store

	snap    atomic.Pointer[snapshot]
	lastErr atomic.Pointer[ingestError]
	histErr atomic.Pointer[ingestError]

	// push is the durable push-ingest pipeline (nil unless cfg.WALDir
	// is set).
	push *pushState

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
	dirScans        *obs.Counter
	traceParses     *obs.Counter
	snapshotHits    *obs.Counter
	snapshotMisses  *obs.Counter
	contribHits     *obs.Counter
	contribMisses   *obs.Counter
	diagSyncNS      *obs.Histogram
	graphSyncNS     *obs.Histogram
	diagReused      *obs.Counter
	diagRecomputed  *obs.Counter
	snapshotSorted  *obs.Counter
	scopesWalked    *obs.Counter
	repositioned    *obs.Counter
	idBytesHashed   *obs.Counter
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
	foldNS          *obs.Histogram
	persistNS       *obs.Histogram

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
	s := &Server{
		cfg:      cfg,
		cache:    newBuildCache(),
		diag:     diagnose.NewIndex(diagnose.Thresholds{}),
		partials: newPartialSet(),

		requests: func(path string) *obs.Counter {
			return reg.Counter(obs.Name("dayu_serve_requests_total", "path", path))
		},
		requestNS: func(path string) *obs.Histogram {
			return reg.Histogram(obs.Name("dayu_serve_request_ns", "path", path), obs.LatencyBuckets())
		},
		inflight:       reg.Gauge("dayu_serve_inflight_requests"),
		ingests:        reg.Counter("dayu_serve_ingests_total"),
		ingestNS:       reg.Histogram("dayu_serve_ingest_ns", obs.LatencyBuckets()),
		ingestErrors:   reg.Counter("dayu_serve_ingest_errors_total"),
		dirScans:       reg.Counter("dayu_serve_dir_scans_total"),
		traceParses:    reg.Counter("dayu_serve_trace_parses_total"),
		snapshotHits:   reg.Counter(obs.Name("dayu_serve_cache_hits_total", "cache", "snapshot")),
		snapshotMisses: reg.Counter(obs.Name("dayu_serve_cache_misses_total", "cache", "snapshot")),
		contribHits:    reg.Counter(obs.Name("dayu_serve_cache_hits_total", "cache", "contribution")),
		contribMisses:  reg.Counter(obs.Name("dayu_serve_cache_misses_total", "cache", "contribution")),
		diagSyncNS:     reg.Histogram("dayu_serve_diagnose_sync_ns", obs.LatencyBuckets()),
		graphSyncNS:    reg.Histogram("dayu_serve_graph_sync_ns", obs.LatencyBuckets()),
		diagReused:     reg.Counter(obs.Name("dayu_serve_diagnose_scopes_total", "result", "reused")),
		diagRecomputed: reg.Counter(obs.Name("dayu_serve_diagnose_scopes_total", "result", "recomputed")),
		// What building snapshots costs, counted: the work that grows with
		// the state rather than the change (TestSnapshotCostIsChangeProportional).
		snapshotSorted:  reg.Counter("dayu_serve_snapshot_tasks_sorted_total"),
		scopesWalked:    reg.Counter("dayu_serve_diagnose_scopes_walked_total"),
		repositioned:    reg.Counter("dayu_serve_index_tasks_repositioned_total"),
		idBytesHashed:   reg.Counter("dayu_serve_snapshot_id_bytes_hashed_total"),
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
		// The one fold histogram keeps the name and label it had when
		// there was one per shard: benchmark/stream.go reads it by that
		// name for serve.fold_us. It times a record's apply (retries
		// included); what the folder writes after publishing — the
		// burst's checkpoint files and fold point — is persistNS, one
		// observation per burst.
		foldNS:    reg.Histogram(obs.Name("dayu_serve_shard_fold_ns", "shard", "0"), obs.LatencyBuckets()),
		persistNS: reg.Histogram("dayu_serve_persist_ns", obs.LatencyBuckets()),

		stop: make(chan struct{}),
		done: make(chan struct{}),
	}
	s.batchGraphs = analyzer.NewGraphIndex(cfg.SDGOptions, nil)
	s.liveGraphs = analyzer.NewGraphIndex(cfg.SDGOptions, s.batchGraphs)
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
	if s.push != nil {
		go s.folder()
	}
	return s, nil
}

// openWAL opens the write-ahead log under WALDir/liveWALNamespace and
// synchronously folds every record recovered from it into the trace
// directory, so the first snapshot already reflects everything ever
// acknowledged. The namespaces older servers wrote beside it are
// replayed and retired the same way (replayLegacyWALs). Records that
// fail to fold transiently stay pending in their WAL and fail
// construction (a durability guarantee the server cannot meet must not
// be silently weakened).
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
	s.push = newPushState(queue)
	wal, err := s.replayWAL(filepath.Join(s.cfg.WALDir, liveWALNamespace))
	if err != nil {
		return err
	}
	if err := s.replayLegacyWALs(); err != nil {
		wal.Close()
		return err
	}
	s.push.wal = wal
	s.updateWALGauges()
	return nil
}

// liveWALNamespace is the directory under WALDir the WAL lives in. The
// name is history, not a count: servers that could run several ingest
// pipelines numbered their namespaces shard-0, shard-1, …, and every
// deployment's live log was already shard-0, so it stays there.
const liveWALNamespace = "shard-0"

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
			s.push.acked[trace.HashBytes(rec.Data)] = newAckedRecord(tt.Task, meta)
		}
		// Applied and persisted at once; the initial scan lists what
		// replay lands.
		_, applied, err := s.applyRecord(wal, rec.Seq, rec.Data)
		if err == nil {
			_, err = s.persistRecords(wal, []appliedRecord{applied})
		}
		if err != nil {
			wal.Close()
			return nil, fmt.Errorf("serve: replay wal %s: %w", dir, err)
		}
	}
	return wal, nil
}

// replayLegacyWALs drains the WAL namespaces older servers left beside
// the live one: the flat WALDir root (the layout before namespaces,
// still what an old deployment or a tool writing through OpenWAL(WALDir)
// has on disk) and shard-<k> for every k ≥ 1 (a server that ran with
// several ingest pipelines). Every pending record folds (it is
// acknowledged data), the namespace compacts to empty and is retired.
func (s *Server) replayLegacyWALs() error {
	legacy := []string{s.cfg.WALDir}
	entries, err := os.ReadDir(s.cfg.WALDir)
	if err != nil {
		return fmt.Errorf("serve: scan wal dir: %w", err)
	}
	for _, e := range entries {
		var k int
		if _, err := fmt.Sscanf(e.Name(), "shard-%d", &k); err != nil || fmt.Sprintf("shard-%d", k) != e.Name() {
			continue
		}
		if e.IsDir() && k >= 1 {
			legacy = append(legacy, filepath.Join(s.cfg.WALDir, e.Name()))
		}
	}
	for _, dir := range legacy {
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
// to maxPollBackoff, with ±20% jitter) instead of hammering a broken
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

// maxPollBackoff caps the poll loop's error backoff.
const maxPollBackoff = time.Minute

// pollBackoff returns the rescan delay after the given number of
// consecutive failures: Poll doubled per failure, capped at
// maxPollBackoff (or Poll, if longer), jittered ±20% so recovering
// pollers do not stampede.
func (s *Server) pollBackoff(failures int64) time.Duration {
	maxDelay := maxPollBackoff
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
	if s.push != nil {
		s.push.close()
	}
}

// Ingest synchronously rescans the directory (blocking on the writer
// lock) and returns the resulting snapshot or the scan error.
func (s *Server) Ingest() (*snapshot, error) {
	return s.ingest(true, nil)
}

// ingest is Ingest over either listing (see refresh): the folder's
// refresh passes the paths its folds landed or removed.
func (s *Server) ingest(full bool, landed []string) (*snapshot, error) {
	s.ingestMu.Lock()
	defer s.ingestMu.Unlock()
	snap, err := s.refresh(full, landed)
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
		snap, err := s.refresh(true, nil)
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
//
// A key made by paramKey names one value of a request parameter, which a
// client may sweep: the cache keeps one such body per slot, the latest
// asked for, so its size is bounded by the endpoints, not by the values.
type renderCache struct {
	mu      sync.Mutex // guards entries, never held across a compute
	entries map[string]*renderEntry
}

// paramKey is the render key of one value of a parameterized body. The
// slot must not contain '@'; the value may.
func paramKey(slot, value string) string {
	return slot + "@" + value
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
		if slot, _, ok := strings.Cut(key, "@"); ok {
			// Evict the slot's previous value; entries stays small.
			for k := range c.entries {
				if strings.HasPrefix(k, slot+"@") {
					delete(c.entries, k)
				}
			}
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
		w.Header().Set("X-Dayu-Complete-Tasks", strconv.Itoa(len(snap.batch.traces)))
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

// graphHandler serves /v1/{ftg,sdg} from the batch view and, with live
// set, /v1/live/{ftg,sdg} from the live view — the finals plus the
// checkpoint traces of tasks still in flight — in json (default), dot,
// html or svg form. On the live endpoints ?window=<duration>
// additionally aggregates task nodes along the time dimension
// (AggregateByTime) before rendering.
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
			v := snap.pick(live)
			g, key := v.ftg, which+"."+format
			if which == "sdg" {
				g = v.sdg
			}
			if windowNS > 0 {
				key = paramKey(key+".window", strconv.FormatInt(windowNS, 10))
			}
			return &v.rendered, key, func() ([]byte, error) {
				if windowNS > 0 {
					agg, err := analyzer.AggregateByTime(g, windowNS)
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
		return g.IndentedJSON()
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
		return &snap.batch.rendered, paramKey("plan", opts.FastTier+":"+strconv.Itoa(opts.Nodes)), func() ([]byte, error) {
			plan := optimizer.PlanDataLocality(snap.batch.traces, snap.batch.manifest, opts)
			return json.MarshalIndent(plan, "", "  ")
		}
	})
}

// handleTasks lists the final traces. The body names the snapshot, so
// it is cached in the live view: the snapshot's own while a checkpoint
// is retained, and otherwise the batch view, of which the id is then a
// function.
func (s *Server) handleTasks(w http.ResponseWriter, r *http.Request) {
	s.serveRendered(w, "application/json", false, func(snap *snapshot) (*renderCache, string, renderFunc) {
		return &snap.live.rendered, "tasks", func() ([]byte, error) {
			return json.MarshalIndent(struct {
				Snapshot string     `json:"snapshot"`
				Tasks    []TaskInfo `json:"tasks"`
			}{Snapshot: snap.id, Tasks: snap.batch.tasks}, "", "  ")
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

// WALHealth reports the push-ingest durability state.
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
	// CheckpointError is the cause when the newest fold-checkpoint write
	// failed (a full or read-only WAL directory); it degrades the overall
	// status until a later checkpoint lands.
	CheckpointError string `json:"checkpoint_error,omitempty"`
	// PersistError is the cause when a retained checkpoint's file failed
	// to land after its snapshot was published: the record is visible
	// but saved only in the WAL, and stays pending while the next bursts
	// retry the landing. It degrades the overall status until a landing
	// succeeds or the folder gives up (FoldError).
	PersistError string `json:"persist_error,omitempty"`
	// FoldError is the cause when the folder gave up on records, with
	// their count: they are acknowledged but will not be visible before a
	// restart replays the WAL, so the status stays degraded until then.
	FoldError string `json:"fold_error,omitempty"`
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
		h.Tasks = len(snap.batch.tasks)
	}
	if p := s.push; p != nil {
		stats := p.wal.Stats()
		wh := &WALHealth{
			PendingRecords: stats.Pending,
			QueueDepth:     len(p.sem),
			QueueCapacity:  cap(p.sem),
			Segments:       stats.Segments,
			NextSeq:        stats.NextSeq,
			FoldedSeq:      stats.Folded,
			PartialTasks:   s.partials.count(),
			Quarantined:    s.countQuarantined(),
		}
		if pe := p.persistErr.Load(); pe != nil {
			wh.PersistError = pe.err.Error()
			h.Status = "degraded"
		}
		if st := p.stuck.Load(); st != nil {
			wh.FoldError = fmt.Sprintf("%d record(s) pending until restart: %v", st.records, st.err)
			h.Status = "degraded"
		}
		if stats.CheckpointErr != nil {
			wh.CheckpointError = stats.CheckpointErr.Error()
			h.Status = "degraded"
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
