// Package obs is DaYu's self-observability layer: a dependency-free,
// concurrent-safe metrics registry (counters, gauges, fixed-bucket
// histograms with percentile estimation) plus lightweight spans that
// bill into the simulation's virtual-time axis. The paper measures
// everyone else's I/O (§IV, §VII-B); this package measures DaYu itself,
// so the reproduction's overhead study and hot paths stay tracked
// across PRs (the benchmark/ per-layer series).
//
// Design constraints:
//
//   - No dependencies on other dayu packages, so every layer (vfd,
//     workflow, workloads, cmd) can emit metrics without import cycles.
//   - Hot-path operations (Counter.Add, Histogram.Observe) are lock-free
//     after metric creation: one atomic add for counters, a binary
//     search over ~2 dozen bounds plus two atomic adds for histograms.
//   - A nil *Registry is inert: instrumentation seams take a registry
//     pointer and simply skip decoration when it is nil, so the
//     disabled path adds no work at all to the I/O hot loops.
//   - Virtual-time spans are deterministic: they are stamped from the
//     simulated clock, not the host clock, so the same workflow run
//     always produces the same span timeline.
package obs

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing metric.
type Counter struct {
	v atomic.Int64
}

// Add increments the counter by n (negative deltas are ignored:
// counters are monotone).
func (c *Counter) Add(n int64) {
	if c == nil || n <= 0 {
		return
	}
	c.v.Add(n)
}

// Inc increments the counter by one.
func (c *Counter) Inc() { c.Add(1) }

// Value returns the current count.
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is a metric that can go up and down.
type Gauge struct {
	v atomic.Int64
}

// Set stores the gauge's value.
func (g *Gauge) Set(n int64) {
	if g == nil {
		return
	}
	g.v.Store(n)
}

// Add moves the gauge by delta (either sign).
func (g *Gauge) Add(delta int64) {
	if g == nil {
		return
	}
	g.v.Add(delta)
}

// Value returns the current value.
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// Registry holds named metrics. Metric names follow the Prometheus
// convention and may embed a label set, e.g.
//
//	dayu_vfd_op_ns{driver="store",op="read",class="data"}
//
// Get-or-create lookups take a short write lock; the returned metric
// handles are cached by instrumentation sites so steady-state updates
// never touch the registry lock.
type Registry struct {
	mu       sync.RWMutex
	counters map[string]*Counter
	gauges   map[string]*Gauge
	hists    map[string]*Histogram
	spans    []SpanRecord
	dropped  int64 // spans discarded once the ring is full
}

// maxSpans bounds the retained span log; beyond it the oldest spans
// are dropped (and counted) so long runs cannot grow without bound.
const maxSpans = 8192

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: map[string]*Counter{},
		gauges:   map[string]*Gauge{},
		hists:    map[string]*Histogram{},
	}
}

// Counter returns the named counter, creating it on first use.
// Returns an unregistered dummy on a nil registry.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	r.mu.RLock()
	c := r.counters[name]
	r.mu.RUnlock()
	if c != nil {
		return c
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if c = r.counters[name]; c == nil {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge returns the named gauge, creating it on first use.
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	r.mu.RLock()
	g := r.gauges[name]
	r.mu.RUnlock()
	if g != nil {
		return g
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if g = r.gauges[name]; g == nil {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Histogram returns the named histogram, creating it with the given
// bucket bounds on first use. Later calls for the same name reuse the
// original bounds regardless of the bounds argument.
func (r *Registry) Histogram(name string, bounds []int64) *Histogram {
	if r == nil {
		return nil
	}
	r.mu.RLock()
	h := r.hists[name]
	r.mu.RUnlock()
	if h != nil {
		return h
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if h = r.hists[name]; h == nil {
		h = newHistogram(bounds)
		r.hists[name] = h
	}
	return h
}

// counterNames returns sorted counter names (for deterministic export).
func (r *Registry) counterNames() []string {
	names := make([]string, 0, len(r.counters))
	for n := range r.counters {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

func (r *Registry) gaugeNames() []string {
	names := make([]string, 0, len(r.gauges))
	for n := range r.gauges {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

func (r *Registry) histNames() []string {
	names := make([]string, 0, len(r.hists))
	for n := range r.hists {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// Name formats a metric name with a label set in canonical (sorted)
// order: Name("x_total", "op", "read", "class", "data") returns
// `x_total{class="data",op="read"}`. Pairs must come key, value.
func Name(base string, kv ...string) string {
	if len(kv) == 0 {
		return base
	}
	if len(kv)%2 != 0 {
		panic("obs: Name needs key/value pairs")
	}
	type pair struct{ k, v string }
	pairs := make([]pair, 0, len(kv)/2)
	for i := 0; i < len(kv); i += 2 {
		pairs = append(pairs, pair{kv[i], kv[i+1]})
	}
	sort.Slice(pairs, func(i, j int) bool { return pairs[i].k < pairs[j].k })
	s := base + "{"
	for i, p := range pairs {
		if i > 0 {
			s += ","
		}
		s += fmt.Sprintf("%s=%q", p.k, p.v)
	}
	return s + "}"
}
