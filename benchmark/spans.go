package main

import (
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark around
// the layer's exported functions (spans inside the program are a later
// change, ROADMAP item 5). Times are nanoseconds since the recorder's
// epoch; Parent indexes the span that caused this one, -1 for a root;
// ID is shared by all spans of one record or pass.
type span struct {
	Name   string
	Start  int64
	End    int64
	Parent int
	ID     string
}

// recorder keeps spans in memory until the run ends. A nil *recorder is
// the tracing-off state: every method is a no-op, so measured and
// traced repetitions share one code path.
type recorder struct {
	mu    sync.Mutex
	epoch time.Time
	spans []span
}

func newRecorder() *recorder { return &recorder{epoch: time.Now()} }

// begin opens a span and returns its index for end and for children.
func (r *recorder) begin(name string, parent int, id string) int {
	if r == nil {
		return -1
	}
	now := time.Since(r.epoch).Nanoseconds()
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans = append(r.spans, span{Name: name, Start: now, End: now, Parent: parent, ID: id})
	return len(r.spans) - 1
}

func (r *recorder) end(i int) {
	if r == nil || i < 0 {
		return
	}
	now := time.Since(r.epoch).Nanoseconds()
	r.mu.Lock()
	r.spans[i].End = now
	r.mu.Unlock()
}

// add records an interval measured by the caller.
func (r *recorder) add(name string, parent int, id string, start, end time.Time) int {
	if r == nil {
		return -1
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans = append(r.spans, span{Name: name, Start: start.Sub(r.epoch).Nanoseconds(),
		End: end.Sub(r.epoch).Nanoseconds(), Parent: parent, ID: id})
	return len(r.spans) - 1
}

// durationsMS returns every span's duration by name, in milliseconds.
func (r *recorder) durationsMS() map[string][]float64 {
	out := map[string][]float64{}
	if r == nil {
		return out
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, s := range r.spans {
		out[s.Name] = append(out[s.Name], float64(s.End-s.Start)/1e6)
	}
	return out
}

// selfMS returns every span's self time by name: its duration minus the
// part of that interval its child spans cover (overlapping children are
// counted once).
func (r *recorder) selfMS() map[string][]float64 {
	out := map[string][]float64{}
	if r == nil {
		return out
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	children := make(map[int][]span)
	for _, s := range r.spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	for i, s := range r.spans {
		kids := children[i]
		sort.Slice(kids, func(a, b int) bool { return kids[a].Start < kids[b].Start })
		covered, cursor := int64(0), s.Start
		for _, k := range kids {
			lo, hi := max(k.Start, cursor), min(k.End, s.End)
			if hi > lo {
				covered += hi - lo
				cursor = hi
			}
		}
		out[s.Name] = append(out[s.Name], float64(s.End-s.Start-covered)/1e6)
	}
	return out
}

// writeChromeTrace dumps the spans in the Chrome trace-event format
// (chrome://tracing, Perfetto). Root spans and their descendants share
// a lane per span ID so one record or pass reads as one row.
func (r *recorder) writeChromeTrace(path string) error {
	type event struct {
		Name string            `json:"name"`
		Cat  string            `json:"cat"`
		Ph   string            `json:"ph"`
		TS   float64           `json:"ts"`
		Dur  float64           `json:"dur"`
		PID  int               `json:"pid"`
		TID  int               `json:"tid"`
		Args map[string]string `json:"args,omitempty"`
	}
	r.mu.Lock()
	events := make([]event, 0, len(r.spans))
	lanes := map[string]int{}
	for _, s := range r.spans {
		lane, ok := lanes[s.ID]
		if !ok {
			lane = len(lanes) + 1
			lanes[s.ID] = lane
		}
		args := map[string]string{"id": s.ID}
		if s.Parent >= 0 {
			args["parent"] = r.spans[s.Parent].Name
		}
		events = append(events, event{Name: s.Name, Cat: "dayu", Ph: "X",
			TS: float64(s.Start) / 1e3, Dur: float64(s.End-s.Start) / 1e3, PID: 1, TID: lane, Args: args})
	}
	r.mu.Unlock()
	data, err := json.Marshal(map[string]any{"traceEvents": events, "displayTimeUnit": "ms"})
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
