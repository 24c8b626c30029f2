package obs

// Spans are named intervals on the virtual-time axis. The workflow
// engine computes task and stage durations deterministically from the
// device models, so spans are stamped with those virtual nanoseconds
// rather than host time: the same run always yields the same span
// timeline, and span math never perturbs the wall-clock overhead the
// benchmark measures. Each span also feeds a latency histogram named
// dayu_span_ns{span="<name>"} so distributions survive the bounded
// span log.

// SpanRecord is one completed span.
type SpanRecord struct {
	// Name identifies the span kind, e.g. "stage" or "task".
	Name string `json:"name"`
	// StartNS and EndNS are virtual-time nanoseconds from run start.
	StartNS int64 `json:"start_ns"`
	EndNS   int64 `json:"end_ns"`
	// Attrs carries structured context (stage, task, node, attempts...).
	Attrs map[string]string `json:"attrs,omitempty"`
}

// DurationNS returns the span's virtual duration.
func (s SpanRecord) DurationNS() int64 { return s.EndNS - s.StartNS }

// AddSpan records a completed interval [startNS, endNS] of virtual
// time. attrs may be nil. The span is appended to the bounded span log
// and its duration observed into the span histogram for its name.
func (r *Registry) AddSpan(name string, startNS, endNS int64, attrs map[string]string) {
	if r == nil {
		return
	}
	if endNS < startNS {
		endNS = startNS
	}
	h := r.Histogram(Name("dayu_span_ns", "span", name), LatencyBuckets())
	h.Observe(endNS - startNS)
	r.mu.Lock()
	if len(r.spans) >= maxSpans {
		// Drop the oldest half in one move so appends stay amortized O(1).
		n := copy(r.spans, r.spans[maxSpans/2:])
		r.dropped += int64(len(r.spans) - n)
		r.spans = r.spans[:n]
	}
	r.spans = append(r.spans, SpanRecord{Name: name, StartNS: startNS, EndNS: endNS, Attrs: attrs})
	r.mu.Unlock()
}

// Spans returns a copy of the retained span log in insertion order.
func (r *Registry) Spans() []SpanRecord {
	if r == nil {
		return nil
	}
	r.mu.RLock()
	defer r.mu.RUnlock()
	return append([]SpanRecord(nil), r.spans...)
}

// DroppedSpans reports how many spans were discarded by the ring bound.
func (r *Registry) DroppedSpans() int64 {
	if r == nil {
		return 0
	}
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.dropped
}
