package tracer

import (
	"slices"
	"time"

	"dayu/internal/vfd"
	"dayu/internal/vol"
)

// Breakdown is Figure 10's split of the Data Semantic Mapper's cost
// over one workload, each component measured alone. The Input Parser
// is LoadConfig plus New; the Access Tracker is the VOL profiler's
// OnEvent plus the Table II half of the VFD profiler's Observe; the
// Characteristic Mapper is Observe's object-join half plus each task's
// final record.
type Breakdown struct {
	InputParser, AccessTracker, CharacteristicMapper time.Duration
}

// MeasureBreakdown runs the workload once on a tracer built from the
// config at path, recording every VOL event and VFD op its observers
// see, then replays the recording through each component alone reps
// times and reports each component's median. The replay is warm-cache
// work in a tight loop, so it measures what each component costs, not
// what the whole tracer adds to a run in place.
func MeasureBreakdown(path string, reps int, run func(*Tracer) error) (Breakdown, error) {
	tr, err := NewFromFile(path)
	if err != nil {
		return Breakdown{}, err
	}
	rec := &recorder{tr: tr}
	tr.volObs, tr.vfdObs = rec, rec
	if err := run(tr); err != nil {
		return Breakdown{}, err
	}
	reps = max(reps, 1)
	parser := make([]time.Duration, reps)
	tracker := make([]time.Duration, reps)
	mapper := make([]time.Duration, reps)
	for i := range reps {
		t0 := time.Now()
		tr, err := NewFromFile(path)
		parser[i] = time.Since(t0)
		if err != nil {
			return Breakdown{}, err
		}
		for _, s := range rec.tasks {
			tr.BeginTask(s.task)
			t1 := time.Now()
			for _, ev := range s.events {
				tr.volProf.OnEvent(ev)
			}
			for _, op := range s.ops {
				tr.vfdProf.track(op)
			}
			t2 := time.Now()
			for _, op := range s.ops {
				tr.vfdProf.mapObject(op)
			}
			tr.EndTask()
			tracker[i] += t2.Sub(t1)
			mapper[i] += time.Since(t2)
		}
	}
	for _, ds := range [][]time.Duration{parser, tracker, mapper} {
		slices.Sort(ds)
	}
	return Breakdown{parser[reps/2], tracker[reps/2], mapper[reps/2]}, nil
}

// recorder sits in front of a tracer's profilers and logs each event
// and op, per task, before profiling it.
type recorder struct {
	tr    *Tracer
	tasks []taskStream
}

type taskStream struct {
	task   string
	events []vol.Event
	ops    []vfd.Op
}

// stream returns the log of the tracer's current task.
func (r *recorder) stream() *taskStream {
	if n := len(r.tasks); n == 0 || r.tasks[n-1].task != r.tr.task {
		r.tasks = append(r.tasks, taskStream{task: r.tr.task})
	}
	return &r.tasks[len(r.tasks)-1]
}

func (r *recorder) OnEvent(ev vol.Event) {
	s := r.stream()
	s.events = append(s.events, ev)
	r.tr.volProf.OnEvent(ev)
}

func (r *recorder) Observe(op vfd.Op) {
	s := r.stream()
	s.ops = append(s.ops, op)
	r.tr.vfdProf.Observe(op)
}
