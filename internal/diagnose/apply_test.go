package diagnose

import (
	"bytes"
	"math/rand"
	"slices"
	"testing"

	"dayu/internal/analyzer"
	"dayu/internal/trace"
)

// TestIndexApplyMatchesFreshAnalyze is TestIndexMatchesFreshAnalyze
// with the index told each edit, as `dayu serve` drives it: a TaskSet
// keeps the order and Apply takes the change. After every edit the view
// encodes as a fresh Analyze does, the previous view still encodes as
// it did, and most views are spliced rather than walked.
func TestIndexApplyMatchesFreshAnalyze(t *testing.T) {
	steps, spliced := 0, 0
	for seed := int64(1); seed <= 40; seed++ {
		c := &randChooser{rng: rand.New(rand.NewSource(seed)), steps: 80}
		s := &editState{c: c}
		ix := NewIndex(editThresholds)
		var set analyzer.TaskSet
		var prev []*trace.TaskTrace
		var history []string
		var last *View
		var lastBytes []byte
		for !c.done() {
			history = append(history, s.edit())
			var ch analyzer.Change
			for _, tt := range prev {
				if !slices.Contains(s.traces, tt) {
					ch.Removed = append(ch.Removed, tt)
				}
			}
			for _, tt := range s.traces {
				if !slices.Contains(prev, tt) {
					ch.Added = append(ch.Added, tt)
				}
			}
			ch, _, ok := set.Apply(ch, s.m)
			if !ok {
				set.Reset(s.traces, s.m)
			}
			view := ix.Apply(set.Ordered(), s.m, ch)
			if steps++; view.Walked == 0 {
				spliced++
			}
			// The name order is what serve hands OrderTasks.
			want, err := EncodeJSON(Analyze(set.Traces(), s.m, editThresholds))
			if err != nil {
				t.Fatal(err)
			}
			got, err := view.EncodeJSON()
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("seed %d: after %v the index encodes\n%s\na fresh Analyze\n%s", seed, history, got, want)
			}
			if last != nil {
				if again, _ := last.EncodeJSON(); !bytes.Equal(again, lastBytes) {
					t.Fatalf("seed %d: after %v the previous view encodes differently", seed, history)
				}
			}
			last, lastBytes, prev = view, got, s.traces
		}
	}
	if spliced < steps/2 {
		t.Errorf("only %d of %d views were spliced; the rest walked every scope", spliced, steps)
	}
}
