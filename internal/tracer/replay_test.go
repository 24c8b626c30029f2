package tracer

import (
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"dayu/internal/hdf5"
	"dayu/internal/vfd"
)

// cornerCase is the corner-case benchmark at small scale on a memory
// driver.
func cornerCase(tr *Tracer, task string, datasets, reads int) error {
	return cornerCaseOn(tr, vfd.NewMemDriver(), task, datasets, reads)
}

// cornerCaseOn runs the corner case on inner: datasets small datasets
// written once, then reads round-robin reads, each with its own open
// and close, all under one task.
func cornerCaseOn(tr *Tracer, inner vfd.Driver, task string, datasets, reads int) error {
	tr.BeginTask(task)
	drv := tr.WrapDriver(inner, "corner_case.h5")
	f, err := hdf5.Create(drv, "corner_case.h5", hdf5.Config{Mailbox: tr.Mailbox(), Observer: tr.VOLObserver(), Task: task})
	if err != nil {
		return err
	}
	for i := 0; i < datasets; i++ {
		ds, err := f.Root().CreateDataset(fmt.Sprintf("dset_%03d", i), hdf5.Uint8, []int64{512}, nil)
		if err != nil {
			return err
		}
		if err := ds.WriteAll(make([]byte, 512)); err != nil {
			return err
		}
		if err := ds.Close(); err != nil {
			return err
		}
	}
	for i := 0; i < reads; i++ {
		ds, err := f.Root().OpenDataset(fmt.Sprintf("dset_%03d", i%datasets))
		if err != nil {
			return err
		}
		if _, err := ds.ReadAll(); err != nil {
			return err
		}
		if err := ds.Close(); err != nil {
			return err
		}
	}
	return f.Close()
}

// TestReplayIsComplete: the recorded event and op streams, fed through
// a fresh tracer's observers, rebuild the recorded run's trace, so the
// replay that times each component replays everything the tracer saw.
// The configs are the ones Figs 9 and 10 measure; a disabled layer
// records nothing.
func TestReplayIsComplete(t *testing.T) {
	for _, cfg := range []Config{
		{IOTrace: true},
		{DisableVOL: true, IOTrace: true},
		{DisableVFD: true},
	} {
		tr := New(cfg)
		rec := &recorder{tr: tr}
		tr.volObs, tr.vfdObs = rec, rec
		if err := cornerCase(tr, "corner_case", 20, 200); err != nil {
			t.Fatal(err)
		}
		want := tr.EndTask()
		if len(rec.tasks) != 1 {
			t.Fatalf("%+v: recorded %d task streams, want one", cfg, len(rec.tasks))
		}
		s := rec.tasks[0]
		if (len(s.events) == 0) != cfg.DisableVOL || (len(s.ops) == 0) != cfg.DisableVFD {
			t.Fatalf("%+v: recorded %d events and %d ops, want none exactly for a disabled layer",
				cfg, len(s.events), len(s.ops))
		}

		fresh := New(cfg)
		fresh.BeginTask(s.task)
		for _, ev := range s.events {
			fresh.VOLObserver().OnEvent(ev)
		}
		for _, op := range s.ops {
			fresh.VFDObserver().Observe(op)
		}
		got := fresh.EndTask()
		got.StartNS, got.EndNS = want.StartNS, want.EndNS
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%+v: replayed trace differs from the recorded run's:\n got %+v\nwant %+v", cfg, got, want)
		}
	}
}

func TestMeasureBreakdownTimesEachComponent(t *testing.T) {
	path := filepath.Join(t.TempDir(), "dayu.json")
	if err := os.WriteFile(path, []byte(`{"page_size": 4096}`), 0o644); err != nil {
		t.Fatal(err)
	}
	b, err := MeasureBreakdown(path, 3, func(tr *Tracer) error {
		return cornerCase(tr, "corner_case", 20, 200)
	})
	if err != nil {
		t.Fatal(err)
	}
	if b.InputParser <= 0 || b.AccessTracker <= 0 || b.CharacteristicMapper <= 0 {
		t.Errorf("breakdown = %+v, want every component positive", b)
	}
	if _, err := MeasureBreakdown(filepath.Join(t.TempDir(), "missing.json"), 1, nil); err == nil {
		t.Error("missing config measured")
	}
}
