package serve

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"dayu/internal/trace"
)

// Regression for the fold-error path: an acknowledged record that can
// never fold (errUnfoldable — bytes mangled in a way the WAL CRC
// missed) used to have its fold checkpoint advanced with no copy kept,
// silently destroying acknowledged data. The bytes must now land in
// WALDir/quarantine before MarkFolded, and survive any number of
// restarts. The file name carries the WAL namespace the record came
// from: shard-<k>- for a shard's log (a single-shard server is shard
// 0), nothing for the pre-sharding flat root.
func TestUnfoldableRecordQuarantinedAcrossRestarts(t *testing.T) {
	for _, ns := range []struct{ name, sub, prefix string }{
		{"flat-root", "", ""},
		{"shard-0", "shard-0", "shard-0-"},
	} {
		t.Run(ns.name, func(t *testing.T) {
			testQuarantineAcrossRestarts(t, ns.sub, ns.prefix)
		})
	}
}

func testQuarantineAcrossRestarts(t *testing.T, sub, prefix string) {
	dir := t.TempDir()
	walDir := t.TempDir()

	// Seed a WAL containing one good record and one poisoned record,
	// as if a record was acknowledged and then mangled on disk in a
	// way that kept its CRC intact.
	w, _, err := OpenWAL(filepath.Join(walDir, sub), WALOptions{Fsync: FsyncNever})
	if err != nil {
		t.Fatal(err)
	}
	good := makeTraceBytes(t, "ok-task", trace.FormatBinary)
	if _, err := w.Append(good); err != nil {
		t.Fatal(err)
	}
	poison := []byte("this is not a trace record in any serialization")
	poisonSeq, err := w.Append(poison)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	// First restart: replay folds the good record, quarantines the
	// poisoned one, and still comes up serving.
	s := mustServer(t, Config{Dir: dir, WALDir: walDir, WAL: WALOptions{Fsync: FsyncNever}, PlanOptions: testPlanOpts})
	qpath := filepath.Join(walDir, "quarantine", fmt.Sprintf("%srec-%d.bin", prefix, poisonSeq))
	got, err := os.ReadFile(qpath)
	if err != nil {
		t.Fatalf("poisoned record not quarantined: %v", err)
	}
	if !bytes.Equal(got, poison) {
		t.Fatalf("quarantined bytes diverged: %q", got)
	}
	if p := s.walStats().Pending; p != 0 {
		t.Fatalf("pending = %d after quarantine, want 0", p)
	}
	snap, err := s.Ingest()
	if err != nil {
		t.Fatal(err)
	}
	if len(snap.tasks) != 1 || snap.tasks[0].Task != "ok-task" {
		t.Fatalf("tasks after recovery = %+v", snap.tasks)
	}
	s.Close()

	// Second restart: the quarantined record is not replayed (its
	// checkpoint advanced) but its bytes are still preserved.
	s2 := mustServer(t, Config{Dir: dir, WALDir: walDir, WAL: WALOptions{Fsync: FsyncNever}, PlanOptions: testPlanOpts})
	defer s2.Close()
	got, err = os.ReadFile(qpath)
	if err != nil {
		t.Fatalf("quarantined record vanished after restart: %v", err)
	}
	if !bytes.Equal(got, poison) {
		t.Fatalf("quarantined bytes diverged after restart: %q", got)
	}
	if q := s2.countQuarantined(); q != 1 {
		t.Fatalf("countQuarantined = %d, want 1", q)
	}
}
