package atomicfile

import (
	"errors"
	"io"
	"os"
	"path/filepath"
	"testing"
)

func writeString(s string) func(io.Writer) error {
	return func(w io.Writer) error {
		_, err := io.WriteString(w, s)
		return err
	}
}

// countSyncs swaps the package's fsync for one that tallies file and
// directory syncs separately (and still syncs).
func countSyncs(t *testing.T) (files, dirs *int) {
	t.Helper()
	files, dirs = new(int), new(int)
	real := fsync
	fsync = func(f *os.File) error {
		info, err := f.Stat()
		if err != nil {
			return err
		}
		if info.IsDir() {
			*dirs++
		} else {
			*files++
		}
		return real(f)
	}
	t.Cleanup(func() { fsync = real })
	return files, dirs
}

// TestWriteSyncsFileAndDirOnlyWhenAsked pins the durability contract
// the serve fold path leans on under -wal-fsync always: sync=true is
// exactly one file fsync (before the rename) and one directory fsync
// (after it); sync=false touches neither.
func TestWriteSyncsFileAndDirOnlyWhenAsked(t *testing.T) {
	files, dirs := countSyncs(t)
	path := filepath.Join(t.TempDir(), "out")

	if err := Write(path, false, writeString("one")); err != nil {
		t.Fatal(err)
	}
	if *files != 0 || *dirs != 0 {
		t.Fatalf("sync=false: %d file / %d dir syncs, want 0/0", *files, *dirs)
	}
	if err := Write(path, true, writeString("two")); err != nil {
		t.Fatal(err)
	}
	if *files != 1 || *dirs != 1 {
		t.Fatalf("sync=true: %d file / %d dir syncs, want 1/1", *files, *dirs)
	}
	if got, err := os.ReadFile(path); err != nil || string(got) != "two" {
		t.Fatalf("content = %q, %v", got, err)
	}
}

// TestWriteFailureLeavesDestinationAndNoTemp: a failed write callback,
// sync or rename must leave the previous content in place and no temp
// file behind.
func TestWriteFailureLeavesDestinationAndNoTemp(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "out")
	if err := Write(path, false, writeString("kept")); err != nil {
		t.Fatal(err)
	}

	boom := errors.New("boom")
	if err := Write(path, false, func(w io.Writer) error {
		_, _ = io.WriteString(w, "torn")
		return boom
	}); !errors.Is(err, boom) {
		t.Fatalf("callback failure = %v, want boom", err)
	}

	real := fsync
	fsync = func(*os.File) error { return boom }
	err := Write(path, true, writeString("unsynced"))
	fsync = real
	if !errors.Is(err, boom) {
		t.Fatalf("fsync failure = %v, want boom", err)
	}

	// Rename onto a non-empty directory fails.
	blocked := filepath.Join(dir, "blocked")
	if err := os.MkdirAll(filepath.Join(blocked, "occupied"), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := Write(blocked, false, writeString("x")); err == nil {
		t.Fatal("rename over a non-empty directory succeeded")
	}

	if got, _ := os.ReadFile(path); string(got) != "kept" {
		t.Fatalf("destination = %q after failed writes, want kept", got)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 2 {
		t.Fatalf("directory holds %d entries after failed writes, want out and blocked only", len(entries))
	}
}
