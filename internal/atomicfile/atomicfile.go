// Package atomicfile is the one way this tree replaces a file: bytes
// land in a temp file beside the destination and are renamed over it,
// so a concurrent reader (the serve poller, a batch loader) and a
// crashed writer alike never observe a partial file. Every os.Rename
// in non-test code lives here; CI greps for a second one.
//
// The package imports nothing from the tree, so any layer may use it.
package atomicfile

import (
	"io"
	"os"
	"path/filepath"
)

// fsync flushes an open file or directory to stable storage. Tests
// swap it to count calls.
var fsync = (*os.File).Sync

// Write streams write's output to a temp file in path's directory and
// renames it into place, removing the temp file on any failure. With
// sync set, the file is fsynced before the rename and the directory
// after it, so the new content survives power loss once Write returns;
// without it the write survives process death only.
func Write(path string, sync bool, write func(io.Writer) error) error {
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, "."+filepath.Base(path)+".tmp-*")
	if err != nil {
		return err
	}
	err = write(tmp)
	if err == nil && sync {
		err = fsync(tmp)
	}
	if cerr := tmp.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp.Name(), path)
	}
	if err != nil {
		os.Remove(tmp.Name())
		return err
	}
	if sync {
		SyncDir(dir)
	}
	return nil
}

// SyncDir best-effort fsyncs a directory so renames and creations in it
// are durable against power loss; errors are ignored (some filesystems
// reject directory fsync).
func SyncDir(dir string) {
	d, err := os.Open(dir)
	if err != nil {
		return
	}
	_ = fsync(d)
	d.Close()
}
