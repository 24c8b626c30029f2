package tracer

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"testing"

	"dayu/internal/vfd"
)

// threadIO is the calling thread's kernel I/O accounting, as read from
// /proc/thread-self/io: read and write syscalls and the bytes they
// moved.
type threadIO struct {
	syscr, syscw, rchar, wchar int64
	// size is the byte length of the file as read, which is what the
	// read itself adds to rchar.
	size int64
}

const threadIOPath = "/proc/thread-self/io"

func probeThreadIO(t *testing.T) threadIO {
	t.Helper()
	data, err := os.ReadFile(threadIOPath)
	if err != nil {
		t.Fatal(err)
	}
	got := threadIO{size: int64(len(data))}
	for _, line := range bytes.Split(data, []byte("\n")) {
		var name string
		var v int64
		if n, _ := fmt.Sscanf(string(line), "%s %d", &name, &v); n != 2 {
			continue
		}
		switch name {
		case "syscr:":
			got.syscr = v
		case "syscw:":
			got.syscw = v
		case "rchar:":
			got.rchar = v
		case "wchar:":
			got.wchar = v
		}
	}
	return got
}

// TestKernelConservation: every byte the traced corner case asks the
// kernel for passes the VFD profiler. On the file driver each traced
// read or write is one pread or pwrite on the calling thread, so under
// LockOSThread the thread's syscall and byte counters move by exactly
// the traced ops and bytes, per direction, plus the probe's own read.
// A driver path that bypasses the profiler shows up as a difference.
func TestKernelConservation(t *testing.T) {
	if _, err := os.Stat(threadIOPath); err != nil {
		t.Skipf("no per-thread I/O accounting: %v", err)
	}
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()

	// Calibrate the probe: two back to back differ by what one probe
	// reads, the file's length in bytes over some read calls and no
	// writes.
	c0 := probeThreadIO(t)
	c1 := probeThreadIO(t)
	probeReads := c1.syscr - c0.syscr
	if c1.rchar-c0.rchar != c0.size || c1.syscw != c0.syscw || c1.wchar != c0.wchar {
		t.Fatalf("probe costs %+v, want only reads of its %d bytes", c1, c0.size)
	}

	drv, err := vfd.OpenFileDriver(filepath.Join(t.TempDir(), "corner_case.h5"))
	if err != nil {
		t.Fatal(err)
	}
	tr := New(Config{})
	before := probeThreadIO(t)
	if err := cornerCaseOn(tr, drv, "corner_case", 20, 200); err != nil {
		t.Fatal(err)
	}
	after := probeThreadIO(t)
	tt := tr.EndTask()

	var traced threadIO
	for _, f := range tt.Files {
		traced.syscr += f.Reads
		traced.syscw += f.Writes
		traced.rchar += f.BytesRead
		traced.wchar += f.BytesWritten
	}
	if traced.syscr == 0 || traced.syscw == 0 {
		t.Fatalf("traced %+v, want reads and writes", traced)
	}
	kernel := threadIO{
		syscr: after.syscr - before.syscr - probeReads,
		syscw: after.syscw - before.syscw,
		rchar: after.rchar - before.rchar - before.size,
		wchar: after.wchar - before.wchar,
	}
	t.Logf("traced %d reads / %d B and %d writes / %d B; probe %d reads / %d B",
		traced.syscr, traced.rchar, traced.syscw, traced.wchar, probeReads, before.size)
	if kernel.syscr != traced.syscr || kernel.rchar != traced.rchar {
		t.Errorf("reads: kernel %d calls / %d B, traced %d ops / %d B",
			kernel.syscr, kernel.rchar, traced.syscr, traced.rchar)
	}
	if kernel.syscw != traced.syscw || kernel.wchar != traced.wchar {
		t.Errorf("writes: kernel %d calls / %d B, traced %d ops / %d B",
			kernel.syscw, kernel.wchar, traced.syscw, traced.wchar)
	}
}
