package main

import (
	"bytes"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"

	"dayu/internal/trace"
	"dayu/internal/workloads"
)

// Every input is a function of the seed alone: the same seed gives the
// same bytes, and task, record and op counts never depend on it.

// seededBytes fills n pseudo-random bytes.
func seededBytes(seed uint64, n int) []byte {
	buf := make([]byte, n)
	rand.New(rand.NewSource(int64(seed))).Read(buf)
	return buf
}

// traceFile is one encoded trace as it will sit in a trace directory.
type traceFile struct {
	name string
	data []byte
}

// syntheticInputs builds the synthetic analyzer trace set with a seeded
// permutation of which shared input file each task reads, encodes every
// trace as dtb and returns the files in a seeded write order (directory
// scans must not depend on creation order).
func syntheticInputs(seed uint64, tasks int) ([]*trace.TaskTrace, *trace.Manifest, []traceFile, error) {
	cfg := workloads.SyntheticTraceConfig{Tasks: tasks}
	traces, manifest := workloads.GenerateSyntheticTraces(cfg)
	rng := rand.New(rand.NewSource(int64(seed)))
	const filesPerStage = 16 // SyntheticTraceConfig's default
	for i, slot := range rng.Perm(len(traces)) {
		tt := traces[i]
		old := tt.Files[0].File
		cut := strings.LastIndex(old, "shared_")
		in := fmt.Sprintf("%sshared_%03d.h5", old[:cut], slot%filesPerStage)
		tt.Files[0].File, tt.Objects[0].File, tt.Mapped[0].File = in, in, in
	}
	files := make([]traceFile, len(traces))
	for i, at := range rng.Perm(len(traces)) {
		var buf bytes.Buffer
		if err := traces[i].EncodeFormat(&buf, trace.FormatBinary); err != nil {
			return nil, nil, nil, err
		}
		files[at] = traceFile{trace.TraceFileName(traces[i].Task, trace.FormatBinary), buf.Bytes()}
	}
	return traces, manifest, files, nil
}

// writeTraceDir makes dir hold exactly the files and the manifest.
// Files already there under the same names are rewritten in place and
// only strays are deleted (see setupTimes for why).
func writeTraceDir(dir string, files []traceFile, manifest *trace.Manifest) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	keep := map[string]bool{"manifest.json": true}
	for _, f := range files {
		keep[f.name] = true
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		return err
	}
	for _, e := range entries {
		if !keep[e.Name()] {
			if err := os.RemoveAll(filepath.Join(dir, e.Name())); err != nil {
				return err
			}
		}
	}
	for _, f := range files {
		if err := os.WriteFile(filepath.Join(dir, f.name), f.data, 0o644); err != nil {
			return err
		}
	}
	return trace.SaveManifest(dir, manifest)
}
