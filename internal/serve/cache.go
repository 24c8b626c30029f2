package serve

import (
	"path/filepath"
	"sort"
	"time"

	"dayu/internal/trace"
)

// fileEntry is one cached file revision: the stat short-circuit fields
// (size, mtime), the authoritative content hash — a rewritten file with
// identical bytes maps to the same cached work — and what the bytes
// parse to: a trace for a trace file, the manifest for manifest.json.
// The zero entry means "not cached".
type fileEntry struct {
	size     int64
	modTime  time.Time
	hash     string
	trace    *trace.TaskTrace
	manifest *trace.Manifest
}

// revise runs the stat → hash → parse ladder for the file at path
// against its cached entry e: an untouched file (same size and mtime)
// is not even re-read, a touched-but-equal one is re-hashed but never
// re-parsed, and only a content change calls parse (parseTrace or
// parseManifest) for the new hash and payload. parsed reports that it
// did.
func (e fileEntry) revise(path string, size int64, mod time.Time, parse func(path string) (fileEntry, error)) (next fileEntry, parsed bool, err error) {
	if e.hash != "" {
		if e.size == size && e.modTime.Equal(mod) {
			return e, false, nil
		}
		hash, err := trace.HashFile(path)
		if err != nil {
			return e, false, err
		}
		if hash == e.hash {
			e.size, e.modTime = size, mod
			return e, false, nil
		}
	}
	if next, err = parse(path); err != nil {
		return e, false, err
	}
	next.size, next.modTime = size, mod
	return next, true, nil
}

func parseTrace(path string) (fileEntry, error) {
	tt, hash, err := trace.LoadHashed(path)
	return fileEntry{hash: hash, trace: tt}, err
}

func parseManifest(path string) (fileEntry, error) {
	hash, err := trace.HashFile(path)
	if err != nil {
		return fileEntry{}, err
	}
	m, err := trace.LoadManifest(filepath.Dir(path))
	return fileEntry{hash: hash, manifest: m}, err
}

// buildCache is the parsed files the snapshot builder keeps between
// builds, keyed by content. It belongs to whoever holds
// Server.ingestMu. The per-task graph contributions are not here: the
// server's two graph indexes hold them (see Server).
type buildCache struct {
	files    map[string]fileEntry // trace files by path
	manifest fileEntry            // Dir/manifest.json
	// failed names the trace files whose last revise failed. The
	// folder's listing re-checks each until a revise succeeds or a
	// listing no longer names it.
	failed map[string]bool
	// pending is the change since the last batch view: each trace file
	// whose entry changed since, with the entry that view was built
	// from (the zero entry for a file it did not hold).
	pending map[string]fileEntry
}

func newBuildCache() *buildCache {
	return &buildCache{files: map[string]fileEntry{}, failed: map[string]bool{}, pending: map[string]fileEntry{}}
}

// set installs path's entry, the zero entry deleting it, and records
// the change for the next batch view.
func (c *buildCache) set(path string, e fileEntry) {
	old, ok := c.files[path]
	if old == e {
		return
	}
	if _, seen := c.pending[path]; !seen {
		c.pending[path] = old
	}
	if ok && e.hash == "" {
		delete(c.files, path)
		return
	}
	c.files[path] = e
}

// scanItem is one trace file of a listing, or, with gone set, a path
// the listing knows holds no trace file.
type scanItem struct {
	path string
	size int64
	mod  time.Time
	gone bool
}

// scan brings the parsed-file cache up to a listing: every listed file
// climbs the revise ladder and changed ones are installed, and a path
// listed as gone is dropped. A complete listing names every trace file,
// so the cached paths it does not name are dropped too; any other
// listing leaves them be. It reports how many files were parsed,
// whether the cache changed, and the error of the first file in listing
// order that failed; that file keeps its previous entry, is marked
// failed, and every other change is still applied.
func (c *buildCache) scan(items []scanItem, complete bool) (parses int, changed bool, err error) {
	var listed map[string]bool
	if complete {
		listed = make(map[string]bool, len(items))
	}
	for _, it := range items {
		if it.gone {
			if _, ok := c.files[it.path]; ok {
				c.set(it.path, fileEntry{})
				changed = true
			}
			delete(c.failed, it.path)
			continue
		}
		if complete {
			listed[it.path] = true
		}
		entry, parsed, rerr := c.files[it.path].revise(it.path, it.size, it.mod, parseTrace)
		if rerr != nil {
			c.failed[it.path] = true
			if err == nil {
				err = rerr
			}
			continue
		}
		delete(c.failed, it.path)
		if parsed {
			parses++
			changed = true
		}
		c.set(it.path, entry) // as it was, re-stat'ed or re-parsed
	}
	if !complete {
		return parses, changed, err
	}
	for path := range c.files {
		if !listed[path] {
			c.set(path, fileEntry{})
			changed = true
		}
	}
	for path := range c.failed {
		if !listed[path] {
			delete(c.failed, path)
		}
	}
	return parses, changed, err
}

// paths returns every cached trace file path, sorted: directory order,
// as os.ReadDir yields it.
func (c *buildCache) paths() []string {
	paths := make([]string, 0, len(c.files))
	for path := range c.files {
		paths = append(paths, path)
	}
	sort.Strings(paths)
	return paths
}
