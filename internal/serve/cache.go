package serve

import (
	"path/filepath"
	"sort"
	"time"

	"dayu/internal/analyzer"
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

// view names the half of a snapshot a contribution pass builds: the
// batch view (final traces on disk) or the live overlay (the same set
// extended with retained checkpoints). The cache remembers the keys the
// latest pass of each view touched; prune keeps their union.
type view int

const (
	batchPass view = iota
	livePass
	numViews
)

// sdgKey addresses one cached SDG contribution: the trace content hash
// plus the fingerprint of the object descriptions the task references.
type sdgKey struct{ trace, descs string }

// passKeys is what one pass of one view touched in the caches.
type passKeys struct {
	ftg map[string]bool
	sdg map[sdgKey]bool
}

// buildCache is everything the snapshot builder keeps between builds:
// the parsed files and the per-task graph contributions, all keyed by
// content. It belongs to whoever holds Server.ingestMu.
type buildCache struct {
	files    map[string]fileEntry // trace files by path
	manifest fileEntry            // Dir/manifest.json
	ftg      map[string]analyzer.Contribution
	sdg      map[sdgKey]analyzer.Contribution

	// The keys each view's latest pass touched: the working set the
	// contribution caches are trimmed to, so superseded revisions never
	// accumulate while everything a published view was built from stays
	// cached.
	used [numViews]passKeys
}

func newBuildCache() *buildCache {
	return &buildCache{
		files: map[string]fileEntry{},
		ftg:   map[string]analyzer.Contribution{},
		sdg:   map[sdgKey]analyzer.Contribution{},
	}
}

// scanItem is one trace file of a directory listing.
type scanItem struct {
	path string
	size int64
	mod  time.Time
}

// scan brings the parsed-file cache up to the listing, which is in
// directory order: every file climbs the revise ladder, changed ones
// are installed and cached paths the listing no longer names are
// dropped. It reports how many files were parsed, whether the cache
// changed, and the error of the first file in directory order that
// failed; that file keeps its previous entry and every other change is
// still applied.
func (c *buildCache) scan(items []scanItem) (parses int, changed bool, err error) {
	listed := make(map[string]bool, len(items))
	for _, it := range items {
		listed[it.path] = true
		entry, parsed, rerr := c.files[it.path].revise(it.path, it.size, it.mod, parseTrace)
		if rerr != nil {
			if err == nil {
				err = rerr
			}
			continue
		}
		if parsed {
			parses++
		}
		c.files[it.path] = entry // as it was, re-stat'ed or re-parsed
	}
	changed = parses > 0
	for path := range c.files {
		if !listed[path] {
			delete(c.files, path)
			changed = true
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

// contribute returns the FTG and SDG contributions of an ordered trace
// set, position by position, on behalf of one view: from the caches
// where the trace hash — and, for SDGs, the fingerprint of the object
// descriptions the task references — is known, computed and installed
// where not. descs must come from analyzer.BuildObjectDescs over the
// FULL ordered set. misses counts the installs out of the pass's two
// lookups per task; the keys touched replace the view's working set.
func (c *buildCache) contribute(v view, ordered []*trace.TaskTrace, hashOf func(*trace.TaskTrace) string,
	descs analyzer.ObjectDescs, opts analyzer.Options) (ftg, sdg []analyzer.Contribution, misses int) {
	ftg = make([]analyzer.Contribution, len(ordered))
	sdg = make([]analyzer.Contribution, len(ordered))
	used := passKeys{
		ftg: make(map[string]bool, len(ordered)),
		sdg: make(map[sdgKey]bool, len(ordered)),
	}
	for i, tt := range ordered {
		key := sdgKey{trace: hashOf(tt), descs: descs.Fingerprint(tt)}
		used.ftg[key.trace], used.sdg[key] = true, true
		var ok bool
		if ftg[i], ok = c.ftg[key.trace]; !ok {
			ftg[i] = analyzer.FTGContribution(tt)
			c.ftg[key.trace] = ftg[i]
			misses++
		}
		if sdg[i], ok = c.sdg[key]; !ok {
			sdg[i] = analyzer.SDGContribution(tt, descs, opts)
			c.sdg[key] = sdg[i]
			misses++
		}
	}
	c.used[v] = used
	return ftg, sdg, misses
}

// release forgets what the view's latest pass used (the live overlay
// dissolved: zero partials), so the next prune drops whatever only that
// view kept alive.
func (c *buildCache) release(v view) { c.used[v] = passKeys{} }

// prune trims both contribution caches to the union of the keys each
// view's latest pass touched. The snapshot builder calls it once per
// published snapshot, so earlier revisions of changed traces and
// superseded checkpoint contributions are unreachable immediately —
// while a refresh that rebuilt only the live overlay evicts nothing the
// batch view it shares was built from.
func (c *buildCache) prune() {
	for hash := range c.ftg {
		if !c.used[batchPass].ftg[hash] && !c.used[livePass].ftg[hash] {
			delete(c.ftg, hash)
		}
	}
	for key := range c.sdg {
		if !c.used[batchPass].sdg[key] && !c.used[livePass].sdg[key] {
			delete(c.sdg, key)
		}
	}
}
