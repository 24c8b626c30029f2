// Package history is the persistent snapshot-history store behind
// `dayu serve -history`: every converged snapshot the server publishes
// is recorded as an append-only manifest plus content-addressed blobs
// of its rendered /v1/ftg and /v1/sdg bodies, so past analysis states
// survive restarts and can be replayed byte-for-byte without
// refolding a single trace.
//
// Layout under the store directory:
//
//	manifests/<seq, 16 hex digits>.json   one manifest per snapshot,
//	                                      ordered by append sequence
//	blobs/<content-hash>                  rendered response bodies,
//	                                      deduplicated across snapshots
//
// Manifests are keyed by the snapshot's content address (the serve
// snapshot ID): appending an ID the store already holds is a no-op, so
// a flapping directory cannot grow the log. Retention is by manifest
// count: compaction drops the oldest manifests past the limit and then
// garbage-collects blobs no surviving manifest references. Because a
// blob can be shared by many manifests (an FTG unchanged across
// snapshots hashes identically), compaction never touches a blob that
// any survivor still needs.
//
// All writes are atomic (same-directory temp file + rename), so a
// crash mid-append leaves either a fully present snapshot or none; a
// manifest is written only after both of its blobs are durable, so a
// listed snapshot can always be replayed.
package history

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"dayu/internal/atomicfile"
	"dayu/internal/trace"
)

// Options tunes the store.
type Options struct {
	// Retain caps how many snapshot manifests survive compaction
	// (default 64; the most recent are kept).
	Retain int
}

func (o Options) withDefaults() Options {
	if o.Retain <= 0 {
		o.Retain = 64
	}
	return o
}

// Manifest describes one recorded snapshot.
type Manifest struct {
	// Seq is the append sequence number (monotone within the store).
	Seq uint64 `json:"seq"`
	// ID is the snapshot's content address (the X-Dayu-Snapshot value
	// the live server stamped on its responses).
	ID        string    `json:"id"`
	CreatedAt time.Time `json:"created_at"`
	Tasks     int       `json:"tasks"`
	// FTG and SDG are the content hashes of the stored response
	// bodies, resolvable via Blob.
	FTG string `json:"ftg"`
	SDG string `json:"sdg"`
}

// Store is the on-disk snapshot history. All methods are safe for
// concurrent use.
type Store struct {
	dir  string
	opts Options

	mu        sync.Mutex
	manifests []Manifest // ordered by Seq ascending
	ids       map[string]int
	nextSeq   uint64
}

// Open loads (creating if needed) the store under dir and indexes the
// surviving manifests. Unreadable or syntactically broken manifest
// files fail Open: the store's whole contract is replayability, so a
// listing that silently skipped a snapshot would be a lie.
func Open(dir string, opts Options) (*Store, error) {
	s := &Store{dir: dir, opts: opts.withDefaults(), ids: map[string]int{}}
	for _, sub := range []string{s.manifestDir(), s.blobDir()} {
		if err := os.MkdirAll(sub, 0o755); err != nil {
			return nil, fmt.Errorf("history: %w", err)
		}
	}
	names, err := filepath.Glob(filepath.Join(s.manifestDir(), "*.json"))
	if err != nil {
		return nil, fmt.Errorf("history: %w", err)
	}
	sort.Strings(names) // 16-hex-digit names sort in sequence order
	for _, path := range names {
		data, err := os.ReadFile(path)
		if err != nil {
			return nil, fmt.Errorf("history: read %s: %w", filepath.Base(path), err)
		}
		var m Manifest
		if err := json.Unmarshal(data, &m); err != nil {
			return nil, fmt.Errorf("history: decode %s: %w", filepath.Base(path), err)
		}
		s.ids[m.ID] = len(s.manifests)
		s.manifests = append(s.manifests, m)
		if m.Seq >= s.nextSeq {
			s.nextSeq = m.Seq + 1
		}
	}
	return s, nil
}

func (s *Store) manifestDir() string { return filepath.Join(s.dir, "manifests") }
func (s *Store) blobDir() string     { return filepath.Join(s.dir, "blobs") }

func (s *Store) manifestPath(seq uint64) string {
	return filepath.Join(s.manifestDir(), fmt.Sprintf("%016x.json", seq))
}

// Append records one snapshot: both blobs first, then the manifest,
// then compaction. Appending an ID the store already holds returns the
// existing manifest unchanged. The returned manifest carries the
// assigned sequence number and blob hashes.
func (s *Store) Append(id string, createdAt time.Time, tasks int, ftgBody, sdgBody []byte) (Manifest, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if i, ok := s.ids[id]; ok {
		return s.manifests[i], nil
	}
	m := Manifest{
		Seq:       s.nextSeq,
		ID:        id,
		CreatedAt: createdAt,
		Tasks:     tasks,
		FTG:       trace.HashBytes(ftgBody),
		SDG:       trace.HashBytes(sdgBody),
	}
	if err := s.writeBlobLocked(m.FTG, ftgBody); err != nil {
		return Manifest{}, err
	}
	if err := s.writeBlobLocked(m.SDG, sdgBody); err != nil {
		return Manifest{}, err
	}
	data, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		return Manifest{}, fmt.Errorf("history: encode manifest: %w", err)
	}
	if err := writeFileAtomic(s.manifestPath(m.Seq), data); err != nil {
		return Manifest{}, fmt.Errorf("history: write manifest: %w", err)
	}
	s.nextSeq++
	s.ids[m.ID] = len(s.manifests)
	s.manifests = append(s.manifests, m)
	if _, _, err := s.compactLocked(); err != nil {
		return Manifest{}, err
	}
	return m, nil
}

// writeBlobLocked lands a content-addressed blob; an existing blob
// with that hash is already the right bytes.
func (s *Store) writeBlobLocked(hash string, body []byte) error {
	path := filepath.Join(s.blobDir(), hash)
	if _, err := os.Stat(path); err == nil {
		return nil
	}
	if err := writeFileAtomic(path, body); err != nil {
		return fmt.Errorf("history: write blob: %w", err)
	}
	return nil
}

// List returns the recorded snapshots, newest first.
func (s *Store) List() []Manifest {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]Manifest, len(s.manifests))
	for i, m := range s.manifests {
		out[len(out)-1-i] = m
	}
	return out
}

// Len reports how many snapshots the store holds.
func (s *Store) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.manifests)
}

// Get returns the manifest for a snapshot ID.
func (s *Store) Get(id string) (Manifest, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	i, ok := s.ids[id]
	if !ok {
		return Manifest{}, false
	}
	return s.manifests[i], true
}

// Blob returns the stored body for a content hash. Hashes are
// validated as lowercase hex before touching the filesystem, so a
// request path can never escape the blob directory.
func (s *Store) Blob(hash string) ([]byte, error) {
	if !validHash(hash) {
		return nil, fmt.Errorf("history: invalid blob hash %q", hash)
	}
	return os.ReadFile(filepath.Join(s.blobDir(), hash))
}

// validHash accepts non-empty lowercase-hex strings only.
func validHash(hash string) bool {
	if hash == "" {
		return false
	}
	for i := 0; i < len(hash); i++ {
		c := hash[i]
		if (c < '0' || c > '9') && (c < 'a' || c > 'f') {
			return false
		}
	}
	return true
}

// Compact applies the retention policy now and garbage-collects
// unreferenced blobs, returning how many manifests and blobs were
// removed. Append runs it automatically; exposing it lets an operator
// (or a test) force the sweep.
func (s *Store) Compact() (manifests, blobs int, err error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.compactLocked()
}

func (s *Store) compactLocked() (removedManifests, removedBlobs int, err error) {
	for len(s.manifests) > s.opts.Retain {
		victim := s.manifests[0]
		if err := os.Remove(s.manifestPath(victim.Seq)); err != nil && !os.IsNotExist(err) {
			return removedManifests, removedBlobs, fmt.Errorf("history: compact: %w", err)
		}
		s.manifests = s.manifests[1:]
		delete(s.ids, victim.ID)
		removedManifests++
	}
	if removedManifests == 0 {
		return 0, 0, nil
	}
	// Reindex after the slice shifted.
	for i, m := range s.manifests {
		s.ids[m.ID] = i
	}
	referenced := make(map[string]bool, 2*len(s.manifests))
	for _, m := range s.manifests {
		referenced[m.FTG] = true
		referenced[m.SDG] = true
	}
	entries, err := os.ReadDir(s.blobDir())
	if err != nil {
		return removedManifests, removedBlobs, fmt.Errorf("history: compact: %w", err)
	}
	for _, e := range entries {
		if e.IsDir() || referenced[e.Name()] {
			continue
		}
		if err := os.Remove(filepath.Join(s.blobDir(), e.Name())); err != nil && !os.IsNotExist(err) {
			return removedManifests, removedBlobs, fmt.Errorf("history: compact: %w", err)
		}
		removedBlobs++
	}
	return removedManifests, removedBlobs, nil
}

// writeFileAtomic lands data at path through the tree's one atomic
// writer. Unsynced: an entry lost to power failure is recorded again by
// the first converged snapshot after the restart.
func writeFileAtomic(path string, data []byte) error {
	return atomicfile.Write(path, false, func(w io.Writer) error {
		_, err := w.Write(data)
		return err
	})
}
