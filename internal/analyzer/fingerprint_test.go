package analyzer

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"dayu/internal/trace"
)

// referenceFingerprint is the original json.Marshal-based
// implementation, kept verbatim as the value oracle: the streaming
// Fingerprint must produce the same hash for every input, or every
// serve cache key would silently change.
func referenceFingerprint(d ObjectDescs, t *trace.TaskTrace) string {
	keys := make([]trace.RowKey, 0, len(t.Mapped))
	seen := map[trace.RowKey]bool{}
	for _, ms := range t.Mapped {
		k := trace.RowKey{File: ms.File, Object: ms.Object}
		if !seen[k] {
			seen[k] = true
			keys = append(keys, k)
		}
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].File != keys[j].File {
			return keys[i].File < keys[j].File
		}
		return keys[i].Object < keys[j].Object
	})
	type entry struct {
		Key     trace.RowKey       `json:"key"`
		Present bool               `json:"present"`
		Desc    trace.ObjectRecord `json:"desc,omitempty"`
	}
	entries := make([]entry, 0, len(keys))
	for _, k := range keys {
		e := entry{Key: k}
		if desc, ok := d[k]; ok {
			e.Present, e.Desc = true, desc
		}
		entries = append(entries, e)
	}
	data, err := json.Marshal(entries)
	if err != nil {
		panic(err)
	}
	return trace.HashBytes(data)
}

// nastyStrings exercises every branch of the JSON string escaper:
// quotes, backslashes, the five control-byte short forms, other
// control bytes, the HTML-escaped bytes, invalid UTF-8, multi-byte
// runes and the U+2028/U+2029 special cases.
var nastyStrings = []string{
	"",
	"plain",
	`with "quotes" and \backslashes\`,
	"newline\nreturn\rtab\t",
	"backspace\bformfeed\f",
	"control\x00\x01\x1f bytes",
	"html <tags> & ampersands",
	"invalid utf8 \xff\xfe trailing",
	"truncated rune \xe2\x82",
	"unicode snowman ☃ and emoji 🜚",
	"line sep \u2028 here \u2029 there",
	"mixed ☃\x00<\xffok >",
}

func TestFingerprintMatchesJSONReference(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	pick := func() string { return nastyStrings[rng.Intn(len(nastyStrings))] }
	for trial := 0; trial < 200; trial++ {
		descs := ObjectDescs{}
		tt := &trace.TaskTrace{Task: fmt.Sprintf("t%d", trial)}
		nmapped := rng.Intn(6)
		for i := 0; i < nmapped; i++ {
			file, obj := pick(), pick()
			tt.Mapped = append(tt.Mapped, trace.MappedStat{File: file, Object: obj})
			if rng.Intn(3) > 0 { // sometimes absent
				rec := trace.ObjectRecord{
					Task: pick(), File: file, Object: obj, Type: pick(),
					AcquiredNS: rng.Int63n(1e9) - 5e8, ReleasedNS: rng.Int63(),
					Reads: int64(rng.Intn(100)), Writes: int64(rng.Intn(100)),
					BytesRead: rng.Int63(), BytesWritten: rng.Int63(),
				}
				switch rng.Intn(4) {
				case 1: // optional fields set
					rec.Datatype, rec.Layout = pick(), pick()
					rec.ElemSize = int64(rng.Intn(16))
					rec.Shape = []int64{int64(rng.Intn(10)), -3}
					rec.ChunkDims = []int64{int64(rng.Intn(10))}
				case 2: // empty-but-non-nil slices (omitempty drops both)
					rec.Shape = []int64{}
					rec.ChunkDims = []int64{}
				}
				descs[trace.RowKey{File: file, Object: obj}] = rec
			}
		}
		// Duplicate a mapped entry sometimes so dedup is exercised.
		if nmapped > 0 && rng.Intn(2) == 0 {
			tt.Mapped = append(tt.Mapped, tt.Mapped[0])
		}
		want := referenceFingerprint(descs, tt)
		if got := descs.Fingerprint(tt); got != want {
			t.Fatalf("trial %d: fingerprint %s diverges from json.Marshal reference %s\nmapped: %#v",
				trial, got, want, tt.Mapped)
		}
	}
}

func TestFingerprintEmptyMapped(t *testing.T) {
	descs := ObjectDescs{}
	tt := &trace.TaskTrace{Task: "empty"}
	if got, want := descs.Fingerprint(tt), referenceFingerprint(descs, tt); got != want {
		t.Fatalf("empty-mapped fingerprint %s, reference %s", got, want)
	}
	// Pin the absolute value too: SHA-256 of the two-byte document "[]".
	if got := descs.Fingerprint(tt); got != trace.HashBytes([]byte("[]")) {
		t.Fatalf("empty-mapped fingerprint %s is not the hash of %q", got, "[]")
	}
}

// TestFingerprintAllocBudget keeps the serve hot path honest: the
// streaming fingerprint must not re-materialize the JSON document.
// Sorting keys and the digest itself are allowed a handful of
// allocations; the old implementation allocated the entire document
// plus per-entry reflection state.
func TestFingerprintAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not stable under the race detector")
	}
	descs := ObjectDescs{}
	tt := &trace.TaskTrace{Task: "alloc"}
	for i := 0; i < 16; i++ {
		file, obj := fmt.Sprintf("f%02d.h5", i), fmt.Sprintf("/obj/%02d", i)
		tt.Mapped = append(tt.Mapped, trace.MappedStat{File: file, Object: obj})
		descs[trace.RowKey{File: file, Object: obj}] = trace.ObjectRecord{
			Task: "alloc", File: file, Object: obj, Type: "dataset",
			Datatype: "float64", Layout: "chunked", ElemSize: 8,
			Shape: []int64{128, 128}, ChunkDims: []int64{16, 16},
		}
	}
	allocs := testing.AllocsPerRun(100, func() {
		_ = descs.Fingerprint(tt)
	})
	// keys slice + seen map + sha256 state + hex output, roughly; the
	// point is it no longer scales with the document size.
	if allocs > 12 {
		t.Errorf("Fingerprint allocates %.1f times per run, budget 12", allocs)
	}
}
