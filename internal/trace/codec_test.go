package trace

import (
	"bytes"
	"math/rand"
	"os"
	"reflect"
	"strings"
	"testing"
)

// richTrace builds a deterministic pseudo-random trace exercising
// every field of every record type, including nil-versus-empty slice
// distinctions the codec must preserve.
func richTrace(seed int64) *TaskTrace {
	rng := rand.New(rand.NewSource(seed))
	str := func(prefix string) string {
		return prefix + "_" + string(rune('a'+rng.Intn(26)))
	}
	maybeInts := func() []int64 {
		switch rng.Intn(3) {
		case 0:
			return nil
		case 1:
			return []int64{}
		}
		s := make([]int64, rng.Intn(4)+1)
		for i := range s {
			s[i] = rng.Int63n(1 << 40)
		}
		return s
	}
	maybeExtents := func() []Extent {
		switch rng.Intn(3) {
		case 0:
			return nil
		case 1:
			return []Extent{}
		}
		s := make([]Extent, rng.Intn(4)+1)
		for i := range s {
			start := rng.Int63n(1 << 30)
			s[i] = Extent{Start: start, End: start + rng.Int63n(1<<20) + 1}
		}
		return s
	}
	t := &TaskTrace{
		Task:     "stage/task_" + str("t"),
		StartNS:  rng.Int63n(1 << 50),
		Attempts: rng.Intn(5),
		Failed:   rng.Intn(2) == 1,
	}
	t.EndNS = t.StartNS + rng.Int63n(1<<40)
	for i := 0; i < rng.Intn(6); i++ {
		acq := t.StartNS + rng.Int63n(1000)
		t.Objects = append(t.Objects, ObjectRecord{
			Task: t.Task, File: str("file"), Object: str("obj"), Type: "dataset",
			Datatype: str("dt"), Shape: maybeInts(), ElemSize: rng.Int63n(16),
			Layout: str("layout"), ChunkDims: maybeInts(),
			AcquiredNS: acq, ReleasedNS: acq + rng.Int63n(1000),
			Reads: rng.Int63n(100), Writes: rng.Int63n(100),
			BytesRead: rng.Int63n(1 << 30), BytesWritten: rng.Int63n(1 << 30),
		})
	}
	// At least one file record: mapped stats may only reference files
	// present in the file table (Validate enforces the join).
	for i := 0; i < rng.Intn(4)+1; i++ {
		open := t.StartNS + rng.Int63n(1000)
		meta, data := rng.Int63n(50), rng.Int63n(50)
		t.Files = append(t.Files, FileRecord{
			Task: t.Task, File: str("file"), OpenNS: open, CloseNS: open + rng.Int63n(5000),
			Ops: meta + data, Reads: rng.Int63n(40), Writes: rng.Int63n(40),
			BytesRead: rng.Int63n(1 << 28), BytesWritten: rng.Int63n(1 << 28),
			DataReads: rng.Int63n(30), DataWrites: rng.Int63n(30),
			SequentialOps: rng.Int63n(20), MetaOps: meta, DataOps: data,
			MetaBytes: rng.Int63n(1 << 20), DataBytes: rng.Int63n(1 << 28),
			Regions: maybeExtents(),
		})
	}
	for i := 0; i < rng.Intn(5); i++ {
		t.Mapped = append(t.Mapped, MappedStat{
			Task: t.Task, File: t.Files[rng.Intn(len(t.Files))].File, Object: str("obj"),
			MetaOps: rng.Int63n(50), DataOps: rng.Int63n(50),
			MetaBytes: rng.Int63n(1 << 20), DataBytes: rng.Int63n(1 << 28),
			Reads: rng.Int63n(40), Writes: rng.Int63n(40),
			Regions: maybeExtents(),
			FirstNS: rng.Int63n(1 << 50), LastNS: rng.Int63n(1 << 50),
		})
	}
	for i := 0; i < rng.Intn(20); i++ {
		t.IOTrace = append(t.IOTrace, IORecord{
			Seq: int64(i), WallNS: rng.Int63n(1 << 50), File: str("file"),
			Offset: rng.Int63n(1 << 30), Length: rng.Int63n(1 << 20),
			Write: rng.Intn(2) == 1, Meta: rng.Intn(2) == 1, Object: str("obj"),
		})
	}
	return t
}

// renameTrace renames the task consistently across all records so the
// result still validates.
func renameTrace(t *TaskTrace, name string) *TaskTrace {
	t.Task = name
	for i := range t.Objects {
		t.Objects[i].Task = name
	}
	for i := range t.Files {
		t.Files[i].Task = name
	}
	for i := range t.Mapped {
		t.Mapped[i].Task = name
	}
	return t
}

func TestBinaryRoundTrip(t *testing.T) {
	for seed := int64(0); seed < 25; seed++ {
		tr := richTrace(seed)
		var buf bytes.Buffer
		if err := tr.EncodeBinary(&buf); err != nil {
			t.Fatalf("seed %d: encode: %v", seed, err)
		}
		got, err := DecodeBinary(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatalf("seed %d: decode: %v", seed, err)
		}
		if !reflect.DeepEqual(got, tr) {
			t.Fatalf("seed %d: binary round trip diverged:\n got %+v\nwant %+v", seed, got, tr)
		}
	}
}

func TestDecodeSniffsBinary(t *testing.T) {
	tr := richTrace(3)
	var buf bytes.Buffer
	if err := tr.EncodeBinary(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := Decode(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("Decode did not sniff dtb: %v", err)
	}
	if !reflect.DeepEqual(got, tr) {
		t.Fatal("sniffed decode diverged from DecodeBinary")
	}
}

func TestBinarySmallerThanJSON(t *testing.T) {
	tr := richTrace(11)
	jn, err := tr.EncodedSizeIn(FormatJSON)
	if err != nil {
		t.Fatal(err)
	}
	bn, err := tr.EncodedSizeIn(FormatBinary)
	if err != nil {
		t.Fatal(err)
	}
	if bn >= jn {
		t.Errorf("binary %d bytes >= JSON %d bytes", bn, jn)
	}
}

func TestBinaryEncodingDeterministic(t *testing.T) {
	tr := richTrace(5)
	var a, b bytes.Buffer
	if err := tr.EncodeBinary(&a); err != nil {
		t.Fatal(err)
	}
	if err := tr.EncodeBinary(&b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatal("two encodes of the same trace differ")
	}
}

func TestDecodeBinaryCorruption(t *testing.T) {
	tr := richTrace(9)
	var buf bytes.Buffer
	if err := tr.EncodeBinary(&buf); err != nil {
		t.Fatal(err)
	}
	valid := buf.Bytes()

	t.Run("bad magic", func(t *testing.T) {
		bad := append([]byte(nil), valid...)
		bad[0] = 'X'
		if _, err := DecodeBinary(bytes.NewReader(bad)); err == nil {
			t.Fatal("decode of bad magic succeeded")
		}
		// The sniffer routes it to JSON, which also fails — never a
		// silent success.
		if _, err := Decode(bytes.NewReader(bad)); err == nil {
			t.Fatal("sniffed decode of bad magic succeeded")
		}
	})
	t.Run("bad version", func(t *testing.T) {
		bad := append([]byte(nil), valid...)
		bad[len(binaryMagic)] = 99
		if _, err := DecodeBinary(bytes.NewReader(bad)); err == nil ||
			!strings.Contains(err.Error(), "version") {
			t.Fatalf("want version error, got %v", err)
		}
	})
	t.Run("unframed header", func(t *testing.T) {
		bad := append([]byte(nil), valid...)
		flags := len(binaryMagic) + 1 // after the one-byte version
		if bad[flags] != flagFramed {
			t.Fatalf("flags byte = %#x, want %#x", bad[flags], flagFramed)
		}
		bad[flags] = 0
		if _, err := DecodeBinary(bytes.NewReader(bad)); err == nil ||
			!strings.Contains(err.Error(), "unframed") {
			t.Fatalf("want unframed-records error, got %v", err)
		}
	})
	t.Run("truncated", func(t *testing.T) {
		for _, cut := range []int{len(valid) / 4, len(valid) / 2, len(valid) - 1} {
			if _, err := DecodeBinary(bytes.NewReader(valid[:cut])); err == nil {
				t.Fatalf("decode of %d/%d bytes succeeded", cut, len(valid))
			}
		}
	})
	t.Run("trailing bytes", func(t *testing.T) {
		bad := append(append([]byte(nil), valid...), 0x00)
		if _, err := DecodeBinary(bytes.NewReader(bad)); err == nil ||
			!strings.Contains(err.Error(), "trailing") {
			t.Fatalf("want trailing-data error, got %v", err)
		}
	})
	t.Run("flipped body bytes detected", func(t *testing.T) {
		// Flipping any single post-header byte must never be silently
		// absorbed into an identical trace.
		for i := len(binaryMagic) + 2; i < len(valid); i += 7 {
			bad := append([]byte(nil), valid...)
			bad[i] ^= 0xFF
			got, err := DecodeBinary(bytes.NewReader(bad))
			if err == nil && reflect.DeepEqual(got, tr) {
				t.Fatalf("flip at byte %d decoded to an identical trace", i)
			}
		}
	})
}

func TestSaveFormatBinaryAndMixedLoadDir(t *testing.T) {
	dir := t.TempDir()
	a := renameTrace(richTrace(1), "alpha")
	b := renameTrace(richTrace(2), "beta")
	pa, err := a.SaveFormat(dir, FormatBinary)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasSuffix(pa, binarySuffix) {
		t.Errorf("binary save path %q lacks %q", pa, binarySuffix)
	}
	if _, err := b.Save(dir); err != nil {
		t.Fatal(err)
	}

	// Load sniffs the binary file.
	got, err := Load(pa)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, a) {
		t.Fatal("binary Load round trip diverged")
	}

	// LoadDir picks up both formats and sorts by task.
	all, err := LoadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(all) != 2 || all[0].Task != "alpha" || all[1].Task != "beta" {
		t.Fatalf("mixed LoadDir = %d traces", len(all))
	}
	if !reflect.DeepEqual(all[0], a) {
		t.Fatal("mixed LoadDir binary trace diverged from original")
	}
	// The JSON copy is compared against its own JSON round trip:
	// omitempty legitimately collapses empty-but-non-nil slices.
	var jbuf bytes.Buffer
	if err := b.Encode(&jbuf); err != nil {
		t.Fatal(err)
	}
	want, err := Decode(bytes.NewReader(jbuf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(all[1], want) {
		t.Fatal("mixed LoadDir JSON trace diverged from its JSON round trip")
	}
}

func TestLoadHashedBinary(t *testing.T) {
	dir := t.TempDir()
	tr := richTrace(4)
	path, err := tr.SaveFormat(dir, FormatBinary)
	if err != nil {
		t.Fatal(err)
	}
	got, hash, err := LoadHashed(path)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, tr) {
		t.Fatal("LoadHashed binary trace diverged")
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if hash != HashBytes(data) {
		t.Fatal("LoadHashed hash is not the raw-byte content hash")
	}
	// Re-saving identical content keeps the key stable.
	if _, err := tr.SaveFormat(dir, FormatBinary); err != nil {
		t.Fatal(err)
	}
	if h2, err := HashFile(path); err != nil || h2 != hash {
		t.Fatalf("rewrite changed content hash: %v %v", h2, err)
	}
}

func TestParseFormat(t *testing.T) {
	for in, want := range map[string]Format{
		"json": FormatJSON, "dtb": FormatBinary, "binary": FormatBinary, "dtb/v2": FormatBinary,
	} {
		got, err := ParseFormat(in)
		if err != nil || got != want {
			t.Errorf("ParseFormat(%q) = %v, %v; want %v", in, got, err, want)
		}
	}
	if _, err := ParseFormat("xml"); err == nil {
		t.Error("ParseFormat accepted xml")
	}
	if FormatJSON.Suffix() != traceSuffix || FormatBinary.Suffix() != binarySuffix {
		t.Error("format suffixes wrong")
	}
	if FormatJSON.String() != "json" || FormatBinary.String() != "dtb" {
		t.Error("format names wrong")
	}
}
