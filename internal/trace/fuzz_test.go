package trace

import (
	"bytes"
	"reflect"
	"testing"
)

// FuzzCodecRoundTrip feeds arbitrary bytes through the JSON decoder
// and, for every input that parses as a valid trace, asserts the
// JSON→dtb→JSON pipeline is lossless: the binary round trip is deeply
// equal to the JSON-decoded trace and re-encodes to identical JSON.
func FuzzCodecRoundTrip(f *testing.F) {
	for seed := int64(0); seed < 8; seed++ {
		var buf bytes.Buffer
		if err := richTrace(seed).Encode(&buf); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes())
	}
	f.Add([]byte(`{"task":"t","start_ns":0,"end_ns":1}`))
	f.Add([]byte(`{"task":"t","start_ns":0,"end_ns":1,"objects":[],"io_trace":[]}`))

	f.Fuzz(func(t *testing.T, data []byte) {
		orig, err := Decode(bytes.NewReader(data))
		if err != nil {
			return // invalid input; nothing to round-trip
		}
		var bin bytes.Buffer
		if err := orig.EncodeBinary(&bin); err != nil {
			t.Fatalf("binary encode of valid trace failed: %v", err)
		}
		back, err := DecodeBinary(bytes.NewReader(bin.Bytes()))
		if err != nil {
			t.Fatalf("binary decode of own encoding failed: %v", err)
		}
		if !reflect.DeepEqual(back, orig) {
			t.Fatalf("dtb round trip diverged:\n got %+v\nwant %+v", back, orig)
		}
		var j1, j2 bytes.Buffer
		if err := orig.Encode(&j1); err != nil {
			t.Fatal(err)
		}
		if err := back.Encode(&j2); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(j1.Bytes(), j2.Bytes()) {
			t.Fatalf("JSON re-encode after dtb round trip differs:\n got %s\nwant %s", j2.Bytes(), j1.Bytes())
		}
	})
}

// FuzzDecodeBinary hammers the binary decoder with arbitrary bytes: it
// must error or return a valid trace, never panic, and any accepted
// input must re-encode losslessly.
func FuzzDecodeBinary(f *testing.F) {
	for seed := int64(0); seed < 8; seed++ {
		var buf bytes.Buffer
		if err := richTrace(seed).EncodeBinary(&buf); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes())
	}
	f.Add([]byte(binaryMagic))
	f.Fuzz(func(t *testing.T, data []byte) {
		tr, err := DecodeBinary(bytes.NewReader(data))
		if err != nil {
			return
		}
		if err := tr.Validate(); err != nil {
			t.Fatalf("decoder returned invalid trace: %v", err)
		}
		var buf bytes.Buffer
		if err := tr.EncodeBinary(&buf); err != nil {
			t.Fatalf("re-encode of accepted trace failed: %v", err)
		}
		again, err := DecodeBinary(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatalf("decode of re-encode failed: %v", err)
		}
		if !reflect.DeepEqual(again, tr) {
			t.Fatal("re-encode round trip diverged")
		}
	})
}

// FuzzDecodeDelta hammers the metadata-aware decoder with arbitrary
// bytes, biased toward delta-framed records: it must error or return a
// valid trace with coherent metadata, never panic, and any accepted
// frame must re-encode with its own metadata losslessly.
func FuzzDecodeDelta(f *testing.F) {
	for seed := int64(0); seed < 4; seed++ {
		base := canonical(richTrace(seed))
		cur := canonical(richTrace(seed))
		cur.EndNS += 100
		if len(cur.IOTrace) > 0 {
			cur.IOTrace = append(cur.IOTrace, IORecord{Seq: int64(len(cur.IOTrace)), File: "fz", Length: 1})
		}
		var buf bytes.Buffer
		if delta, ok := Diff(base, cur); ok {
			if err := delta.EncodeBinaryOpts(&buf, BinaryOptions{Incremental: true, CheckpointSeq: uint64(seed) + 2, Delta: true, DeltaBaseSeq: uint64(seed) + 1}); err != nil {
				f.Fatal(err)
			}
		} else {
			if err := cur.EncodeBinaryOpts(&buf, BinaryOptions{Incremental: true, CheckpointSeq: uint64(seed) + 2}); err != nil {
				f.Fatal(err)
			}
		}
		f.Add(buf.Bytes())
	}
	f.Add([]byte(binaryMagic))
	f.Add(append([]byte(binaryMagic), binaryVersion, flagFramed|flagIncremental|flagDelta, 2, 1))
	f.Add(append([]byte(binaryMagic), binaryVersion, flagFramed|flagDelta, 2))
	f.Fuzz(func(t *testing.T, data []byte) {
		tr, meta, err := DecodeBytesMeta(data, DecodeOptions{})
		if err != nil {
			return
		}
		if meta.Delta && !meta.Incremental {
			t.Fatal("decoder accepted delta without incremental")
		}
		if err := tr.Validate(); err != nil {
			t.Fatalf("decoder returned invalid trace: %v", err)
		}
		var buf bytes.Buffer
		opts := BinaryOptions{
			Incremental:   meta.Incremental,
			CheckpointSeq: meta.CheckpointSeq,
			Delta:         meta.Delta,
			DeltaBaseSeq:  meta.DeltaBaseSeq,
		}
		if err := tr.EncodeBinaryOpts(&buf, opts); err != nil {
			t.Fatalf("re-encode of accepted frame failed: %v", err)
		}
		again, meta2, err := DecodeBytesMeta(buf.Bytes(), DecodeOptions{})
		if err != nil {
			t.Fatalf("decode of re-encode failed: %v", err)
		}
		if meta2 != meta {
			t.Fatalf("metadata did not survive re-encode: %+v != %+v", meta2, meta)
		}
		if !reflect.DeepEqual(again, tr) {
			t.Fatal("delta frame re-encode round trip diverged")
		}
	})
}

// TestEncodedSizeMatchesBytesWritten is the property test: for both
// formats, EncodedSizeIn must equal the actual byte count an encode
// produces, across a spread of trace shapes including the empty-ish
// minimum.
func TestEncodedSizeMatchesBytesWritten(t *testing.T) {
	traces := []*TaskTrace{
		{Task: "minimal", StartNS: 0, EndNS: 1},
	}
	for seed := int64(0); seed < 40; seed++ {
		traces = append(traces, richTrace(seed))
	}
	for i, tr := range traces {
		for _, format := range []Format{FormatJSON, FormatBinary} {
			want, err := tr.EncodedSizeIn(format)
			if err != nil {
				t.Fatalf("trace %d %s: EncodedSizeIn: %v", i, format, err)
			}
			var buf bytes.Buffer
			if err := tr.EncodeFormat(&buf, format); err != nil {
				t.Fatalf("trace %d %s: encode: %v", i, format, err)
			}
			if int64(buf.Len()) != want {
				t.Errorf("trace %d %s: EncodedSize %d != %d bytes written", i, format, want, buf.Len())
			}
		}
		// Legacy EncodedSize stays the JSON size.
		legacy, err := tr.EncodedSize()
		if err != nil {
			t.Fatal(err)
		}
		jsonSize, _ := tr.EncodedSizeIn(FormatJSON)
		if legacy != jsonSize {
			t.Errorf("trace %d: EncodedSize %d != EncodedSizeIn(JSON) %d", i, legacy, jsonSize)
		}
	}
}
