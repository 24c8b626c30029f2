package trace

import (
	"bytes"
	"io"
	"reflect"
	"testing"
	"unsafe"
)

// TestEncodeBinaryAllocBudget holds the pooled encoder to its
// contract: once the pool is warm, encoding a representative trace
// performs no heap allocations beyond (rarely) pool bookkeeping. A
// regression here — a per-record buffer, a closure per frame, a
// rebuilt intern table — fails in CI instead of only moving a BENCH
// number.
func TestEncodeBinaryAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not stable under the race detector")
	}
	tr := richTrace(7)
	// Warm the pool so buffer growth is amortized out.
	for i := 0; i < 4; i++ {
		if err := tr.EncodeBinary(io.Discard); err != nil {
			t.Fatal(err)
		}
	}
	allocs := testing.AllocsPerRun(200, func() {
		if err := tr.EncodeBinary(io.Discard); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 1 {
		t.Errorf("dtb encode allocates %.1f times per run with a warm pool, budget 1", allocs)
	}
}

// TestDecodeBinaryBytesZeroCopy checks the opt-in zero-copy decode:
// the result is deeply equal to the copying decode, and its string
// fields genuinely alias the input buffer instead of copying it.
func TestDecodeBinaryBytesZeroCopy(t *testing.T) {
	tr := richTrace(3)
	var buf bytes.Buffer
	if err := tr.EncodeBinary(&buf); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()

	copied, err := DecodeBinaryBytes(data, DecodeOptions{})
	if err != nil {
		t.Fatal(err)
	}
	zero, err := DecodeBinaryBytes(data, DecodeOptions{ZeroCopy: true})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(copied, zero) {
		t.Fatal("zero-copy decode differs from copying decode")
	}
	if !reflect.DeepEqual(zero, tr) {
		t.Fatal("zero-copy decode differs from original trace")
	}

	aliases := func(s string) bool {
		if len(s) == 0 || len(data) == 0 {
			return false
		}
		p := uintptr(unsafe.Pointer(unsafe.StringData(s)))
		lo := uintptr(unsafe.Pointer(&data[0]))
		return p >= lo && p < lo+uintptr(len(data))
	}
	if !aliases(zero.Task) {
		t.Error("zero-copy task name does not alias the input buffer")
	}
	if copied.Task != "" && aliases(copied.Task) {
		t.Error("copying decode aliases the input buffer")
	}
}

// TestDecodeBytesSniffs pins the byte-slice entry point used by Load,
// LoadHashed and serve push: both serializations decode through it.
func TestDecodeBytesSniffs(t *testing.T) {
	tr := richTrace(11)
	var bin, js bytes.Buffer
	if err := tr.EncodeBinary(&bin); err != nil {
		t.Fatal(err)
	}
	if err := tr.Encode(&js); err != nil {
		t.Fatal(err)
	}
	fromBin, err := DecodeBytes(bin.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	fromJSON, err := DecodeBytes(js.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(fromBin, tr) || !reflect.DeepEqual(fromJSON, tr) {
		t.Fatal("DecodeBytes round trip diverges")
	}
	if _, err := DecodeBytes(append(bin.Bytes(), 0x00)); err == nil {
		t.Fatal("DecodeBytes accepted trailing binary garbage")
	}
}
