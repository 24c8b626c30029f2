package units

import (
	"fmt"
	"math"
	"testing"
	"testing/quick"
	"time"
)

func TestBytes(t *testing.T) {
	cases := []struct {
		in   int64
		want string
	}{
		{0, "0 B"},
		{512, "512 B"},
		{1023, "1023 B"},
		{1024, "1.0 KiB"},
		{1536, "1.5 KiB"},
		{2 * MiB, "2.0 MiB"},
		{3 * GiB, "3.0 GiB"},
		{2 * TiB, "2.00 TiB"},
		{-512, "-512 B"},
	}
	for _, c := range cases {
		if got := Bytes(c.in); got != c.want {
			t.Errorf("Bytes(%d) = %q, want %q", c.in, got, c.want)
		}
	}
}

// TestAppendBytes pins Bytes and AppendBytes at every unit boundary,
// both signs and the TiB branch, to the strings the fmt-based formatter
// wrote, and holds the two to each other over random counts.
func TestAppendBytes(t *testing.T) {
	cases := []struct {
		in   int64
		want string
	}{
		{0, "0 B"},
		{1, "1 B"},
		{1023, "1023 B"},
		{1024, "1.0 KiB"},
		{1025, "1.0 KiB"},
		{1048524, "1023.9 KiB"},
		{MiB - 1, "1024.0 KiB"},
		{MiB, "1.0 MiB"},
		{MiB + 1, "1.0 MiB"},
		{GiB - 1, "1024.0 MiB"},
		{GiB, "1.0 GiB"},
		{GiB + 1, "1.0 GiB"},
		{TiB - 1, "1024.0 GiB"},
		{TiB, "1.00 TiB"},
		{TiB + 1, "1.00 TiB"},
		{1 << 50, "1024.00 TiB"},
		{1 << 60, "1048576.00 TiB"},
		{math.MaxInt64, "8388608.00 TiB"},
		{-1, "-1 B"},
		{-1023, "-1023 B"},
		{-1024, "-1.0 KiB"},
		{-MiB, "-1.0 MiB"},
		{-(GiB - 1), "-1024.0 MiB"},
		{-TiB, "-1.00 TiB"},
		{-math.MaxInt64, "-8388608.00 TiB"},
		// The fmt-based formatter recursed forever here.
		{math.MinInt64, "-8388608.00 TiB"},
	}
	for _, c := range cases {
		if got := Bytes(c.in); got != c.want {
			t.Errorf("Bytes(%d) = %q, want %q", c.in, got, c.want)
		}
		if got := AppendBytes([]byte("x="), c.in); string(got) != "x="+c.want {
			t.Errorf("AppendBytes(x=, %d) = %q, want %q", c.in, got, "x="+c.want)
		}
	}
	agree := func(n int64) bool {
		return string(AppendBytes(nil, n)) == Bytes(n) && Bytes(n) == fmtBytes(n)
	}
	if err := quick.Check(agree, nil); err != nil {
		t.Error(err)
	}
	for shift := 0; shift < 63; shift++ {
		for _, n := range []int64{1<<shift - 1, 1 << shift, 1<<shift + 1} {
			if !agree(n) || !agree(-n) {
				t.Errorf("Bytes(±%d) = %q, fmt wrote %q", n, Bytes(n), fmtBytes(n))
			}
		}
	}
}

// fmtBytes is the fmt-based formatter Bytes replaced, kept as the
// reference for every count it terminated on.
func fmtBytes(n int64) string {
	switch {
	case n < 0:
		return "-" + fmtBytes(-n)
	case n < KiB:
		return fmt.Sprintf("%d B", n)
	case n < MiB:
		return fmt.Sprintf("%.1f KiB", float64(n)/float64(KiB))
	case n < GiB:
		return fmt.Sprintf("%.1f MiB", float64(n)/float64(MiB))
	case n < TiB:
		return fmt.Sprintf("%.1f GiB", float64(n)/float64(GiB))
	default:
		return fmt.Sprintf("%.2f TiB", float64(n)/float64(TiB))
	}
}

func TestDuration(t *testing.T) {
	cases := []struct {
		in   time.Duration
		want string
	}{
		{500 * time.Nanosecond, "500ns"},
		{1500 * time.Nanosecond, "1.50µs"},
		{2500 * time.Microsecond, "2.50ms"},
		{1500 * time.Millisecond, "1.50s"},
		{90 * time.Second, "1.5m"},
		{-500 * time.Nanosecond, "-500ns"},
	}
	for _, c := range cases {
		if got := Duration(c.in); got != c.want {
			t.Errorf("Duration(%v) = %q, want %q", c.in, got, c.want)
		}
	}
}

func TestPercentAndRatio(t *testing.T) {
	if got := Percent(1, 4); got != "25.00%" {
		t.Errorf("Percent(1,4) = %q", got)
	}
	if got := Percent(1, 0); got != "0.00%" {
		t.Errorf("Percent(1,0) = %q", got)
	}
	if got := Ratio(1, 4); got != 0.25 {
		t.Errorf("Ratio(1,4) = %v", got)
	}
	if got := Ratio(1, 0); got != 0 {
		t.Errorf("Ratio(1,0) = %v", got)
	}
}

func TestCeilDiv(t *testing.T) {
	cases := []struct{ a, b, want int64 }{
		{0, 4, 0}, {1, 4, 1}, {4, 4, 1}, {5, 4, 2}, {8, 4, 2}, {-3, 4, 0},
	}
	for _, c := range cases {
		if got := CeilDiv(c.a, c.b); got != c.want {
			t.Errorf("CeilDiv(%d,%d) = %d, want %d", c.a, c.b, got, c.want)
		}
	}
	defer func() {
		if recover() == nil {
			t.Error("CeilDiv with zero divisor did not panic")
		}
	}()
	CeilDiv(1, 0)
}

func TestCeilDivProperty(t *testing.T) {
	f := func(a int64, b int64) bool {
		if b <= 0 {
			b = -b + 1
		}
		a &= math.MaxInt32 // avoid overflow in a+b-1
		got := CeilDiv(a, b)
		return got*b >= a && (got-1)*b < a || (a <= 0 && got == 0)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestClampMinMax(t *testing.T) {
	if Clamp(5, 0, 3) != 3 || Clamp(-1, 0, 3) != 0 || Clamp(2, 0, 3) != 2 {
		t.Error("Clamp misbehaves")
	}
	if MinInt(2, 3) != 2 || MinInt(3, 2) != 2 {
		t.Error("MinInt misbehaves")
	}
	if MaxInt(2, 3) != 3 || MaxInt(3, 2) != 3 {
		t.Error("MaxInt misbehaves")
	}
}

func TestPercentile(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5}
	cases := []struct{ p, want float64 }{
		{0, 1}, {100, 5}, {50, 3}, {25, 2}, {-5, 1}, {105, 5},
	}
	for _, c := range cases {
		if got := Percentile(xs, c.p); got != c.want {
			t.Errorf("Percentile(%v) = %v, want %v", c.p, got, c.want)
		}
	}
	if Percentile(nil, 50) != 0 {
		t.Error("Percentile(nil) != 0")
	}
	// Interpolation between ranks.
	if got := Percentile([]float64{0, 10}, 50); got != 5 {
		t.Errorf("interpolated percentile = %v, want 5", got)
	}
}

func TestPercentileProperties(t *testing.T) {
	f := func(raw []float64, p float64) bool {
		xs := raw[:0]
		for _, x := range raw {
			if !math.IsNaN(x) && !math.IsInf(x, 0) {
				xs = append(xs, x)
			}
		}
		if len(xs) == 0 {
			return Percentile(xs, p) == 0
		}
		p = math.Mod(math.Abs(p), 100)
		got := Percentile(xs, p)
		lo, hi := Percentile(xs, 0), Percentile(xs, 100)
		return got >= lo && got <= hi
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestMeanSum(t *testing.T) {
	if Mean(nil) != 0 {
		t.Error("Mean(nil) != 0")
	}
	if Mean([]float64{2, 4}) != 3 {
		t.Error("Mean wrong")
	}
	if Sum([]float64{1, 2, 3}) != 6 {
		t.Error("Sum wrong")
	}
}
