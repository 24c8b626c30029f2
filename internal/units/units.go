// Package units provides byte-size and duration formatting helpers plus
// small numeric utilities shared across the DaYu codebase.
package units

import (
	"fmt"
	"math"
	"sort"
	"strconv"
	"time"
)

// Common byte sizes.
const (
	KiB int64 = 1 << 10
	MiB int64 = 1 << 20
	GiB int64 = 1 << 30
	TiB int64 = 1 << 40
)

// Bytes renders a byte count with a binary-unit suffix, e.g. "512 B",
// "4.0 KiB", "1.5 GiB".
func Bytes(n int64) string { return string(AppendBytes(make([]byte, 0, 24), n)) }

// AppendBytes appends Bytes(n) to b: a plain count below 1 KiB, one
// decimal in KiB, MiB and GiB, two in TiB, and a leading '-' for a
// negative count.
func AppendBytes(b []byte, n int64) []byte {
	if n < 0 {
		b = append(b, '-')
		n = -max(n, -math.MaxInt64) // -MinInt64 overflows; MaxInt64 renders the same
	}
	switch {
	case n < KiB:
		return append(strconv.AppendInt(b, n, 10), " B"...)
	case n < MiB:
		return appendScaled(b, float64(n), KiB, 1, " KiB")
	case n < GiB:
		return appendScaled(b, float64(n), MiB, 1, " MiB")
	case n < TiB:
		return appendScaled(b, float64(n), GiB, 1, " GiB")
	default:
		return appendScaled(b, float64(n), TiB, 2, " TiB")
	}
}

func appendScaled(b []byte, v float64, unit int64, prec int, suffix string) []byte {
	return append(strconv.AppendFloat(b, v/float64(unit), 'f', prec, 64), suffix...)
}

// Duration renders a duration compactly with three significant figures,
// e.g. "1.23ms", "45.6s".
func Duration(d time.Duration) string {
	switch {
	case d < 0:
		return "-" + Duration(-d)
	case d < time.Microsecond:
		return fmt.Sprintf("%dns", d.Nanoseconds())
	case d < time.Millisecond:
		return fmt.Sprintf("%.2fµs", float64(d.Nanoseconds())/1e3)
	case d < time.Second:
		return fmt.Sprintf("%.2fms", float64(d.Nanoseconds())/1e6)
	case d < time.Minute:
		return fmt.Sprintf("%.2fs", d.Seconds())
	default:
		return fmt.Sprintf("%.1fm", d.Minutes())
	}
}

// Percent renders part/whole as a percentage string, guarding against a
// zero denominator.
func Percent(part, whole float64) string {
	if whole == 0 {
		return "0.00%"
	}
	return fmt.Sprintf("%.2f%%", 100*part/whole)
}

// Ratio returns part/whole, or 0 when whole is zero.
func Ratio(part, whole float64) float64 {
	if whole == 0 {
		return 0
	}
	return part / whole
}

// CeilDiv returns ⌈a/b⌉ for positive b.
func CeilDiv(a, b int64) int64 {
	if b <= 0 {
		panic("units: CeilDiv with non-positive divisor")
	}
	if a <= 0 {
		return 0
	}
	return (a + b - 1) / b
}

// Clamp limits v to [lo, hi].
func Clamp(v, lo, hi float64) float64 {
	return math.Max(lo, math.Min(hi, v))
}

// MinInt returns the smaller of a and b.
func MinInt(a, b int64) int64 {
	if a < b {
		return a
	}
	return b
}

// MaxInt returns the larger of a and b.
func MaxInt(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}

// Percentile returns the p-th percentile (0..100) of xs using linear
// interpolation. It copies and sorts its input; an empty slice yields 0.
func Percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	ys := append([]float64(nil), xs...)
	sort.Float64s(ys)
	if p <= 0 {
		return ys[0]
	}
	if p >= 100 {
		return ys[len(ys)-1]
	}
	rank := p / 100 * float64(len(ys)-1)
	lo := int(math.Floor(rank))
	hi := int(math.Ceil(rank))
	if lo == hi {
		return ys[lo]
	}
	frac := rank - float64(lo)
	return ys[lo]*(1-frac) + ys[hi]*frac
}

// Mean returns the arithmetic mean of xs, or 0 for an empty slice.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// Sum returns the sum of xs.
func Sum(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s
}
