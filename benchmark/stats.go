package main

import (
	"math"
	"sort"
)

// summary describes one metric's samples inside a run, so a noisy host
// shows in the record instead of being guessed later.
type summary struct {
	N      int     `json:"n"`
	Median float64 `json:"median"`
	Q1     float64 `json:"q1"`
	Q3     float64 `json:"q3"`
	// TailPct is the highest of p50/p75/p90/p95/p99 that has at least
	// ten samples beyond it (0 when none qualifies), Tail its value.
	TailPct int     `json:"tail_pct,omitempty"`
	Tail    float64 `json:"tail,omitempty"`
}

func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// quantile interpolates linearly between order statistics of an
// already sorted slice (the "inclusive" method); q in [0,1].
func quantile(s []float64, q float64) float64 {
	if len(s) == 0 {
		return 0
	}
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(sorted(xs), 0.5) }

// tailPercentile picks the highest of p50, p75, p90, p95 and p99 that
// leaves at least ten samples beyond it; a percentile resting on fewer
// samples is one outlier's value, not a property of the distribution.
func tailPercentile(n int) int {
	for _, p := range []int{99, 95, 90, 75, 50} {
		if n*(100-p)/100 >= 10 {
			return p
		}
	}
	return 0
}

func summarize(xs []float64) summary {
	s := sorted(xs)
	out := summary{N: len(s), Median: quantile(s, 0.5), Q1: quantile(s, 0.25), Q3: quantile(s, 0.75)}
	if p := tailPercentile(len(s)); p > 0 {
		out.TailPct, out.Tail = p, quantile(s, float64(p)/100)
	}
	return out
}

// spread is the interquartile distance as a share of the median, the
// noise measure the regression bounds are compared against.
func (s summary) spread() float64 {
	if s.Median == 0 {
		return 0
	}
	return (s.Q3 - s.Q1) / math.Abs(s.Median)
}
