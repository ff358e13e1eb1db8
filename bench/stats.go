package main

import (
	"math"
	"sort"
)

// percentile returns the p-th percentile (0 < p <= 100) of sorted by the
// nearest-rank rule: the smallest sample with at least p% of the samples
// at or below it. sorted must be ascending and non-empty.
func percentile(sorted []float64, p float64) float64 {
	return sorted[rankOf(p, len(sorted))-1]
}

// rankOf is the 1-based nearest rank of the p-th percentile among n
// samples: ceil(p/100 × n), clamped to [1, n]. Percentiles are taken to a
// tenth, in integers, so that p99.9 of 10000 is rank 9990 and not 9991 by
// a floating-point hair.
func rankOf(p float64, n int) int {
	tenths := int(math.Round(p * 10))
	rank := (tenths*n + 999) / 1000
	if rank < 1 {
		rank = 1
	}
	if rank > n {
		rank = n
	}
	return rank
}

// median is the 50th percentile by linear interpolation between the two
// middle samples; unlike the nearest-rank rule it is the statistic
// Python's statistics.median reports, which is what the acceptance
// procedure compares. sorted must be ascending and non-empty.
func median(sorted []float64) float64 {
	n := len(sorted)
	if n%2 == 1 {
		return sorted[n/2]
	}
	return (sorted[n/2-1] + sorted[n/2]) / 2
}

// tailPercentiles are the candidates for "the highest percentile that
// has at least ten samples beyond it", highest first.
var tailPercentiles = []float64{99.9, 99, 98, 95, 90, 75}

// highestTail returns the highest candidate percentile with at least
// minBeyond samples strictly above its rank, or 50 when the sample is too
// small for any of them.
func highestTail(n, minBeyond int) float64 {
	for _, p := range tailPercentiles {
		if n-rankOf(p, n) >= minBeyond {
			return p
		}
	}
	return 50
}

// sample is a set of timings with the summary the benchmark reports:
// median, a fixed tail percentile, and how many samples back them.
type sample struct {
	sorted []float64
}

func newSample(values []float64) sample {
	s := append([]float64(nil), values...)
	sort.Float64s(s)
	return sample{sorted: s}
}

func (s sample) n() int { return len(s.sorted) }

func (s sample) p50() float64 {
	if len(s.sorted) == 0 {
		return 0
	}
	return median(s.sorted)
}

func (s sample) pct(p float64) float64 {
	if len(s.sorted) == 0 {
		return 0
	}
	return percentile(s.sorted, p)
}

// quartiles returns the first and third quartile the way Python's
// statistics.quantiles(values, n=4) does (the default "exclusive"
// method), so the spread this program prints is the one the acceptance
// procedure computes. It needs at least two values.
func quartiles(values []float64) (q1, q3 float64) {
	s := append([]float64(nil), values...)
	sort.Float64s(s)
	n := len(s)
	at := func(i int) float64 { // i-th of 4 cut points
		pos := float64(i) * float64(n+1) / 4 // 1-based
		j := int(math.Floor(pos))
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		frac := pos - float64(j)
		return s[j-1] + frac*(s[j]-s[j-1])
	}
	return at(1), at(3)
}

// spread is the interquartile range as a share of the median: the
// run-to-run noise figure a bound is compared against.
func spread(values []float64) float64 {
	if len(values) < 2 {
		return 0
	}
	q1, q3 := quartiles(values)
	s := append([]float64(nil), values...)
	sort.Float64s(s)
	m := median(s)
	if m == 0 {
		return 0
	}
	return math.Abs((q3 - q1) / m)
}
