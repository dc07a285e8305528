// Package stats implements the small statistical toolkit the experiment
// harness uses: means, standard deviations, percentiles, and the paper's
// "discard the first sample" aggregation rule (§III-C: every metric is the
// arithmetic mean across all values except the first, which is dropped to
// hide cold-start effects).
package stats

import (
	"math"
	"sort"
)

// Mean returns the arithmetic mean of xs, or NaN for an empty slice.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// MeanDiscardFirst drops the first element and returns the mean of the rest,
// implementing the paper's cold-start rule. With fewer than two samples it
// falls back to Mean so single-shot runs still report a value.
func MeanDiscardFirst(xs []float64) float64 {
	if len(xs) < 2 {
		return Mean(xs)
	}
	return Mean(xs[1:])
}

// StdDev returns the population standard deviation of xs, or NaN for an
// empty slice.
func StdDev(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	m := Mean(xs)
	s := 0.0
	for _, x := range xs {
		d := x - m
		s += d * d
	}
	return math.Sqrt(s / float64(len(xs)))
}

// Min returns the smallest element of xs, or NaN for an empty slice.
func Min(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	m := xs[0]
	for _, x := range xs[1:] {
		if x < m {
			m = x
		}
	}
	return m
}

// Max returns the largest element of xs, or NaN for an empty slice.
func Max(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	m := xs[0]
	for _, x := range xs[1:] {
		if x > m {
			m = x
		}
	}
	return m
}

// Percentile returns the p-th percentile (0 <= p <= 100) of xs using linear
// interpolation between closest ranks. It returns NaN for an empty slice and
// clamps p to [0, 100].
func Percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	p = math.Max(0, math.Min(100, p))
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	if len(sorted) == 1 {
		return sorted[0]
	}
	rank := p / 100 * float64(len(sorted)-1)
	lo := int(math.Floor(rank))
	hi := int(math.Ceil(rank))
	if lo == hi {
		return sorted[lo]
	}
	frac := rank - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac
}

// PctChange reports the relative change from base to v as a percentage:
// +10 means v is 10% higher than base. A zero base yields NaN.
func PctChange(base, v float64) float64 {
	if base == 0 {
		return math.NaN()
	}
	return (v - base) / base * 100
}
