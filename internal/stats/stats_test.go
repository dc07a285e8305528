package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func approx(a, b, tol float64) bool {
	return math.Abs(a-b) <= tol*math.Max(1, math.Max(math.Abs(a), math.Abs(b)))
}

func TestMean(t *testing.T) {
	if got := Mean([]float64{1, 2, 3, 4}); got != 2.5 {
		t.Errorf("Mean = %v, want 2.5", got)
	}
	if got := Mean(nil); !math.IsNaN(got) {
		t.Errorf("Mean(nil) = %v, want NaN", got)
	}
}

func TestMeanDiscardFirst(t *testing.T) {
	// Cold-start rule: the first (slow) sample must not influence the mean.
	if got := MeanDiscardFirst([]float64{100, 2, 4}); got != 3 {
		t.Errorf("MeanDiscardFirst = %v, want 3", got)
	}
	// Single sample falls back to plain mean.
	if got := MeanDiscardFirst([]float64{7}); got != 7 {
		t.Errorf("MeanDiscardFirst single = %v, want 7", got)
	}
	if got := MeanDiscardFirst(nil); !math.IsNaN(got) {
		t.Errorf("MeanDiscardFirst(nil) = %v, want NaN", got)
	}
}

func TestStdDev(t *testing.T) {
	if got := StdDev([]float64{2, 2, 2}); got != 0 {
		t.Errorf("StdDev of constant = %v, want 0", got)
	}
	if got := StdDev([]float64{1, 3}); got != 1 {
		t.Errorf("StdDev{1,3} = %v, want 1", got)
	}
}

func TestMinMaxSum(t *testing.T) {
	xs := []float64{3, -1, 7, 2}
	if got := Min(xs); got != -1 {
		t.Errorf("Min = %v", got)
	}
	if got := Max(xs); got != 7 {
		t.Errorf("Max = %v", got)
	}
}

func TestPercentile(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5}
	cases := []struct{ p, want float64 }{
		{0, 1}, {50, 3}, {100, 5}, {25, 2}, {75, 4}, {-5, 1}, {200, 5},
	}
	for _, c := range cases {
		if got := Percentile(xs, c.p); got != c.want {
			t.Errorf("Percentile(%v) = %v, want %v", c.p, got, c.want)
		}
	}
	if got := Percentile([]float64{42}, 50); got != 42 {
		t.Errorf("Percentile single = %v", got)
	}
	if got := Percentile(nil, 50); !math.IsNaN(got) {
		t.Errorf("Percentile(nil) = %v, want NaN", got)
	}
	if got := Percentile([]float64{}, 0); !math.IsNaN(got) {
		t.Errorf("Percentile(empty) = %v, want NaN", got)
	}
	// Unsorted input must give the order statistics of the sorted data.
	unsorted := []float64{9, 1, 5, 3, 7}
	for _, c := range []struct{ p, want float64 }{{0, 1}, {25, 3}, {50, 5}, {75, 7}, {100, 9}} {
		if got := Percentile(unsorted, c.p); got != c.want {
			t.Errorf("Percentile(unsorted, %v) = %v, want %v", c.p, got, c.want)
		}
	}
	// Percentile must not reorder the caller's slice.
	orig := []float64{5, 1, 3}
	Percentile(orig, 50)
	if orig[0] != 5 || orig[1] != 1 || orig[2] != 3 {
		t.Errorf("Percentile mutated input: %v", orig)
	}
}

func TestPctChangeAndSpeedup(t *testing.T) {
	if got := PctChange(100, 133); !approx(got, 33, 1e-12) {
		t.Errorf("PctChange = %v, want 33", got)
	}
	if got := PctChange(0, 5); !math.IsNaN(got) {
		t.Errorf("PctChange zero base = %v", got)
	}
}

// Property: the mean always lies within [min, max].
func TestMeanBoundedProperty(t *testing.T) {
	f := func(raw []float64) bool {
		xs := make([]float64, 0, len(raw))
		for _, x := range raw {
			if !math.IsNaN(x) && !math.IsInf(x, 0) && math.Abs(x) < 1e9 {
				xs = append(xs, x)
			}
		}
		if len(xs) == 0 {
			return true
		}
		m := Mean(xs)
		return m >= Min(xs)-1e-9 && m <= Max(xs)+1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: percentiles are monotone in p.
func TestPercentileMonotoneProperty(t *testing.T) {
	f := func(raw []float64, a, b uint8) bool {
		xs := make([]float64, 0, len(raw))
		for _, x := range raw {
			if !math.IsNaN(x) && !math.IsInf(x, 0) {
				xs = append(xs, x)
			}
		}
		if len(xs) == 0 {
			return true
		}
		p1 := float64(a % 101)
		p2 := float64(b % 101)
		if p1 > p2 {
			p1, p2 = p2, p1
		}
		return Percentile(xs, p1) <= Percentile(xs, p2)+1e-12
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
