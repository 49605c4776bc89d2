package main

import (
	"math"
	"sort"
)

// tailLadder is the set of percentiles a tail may be reported at, highest
// first.
var tailLadder = []float64{99.9, 99, 95, 90, 75, 50}

// tailPercentile returns the highest percentile of tailLadder that leaves
// at least ten of n samples strictly above it, or 0 when n is too small
// for any of them.
func tailPercentile(n int) float64 {
	for _, p := range tailLadder {
		// The epsilon absorbs rounding in 100-p (99.9 is not exact).
		if float64(n)*(100-p)/100 >= 10-1e-9 {
			return p
		}
	}
	return 0
}

// percentile returns the p-th percentile of xs (0 <= p <= 100) by linear
// interpolation between closest ranks; xs need not be sorted and is not
// modified. An empty slice yields 0.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := p / 100 * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return percentile(xs, 50) }

func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}
