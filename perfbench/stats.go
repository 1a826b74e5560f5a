package main

import (
	"math"
	"sort"
	"time"
)

// tailQuantile is the percentile the benchmark reports as a timing's tail:
// 0.95, lowered until at least minBeyond samples lie beyond it, so the tail
// is never read off one or two outliers. The reported figure states its
// sample count and the quantile actually used.
func tailQuantile(n int) float64 {
	const minBeyond = 10
	if n <= 2*minBeyond {
		return 0.5
	}
	q := 1 - float64(minBeyond)/float64(n)
	return math.Min(q, 0.95)
}

// quantile returns the nearest-rank q-quantile of xs (sorted in place).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	sort.Float64s(xs)
	i := int(math.Ceil(q*float64(len(xs)))) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(xs) {
		i = len(xs) - 1
	}
	return xs[i]
}

// median returns the middle value of xs (mean of the two middle values for
// an even count), leaving xs untouched.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// msOf converts durations to float milliseconds.
func msOf(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = float64(d) / float64(time.Millisecond)
	}
	return out
}

// ratio returns num/den, or 0 when den is 0 (a layer that did no work).
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}
