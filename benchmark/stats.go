package main

import (
	"math"
	"slices"
)

// minBeyond is how many samples must lie above a reported tail percentile.
const minBeyond = 10

// median returns the middle of xs (the mean of the two middle values for an
// even count). A failed job enters as +Inf.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// percentile returns the nearest-rank p-quantile of xs (0 < p <= 1) and how
// many samples lie above that rank.
func percentile(xs []float64, p float64) (v float64, beyond int) {
	if len(xs) == 0 {
		return math.NaN(), 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	rank := int(math.Ceil(p*float64(len(s)) - 1e-9))
	rank = max(1, min(rank, len(s)))
	return s[rank-1], len(s) - rank
}

// tail returns the 90th percentile of xs when at least minBeyond samples lie
// above it; otherwise the highest nearest-rank percentile that still has
// minBeyond samples above it; and with minBeyond samples or fewer, the
// largest sample. It also returns the quantile it reported.
func tail(xs []float64) (v, p float64) {
	n := len(xs)
	if v, beyond := percentile(xs, 0.9); beyond >= minBeyond {
		return v, 0.9
	}
	if n <= minBeyond {
		v, _ := percentile(xs, 1)
		return v, 1
	}
	p = float64(n-minBeyond) / float64(n)
	v, _ = percentile(xs, p)
	return v, p
}
