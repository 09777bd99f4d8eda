package main

import (
	"fmt"
	"math"
	"sort"
)

// minBeyond is the number of samples that must lie strictly beyond a
// percentile before the benchmark reports it: a tail figure resting on
// fewer samples is noise.
const minBeyond = 10

// percentile returns the nearest-rank p-th percentile (0 < p < 100) of
// xs.  It refuses, with an error, when fewer than minBeyond samples lie
// beyond the percentile.  xs is not modified.
func percentile(xs []float64, p float64) (float64, error) {
	if p <= 0 || p >= 100 {
		return 0, fmt.Errorf("percentile %v out of (0, 100)", p)
	}
	n := len(xs)
	rank, beyond := rankOf(n, p)
	if beyond < minBeyond {
		return 0, fmt.Errorf("p%v of %d samples has %d beyond it, need %d", p, n, beyond, minBeyond)
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s[rank-1], nil
}

// rankOf returns the 1-based nearest rank of the p-th percentile of n
// samples and how many samples lie beyond it.
func rankOf(n int, p float64) (rank, beyond int) {
	rank = int(math.Ceil(p / 100 * float64(n)))
	return rank, n - rank
}

// median returns the middle value of xs (the mean of the two middle
// values for an even count), or NaN for no samples.
func median(xs []float64) float64 {
	n := len(xs)
	if n == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// mean returns the arithmetic mean of xs, or NaN for no samples.
func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}
