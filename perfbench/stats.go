package main

import (
	"math"
	"sort"
)

// minTail is the number of samples a reported tail percentile must
// leave above it.
const minTail = 10

// tail is a latency percentile as reported: the value, the percentile it
// really is, and how many samples lie strictly above it.
type tail struct {
	value   float64
	pct     float64
	beyond  int
	samples int
}

// tailPercentile returns the q-quantile (nearest rank) of xs, lowered
// when needed so that at least minTail samples lie strictly above it:
// the highest percentile up to q that the sample supports. xs must be
// sorted ascending and hold more than minTail values.
func tailPercentile(xs []float64, q float64) tail {
	n := len(xs)
	i := int(math.Ceil(q*float64(n))) - 1
	if i < 0 {
		i = 0
	}
	if i > n-1-minTail {
		i = n - 1 - minTail
	}
	// Ties with the samples above would make fewer than minTail lie
	// strictly beyond; step down past them.
	for i > 0 && xs[i] == xs[n-minTail] {
		i--
	}
	beyond := n - sort.SearchFloat64s(xs, math.Nextafter(xs[i], math.Inf(1)))
	return tail{value: xs[i], pct: 100 * float64(i+1) / float64(n), beyond: beyond, samples: n}
}

// median of xs (any order; xs is not modified). Zero for an empty slice.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

// mean of xs; zero for an empty slice.
func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	total := 0.0
	for _, x := range xs {
		total += x
	}
	return total / float64(len(xs))
}
