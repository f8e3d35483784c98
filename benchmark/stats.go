package main

import (
	"math"
	"sort"
)

// minBeyond is how many samples must lie beyond a tail percentile before
// the benchmark reports it; with fewer, the percentile is mostly one or
// two unlucky samples and is printed as invalid instead.
const minBeyond = 10

// rank returns the 1-based nearest rank of the q-quantile among n
// samples: the smallest rank with at least a q share of the samples at
// or below it.
func rank(n int, q float64) int {
	// The epsilon keeps q*n from rounding up past an exact integer
	// (0.95*240 evaluates to 228.00000000000003).
	r := int(math.Ceil(q*float64(n) - 1e-9))
	if r < 1 {
		r = 1
	}
	if r > n {
		r = n
	}
	return r
}

// percentile returns the nearest-rank q-quantile (0 < q <= 1) of sorted
// samples; NaN when there are none.
func percentile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	return sorted[rank(len(sorted), q)-1]
}

// tail returns the nearest-rank q-quantile of sorted samples and whether
// at least minBeyond samples lie beyond it.
func tail(sorted []float64, q float64) (float64, bool) {
	if len(sorted) == 0 {
		return math.NaN(), false
	}
	r := rank(len(sorted), q)
	return sorted[r-1], len(sorted)-r >= minBeyond
}

// metric is one reported number: the median of its samples with their
// quartiles and count. Invalid marks a tail percentile with too few
// samples beyond it; its Value is then not to be used.
type metric struct {
	Value   float64 `json:"value"`
	Unit    string  `json:"unit"`
	Q1      float64 `json:"q1"`
	Q3      float64 `json:"q3"`
	N       int     `json:"n"`
	Invalid bool    `json:"invalid,omitempty"`
}

// sampled summarizes samples as their median and quartiles.
func sampled(unit string, xs []float64) metric {
	s := sortedCopy(xs)
	return metric{Value: percentile(s, 0.5), Unit: unit,
		Q1: percentile(s, 0.25), Q3: percentile(s, 0.75), N: len(s)}
}

// single reports one measured value.
func single(unit string, v float64) metric {
	return metric{Value: v, Unit: unit, Q1: v, Q3: v, N: 1}
}

// tailOf reports the q-quantile of xs, invalid unless minBeyond samples
// lie beyond it.
func tailOf(unit string, xs []float64, q float64) metric {
	s := sortedCopy(xs)
	v, ok := tail(s, q)
	return metric{Value: v, Unit: unit, Q1: v, Q3: v, N: len(s), Invalid: !ok}
}

func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// spread is the distance between the quartiles as a share of the
// median.
func (m metric) spread() float64 {
	if m.Value == 0 {
		return 0
	}
	return (m.Q3 - m.Q1) / math.Abs(m.Value)
}
