package main

import (
	"math"
	"testing"
)

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	return xs
}

func TestPercentileNearestRank(t *testing.T) {
	for _, tc := range []struct {
		n    int
		q    float64
		want float64
	}{
		{1, 0.5, 1},
		{2, 0.5, 1},
		{3, 0.5, 2},
		{4, 0.25, 1},
		{4, 0.75, 3},
		{10, 0.95, 10},
		{100, 0.95, 95},
		{240, 0.95, 228}, // 0.95*240 must not round up to rank 229
		{200, 0.99, 198},
		{5, 1, 5},
		{5, 0.01, 1},
	} {
		if got := percentile(seq(tc.n), tc.q); got != tc.want {
			t.Errorf("percentile(1..%d, %v) = %v, want %v", tc.n, tc.q, got, tc.want)
		}
	}
	if got := percentile(nil, 0.5); !math.IsNaN(got) {
		t.Errorf("percentile of no samples = %v, want NaN", got)
	}
}

func TestTailNeedsTenBeyond(t *testing.T) {
	for _, tc := range []struct {
		n     int
		q     float64
		valid bool
	}{
		{200, 0.95, true},  // rank 190, 10 beyond
		{199, 0.95, false}, // rank 190, 9 beyond
		{240, 0.95, true},  // rank 228, 12 beyond
		{100, 0.95, false}, // rank 95, 5 beyond
		{1000, 0.99, true}, // rank 990, 10 beyond
		{999, 0.99, false}, // rank 990, 9 beyond
		{20, 0.5, true},    // rank 10, 10 beyond
		{0, 0.95, false},
	} {
		_, ok := tail(seq(tc.n), tc.q)
		if ok != tc.valid {
			t.Errorf("tail(1..%d, %v) valid = %v, want %v", tc.n, tc.q, ok, tc.valid)
		}
		if m := tailOf("ms", seq(tc.n), tc.q); m.Invalid == tc.valid {
			t.Errorf("tailOf(1..%d, %v).Invalid = %v, want %v", tc.n, tc.q, m.Invalid, !tc.valid)
		}
	}
}

func TestSampledQuartiles(t *testing.T) {
	m := sampled("ms", []float64{5, 1, 4, 2, 3, 8, 7, 6})
	if m.Value != 4 || m.Q1 != 2 || m.Q3 != 6 || m.N != 8 {
		t.Errorf("sampled = %+v, want median 4, q1 2, q3 6, n 8", m)
	}
	if got, want := m.spread(), 1.0; got != want {
		t.Errorf("spread = %v, want %v", got, want)
	}
}

func TestVerdict(t *testing.T) {
	lower := metricSpec{Name: "norm_latency_ms", Better: "lower", Bound: 0.1}
	higher := metricSpec{Name: "minstr_per_s", Better: "higher", Bound: 0.1}
	setup := metricSpec{Name: "setup_s", Better: "lower", Bound: 0.1}
	at := func(v float64) metric { return single("x", v) }
	for _, tc := range []struct {
		a, b metric
		ms   metricSpec
		want string
	}{
		{at(100), at(105), lower, "same"},
		{at(100), at(115), lower, "worse"},
		{at(100), at(85), lower, "better"},
		{at(100), at(85), higher, "worse"},
		{at(100), at(115), higher, "better"},
		{metric{Value: 100, Q1: 80, Q3: 120}, at(100), lower, "unresolved"},
		{at(100), metric{Value: 200, Q1: 150, Q3: 250}, lower, "unresolved"},
		// setup_s has a 0.05 s floor: a 2 ms start may double or spread
		// widely, but 2 ms -> 60 ms is work moved into set-up.
		{at(0.002), at(0.004), setup, "same"},
		{metric{Value: 0.002, Q1: 0.001, Q3: 0.003}, at(0.002), setup, "same"},
		{at(0.002), at(0.06), setup, "worse"},
		{at(1), at(1.2), setup, "worse"},
	} {
		if got, _ := verdict(tc.a, tc.b, bound(tc.a, tc.ms), tc.ms.Better); got != tc.want {
			t.Errorf("verdict(%v -> %v, %s) = %s, want %s", tc.a.Value, tc.b.Value, tc.ms.Name, got, tc.want)
		}
	}
}
