package xbsim

import (
	"context"
	"math"
	"strings"
	"testing"
)

// TestForBinaryErrorPaths pins the index validation of
// CrossPoints.ForBinary: out-of-range indices must return an error, not
// panic, and valid indices must keep working.
func TestForBinaryErrorPaths(t *testing.T) {
	b := testBenchmark(t, "swim")
	cross, err := testAnalysis(t, b, testConfig()).CrossBinaryPoints(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name    string
		b       int
		wantErr string
	}{
		{"negative", -1, "out of range"},
		{"just-past-end", len(b.Binaries), "out of range"},
		{"far-past-end", 100, "out of range"},
		{"first", 0, ""},
		{"last", len(b.Binaries) - 1, ""},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			ps, err := cross.ForBinary(context.Background(), tc.b)
			if tc.wantErr != "" {
				if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
					t.Fatalf("ForBinary(%d) err = %v, want %q", tc.b, err, tc.wantErr)
				}
				if ps != nil {
					t.Fatalf("ForBinary(%d) returned a point set with an error", tc.b)
				}
				return
			}
			if err != nil {
				t.Fatalf("ForBinary(%d): %v", tc.b, err)
			}
			if ps.Binary != b.Binaries[tc.b] {
				t.Fatalf("ForBinary(%d) returned points for %s", tc.b, ps.Binary.Name)
			}
		})
	}
}

// TestPointSetWeightEdgeCases drives point selection into the weight
// normalization corners: a forced single phase, a single interval
// covering the whole run, and hand-mutated weights (zero-weight phase,
// unrepresented phase, all weights zero).
func TestPointSetWeightEdgeCases(t *testing.T) {
	ctx := context.Background()
	b := testBenchmark(t, "swim")
	bin := b.Binary("32u")

	t.Run("k-equals-1", func(t *testing.T) {
		cfg := testConfig()
		cfg.MaxK = 1
		ps, err := testAnalysis(t, b, cfg).PerBinaryPoints(ctx, 0)
		if err != nil {
			t.Fatal(err)
		}
		if len(ps.Weights) != 1 || math.Abs(ps.Weights[0]-1) > 1e-12 {
			t.Fatalf("k=1 weights = %v, want [1]", ps.Weights)
		}
		if ps.NumPoints() != 1 {
			t.Fatalf("k=1 chose %d points", ps.NumPoints())
		}
		est, err := EstimateStats(ctx, bin, testInput, ps, nil)
		if err != nil {
			t.Fatal(err)
		}
		if math.IsNaN(est.CPI) || est.CPI <= 0 {
			t.Fatalf("k=1 estimate %v", est.CPI)
		}
	})

	t.Run("single-interval", func(t *testing.T) {
		cfg := testConfig()
		cfg.IntervalSize = 100_000_000 // larger than the whole run
		ps, err := testAnalysis(t, b, cfg).PerBinaryPoints(ctx, 0)
		if err != nil {
			t.Fatal(err)
		}
		if len(ps.PhaseOf) != 1 {
			t.Fatalf("single giant interval produced %d intervals", len(ps.PhaseOf))
		}
		if len(ps.Weights) != 1 || math.Abs(ps.Weights[0]-1) > 1e-12 {
			t.Fatalf("single-interval weights = %v, want [1]", ps.Weights)
		}
		if ps.PointInterval[0] != 0 {
			t.Fatalf("single-interval representative = %d, want 0", ps.PointInterval[0])
		}
	})

	base, err := testAnalysis(t, b, testConfig()).PerBinaryPoints(ctx, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(base.Weights) < 2 {
		t.Fatalf("need k >= 2 for the mutation cases, got %d", len(base.Weights))
	}
	// clone gives each mutation case its own weights/intervals.
	clone := func() *PointSet {
		ps := *base
		ps.Weights = append([]float64(nil), base.Weights...)
		ps.PointInterval = append([]int(nil), base.PointInterval...)
		return &ps
	}

	t.Run("zero-weight-phase", func(t *testing.T) {
		ps := clone()
		// Move phase 0's mass to phase 1: EstimateStats must skip the
		// zero-weight phase and still produce a finite estimate.
		ps.Weights[1] += ps.Weights[0]
		ps.Weights[0] = 0
		est, err := EstimateStats(ctx, bin, testInput, ps, nil)
		if err != nil {
			t.Fatal(err)
		}
		if math.IsNaN(est.CPI) || est.CPI <= 0 {
			t.Fatalf("estimate with zero-weight phase = %v", est.CPI)
		}
	})

	t.Run("unrepresented-phase", func(t *testing.T) {
		ps := clone()
		// A phase with weight but no representative interval (-1) is
		// skipped and the remaining weights renormalized.
		ps.PointInterval[0] = -1
		est, err := EstimateStats(ctx, bin, testInput, ps, nil)
		if err != nil {
			t.Fatal(err)
		}
		if math.IsNaN(est.CPI) || est.CPI <= 0 {
			t.Fatalf("estimate with unrepresented phase = %v", est.CPI)
		}
	})

	t.Run("all-weights-zero", func(t *testing.T) {
		ps := clone()
		for p := range ps.Weights {
			ps.Weights[p] = 0
		}
		if _, err := EstimateStats(ctx, bin, testInput, ps, nil); err == nil ||
			!strings.Contains(err.Error(), "no usable simulation points") {
			t.Fatalf("all-zero weights: err = %v, want no-usable-points error", err)
		}
	})
}

// TestFingerprintAccessors pins the public digest/accessor surface the
// self-check harness relies on.
func TestFingerprintAccessors(t *testing.T) {
	b := testBenchmark(t, "swim")
	cross, err := testAnalysis(t, b, testConfig()).CrossBinaryPoints(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if got := len(cross.Ends()); got != cross.NumIntervals() {
		t.Fatalf("Ends() returned %d boundaries, NumIntervals %d", got, cross.NumIntervals())
	}
	if got := len(cross.PhaseOf()); got != cross.NumIntervals() {
		t.Fatalf("PhaseOf() returned %d labels, NumIntervals %d", got, cross.NumIntervals())
	}
	if got := len(cross.PointIntervals()); got != cross.K() {
		t.Fatalf("PointIntervals() returned %d entries, K %d", got, cross.K())
	}

	// Accessors return copies: mutating them must not change the digest.
	fp := cross.Fingerprint()
	cross.Ends()[0] = Boundary{Marker: 999, Count: 999}
	cross.PhaseOf()[0] = 999
	cross.PointIntervals()[0] = 999
	if cross.Fingerprint() != fp {
		t.Fatal("mutating accessor copies changed the fingerprint")
	}

	ps, err := cross.ForBinary(context.Background(), 0)
	if err != nil {
		t.Fatal(err)
	}
	ps2, err := cross.ForBinary(context.Background(), 0)
	if err != nil {
		t.Fatal(err)
	}
	if ps.Fingerprint() != ps2.Fingerprint() {
		t.Fatal("identical point sets fingerprint differently")
	}
	mut := *ps
	mut.Weights = append([]float64(nil), ps.Weights...)
	mut.Weights[0] += 1e-15
	if mut.Fingerprint() == ps.Fingerprint() {
		t.Fatal("weight bit flip did not change the fingerprint")
	}
}
