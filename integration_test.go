package xbsim

// Integration tests: invariants that span several subsystems at once.

import (
	"math"
	"reflect"
	"testing"

	"xbsim/internal/experiment"
)

// TestSuiteBitReproducible runs the reduced evaluation twice and demands
// identical figures: every stochastic component must be driven by named
// streams only.
func TestSuiteBitReproducible(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the suite twice")
	}
	cfg := experiment.QuickConfig()
	cfg.Benchmarks = []string{"swim", "gcc"}
	cfg.TargetOps = 500_000
	cfg.IntervalSize = 8_000
	run := func() []*experiment.Figure {
		s, err := experiment.Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return s.Figures()
	}
	a, b := run(), run()
	if !reflect.DeepEqual(a, b) {
		t.Fatal("two identical suite runs produced different figures")
	}
}

// TestConsistentBiasProperty verifies the paper's core mechanism directly:
// across the four binaries, the spread of the VLI estimator's relative
// bias must be smaller than the FLI estimator's spread (consistent bias is
// what makes cross-binary ratios accurate).
func TestConsistentBiasProperty(t *testing.T) {
	if testing.Short() {
		t.Skip("full pipeline over several benchmarks")
	}
	cfg := experiment.QuickConfig()
	cfg.Benchmarks = []string{"swim", "crafty", "mcf", "sixtrack"}
	cfg.TargetOps = 1_000_000
	cfg.IntervalSize = 10_000
	suite, err := experiment.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	spread := func(r *experiment.BenchmarkResult, vli bool) float64 {
		lo, hi := math.Inf(1), math.Inf(-1)
		for _, run := range r.Runs {
			ms := run.FLI
			if vli {
				ms = run.VLI
			}
			bias := (ms.EstCPI - run.TrueCPI) / run.TrueCPI
			lo = math.Min(lo, bias)
			hi = math.Max(hi, bias)
		}
		return hi - lo
	}
	var fliTotal, vliTotal float64
	for _, r := range suite.Results {
		fliTotal += spread(r, false)
		vliTotal += spread(r, true)
	}
	if vliTotal >= fliTotal {
		t.Fatalf("VLI bias spread (%.4f) not below FLI (%.4f) across the sample",
			vliTotal, fliTotal)
	}
}

// TestEstimateStatsAgainstFullRun checks the generalized estimator: the
// estimated L1 miss rate and DRAM traffic must track full-run truth.
func TestEstimateStatsAgainstFullRun(t *testing.T) {
	bench := testBenchmark(t, "mcf")
	bin := bench.Binary("32o")
	ps, err := PerBinaryPoints(bin, testInput, testPointsConfig())
	if err != nil {
		t.Fatal(err)
	}
	est, err := EstimateStats(bin, testInput, ps, nil)
	if err != nil {
		t.Fatal(err)
	}
	full, err := SimulateFull(bin, testInput, nil)
	if err != nil {
		t.Fatal(err)
	}
	trueMR := full.MissRate(0)
	if trueMR <= 0 {
		t.Fatal("mcf has no L1 misses?")
	}
	if rel := math.Abs(est.L1MissRate-trueMR) / trueMR; rel > 0.4 {
		t.Fatalf("L1 miss rate estimate %.4f vs true %.4f (%.0f%% off)",
			est.L1MissRate, trueMR, rel*100)
	}
	trueDPKI := float64(full.MemoryAccesses) / float64(full.Instructions) * 1000
	if trueDPKI <= 0 {
		t.Fatal("mcf never reached DRAM?")
	}
	if rel := math.Abs(est.DRAMPerKI-trueDPKI) / trueDPKI; rel > 0.4 {
		t.Fatalf("DRAM/KI estimate %.3f vs true %.3f (%.0f%% off)",
			est.DRAMPerKI, trueDPKI, rel*100)
	}
}

// TestWarmingOffDegradesCacheSensitiveEstimate drives the warming knob
// end-to-end: without functional warming, mcf's region estimates acquire
// cold-start bias.
func TestWarmingOffDegradesCacheSensitiveEstimate(t *testing.T) {
	cfg := experiment.QuickConfig()
	cfg.Benchmarks = []string{"mcf"}
	cfg.TargetOps = 800_000
	cfg.IntervalSize = 8_000

	errFor := func(disable bool) float64 {
		c := cfg
		c.DisableWarming = disable
		s, err := experiment.Run(c)
		if err != nil {
			t.Fatal(err)
		}
		var sum float64
		for _, run := range s.Results[0].Runs {
			sum += run.VLI.CPIError
		}
		return sum / 4
	}
	warm, cold := errFor(false), errFor(true)
	if cold < warm {
		t.Fatalf("cold fast-forward improved mcf CPI error: %.4f -> %.4f", warm, cold)
	}
}
