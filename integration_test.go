package xbsim

// Integration tests: invariants that span several subsystems at once.

import (
	"context"
	"math"
	"reflect"
	"slices"
	"testing"

	"xbsim/internal/experiment"
	"xbsim/internal/faults"
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
		s, err := experiment.RunCtx(context.Background(), cfg)
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
	suite, err := experiment.RunCtx(context.Background(), cfg)
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
	ctx := context.Background()
	bench := testBenchmark(t, "mcf")
	bin := bench.Binary("32o")
	ps, err := testAnalysis(t, bench, testConfig()).PerBinaryPoints(ctx, 1)
	if err != nil {
		t.Fatal(err)
	}
	est, err := EstimateStats(ctx, bin, testInput, ps, nil)
	if err != nil {
		t.Fatal(err)
	}
	full, err := SimulateFull(ctx, bin, testInput, nil)
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

// TestWarmingOffDegradesCacheSensitiveEstimate drives the warming
// ablation end-to-end: when every point starts from cold caches, mcf's
// region estimates acquire cold-start bias. The vli_cpi_err column is
// the mean VLI CPI error over mcf's four binaries.
func TestWarmingOffDegradesCacheSensitiveEstimate(t *testing.T) {
	cfg := experiment.QuickConfig()
	cfg.Benchmarks = []string{"mcf"}
	cfg.TargetOps = 800_000
	cfg.IntervalSize = 8_000

	tab, err := experiment.AblationWarming(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	col := slices.Index(tab.Columns, "vli_cpi_err")
	if col < 0 || len(tab.Rows) != 2 {
		t.Fatalf("unexpected table %+v", tab)
	}
	warm, cold := tab.Rows[0].Values[col], tab.Rows[1].Values[col]
	if cold < warm {
		t.Fatalf("cold fast-forward improved mcf CPI error: %.4f -> %.4f", warm, cold)
	}
}

// TestFacadeMatchesSuite pins the facade to the experiment suite: for
// every binary, the analysis maps it as the suite does and cuts the
// suite's VLIs, SimulateFull reproduces walk 3's totals, the facade's
// points and phases are the suite's, and its FLI weights and estimate
// equal the suite's bit for bit. VLI weights (and so the VLI estimate)
// may differ in the last bits only: ForBinary sums per-interval
// instruction fractions while the suite divides summed counts. Analyze
// also runs in the suite's retry envelope: a transient fault in walk 1
// is retried into the clean run's cross-binary points.
func TestFacadeMatchesSuite(t *testing.T) {
	ctx := context.Background()
	const tol = 1e-15
	near := func(a, b float64) bool { return math.Abs(a-b) <= tol*math.Abs(b) }
	for _, backend := range []string{"simpoint", "stratified"} {
		cfg := experiment.QuickConfig()
		cfg.Benchmarks = []string{"gzip", "applu"}
		cfg.Sampler = backend
		suite, err := experiment.RunCtx(ctx, cfg)
		if err != nil {
			t.Fatal(err)
		}
		for _, res := range suite.Results {
			b, err := NewBenchmark(res.Name, cfg.TargetOps)
			if err != nil {
				t.Fatal(err)
			}
			a := testAnalysis(t, b, cfg)
			cross, err := a.CrossBinaryPoints(ctx)
			if err != nil {
				t.Fatal(err)
			}
			for bi, run := range res.Runs {
				bin := b.Binaries[bi]
				label := backend + " " + bin.Name
				if got, want := a.Mapping.FingerprintFor(bi), res.Mapping.FingerprintFor(bi); got != want {
					t.Errorf("%s: analysis mapping %s, suite %s", label, got, want)
				}
				if got, want := cross.NumIntervals(), run.VLI.NumIntervals; got != want {
					t.Errorf("%s: analysis cut %d VLIs, suite %d", label, got, want)
				}
				full, err := SimulateFull(ctx, bin, cfg.Input, nil)
				if err != nil {
					t.Fatal(err)
				}
				if full.Instructions != run.TotalInstructions || full.Cycles != run.TrueCycles {
					t.Errorf("%s: SimulateFull %d instr / %d cycles, suite %d / %d", label,
						full.Instructions, full.Cycles, run.TotalInstructions, run.TrueCycles)
				}
				fli, err := a.PerBinaryPoints(ctx, bi)
				if err != nil {
					t.Fatal(err)
				}
				vli, err := cross.ForBinary(ctx, bi)
				if err != nil {
					t.Fatal(err)
				}
				for _, m := range []struct {
					flavor string
					ps     *PointSet
					suite  experiment.MethodStats
					exact  bool
				}{{"fli", fli, run.FLI, true}, {"vli", vli, run.VLI, false}} {
					if !reflect.DeepEqual(m.ps.PointInterval, m.suite.PointInterval) ||
						!reflect.DeepEqual(m.ps.PhaseOf, m.suite.PhaseOf) {
						t.Errorf("%s %s: facade points %v, suite %v", label, m.flavor,
							m.ps.PointInterval, m.suite.PointInterval)
						continue
					}
					st, err := EstimateStats(ctx, bin, cfg.Input, m.ps, nil)
					if err != nil {
						t.Fatal(err)
					}
					est := st.CPI
					same := reflect.DeepEqual(m.ps.Weights, m.suite.PhaseWeights) && est == m.suite.EstCPI
					if !m.exact {
						same = len(m.ps.Weights) == len(m.suite.PhaseWeights) && near(est, m.suite.EstCPI)
						for p, w := range m.ps.Weights {
							same = same && near(w, m.suite.PhaseWeights[p])
						}
					}
					if !same {
						t.Errorf("%s %s: facade weights %v estimate %v, suite %v / %v", label, m.flavor,
							m.ps.Weights, est, m.suite.PhaseWeights, m.suite.EstCPI)
					}
				}
			}
		}
	}

	// The retry envelope: a transient fault on the first walk-1 task
	// fails a run without retries and is retried away with one.
	b := testBenchmark(t, "gzip")
	clean, err := testAnalysis(t, b, testConfig()).CrossBinaryPoints(ctx)
	if err != nil {
		t.Fatal(err)
	}
	faulted := func() context.Context {
		return faults.With(ctx, faults.NewInjector(faults.Rule{Stage: "profile.task", Index: 0, Kind: faults.KindError}))
	}
	if _, err := Analyze(faulted(), b.Binaries, testConfig()); err == nil {
		t.Fatal("injected profile.task fault did not fail Analyze without retries")
	}
	cfg := testConfig()
	cfg.Retry = RetryPolicy{MaxRetries: 1}
	a, err := Analyze(faulted(), b.Binaries, cfg)
	if err != nil {
		t.Fatalf("Analyze with one retry: %v", err)
	}
	cross, err := a.CrossBinaryPoints(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := cross.Fingerprint(), clean.Fingerprint(); got != want {
		t.Errorf("retried analysis fingerprint %s, clean %s", got, want)
	}
}
