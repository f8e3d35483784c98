package experiment

import (
	"context"
	"math"
	"testing"

	"xbsim/internal/compiler"
)

// testConfig is a tiny configuration for fast unit tests.
func testConfig(benchmarks ...string) Config {
	cfg := QuickConfig()
	cfg.Benchmarks = benchmarks
	cfg.TargetOps = 600_000
	cfg.IntervalSize = 8_000
	return cfg
}

// runBenchmark runs the suite pipeline on the one named benchmark and
// returns its result.
func runBenchmark(ctx context.Context, name string, cfg Config) (*BenchmarkResult, error) {
	cfg.Benchmarks = []string{name}
	s, err := RunCtx(ctx, cfg)
	if err != nil {
		return nil, err
	}
	return s.Results[0], nil
}

func TestConfigDefaults(t *testing.T) {
	cfg, err := Config{}.withDefaults()
	if err != nil {
		t.Fatal(err)
	}
	if len(cfg.Benchmarks) != 21 {
		t.Fatalf("%d default benchmarks", len(cfg.Benchmarks))
	}
	if cfg.MaxK != 10 || cfg.Dim != 15 || cfg.BICThreshold != 0.9 {
		t.Fatalf("bad defaults: %+v", cfg)
	}
	if cfg.Parallelism <= 0 {
		t.Fatal("no parallelism default")
	}
	bad := Config{Primary: 99}
	if _, err := bad.withDefaults(); err == nil {
		t.Fatal("bad primary accepted")
	}
}

func TestRunBenchmarkBasics(t *testing.T) {
	res, err := runBenchmark(context.Background(), "gzip", testConfig("gzip"))
	if err != nil {
		t.Fatal(err)
	}
	if res.Name != "gzip" || len(res.Runs) != 4 {
		t.Fatalf("result shape: %s, %d runs", res.Name, len(res.Runs))
	}
	for bi, run := range res.Runs {
		if run.Binary.Target != compiler.AllTargets[bi] {
			t.Fatalf("run %d target %v", bi, run.Binary.Target)
		}
		if run.TotalInstructions == 0 || run.TrueCycles < run.TotalInstructions {
			t.Fatalf("%s: instr=%d cycles=%d", run.Binary.Name, run.TotalInstructions, run.TrueCycles)
		}
		if run.TrueCPI < 1 {
			t.Fatalf("%s: CPI %v < 1 on in-order core", run.Binary.Name, run.TrueCPI)
		}
		for _, ms := range []*MethodStats{&run.FLI, &run.VLI} {
			if ms.NumPoints == 0 || ms.NumPoints > ms.K {
				t.Fatalf("%s: %d points for K=%d", run.Binary.Name, ms.NumPoints, ms.K)
			}
			if ms.EstCPI <= 0 {
				t.Fatalf("%s: estimate %v", run.Binary.Name, ms.EstCPI)
			}
			var wsum float64
			for _, w := range ms.PhaseWeights {
				if w < 0 || w > 1 {
					t.Fatalf("%s: weight %v", run.Binary.Name, w)
				}
				wsum += w
			}
			if math.Abs(wsum-1) > 0.02 {
				t.Fatalf("%s: weights sum to %v", run.Binary.Name, wsum)
			}
		}
	}
}

func TestVLIPointCountSharedAcrossBinaries(t *testing.T) {
	res, err := runBenchmark(context.Background(), "art", testConfig("art"))
	if err != nil {
		t.Fatal(err)
	}
	k := res.Runs[0].VLI.K
	n := res.Runs[0].VLI.NumPoints
	iv := res.Runs[0].VLI.NumIntervals
	for _, run := range res.Runs[1:] {
		if run.VLI.K != k || run.VLI.NumPoints != n || run.VLI.NumIntervals != iv {
			t.Fatalf("VLI selection differs across binaries: %d/%d/%d vs %d/%d/%d",
				k, n, iv, run.VLI.K, run.VLI.NumPoints, run.VLI.NumIntervals)
		}
		// Same representative intervals too.
		for p := range run.VLI.PointInterval {
			if run.VLI.PointInterval[p] != res.Runs[0].VLI.PointInterval[p] {
				t.Fatal("VLI representatives differ across binaries")
			}
		}
	}
}

func TestVLIWeightsRecalculatedPerBinary(t *testing.T) {
	// Weights must be recalculated per binary (§3.2.6): for at least one
	// benchmark/phase the weights should differ between 32u and 32o,
	// because optimization changes per-phase instruction expansion
	// non-uniformly.
	res, err := runBenchmark(context.Background(), "gcc", testConfig("gcc"))
	if err != nil {
		t.Fatal(err)
	}
	a, b := res.Runs[0].VLI.PhaseWeights, res.Runs[1].VLI.PhaseWeights
	differ := false
	for p := range a {
		if math.Abs(a[p]-b[p]) > 1e-6 {
			differ = true
		}
	}
	if !differ {
		t.Fatal("VLI weights identical across binaries; recalculation missing?")
	}
}

func TestEstimatesTrackTruth(t *testing.T) {
	// Sanity bound: estimates should be within 60% of truth even at this
	// tiny scale (they are typically within a few percent).
	for _, name := range []string{"swim", "art"} {
		res, err := runBenchmark(context.Background(), name, testConfig(name))
		if err != nil {
			t.Fatal(err)
		}
		for _, run := range res.Runs {
			if run.FLI.CPIError > 0.6 || run.VLI.CPIError > 0.6 {
				t.Fatalf("%s %s: CPI errors FLI=%v VLI=%v implausibly large",
					name, run.Binary.Name, run.FLI.CPIError, run.VLI.CPIError)
			}
		}
	}
}

func TestRunSuiteAndFigures(t *testing.T) {
	cfg := testConfig("swim", "art")
	suite, err := RunCtx(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(suite.Results) != 2 {
		t.Fatalf("%d results", len(suite.Results))
	}
	if suite.ByName("swim") == nil || suite.ByName("nope") != nil {
		t.Fatal("ByName broken")
	}
	figs := suite.Figures()
	if len(figs) != 5 {
		t.Fatalf("%d figures", len(figs))
	}
	for _, f := range figs {
		if len(f.RowLabels) != 3 { // 2 benchmarks + Avg
			t.Fatalf("%s: %d rows", f.ID, len(f.RowLabels))
		}
		if f.RowLabels[2] != "Avg" {
			t.Fatalf("%s: last row %q", f.ID, f.RowLabels[2])
		}
		for _, s := range f.Series {
			if len(s.Values) != len(f.RowLabels) {
				t.Fatalf("%s/%s: ragged series", f.ID, s.Name)
			}
			for i, v := range s.Values {
				if math.IsNaN(v) || v < 0 {
					t.Fatalf("%s/%s[%d] = %v", f.ID, s.Name, i, v)
				}
			}
		}
	}
	// Figure 2's VLI interval sizes must be positive and, for the
	// primary binary, at least the target size.
	for _, r := range suite.Results {
		if r.Runs[0].VLI.AvgIntervalInstrs < float64(cfg.IntervalSize) {
			t.Fatalf("%s primary VLI avg interval %v below target %d",
				r.Name, r.Runs[0].VLI.AvgIntervalInstrs, cfg.IntervalSize)
		}
	}
}

func TestSpeedupMetrics(t *testing.T) {
	suite, err := RunCtx(context.Background(), testConfig("swim"))
	if err != nil {
		t.Fatal(err)
	}
	r := suite.Results[0]
	for _, p := range append(append([]Pair{}, SamePlatformPairs...), CrossPlatformPairs...) {
		ts := r.TrueSpeedup(p)
		if ts <= 0 {
			t.Fatalf("pair %s true speedup %v", p.Name, ts)
		}
		for _, vli := range []bool{false, true} {
			es := r.EstimatedSpeedup(p, vli)
			if es <= 0 {
				t.Fatalf("pair %s est speedup %v", p.Name, es)
			}
			if err := r.SpeedupError(p, vli); err < 0 || err > 2 {
				t.Fatalf("pair %s error %v", p.Name, err)
			}
		}
	}
	// Unoptimized -> optimized on the same platform must be a real
	// speedup (> 1.2x) in truth.
	for _, p := range SamePlatformPairs {
		if r.TrueSpeedup(p) < 1.2 {
			t.Fatalf("pair %s true speedup %v suspiciously low", p.Name, r.TrueSpeedup(p))
		}
	}
}

func TestPhaseBiasTables(t *testing.T) {
	suite, err := RunCtx(context.Background(), testConfig("gcc"))
	if err != nil {
		t.Fatal(err)
	}
	tables, err := suite.PhaseBiasTables("gcc", Pair{Name: "32u64u", A: 0, B: 2}, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(tables) != 2 || tables[0].Method != "VLI" || tables[1].Method != "FLI" {
		t.Fatalf("table shape: %+v", tables)
	}
	for _, tb := range tables {
		if len(tb.RowsA) == 0 || len(tb.RowsA) > 3 || len(tb.RowsB) == 0 {
			t.Fatalf("%s rows: %d/%d", tb.Method, len(tb.RowsA), len(tb.RowsB))
		}
		for _, row := range tb.RowsA {
			if row.Weight <= 0 || row.TrueCPI <= 0 {
				t.Fatalf("%s row %+v", tb.Method, row)
			}
		}
		// VLI rows must be phase-aligned between the binaries.
		if tb.Method == "VLI" {
			for i := range tb.RowsA {
				if tb.RowsA[i].Phase != tb.RowsB[i].Phase {
					t.Fatal("VLI table rows not phase-aligned")
				}
			}
		}
	}
	if _, err := suite.PhaseBiasTables("nope", SamePlatformPairs[0], 3); err == nil {
		t.Fatal("unknown benchmark accepted")
	}
}

// TestHeadlineResult is the repository's reproduction gate: averaged over
// the quick suite, mappable (VLI) SimPoint must estimate cross-binary
// speedups more accurately than per-binary (FLI) SimPoint — the paper's
// central claim (Figures 4 and 5).
func TestHeadlineResult(t *testing.T) {
	if testing.Short() {
		t.Skip("headline reproduction needs the full quick suite")
	}
	suite, err := RunCtx(context.Background(), QuickConfig())
	if err != nil {
		t.Fatal(err)
	}
	check := func(fig *Figure) {
		n := len(fig.RowLabels) - 1 // Avg row
		for pi := 0; pi < len(fig.Series); pi += 2 {
			fli := fig.Series[pi].Values[n]
			vli := fig.Series[pi+1].Values[n]
			if vli >= fli {
				t.Errorf("%s %s: VLI error %.3f not below FLI %.3f",
					fig.ID, fig.Series[pi].Name, vli, fli)
			}
		}
	}
	check(suite.Figure4())
	check(suite.Figure5())

	// applu must be the Figure 2 outlier: its VLI intervals far above the
	// suite median.
	f2 := suite.Figure2()
	var appluVal, sum float64
	for i, l := range f2.RowLabels {
		if l == "applu" {
			appluVal = f2.Series[0].Values[i]
		} else if l != "Avg" {
			sum += f2.Series[0].Values[i]
		}
	}
	others := sum / float64(len(f2.RowLabels)-2)
	if appluVal < 2*others {
		t.Errorf("applu VLI interval %.0f not an outlier vs others' mean %.0f", appluVal, others)
	}
}
