package xbsim

// The benchmark harness regenerates every table and figure of the paper's
// evaluation (see DESIGN.md §4 for the per-experiment index). Each
// Benchmark* function rebuilds its artifact from a shared quick-scale
// evaluation suite and prints the rows once, so
//
//	go test -bench=. -benchmem
//
// both measures the artifact computations and emits the reproduced
// tables/figures. The full-scale sweep (all 21 benchmarks) is available
// through `go run ./cmd/xbsim figures`.

import (
	"context"
	"fmt"
	"os"
	"sync"
	"testing"

	"xbsim/internal/experiment"
	"xbsim/internal/report"
)

var (
	suiteOnce sync.Once
	suiteVal  *experiment.Suite
	suiteErr  error

	printOnceMu sync.Mutex
	printedKeys = map[string]bool{}
)

// benchSuite lazily runs the quick evaluation once per test binary.
func benchSuite(b *testing.B) *experiment.Suite {
	b.Helper()
	suiteOnce.Do(func() {
		suiteVal, suiteErr = experiment.RunCtx(context.Background(), experiment.QuickConfig())
	})
	if suiteErr != nil {
		b.Fatal(suiteErr)
	}
	return suiteVal
}

// printOnce emits an artifact exactly once per test binary, no matter how
// many benchmark iterations run.
func printOnce(key string, emit func()) {
	printOnceMu.Lock()
	defer printOnceMu.Unlock()
	if printedKeys[key] {
		return
	}
	printedKeys[key] = true
	emit()
}

// lastValue returns a series' "Avg" row value.
func lastValue(s experiment.FigureSeries) float64 {
	return s.Values[len(s.Values)-1]
}

// BenchmarkTable1MemoryConfig regenerates Table 1 (the simulated memory
// system configuration).
func BenchmarkTable1MemoryConfig(b *testing.B) {
	cfg := Table1()
	for i := 0; i < b.N; i++ {
		if err := cfg.Validate(); err != nil {
			b.Fatal(err)
		}
	}
	printOnce("table1", func() { _ = report.Table1(os.Stdout, cfg) })
}

// figureBench is the shared body for the five figure benchmarks.
func figureBench(b *testing.B, build func(*experiment.Suite) *experiment.Figure, metrics func(*testing.B, *experiment.Figure)) {
	s := benchSuite(b)
	var fig *experiment.Figure
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fig = build(s)
	}
	b.StopTimer()
	printOnce(fig.ID, func() { _ = report.Figure(os.Stdout, fig) })
	metrics(b, fig)
}

// BenchmarkFigure1NumSimPoints regenerates Figure 1: number of simulation
// points per benchmark, per-binary FLI vs mappable VLI.
func BenchmarkFigure1NumSimPoints(b *testing.B) {
	figureBench(b, (*experiment.Suite).Figure1, func(b *testing.B, f *experiment.Figure) {
		b.ReportMetric(lastValue(f.Series[0]), "fli_points")
		b.ReportMetric(lastValue(f.Series[1]), "vli_points")
	})
}

// BenchmarkFigure2IntervalSize regenerates Figure 2: average VLI interval
// size per benchmark (applu is the mapping-failure outlier).
func BenchmarkFigure2IntervalSize(b *testing.B) {
	figureBench(b, (*experiment.Suite).Figure2, func(b *testing.B, f *experiment.Figure) {
		b.ReportMetric(lastValue(f.Series[0]), "vli_interval_instrs")
	})
}

// BenchmarkFigure3CPIError regenerates Figure 3: whole-program CPI error
// vs full simulation, FLI vs VLI.
func BenchmarkFigure3CPIError(b *testing.B) {
	figureBench(b, (*experiment.Suite).Figure3, func(b *testing.B, f *experiment.Figure) {
		b.ReportMetric(lastValue(f.Series[0])*100, "fli_cpi_err_%")
		b.ReportMetric(lastValue(f.Series[1])*100, "vli_cpi_err_%")
	})
}

// speedupMetrics reports the Avg-row error per series as metrics.
func speedupMetrics(b *testing.B, f *experiment.Figure) {
	for _, s := range f.Series {
		b.ReportMetric(lastValue(s)*100, s.Name+"_%")
	}
}

// BenchmarkFigure4SpeedupSamePlatform regenerates Figure 4: speedup
// estimation error across optimization levels on one platform.
func BenchmarkFigure4SpeedupSamePlatform(b *testing.B) {
	figureBench(b, (*experiment.Suite).Figure4, speedupMetrics)
}

// BenchmarkFigure5SpeedupCrossPlatform regenerates Figure 5: speedup
// estimation error across platforms at fixed optimization level.
func BenchmarkFigure5SpeedupCrossPlatform(b *testing.B) {
	figureBench(b, (*experiment.Suite).Figure5, speedupMetrics)
}

// phaseTableBench regenerates a Table 2/3-style phase-bias comparison.
func phaseTableBench(b *testing.B, key, bench string, pair experiment.Pair) {
	s := benchSuite(b)
	if s.ByName(bench) == nil {
		b.Skipf("benchmark %s not in the quick suite", bench)
	}
	var tables []experiment.PhaseBias
	var err error
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tables, err = s.PhaseBiasTables(bench, pair, 3)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	printOnce(key, func() { _ = report.PhaseBias(os.Stdout, tables) })
}

// BenchmarkTable2GccPhases regenerates Table 2: gcc's largest phases
// compared across the 32-bit and 64-bit unoptimized binaries.
func BenchmarkTable2GccPhases(b *testing.B) {
	phaseTableBench(b, "table2", "gcc", experiment.Pair{Name: "32u64u", A: 0, B: 2})
}

// BenchmarkTable3ApsiPhases regenerates Table 3: apsi's largest phases
// compared across the 32-bit and 64-bit optimized binaries.
func BenchmarkTable3ApsiPhases(b *testing.B) {
	phaseTableBench(b, "table3", "apsi", experiment.Pair{Name: "32o64o", A: 1, B: 3})
}

// ablationConfig is the reduced configuration the ablation benches sweep.
func ablationConfig() experiment.Config {
	cfg := experiment.QuickConfig()
	cfg.Benchmarks = []string{"swim", "crafty", "applu"}
	cfg.TargetOps = 600_000
	cfg.IntervalSize = 8_000
	return cfg
}

func ablationBench(b *testing.B, key string, run func() (*experiment.AblationTable, error)) {
	var tab *experiment.AblationTable
	var err error
	for i := 0; i < b.N; i++ {
		tab, err = run()
		if err != nil {
			b.Fatal(err)
		}
	}
	printOnce(key, func() { _ = report.Ablation(os.Stdout, tab) })
}

// BenchmarkAblationBICThreshold sweeps SimPoint's model-selection
// threshold (DESIGN.md §5).
func BenchmarkAblationBICThreshold(b *testing.B) {
	ablationBench(b, "abl-bic", func() (*experiment.AblationTable, error) {
		return experiment.AblationBICThreshold(ablationConfig(), []float64{0.7, 0.9, 1.0})
	})
}

// BenchmarkAblationProjectionDim sweeps the BBV projection dimension.
func BenchmarkAblationProjectionDim(b *testing.B) {
	ablationBench(b, "abl-dim", func() (*experiment.AblationTable, error) {
		return experiment.AblationProjectionDim(ablationConfig(), []int{4, 15, 64})
	})
}

// BenchmarkAblationMarkerGranularity compares mappable-point vocabularies
// (procedures only vs +loop entries vs +loop bodies).
func BenchmarkAblationMarkerGranularity(b *testing.B) {
	ablationBench(b, "abl-markers", func() (*experiment.AblationTable, error) {
		return experiment.AblationMarkerGranularity(ablationConfig())
	})
}

// BenchmarkAblationInlineHeuristic toggles the §3.3 inlined-loop matcher.
func BenchmarkAblationInlineHeuristic(b *testing.B) {
	ablationBench(b, "abl-inline", func() (*experiment.AblationTable, error) {
		return experiment.AblationInlineHeuristic(ablationConfig())
	})
}

// BenchmarkAblationWarming toggles functional cache warming during
// fast-forward, quantifying cold-start bias.
func BenchmarkAblationWarming(b *testing.B) {
	ablationBench(b, "abl-warming", func() (*experiment.AblationTable, error) {
		cfg := ablationConfig()
		cfg.Benchmarks = []string{"crafty", "mcf"}
		return experiment.AblationWarming(cfg)
	})
}

// BenchmarkAblationEarlyPoints sweeps the early-simulation-point
// tolerance (fast-forward savings vs accuracy).
func BenchmarkAblationEarlyPoints(b *testing.B) {
	ablationBench(b, "abl-early", func() (*experiment.AblationTable, error) {
		return experiment.AblationEarlyPoints(ablationConfig(), []float64{0, 0.25, 1.0})
	})
}

// BenchmarkAblationPrimaryBinary varies the primary binary the VLIs are
// constructed from.
func BenchmarkAblationPrimaryBinary(b *testing.B) {
	ablationBench(b, "abl-primary", func() (*experiment.AblationTable, error) {
		cfg := ablationConfig()
		cfg.Benchmarks = []string{"swim", "crafty"}
		return experiment.AblationPrimaryBinary(cfg)
	})
}

// BenchmarkPipelineSingleBenchmark measures the full per-benchmark
// pipeline (4 compilations, profiling, mapping, two SimPoint runs, full +
// region simulations of all four binaries).
func BenchmarkPipelineSingleBenchmark(b *testing.B) {
	cfg := experiment.QuickConfig()
	cfg.Benchmarks = []string{"gzip"}
	cfg.TargetOps = 600_000
	cfg.IntervalSize = 8_000
	for i := 0; i < b.N; i++ {
		if _, err := experiment.RunCtx(context.Background(), cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// workersBench runs the single-benchmark pipeline at a fixed pool size;
// comparing the Workers=1 and Workers=GOMAXPROCS variants shows the
// wall-clock effect of the intra-benchmark parallelism (the numbers
// themselves are bit-identical — see TestWorkersDeterminism).
func workersBench(b *testing.B, workers int) {
	cfg := experiment.QuickConfig()
	cfg.Benchmarks = []string{"gzip"}
	cfg.TargetOps = 600_000
	cfg.IntervalSize = 8_000
	cfg.Workers = workers
	for i := 0; i < b.N; i++ {
		if _, err := experiment.RunCtx(context.Background(), cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPipelineWorkersSerial runs the pipeline fully serially.
func BenchmarkPipelineWorkersSerial(b *testing.B) { workersBench(b, 1) }

// BenchmarkPipelineWorkersParallel runs the pipeline on the default
// GOMAXPROCS-sized worker pool.
func BenchmarkPipelineWorkersParallel(b *testing.B) { workersBench(b, 0) }

// BenchmarkEndToEndQuickSuite measures the whole reduced evaluation.
func BenchmarkEndToEndQuickSuite(b *testing.B) {
	cfg := experiment.QuickConfig()
	cfg.TargetOps = 400_000
	cfg.IntervalSize = 6_000
	for i := 0; i < b.N; i++ {
		if _, err := experiment.RunCtx(context.Background(), cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// Example-style smoke check that the printed artifacts stay available to
// ordinary tests as well.
func TestBenchArtifactsBuildable(t *testing.T) {
	if testing.Short() {
		t.Skip("suite construction is not short")
	}
	cfg := experiment.QuickConfig()
	cfg.Benchmarks = []string{"swim"}
	cfg.TargetOps = 400_000
	cfg.IntervalSize = 6_000
	s, err := experiment.RunCtx(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if got := len(s.Figures()); got != 5 {
		t.Fatalf("%d figures", got)
	}
	var sink fmt.Stringer
	_ = sink
}
