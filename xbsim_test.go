package xbsim

import (
	"bytes"
	"context"
	"math"
	"path/filepath"
	"strings"
	"testing"

	"xbsim/internal/pinpoints"
)

var testInput = Input{Name: "ref", Seed: 2024}

func testBenchmark(t testing.TB, name string) *Benchmark {
	t.Helper()
	b, err := NewBenchmark(name, 500_000)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// testConfig is the facade tests' analysis configuration.
func testConfig() ExperimentConfig {
	return ExperimentConfig{IntervalSize: 8_000, Input: testInput}
}

// testAnalysis runs walks 1-2 over the benchmark's binaries under cfg.
func testAnalysis(t testing.TB, b *Benchmark, cfg ExperimentConfig) *Analysis {
	t.Helper()
	a, err := Analyze(context.Background(), b.Binaries, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return a
}

func TestBenchmarksList(t *testing.T) {
	names := Benchmarks()
	if len(names) != 21 {
		t.Fatalf("%d benchmarks", len(names))
	}
	seen := map[string]bool{}
	for _, n := range names {
		seen[n] = true
	}
	for _, want := range []string{"gcc", "applu", "apsi", "mcf", "swim"} {
		if !seen[want] {
			t.Errorf("missing %s", want)
		}
	}
}

func TestNewBenchmark(t *testing.T) {
	b := testBenchmark(t, "gzip")
	if len(b.Binaries) != 4 {
		t.Fatalf("%d binaries", len(b.Binaries))
	}
	if b.Binary("32u") == nil || b.Binary("64o") == nil {
		t.Fatal("Binary lookup failed")
	}
	if b.Binary("99x") != nil {
		t.Fatal("bogus target resolved")
	}
	if b.Binary("32u").Name != "gzip.32u" {
		t.Fatalf("binary name %q", b.Binary("32u").Name)
	}
	if _, err := NewBenchmark("not-a-benchmark", 0); err == nil {
		t.Fatal("unknown benchmark accepted")
	}
}

func TestTable1(t *testing.T) {
	cfg := Table1()
	if len(cfg.Levels) != 3 || cfg.MemoryLatency != 250 {
		t.Fatalf("Table1 = %+v", cfg)
	}
}

func TestCollectProfile(t *testing.T) {
	b := testBenchmark(t, "art")
	p, err := CollectProfile(context.Background(), b.Binary("32u"), testInput)
	if err != nil {
		t.Fatal(err)
	}
	if p.TotalInstructions == 0 || len(p.Procs) == 0 || len(p.Loops) == 0 {
		t.Fatal("empty profile")
	}
}

func TestFindMappablePoints(t *testing.T) {
	b := testBenchmark(t, "gzip")
	if m := testAnalysis(t, b, testConfig()).Mapping; len(m.Points) == 0 {
		t.Fatal("no mappable points")
	}
}

func TestPerBinaryPointsAndEstimate(t *testing.T) {
	ctx := context.Background()
	b := testBenchmark(t, "swim")
	bin := b.Binary("32o")
	ps, err := testAnalysis(t, b, testConfig()).PerBinaryPoints(ctx, 1)
	if err != nil {
		t.Fatal(err)
	}
	if ps.Binary != bin || ps.Flavor != pinpoints.FlavorFLI || ps.NumPoints() == 0 {
		t.Fatalf("point set %+v", ps)
	}
	est, err := EstimateCPI(ctx, bin, testInput, ps, nil)
	if err != nil {
		t.Fatal(err)
	}
	full, err := SimulateFull(ctx, bin, testInput, nil)
	if err != nil {
		t.Fatal(err)
	}
	relErr := math.Abs(est-full.CPI()) / full.CPI()
	if relErr > 0.3 {
		t.Fatalf("FLI estimate %.3f vs true %.3f (err %.1f%%)", est, full.CPI(), relErr*100)
	}
}

func TestCrossBinaryPointsEndToEnd(t *testing.T) {
	ctx := context.Background()
	b := testBenchmark(t, "swim")
	cross, err := testAnalysis(t, b, testConfig()).CrossBinaryPoints(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if cross.K() == 0 || cross.NumIntervals() == 0 {
		t.Fatal("empty cross points")
	}
	for i, bin := range b.Binaries {
		ps, err := cross.ForBinary(i)
		if err != nil {
			t.Fatal(err)
		}
		if ps.Flavor != pinpoints.FlavorVLI {
			t.Fatal("wrong flavor")
		}
		var wsum float64
		for _, w := range ps.Weights {
			wsum += w
		}
		if math.Abs(wsum-1) > 0.02 {
			t.Fatalf("%s: weights sum %v", bin.Name, wsum)
		}
		est, err := EstimateCPI(ctx, bin, testInput, ps, nil)
		if err != nil {
			t.Fatal(err)
		}
		full, err := SimulateFull(ctx, bin, testInput, nil)
		if err != nil {
			t.Fatal(err)
		}
		relErr := math.Abs(est-full.CPI()) / full.CPI()
		if relErr > 0.3 {
			t.Fatalf("%s: VLI estimate %.3f vs true %.3f", bin.Name, est, full.CPI())
		}
	}
}

func TestEstimateCPIWrongBinary(t *testing.T) {
	ctx := context.Background()
	b := testBenchmark(t, "art")
	a := testAnalysis(t, b, testConfig())
	ps, err := a.PerBinaryPoints(ctx, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := EstimateCPI(ctx, b.Binary("64o"), testInput, ps, nil); err == nil {
		t.Fatal("point set accepted for wrong binary")
	}
	for _, bad := range []int{-1, len(b.Binaries)} {
		if _, err := a.PerBinaryPoints(ctx, bad); err == nil || !strings.Contains(err.Error(), "out of range") {
			t.Errorf("PerBinaryPoints(%d) err = %v, want out of range", bad, err)
		}
	}
}

func TestRegionFileRoundTrip(t *testing.T) {
	ctx := context.Background()
	b := testBenchmark(t, "art")
	a := testAnalysis(t, b, testConfig())
	// FLI flavor.
	fli, err := a.PerBinaryPoints(ctx, 0)
	if err != nil {
		t.Fatal(err)
	}
	f, err := fli.RegionFile(testInput)
	if err != nil {
		t.Fatal(err)
	}
	if f.Flavor != pinpoints.FlavorFLI || len(f.Regions) != fli.NumPoints() {
		t.Fatalf("file %+v", f)
	}
	path := filepath.Join(t.TempDir(), "fli.json")
	if err := f.Save(path); err != nil {
		t.Fatal(err)
	}
	if _, err := pinpoints.Load(path); err != nil {
		t.Fatal(err)
	}
	// VLI flavor.
	cross, err := a.CrossBinaryPoints(ctx)
	if err != nil {
		t.Fatal(err)
	}
	ps, err := cross.ForBinary(2)
	if err != nil {
		t.Fatal(err)
	}
	vf, err := ps.RegionFile(testInput)
	if err != nil {
		t.Fatal(err)
	}
	if vf.Flavor != pinpoints.FlavorVLI || vf.Binary != "art.64u" {
		t.Fatalf("file %+v", vf)
	}
	for _, r := range vf.Regions {
		if r.Start == nil || r.End == nil {
			t.Fatal("VLI region missing boundaries")
		}
	}
}

func TestRunExperimentsAndReport(t *testing.T) {
	cfg := QuickExperimentConfig()
	cfg.Benchmarks = []string{"swim"}
	cfg.TargetOps = 500_000
	cfg.IntervalSize = 8_000
	suite, err := RunExperimentsCtx(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteReportCtx(context.Background(), &buf, suite); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"TABLE 1", "FIG4", "swim"} {
		if !strings.Contains(out, want) {
			t.Errorf("report missing %q", want)
		}
	}
}

func TestQuickAndFullConfigs(t *testing.T) {
	q, f := QuickExperimentConfig(), FullExperimentConfig()
	if len(q.Benchmarks) >= len(f.Benchmarks) {
		t.Fatal("quick config not smaller than full")
	}
	if q.TargetOps >= f.TargetOps {
		t.Fatal("quick config ops not smaller")
	}
}

func TestEarlyTolerance(t *testing.T) {
	ctx := context.Background()
	b := testBenchmark(t, "swim")
	classic, err := testAnalysis(t, b, testConfig()).PerBinaryPoints(ctx, 0)
	if err != nil {
		t.Fatal(err)
	}
	cfg := testConfig()
	cfg.EarlyTolerance = 2.0
	early, err := testAnalysis(t, b, cfg).PerBinaryPoints(ctx, 0)
	if err != nil {
		t.Fatal(err)
	}
	movedEarlier := false
	for p, iv := range early.PointInterval {
		if iv > classic.PointInterval[p] {
			t.Fatalf("phase %d: early point later than classic", p)
		}
		if iv < classic.PointInterval[p] {
			movedEarlier = true
		}
	}
	if !movedEarlier {
		t.Fatal("generous tolerance moved no point earlier")
	}
}
