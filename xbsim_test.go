package xbsim

import (
	"bytes"
	"context"
	"math"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"xbsim/internal/cmpsim"
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
	est, err := EstimateStats(ctx, bin, testInput, ps, nil)
	if err != nil {
		t.Fatal(err)
	}
	relErr := math.Abs(est.CPI-est.Full.CPI()) / est.Full.CPI()
	if relErr > 0.3 {
		t.Fatalf("FLI estimate %.3f vs true %.3f (err %.1f%%)", est.CPI, est.Full.CPI(), relErr*100)
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
		ps, err := cross.ForBinary(ctx, i)
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
		est, err := EstimateStats(ctx, bin, testInput, ps, nil)
		if err != nil {
			t.Fatal(err)
		}
		relErr := math.Abs(est.CPI-est.Full.CPI()) / est.Full.CPI()
		if relErr > 0.3 {
			t.Fatalf("%s: VLI estimate %.3f vs true %.3f", bin.Name, est.CPI, est.Full.CPI())
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
	if _, err := EstimateStats(ctx, b.Binary("64o"), testInput, ps, nil); err == nil {
		t.Fatal("point set accepted for wrong binary")
	}
	for _, bad := range []int{-1, len(b.Binaries)} {
		if _, err := a.PerBinaryPoints(ctx, bad); err == nil || !strings.Contains(err.Error(), "out of range") {
			t.Errorf("PerBinaryPoints(%d) err = %v, want out of range", bad, err)
		}
	}
}

// TestRepick checks that a re-pick reads the analysis' walks as a fresh
// analysis under the new pick-side settings would, and that it refuses
// a config whose walks would differ.
func TestRepick(t *testing.T) {
	ctx := context.Background()
	b := testBenchmark(t, "gzip")
	cfg := testConfig()
	cfg.Sampler = "stratified"
	a := testAnalysis(t, b, cfg)
	crossFP := func(a *Analysis) string {
		t.Helper()
		cp, err := a.CrossBinaryPoints(ctx)
		if err != nil {
			t.Fatal(err)
		}
		return cp.Fingerprint()
	}
	same, err := a.Repick(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := crossFP(same), crossFP(a); got != want {
		t.Fatalf("repick at the analysis' own settings: fingerprint %s, want %s", got, want)
	}
	for _, vary := range []func(c *ExperimentConfig){
		func(c *ExperimentConfig) { c.SamplerBudget = 5 },
		func(c *ExperimentConfig) { c.Seed = "other" },
		func(c *ExperimentConfig) { c.Sampler, c.MaxK = "simpoint", 4 },
	} {
		c := cfg
		vary(&c)
		r, err := a.Repick(c)
		if err != nil {
			t.Fatal(err)
		}
		if got, want := crossFP(r), crossFP(testAnalysis(t, b, c)); got != want {
			t.Errorf("repick under %+v: fingerprint %s, fresh analysis %s", c, got, want)
		}
	}
	c := cfg
	c.IntervalSize *= 2
	if _, err := a.Repick(c); err == nil || !strings.Contains(err.Error(), "beyond pick-side settings") {
		t.Fatalf("repick with a changed IntervalSize: err = %v", err)
	}
}

// TestSimulateFullReleasesState checks that SimulateFull hands its cache
// state back to cmpsim's process-wide recycler: three runs under a
// hierarchy no other test uses build it once, and the recycled runs
// return the first run's statistics.
func TestSimulateFullReleasesState(t *testing.T) {
	ctx := context.Background()
	bin := testBenchmark(t, "gzip").Binary("32u")
	h := Table1()
	h.MemoryLatency++
	gets0, reuses0 := cmpsim.StateStats()
	var first *Stats
	for run := 0; run < 3; run++ {
		st, err := SimulateFull(ctx, bin, testInput, &h)
		if err != nil {
			t.Fatal(err)
		}
		if first == nil {
			first = st
		} else if !reflect.DeepEqual(st, first) {
			t.Fatalf("run %d on recycled state: %+v, first run %+v", run, *st, *first)
		}
	}
	gets1, reuses1 := cmpsim.StateStats()
	if built := (gets1 - gets0) - (reuses1 - reuses0); gets1-gets0 != 3 || built != 1 {
		t.Errorf("3 runs drew %d hierarchies and built %d, want 3 and 1", gets1-gets0, built)
	}
}

// TestEstimateCarriesFullRun checks that an estimate's whole-run
// statistics are SimulateFull's, and that every point set's interval
// counts cover the run, for both flavors.
func TestEstimateCarriesFullRun(t *testing.T) {
	ctx := context.Background()
	for _, name := range []string{"gzip", "mcf"} {
		b := testBenchmark(t, name)
		a := testAnalysis(t, b, testConfig())
		cross, err := a.CrossBinaryPoints(ctx)
		if err != nil {
			t.Fatal(err)
		}
		for i, bin := range b.Binaries {
			full, err := SimulateFull(ctx, bin, testInput, nil)
			if err != nil {
				t.Fatal(err)
			}
			vli, err := cross.ForBinary(ctx, i)
			if err != nil {
				t.Fatal(err)
			}
			fli, err := a.PerBinaryPoints(ctx, i)
			if err != nil {
				t.Fatal(err)
			}
			for _, ps := range []*PointSet{vli, fli} {
				est, err := EstimateStats(ctx, bin, testInput, ps, nil)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(est.Full, *full) {
					t.Errorf("%s %s: estimate's whole run %+v, SimulateFull %+v", bin.Name, ps.Flavor, est.Full, *full)
				}
				var sum uint64
				for _, n := range ps.Instructions {
					sum += n
				}
				if len(ps.Instructions) != len(ps.PhaseOf) || sum != full.Instructions {
					t.Errorf("%s %s: %d interval counts summing to %d, want %d summing to %d", bin.Name, ps.Flavor,
						len(ps.Instructions), sum, len(ps.PhaseOf), full.Instructions)
				}
			}
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
	ps, err := cross.ForBinary(ctx, 2)
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
