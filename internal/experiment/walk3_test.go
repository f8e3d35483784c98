package experiment

import (
	"context"
	"math"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"xbsim/internal/cmpsim"
	"xbsim/internal/faults"
	"xbsim/internal/obs"
	"xbsim/internal/pool"
	"xbsim/internal/program"
	"xbsim/internal/sampler"
	"xbsim/internal/simpoint"
)

// pickVariants are pick-side variations of one config: every pick-side
// field moves at least once, covering CompareSamplers' backends and the
// four shared ablations (BIC threshold, projection dim, early points,
// warming).
var pickVariants = []func(*Config){
	func(c *Config) {},
	func(c *Config) { c.Sampler, c.SamplerBudget = sampler.BackendStratified, 4 },
	func(c *Config) { c.Sampler, c.SamplerBudget, c.SamplerStrata = sampler.BackendStratified, 8, 3 },
	func(c *Config) { c.BICThreshold = 0.7 },
	func(c *Config) { c.Dim = 4 },
	func(c *Config) { c.EarlyTolerance = 0.25 },
	func(c *Config) { c.DisableWarming = true },
	func(c *Config) { c.MaxK, c.Restarts, c.Seed = 6, 2, "other" },
}

// prepareFor runs prepare for one named benchmark the way RunCtx would,
// returning the defaulted config with its pools.
func prepareFor(t *testing.T, ctx context.Context, name string, cfg Config) (*prepared, Config) {
	t.Helper()
	cfg, err := cfg.withDefaults()
	if err != nil {
		t.Fatal(err)
	}
	cfg.workerPool, cfg.simPool = pool.New(cfg.Workers), cmpsim.NewStatePool()
	p, err := prepare(ctx, name, func() (*program.Program, error) {
		return program.Generate(name, program.GenConfig{TargetOps: cfg.TargetOps})
	}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return p, cfg
}

// TestPrepareIndependentOfPickSettings pins the split: the prepared
// value is bit-identical under every pick-side setting, so variants may
// share it.
func TestPrepareIndependentOfPickSettings(t *testing.T) {
	ctx := context.Background()
	base, _ := prepareFor(t, ctx, "gzip", testConfig("gzip"))
	for i, vary := range pickVariants[1:] {
		cfg := testConfig("gzip")
		vary(&cfg)
		p, _ := prepareFor(t, ctx, "gzip", cfg)
		if !reflect.DeepEqual(p, base) {
			t.Errorf("variant %d: prepared value differs from the default config's", i+1)
		}
	}
}

// TestSharedPrepareMatchesStandalone pins the suite runner: every
// variant's suite from one shared-prepare run is fingerprint-identical
// to a standalone RunCtx of that variant, at Workers=1 and at
// GOMAXPROCS. Run under -race this also exercises each pick's binaries
// reading one prepared value concurrently.
func TestSharedPrepareMatchesStandalone(t *testing.T) {
	ctx := context.Background()
	for _, workers := range []int{1, runtime.GOMAXPROCS(0)} {
		cfgs := make([]Config, len(pickVariants))
		for v, vary := range pickVariants {
			cfgs[v] = testConfig("gzip", "mcf")
			cfgs[v].Workers = workers
			vary(&cfgs[v])
		}
		suites, err := runVariants(ctx, cfgs)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		for v, cfg := range cfgs {
			alone, err := RunCtx(ctx, cfg)
			if err != nil {
				t.Fatalf("workers=%d variant %d standalone: %v", workers, v, err)
			}
			if got, want := suites[v].Fingerprint(), alone.Fingerprint(); got != want {
				t.Errorf("workers=%d variant %d: shared %s != standalone %s", workers, v, got, want)
			}
		}
	}
}

// TestSweepsMatchStandaloneRuns checks the public sweeps built on the
// shared runner: CompareSamplers' rows and a shared ablation's rows
// equal the ones reduced from standalone runs.
func TestSweepsMatchStandaloneRuns(t *testing.T) {
	ctx := context.Background()
	cfg := testConfig("swim")
	cmp, err := CompareSamplers(ctx, cfg, []int{4})
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range []struct {
		backend string
		budget  int
	}{{sampler.BackendSimPoint, 0}, {sampler.BackendStratified, 4}} {
		c := cfg
		c.Sampler, c.SamplerBudget = v.backend, v.budget
		alone, err := RunCtx(ctx, c)
		if err != nil {
			t.Fatal(err)
		}
		if want := reduceSuite(alone, v.backend, v.budget); !reflect.DeepEqual(cmp.Rows[i], want) {
			t.Errorf("row %d = %+v, standalone %+v", i, cmp.Rows[i], want)
		}
	}

	tab, err := AblationWarming(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i, disable := range []bool{false, true} {
		c := cfg
		c.DisableWarming = disable
		alone, err := RunCtx(ctx, c)
		if err != nil {
			t.Fatal(err)
		}
		if want := summaryRow(tab.Rows[i].Label, alone); !reflect.DeepEqual(tab.Rows[i], want) {
			t.Errorf("warming row %d = %+v, standalone %+v", i, tab.Rows[i], want)
		}
	}
}

// TestCompareSamplersSimulatesWalk3Once pins the saving: three sampler
// variants simulate each binary's full run once, exactly as much as one
// RunCtx does.
func TestCompareSamplersSimulatesWalk3Once(t *testing.T) {
	cfg := testConfig("gzip", "mcf")
	one := &obs.Observer{Metrics: obs.NewRegistry()}
	if _, err := RunCtx(obs.With(context.Background(), one), cfg); err != nil {
		t.Fatal(err)
	}
	three := &obs.Observer{Metrics: obs.NewRegistry()}
	if _, err := CompareSamplers(obs.With(context.Background(), three), cfg, []int{4, 8}); err != nil {
		t.Fatal(err)
	}
	want := one.Metrics.Snapshot().Counters["sim.full.instructions"]
	if want == 0 {
		t.Fatal("RunCtx simulated no instructions")
	}
	if got := three.Metrics.Snapshot().Counters["sim.full.instructions"]; got != want {
		t.Errorf("CompareSamplers simulated %d walk-3 instructions, one RunCtx %d", got, want)
	}
}

// parityHierarchy is a named memory system for the parity tests.
type parityHierarchy struct {
	name string
	h    cmpsim.HierarchyConfig
}

// parityHierarchies are the memory systems TestMemoMetricParity runs
// under: Table 1 and five variants that change replacement, prefetching,
// capacity and depth, so walk 3's answer is pinned for any hierarchy a
// caller may pass, not only the paper's.
func parityHierarchies() []parityHierarchy {
	vary := func(name string, edit func(*cmpsim.HierarchyConfig)) parityHierarchy {
		h := cmpsim.DefaultHierarchyConfig()
		edit(&h)
		return parityHierarchy{name, h}
	}
	return []parityHierarchy{
		{"table1", cmpsim.DefaultHierarchyConfig()},
		vary("random-l2", func(h *cmpsim.HierarchyConfig) { h.Levels[1].Replacement = cmpsim.Random }),
		vary("fifo-l1", func(h *cmpsim.HierarchyConfig) { h.Levels[0].Replacement = cmpsim.FIFO }),
		vary("prefetch-l2", func(h *cmpsim.HierarchyConfig) { h.Levels[1].NextLinePrefetch = true }),
		vary("256k-l2", func(h *cmpsim.HierarchyConfig) { h.Levels[1].CapacityBytes = 256 << 10 }),
		vary("no-l3", func(h *cmpsim.HierarchyConfig) { h.Levels = h.Levels[:2] }),
	}
}

// TestMemoMetricParity pins walk 3's answer against the executed gated
// walk, per hierarchy, binary and walk: the point CPIs (bit for bit),
// point intervals, simulated instructions and every sim.* counter must
// equal what running the gated walk under functional warming produces.
func TestMemoMetricParity(t *testing.T) {
	for _, ph := range parityHierarchies() {
		t.Run(ph.name, func(t *testing.T) {
			cfg := testConfig("gzip")
			cfg.Hierarchy = ph.h
			memoMetricParity(t, cfg)
		})
	}
}

func memoMetricParity(t *testing.T, cfg Config) {
	ctx := context.Background()
	p, cfg := prepareFor(t, ctx, "gzip", cfg)
	fliPicks, vliPick, err := selectPoints(ctx, cfg, p)
	if err != nil {
		t.Fatal(err)
	}
	measure := func(bi int, pick *simpoint.Result, walk string, execute bool) ([]float64, []int, uint64, map[string]uint64) {
		o := &obs.Observer{Metrics: obs.NewRegistry()}
		cpi, iv, simInstr, err := measurePoints(obs.With(ctx, o), cfg, p, bi, pick, walk, execute)
		if err != nil {
			t.Fatalf("%s %s execute=%v: %v", p.Bins[bi].Name, walk, execute, err)
		}
		sim := map[string]uint64{}
		for name, v := range o.Metrics.Snapshot().Counters {
			if strings.HasPrefix(name, "sim.") {
				sim[name] = v
			}
		}
		return cpi, iv, simInstr, sim
	}
	for bi, bin := range p.Bins {
		for _, walk := range []string{"fli", "vli"} {
			pick := vliPick
			if walk == "fli" {
				pick = fliPicks[bi]
			}
			label := bin.Name + "/" + walk
			cpiA, ivA, instrA, simA := measure(bi, pick, walk, false)
			cpiE, ivE, instrE, simE := measure(bi, pick, walk, true)
			for ph := range cpiE {
				if math.Float64bits(cpiA[ph]) != math.Float64bits(cpiE[ph]) {
					t.Errorf("%s phase %d: CPI %v answered, %v executed", label, ph, cpiA[ph], cpiE[ph])
				}
			}
			if !reflect.DeepEqual(ivA, ivE) || instrA != instrE {
				t.Errorf("%s: intervals %v / %d instr answered, %v / %d executed", label, ivA, instrA, ivE, instrE)
			}
			if len(simE) == 0 || !reflect.DeepEqual(simA, simE) {
				t.Errorf("%s: sim.* counters answered %v, executed %v", label, simA, simE)
			}
		}
	}
}

// TestWalk3AnswersEveryGatePoint pins the accounting: with warming on
// (the default) every gate point is answered from walk 3, so
// pipeline.memo.hits counts all of them, misses none, and the fli/vli
// walk nodes still carry the synthesized totals.
func TestWalk3AnswersEveryGatePoint(t *testing.T) {
	o := &obs.Observer{Metrics: obs.NewRegistry(), Attrib: obs.NewAttribution()}
	res, err := runBenchmark(obs.With(context.Background(), o), "gzip", testConfig("gzip"))
	if err != nil {
		t.Fatal(err)
	}
	var wantPoints uint64
	for _, run := range res.Runs {
		wantPoints += uint64(run.FLI.NumPoints + run.VLI.NumPoints)
	}

	snap := o.Metrics.Snapshot()
	if got := snap.Counters["pipeline.memo.hits"]; got != wantPoints {
		t.Errorf("pipeline.memo.hits = %d, want %d", got, wantPoints)
	}
	if got := snap.Counters["pipeline.memo.misses"]; got != 0 {
		t.Errorf("pipeline.memo.misses = %d, want 0", got)
	}
	if snap.Counters["pipeline.memo.instructions_saved"] == 0 {
		t.Error("pipeline.memo.instructions_saved not recorded")
	}
	if snap.Counters["pipeline.memo.bytes_saved"] == 0 {
		t.Error("pipeline.memo.bytes_saved not recorded")
	}
	for _, n := range o.Attrib.Snapshot().Walks() {
		if (n.Walk == "fli" || n.Walk == "vli") && n.Value.Instructions == 0 {
			t.Errorf("answered walk %s/%s attributed no instructions", n.Binary, n.Walk)
		}
	}
}

// TestMemoBypassedWhenWarmingDisabled: without functional warming the
// stream-identity argument does not hold, so every gate point executes
// and counts as a miss.
func TestMemoBypassedWhenWarmingDisabled(t *testing.T) {
	o := &obs.Observer{Metrics: obs.NewRegistry(), Attrib: obs.NewAttribution()}
	cfg := testConfig("mcf")
	cfg.DisableWarming = true
	res, err := runBenchmark(obs.With(context.Background(), o), "mcf", cfg)
	if err != nil {
		t.Fatal(err)
	}
	var wantPoints uint64
	for _, run := range res.Runs {
		wantPoints += uint64(run.FLI.NumPoints + run.VLI.NumPoints)
	}
	snap := o.Metrics.Snapshot()
	if h, m := snap.Counters["pipeline.memo.hits"], snap.Counters["pipeline.memo.misses"]; h != 0 || m != wantPoints {
		t.Errorf("warming off: %d hits, %d misses, want 0/%d", h, m, wantPoints)
	}
}

// TestPointOutsideWalk3Rejected: a point interval walk 3 did not cover
// is an error, never a silent re-execution.
func TestPointOutsideWalk3Rejected(t *testing.T) {
	d := newIntervalDeltas(3, 2)
	for _, iv := range []int{-1, 3} {
		if _, _, err := d.window([]simpoint.Point{{Interval: iv}}); err == nil || !strings.Contains(err.Error(), "outside") {
			t.Errorf("interval %d: err = %v, want an outside-walk-3 error", iv, err)
		}
	}
}

// TestEvaluateWalkAbortClosesSamples is the regression test for the
// walk-sample leak: a fault injected after StartWalk (the "evaluate.walk"
// hook) used to leave the sample open forever. The deferred Abort must
// close it on the faulted attempt, the retry must recover bit-identically,
// and no walk samples may remain open after the run.
func TestEvaluateWalkAbortClosesSamples(t *testing.T) {
	baseline, err := runBenchmark(context.Background(), "gzip", testConfig("gzip"))
	if err != nil {
		t.Fatal(err)
	}
	inj := faults.NewInjector(
		faults.Rule{Stage: "evaluate.walk", Index: 0, Kind: faults.KindError},
	)
	o := &obs.Observer{Metrics: obs.NewRegistry(), Attrib: obs.NewAttribution()}
	ctx := obs.With(faults.With(context.Background(), inj), o)
	res, err := runBenchmark(ctx, "gzip", retryConfig("gzip"))
	if err != nil {
		t.Fatalf("faulted walk was not retried away: %v", err)
	}
	if got, want := res.Fingerprint(), baseline.Fingerprint(); got != want {
		t.Fatalf("post-fault run diverged: %s != %s", got, want)
	}
	if n := o.Attrib.OpenWalks(); n != 0 {
		t.Fatalf("%d walk samples left open after a faulted-then-retried run", n)
	}
	if n := o.Metrics.Counter("pipeline.retries").Value(); n == 0 {
		t.Fatal("evaluate.walk fault recovered without a retry")
	}
}

// TestRecalcWeightsZeroTotal pins the division guard: a binary that
// executes no instructions under the shared VLI boundaries must surface
// a real error, not NaN weights.
func TestRecalcWeightsZeroTotal(t *testing.T) {
	pick := &simpoint.Result{K: 2, PhaseOf: []int{0, 1, 0}}
	d := &IntervalDeltas{instr: []uint64{0, 0, 0}}
	if _, err := recalcWeights(pick, d, 0); err == nil {
		t.Fatal("zero-total recalcWeights returned no error")
	} else if !strings.Contains(err.Error(), "no instructions") {
		t.Fatalf("error does not name the cause: %v", err)
	}

	d.instr = []uint64{10, 30, 10}
	w, err := recalcWeights(pick, d, 50)
	if err != nil {
		t.Fatal(err)
	}
	if w[0] != 0.4 || w[1] != 0.6 {
		t.Fatalf("weights = %v, want [0.4 0.6]", w)
	}
}
