package experiment

import (
	"context"
	"fmt"
	"math"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"testing"

	"xbsim/internal/cmpsim"
	"xbsim/internal/compiler"
	"xbsim/internal/exec"
	"xbsim/internal/faults"
	"xbsim/internal/obs"
	"xbsim/internal/pool"
	"xbsim/internal/profile"
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
	func(c *Config) { c.coldStart = true },
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
	cfg.workerPool = pool.New(cfg.Workers)
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

	tab, err := AblationWarming(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i, cold := range []bool{false, true} {
		c := cfg
		c.coldStart = cold
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

// multiWalk is SimulateIntervals composed the generic way — the
// simulator and one tracker per boundary set, in set order, fanned out
// by an exec.Multi that also delivers every marker to the simulator and
// to FLI trackers — with each set's deltas taken by statsSink from the
// simulator's whole Stats. It is the oracle for walk3Visitor and the
// snapshotter; it also returns the simulator's published sim.full
// counters, cache event counters included.
func multiWalk(t *testing.T, bin *compiler.Binary, in program.Input, h cmpsim.HierarchyConfig, sets ...Boundaries) (*FullWalk, map[string]uint64) {
	t.Helper()
	sim, err := cmpsim.NewSimulator(bin, h)
	if err != nil {
		t.Fatal(err)
	}
	defer sim.Release()
	visitors := exec.Multi{sim}
	sinks := make([]*statsSink, len(sets))
	for s, b := range sets {
		if b.VLI != nil {
			sinks[s] = newStatsSink(sim, len(b.VLI))
			visitors = append(visitors, profile.NewVLITracker(bin, b.VLI, sinks[s]))
		} else {
			sinks[s] = newStatsSink(sim, len(b.FLI))
			visitors = append(visitors, profile.NewFLITracker(bin, b.FLI, sinks[s]))
		}
	}
	if err := exec.RunCtx(context.Background(), bin, in, visitors); err != nil {
		t.Fatal(err)
	}
	fw := &FullWalk{Stats: *sim.Stats(), Deltas: make([]*IntervalDeltas, len(sets))}
	for s, sink := range sinks {
		sink.flush()
		d := &IntervalDeltas{iv: make([]IntervalStats, len(sink.per))}
		for iv, st := range sink.per {
			d.iv[iv] = IntervalStats{
				Instructions: st.Instructions, Cycles: st.Cycles,
				Accesses: st.Loads + st.Stores, L1Misses: st.LevelMisses[0],
				DRAMAccesses: st.MemoryAccesses,
			}
		}
		fw.Deltas[s] = d
	}
	reg := obs.NewRegistry()
	sim.PublishMetrics(reg, "sim.full")
	return fw, reg.Snapshot().Counters
}

// statsSink charges the simulator's whole Stats — every counter, every
// level — to the interval just left, on each transition.
type statsSink struct {
	sim  *cmpsim.Simulator
	cur  int
	last cmpsim.Stats
	per  []cmpsim.Stats
}

func newStatsSink(sim *cmpsim.Simulator, numIntervals int) *statsSink {
	nlev := len(sim.Stats().LevelHits)
	s := &statsSink{sim: sim, per: make([]cmpsim.Stats, numIntervals)}
	s.last.LevelHits, s.last.LevelMisses = make([]uint64, nlev), make([]uint64, nlev)
	for iv := range s.per {
		s.per[iv].LevelHits, s.per[iv].LevelMisses = make([]uint64, nlev), make([]uint64, nlev)
	}
	return s
}

// Transition implements profile.IntervalSink.
func (s *statsSink) Transition(i int) {
	if i != s.cur {
		s.flush()
		s.cur = i
	}
}

func (s *statsSink) flush() {
	now := *s.sim.Stats()
	now.LevelHits, now.LevelMisses = slices.Clone(now.LevelHits), slices.Clone(now.LevelMisses)
	if s.cur < len(s.per) {
		p := &s.per[s.cur]
		p.Instructions += now.Instructions - s.last.Instructions
		p.Cycles += now.Cycles - s.last.Cycles
		p.Loads += now.Loads - s.last.Loads
		p.Stores += now.Stores - s.last.Stores
		p.MemoryAccesses += now.MemoryAccesses - s.last.MemoryAccesses
		for l := range now.LevelHits {
			p.LevelHits[l] += now.LevelHits[l] - s.last.LevelHits[l]
			p.LevelMisses[l] += now.LevelMisses[l] - s.last.LevelMisses[l]
		}
	}
	s.last = now
}

// TestWalk3VisitorMatchesMulti pins walk 3's fixed visitor and its
// five-quantity snapshotter against the exec.Multi composition of the
// same walk with a whole-Stats oracle sink: for every binary, with one
// boundary set (FLI or VLI) and with two (in either order), the run's
// Stats, every interval's instructions, cycles, accesses, L1 misses and
// DRAM accesses, and the published sim.full counters (the cache event
// counters among them) are equal.
func TestWalk3VisitorMatchesMulti(t *testing.T) {
	ctx := context.Background()
	for _, name := range []string{"gzip", "mcf"} {
		p, cfg := prepareFor(t, ctx, name, testConfig(name))
		for bi, bin := range p.Bins {
			vliEnds, err := p.Mapping.TranslateEnds(p.Primary, bi, p.VLI.Ends)
			if err != nil {
				t.Fatal(err)
			}
			fli, vli := Boundaries{FLI: p.FLI[bi].Ends}, Boundaries{VLI: vliEnds}
			for _, sets := range [][]Boundaries{{fli}, {vli}, {fli, vli}, {vli, fli}} {
				o := &obs.Observer{Metrics: obs.NewRegistry()}
				got, err := SimulateIntervals(obs.With(ctx, o), bin, cfg.Input, cfg.Hierarchy, sets...)
				if err != nil {
					t.Fatal(err)
				}
				want, wantCounters := multiWalk(t, bin, cfg.Input, cfg.Hierarchy, sets...)
				gotCounters := map[string]uint64{}
				for name, v := range o.Metrics.Snapshot().Counters {
					if strings.HasPrefix(name, "sim.") {
						gotCounters[name] = v
					}
				}
				label := fmt.Sprintf("%s with %d boundary sets (first VLI: %v)", bin.Name, len(sets), sets[0].VLI != nil)
				for s := range sets {
					for iv := range want.Deltas[s].iv {
						g, _ := got.Deltas[s].Interval(iv)
						if w, _ := want.Deltas[s].Interval(iv); g != w {
							t.Fatalf("%s: set %d interval %d = %+v, oracle %+v", label, s, iv, g, w)
						}
					}
				}
				if !reflect.DeepEqual(got, want) || !reflect.DeepEqual(gotCounters, wantCounters) {
					t.Errorf("%s: fixed visitor's walk differs from exec.Multi's", label)
				}
			}
		}
	}
}

// TestSuiteReusesHierarchies pins the process-wide recycler: a second
// suite run right after a first one builds no cache hierarchy — every
// simulator it makes draws state the first left behind — and its
// result is fingerprint-identical. One worker and one pipeline keep the
// number of walks in flight at one, so the first suite's peak is the
// second's.
func TestSuiteReusesHierarchies(t *testing.T) {
	ctx := context.Background()
	cfg := testConfig("gzip", "mcf")
	cfg.Workers, cfg.Parallelism = 1, 1
	first, err := RunCtx(ctx, cfg)
	if err != nil {
		t.Fatal(err)
	}
	gets0, reuses0 := cmpsim.StateStats()
	second, err := RunCtx(ctx, cfg)
	if err != nil {
		t.Fatal(err)
	}
	gets1, reuses1 := cmpsim.StateStats()
	if gets1 == gets0 {
		t.Fatal("the second suite drew no simulator state")
	}
	if built := (gets1 - gets0) - (reuses1 - reuses0); built != 0 {
		t.Errorf("the second suite built %d of its %d hierarchies", built, gets1-gets0)
	}
	if got, want := second.Fingerprint(), first.Fingerprint(); got != want {
		t.Errorf("second suite %s, first %s", got, want)
	}
}

// TestWarmSimulateIntervalsAllocs pins the saving per walk: once the
// recycler holds a hierarchy, a full walk with both boundary sets
// allocates less than one hierarchy's cache state.
func TestWarmSimulateIntervalsAllocs(t *testing.T) {
	ctx := context.Background()
	p, cfg := prepareFor(t, ctx, "gzip", testConfig("gzip"))
	bin := p.Bins[0]
	sets := []Boundaries{{FLI: p.FLI[0].Ends}, {VLI: p.walk3[0].vliEnds}}
	if _, err := SimulateIntervals(ctx, bin, cfg.Input, cfg.Hierarchy, sets...); err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if _, err := SimulateIntervals(ctx, bin, cfg.Input, cfg.Hierarchy, sets...); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	if got, limit := after.TotalAlloc-before.TotalAlloc, cfg.Hierarchy.StateBytes(); got >= limit {
		t.Errorf("a warmed walk allocated %d bytes, not below one hierarchy's %d", got, limit)
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

// TestMemoMetricParity pins what pick reads against an executed walk,
// per hierarchy, binary and walk, with functional warming and from cold
// caches: the point CPIs (bit for bit), point intervals and simulated
// instructions measurePoints answers from walk 3's deltas, or from the
// cold walks', must equal refPointWalk's.
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
	for bi, bin := range p.Bins {
		coldFLI, coldVLI, err := simulateCold(ctx, cfg, p, bi)
		if err != nil {
			t.Fatal(err)
		}
		for _, cold := range []bool{false, true} {
			for _, walk := range []string{"fli", "vli"} {
				pick, b, d := vliPick, Boundaries{VLI: p.walk3[bi].vliEnds}, p.walk3[bi].vli
				if cold {
					d = coldVLI
				}
				if walk == "fli" {
					pick, b, d = fliPicks[bi], Boundaries{FLI: p.FLI[bi].Ends}, p.walk3[bi].fli
					if cold {
						d = coldFLI
					}
				}
				label := fmt.Sprintf("%s/%s/cold=%v", bin.Name, walk, cold)
				cpiA, ivA, instrA, err := measurePoints(ctx, bin, pick, d)
				if err != nil {
					t.Fatalf("%s: %v", label, err)
				}
				cpiE, ivE, instrE := refPointWalk(t, cfg, bin, b, pick, cold)
				for ph := range cpiE {
					if math.Float64bits(cpiA[ph]) != math.Float64bits(cpiE[ph]) {
						t.Errorf("%s phase %d: CPI %v answered, %v executed", label, ph, cpiA[ph], cpiE[ph])
					}
				}
				if !reflect.DeepEqual(ivA, ivE) || instrA != instrE {
					t.Errorf("%s: intervals %v / %d instr answered, %v / %d executed", label, ivA, instrA, ivE, instrE)
				}
			}
		}
	}
}

// refPointWalk is the executed reference for measurePoints: a walk of
// bin on its own simulator, composed the generic way (an exec.Multi of
// the simulator and a tracker over b), that records the Stats window of
// each of pick's point intervals and returns, per phase, the point's CPI
// and interval and the instructions simulated at the points. A
// region-gated simulation with functional warming records exactly these
// windows (cmpsim's TestSimulatorMatchesReference pins that). With cold
// set the walk empties the caches at the start of each point interval
// only, as a checkpoint-driven simulator without warm-up starts each
// point, where a cold walk empties them at every interval start.
func refPointWalk(t *testing.T, cfg Config, bin *compiler.Binary, b Boundaries, pick *simpoint.Result,
	cold bool) (cpi []float64, intervals []int, simInstr uint64) {

	t.Helper()
	sim, err := cmpsim.NewSimulator(bin, cfg.Hierarchy)
	if err != nil {
		t.Fatal(err)
	}
	defer sim.Release()
	rec := &pointRecorder{sim: sim, cold: cold, chosen: map[int]bool{}, regions: map[int][2]uint64{}}
	for _, pt := range pick.Points {
		rec.chosen[pt.Interval] = true
	}
	var tracker exec.Visitor = profile.NewFLITracker(bin, b.FLI, rec)
	if b.VLI != nil {
		tracker = profile.NewVLITracker(bin, b.VLI, rec)
	}
	if err := exec.RunCtx(context.Background(), bin, cfg.Input, exec.Multi{sim, tracker}); err != nil {
		t.Fatal(err)
	}
	rec.flush()
	cpi, intervals = make([]float64, pick.K), make([]int, pick.K)
	for ph := range cpi {
		cpi[ph], intervals[ph] = math.NaN(), -1
	}
	for _, pt := range pick.Points {
		r := rec.regions[pt.Interval]
		cpi[pt.Phase] = float64(r[1]) / float64(r[0])
		intervals[pt.Phase] = pt.Interval
		simInstr += r[0]
	}
	return cpi, intervals, simInstr
}

// pointRecorder is refPointWalk's interval sink: it records the chosen
// intervals' (instructions, cycles) windows and, with cold set, empties
// the caches as a chosen interval starts.
type pointRecorder struct {
	sim     *cmpsim.Simulator
	cold    bool
	chosen  map[int]bool
	cur     int
	lastI   uint64
	lastC   uint64
	regions map[int][2]uint64
}

// Transition implements profile.IntervalSink.
func (r *pointRecorder) Transition(i int) {
	if i == r.cur {
		return
	}
	r.flush()
	r.cur = i
	if r.cold && r.chosen[i] {
		r.sim.ResetCaches()
	}
}

func (r *pointRecorder) flush() {
	st := r.sim.Stats()
	if r.chosen[r.cur] {
		w := r.regions[r.cur]
		w[0] += st.Instructions - r.lastI
		w[1] += st.Cycles - r.lastC
		r.regions[r.cur] = w
	}
	r.lastI, r.lastC = st.Instructions, st.Cycles
}

// TestWalk3AnswersEveryGatePoint pins the accounting: with warming on
// (the default) every gate point is answered from walk 3, so
// pipeline.memo.hits counts all of them.
func TestWalk3AnswersEveryGatePoint(t *testing.T) {
	o := obs.New()
	res, err := runBenchmark(obs.With(context.Background(), o), "gzip", testConfig("gzip"))
	if err != nil {
		t.Fatal(err)
	}
	var wantPoints uint64
	for _, run := range res.Runs {
		wantPoints += uint64(run.FLI.NumPoints + run.VLI.NumPoints)
	}

	snap := o.Metrics.Snapshot()
	if got := snap.Counters["pipeline.memo.hits"]; got == 0 || got != wantPoints {
		t.Errorf("pipeline.memo.hits = %d, want %d", got, wantPoints)
	}
}

// TestColdStartAccounting pins what the cold-start variant costs and
// records: two more walks per binary than the warm run (its cold walks,
// under the FLI and the VLI boundaries), no sim.* family beyond walk 3's
// sim.full, the warm run's sim.full.instructions, and every point still
// answered from deltas (pipeline.memo.hits).
func TestColdStartAccounting(t *testing.T) {
	run := func(cold bool) (*BenchmarkResult, map[string]uint64) {
		o := &obs.Observer{Metrics: obs.NewRegistry()}
		cfg := testConfig("mcf")
		cfg.coldStart = cold
		res, err := runBenchmark(obs.With(context.Background(), o), "mcf", cfg)
		if err != nil {
			t.Fatal(err)
		}
		return res, o.Metrics.Snapshot().Counters
	}
	_, warm := run(false)
	res, cold := run(true)
	if got, want := cold["exec.runs"], warm["exec.runs"]+2*uint64(len(res.Runs)); got != want {
		t.Errorf("cold start made %d walks, want %d (the warm run's %d plus two per binary)", got, want, warm["exec.runs"])
	}
	for name := range cold {
		if strings.HasPrefix(name, "sim.") && !strings.HasPrefix(name, "sim.full.") {
			t.Errorf("cold start published %s", name)
		}
	}
	if got, want := cold["sim.full.instructions"], warm["sim.full.instructions"]; got == 0 || got != want {
		t.Errorf("sim.full.instructions = %d cold, %d warm", got, want)
	}
	var wantPoints uint64
	for _, r := range res.Runs {
		wantPoints += uint64(r.FLI.NumPoints + r.VLI.NumPoints)
	}
	if got := cold["pipeline.memo.hits"]; got != wantPoints {
		t.Errorf("pipeline.memo.hits = %d, want %d", got, wantPoints)
	}
}

// TestPointOutsideWalk3Rejected: a point interval walk 3 did not cover
// is an error, never a silent re-execution.
func TestPointOutsideWalk3Rejected(t *testing.T) {
	d := &IntervalDeltas{iv: make([]IntervalStats, 3)}
	for _, iv := range []int{-1, 3} {
		if _, err := d.window([]simpoint.Point{{Interval: iv}}); err == nil || !strings.Contains(err.Error(), "outside") {
			t.Errorf("interval %d: err = %v, want an outside-walk-3 error", iv, err)
		}
	}
}

// TestEvaluateWalkAbortClosesSamples is the regression test for a
// record left open by a faulted walk: a fault injected at the
// "evaluate.walk" hook must be retried away bit-identically, and every
// span the faulted and retried attempts opened must be closed after the
// run.
func TestEvaluateWalkAbortClosesSamples(t *testing.T) {
	baseline, err := runBenchmark(context.Background(), "gzip", testConfig("gzip"))
	if err != nil {
		t.Fatal(err)
	}
	inj := faults.NewInjector(
		faults.Rule{Stage: "evaluate.walk", Index: 0, Kind: faults.KindError},
	)
	o := obs.New()
	ctx := obs.With(faults.With(context.Background(), inj), o)
	res, err := runBenchmark(ctx, "gzip", retryConfig("gzip"))
	if err != nil {
		t.Fatalf("faulted walk was not retried away: %v", err)
	}
	if got, want := res.Fingerprint(), baseline.Fingerprint(); got != want {
		t.Fatalf("post-fault run diverged: %s != %s", got, want)
	}
	for _, s := range o.Events.Spans() {
		if !s.Ended {
			t.Errorf("span %d (%s) left open after a faulted-then-retried run", s.ID, s.Name)
		}
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
	d := &IntervalDeltas{iv: make([]IntervalStats, 3)}
	if _, err := recalcWeights(pick, d, 0); err == nil {
		t.Fatal("zero-total recalcWeights returned no error")
	} else if !strings.Contains(err.Error(), "no instructions") {
		t.Fatalf("error does not name the cause: %v", err)
	}

	d.iv = []IntervalStats{{Instructions: 10}, {Instructions: 30}, {Instructions: 10}}
	w, err := recalcWeights(pick, d, 50)
	if err != nil {
		t.Fatal(err)
	}
	if w[0] != 0.4 || w[1] != 0.6 {
		t.Fatalf("weights = %v, want [0.4 0.6]", w)
	}
}
