package experiment

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sync"
	"sync/atomic"

	"xbsim/internal/compiler"
	"xbsim/internal/exec"
	"xbsim/internal/faults"
	"xbsim/internal/mapping"
	"xbsim/internal/obs"
	"xbsim/internal/pool"
	"xbsim/internal/profile"
	"xbsim/internal/program"
	"xbsim/internal/sampler"
	"xbsim/internal/simpoint"
)

// MethodStats holds one estimation method's results for one binary.
type MethodStats struct {
	// K is the number of phases the clustering chose.
	K int
	// NumPoints is the number of simulation points (phases with a
	// representative).
	NumPoints int
	// NumIntervals is the interval count for this binary (FLI: its own
	// intervals; VLI: the shared cross-binary interval count).
	NumIntervals int
	// AvgIntervalInstrs is this binary's mean interval size in
	// instructions (VLIs expand/shrink when mapped across binaries).
	AvgIntervalInstrs float64
	// PhaseWeights[p] is the fraction of this binary's dynamic
	// instructions in phase p (VLI: recalculated per binary, §3.2.6).
	PhaseWeights []float64
	// PhaseTrueCPI[p] is the phase's true CPI measured during full
	// simulation of this binary.
	PhaseTrueCPI []float64
	// PointCPI[p] is the CPI of the phase's simulation point in this
	// binary: its interval's window of walk 3, or of a cold walk without
	// warming (NaN when the phase has no point).
	PointCPI []float64
	// PointInterval[p] is the representative interval index (-1 if none).
	PointInterval []int
	// PhaseOf labels every interval with its phase (FLI: this binary's
	// own intervals; VLI: the shared cross-binary intervals).
	PhaseOf []int
	// EstCPI is the weighted whole-program CPI estimate.
	EstCPI float64
	// CPIError is |EstCPI - TrueCPI| / TrueCPI.
	CPIError float64
	// EstCycles is EstCPI times the binary's exact instruction count.
	EstCycles float64
	// SimulatedInstructions is the number of instructions simulated in
	// detail across this method's simulation points — the cost side of
	// the accuracy-vs-budget tradeoff the sampler backends compete on.
	SimulatedInstructions uint64
}

// BinaryRun is everything measured for one binary of a benchmark.
type BinaryRun struct {
	// Binary is the compiled binary.
	Binary *compiler.Binary
	// TotalInstructions is the exact dynamic instruction count.
	TotalInstructions uint64
	// TrueCycles and TrueCPI come from full-run simulation.
	TrueCycles uint64
	TrueCPI    float64
	// FLI is the per-binary SimPoint baseline; VLI the cross-binary
	// mappable SimPoint method.
	FLI, VLI MethodStats
}

// BenchmarkResult is the complete evaluation of one benchmark.
type BenchmarkResult struct {
	// Name is the benchmark name.
	Name string
	// Runs holds one entry per binary in compiler.AllTargets order.
	Runs []*BinaryRun
	// Mapping is the cross-binary point set (diagnostics included).
	Mapping *mapping.Result
	// Primary is the primary binary index used for VLI selection.
	Primary int
}

// runPipeline evaluates one benchmark under every config in cfgs, which
// differ only in pick-side settings (Config.prepareSide): prepare runs
// once under cfgs[0], then pick runs once per config. A prepare failure
// fails every config; a pick failure fails only its own. gen produces
// the program (stage "compile" covers both generation and compilation).
// The configs carry the suite's worker and simulator state pools.
func runPipeline(ctx context.Context, name string, gen func() (*program.Program, error), cfgs []Config) ([]*BenchmarkResult, []error) {
	ctx, bspan := obs.StartSpan(ctx, "benchmark", name)
	defer bspan.End()

	results := make([]*BenchmarkResult, len(cfgs))
	errs := make([]error, len(cfgs))
	p, err := prepare(ctx, name, gen, cfgs[0])
	for v, cfg := range cfgs {
		if err != nil {
			errs[v] = err
			continue
		}
		results[v], errs[v] = pick(ctx, p, cfg)
	}
	return results, errs
}

// prepared is the pick-independent half of one benchmark's evaluation:
// the Analysis (walks 1 and 2) and walk 3's per-binary product. It
// depends only on the prepare-side settings (Config.prepareSide), never
// on the sampler, its knobs or warming, so every pick-side variant of a
// Config picks from one prepared value. It is immutable once prepare
// returns.
type prepared struct {
	*Analysis
	name string
	// walk3[bi] is Bins[bi]'s full simulation.
	walk3 []walk3Result
}

// walk3Result is one binary's full simulation: its true totals and every
// interval's statistics delta under both boundary sets.
type walk3Result struct {
	// vliEnds are the primary's VLI boundaries translated into this
	// binary's marker space.
	vliEnds              []profile.Boundary
	instructions, cycles uint64
	cpi                  float64
	fli, vli             *IntervalDeltas
}

// prepare runs compile, Analyze (walk 1, the mapping, walk 2) and walk 3
// for one benchmark. Each stage closure is idempotent — it allocates its
// result slots fresh on every attempt — so runStage can re-run it after
// a transient failure without residue from the failed attempt.
func prepare(ctx context.Context, name string, gen func() (*program.Program, error), cfg Config) (*prepared, error) {
	o := obs.From(ctx)
	var bins []*compiler.Binary
	err := runStage(ctx, name, "compile", func(sctx context.Context) error {
		o.Emit(obs.PipelineEvent{Kind: "progress", Benchmark: name, Stage: "compile"})
		_, cspan := obs.StartSpan(sctx, "stage.compile", name)
		defer cspan.End()
		prog, err := gen()
		if err != nil {
			return err
		}
		bins, err = compiler.CompileAll(prog)
		return err
	})
	if err != nil {
		return nil, err
	}
	a, err := Analyze(ctx, bins, cfg)
	if err != nil {
		return nil, err
	}
	p := &prepared{Analysis: a, name: name}

	// Walk 3 per binary: full simulation with both interval attributions.
	// Each binary owns its simulator and its walk3[bi] slot.
	err = runStage(ctx, name, "evaluate", func(sctx context.Context) error {
		p.walk3 = make([]walk3Result, len(bins))
		return cfg.workerPool.Run(len(bins), func(bi int) error {
			if err := faults.Hit(sctx, "evaluate.task"); err != nil {
				return err
			}
			w3, err := simulateFull(sctx, cfg, p, bi)
			if err != nil {
				return fmt.Errorf("%s: %w", bins[bi].Name, err)
			}
			p.walk3[bi] = w3
			return nil
		})
	})
	if err != nil {
		return nil, err
	}
	return p, nil
}

// Analysis is walks 1 and 2 over one program's binaries: everything
// point selection reads. It depends only on the prepare-side settings
// (Config.prepareSide) and is immutable once Analyze returns.
type Analysis struct {
	// Bins are the analyzed binaries, in the caller's order.
	Bins []*compiler.Binary
	// Profiles[bi] is Bins[bi]'s call-and-branch profile (walk 1).
	Profiles []*profile.Profile
	// FLI[bi] is Bins[bi]'s fixed-length intervals and BBVs (walk 1).
	FLI []*profile.FLIResult
	// Mapping is the mappable point set across Bins.
	Mapping *mapping.Result
	// Primary indexes the binary cut into variable-length intervals.
	Primary int
	// VLI is the primary's variable-length intervals and BBVs (walk 2).
	VLI *profile.VLIResult
	// Input and IntervalSize are the settings the walks ran under.
	Input        program.Input
	IntervalSize uint64
}

// Analyze runs walks 1 and 2 over one program's compiled binaries: each
// binary's profile and FLI BBVs, the mappable points across them, and
// the primary's VLI BBVs. Every stage runs in the suite's envelope
// (runStage: fault hooks, panic isolation, spans, progress and
// counters). Unset fields of cfg take the suite's defaults. The walks
// fan out on the suite's pool, else on cfg.SharedPool, else on a pool
// of cfg.Workers.
func Analyze(ctx context.Context, bins []*compiler.Binary, cfg Config) (*Analysis, error) {
	if len(bins) == 0 {
		return nil, fmt.Errorf("experiment: no binaries to analyze")
	}
	cfg, err := cfg.withDefaults()
	if err != nil {
		return nil, err
	}
	wp := cfg.pool()
	name := bins[0].Program.Name
	o := obs.From(ctx)
	a := &Analysis{Bins: bins, Primary: cfg.Primary, Input: cfg.Input, IntervalSize: cfg.IntervalSize}

	// Walk 1 per binary: call/branch profile + FLI BBVs. The total
	// instruction count is the end of the last FLI interval, so the walk
	// counts instructions once; walk 3 cross-checks it. The walks are
	// independent per binary, so they fan out on the pool; each writes
	// its own a.Profiles[bi]/a.FLI[bi] slot.
	err = runStage(ctx, name, "profile", func(sctx context.Context) error {
		a.Profiles = make([]*profile.Profile, len(bins))
		a.FLI = make([]*profile.FLIResult, len(bins))
		pctx, pspan := obs.StartSpan(sctx, "stage.profile", "")
		defer pspan.End()
		return wp.Run(len(bins), func(bi int) error {
			if err := faults.Hit(pctx, "profile.task"); err != nil {
				return err
			}
			bin := bins[bi]
			o.Emit(obs.PipelineEvent{Kind: "progress", Benchmark: name, Binary: bin.Name, Stage: "profile"})
			mc := exec.NewMarkerCounter(bin)
			fc, err := profile.NewFLICollector(bin, cfg.IntervalSize)
			if err != nil {
				return err
			}
			if err := exec.RunCtx(pctx, bin, cfg.Input, exec.Multi{mc, fc}); err != nil {
				return err
			}
			a.FLI[bi] = fc.Finish()
			o.Counter("pipeline.intervals.fli").Add(uint64(len(a.FLI[bi].Ends)))
			a.Profiles[bi], err = profile.BuildProfile(bin, cfg.Input, a.FLI[bi].TotalInstructions(), mc.Counts)
			return err
		})
	})
	if err != nil {
		return nil, err
	}

	// Mappable points across all binaries.
	err = runStage(ctx, name, "mapping", func(sctx context.Context) error {
		o.Emit(obs.PipelineEvent{Kind: "progress", Benchmark: name, Stage: "mapping"})
		var err error
		a.Mapping, err = mapping.FindCtx(sctx, a.Profiles, cfg.Mapping)
		return err
	})
	if err != nil {
		return nil, err
	}

	// Walk 2 (primary only): VLI BBV collection at mappable markers.
	primary := bins[a.Primary]
	err = runStage(ctx, name, "vli", func(sctx context.Context) error {
		o.Emit(obs.PipelineEvent{Kind: "progress", Benchmark: name, Stage: "vli slicing"})
		vctx, vspan := obs.StartSpan(sctx, "stage.vli_slicing", primary.Name)
		defer vspan.End()
		vc, err := profile.NewVLICollector(primary, cfg.IntervalSize, a.Mapping.MarkersFor(a.Primary))
		if err != nil {
			return err
		}
		if err := exec.RunCtx(vctx, primary, cfg.Input, vc); err != nil {
			return err
		}
		a.VLI = vc.Finish()
		return nil
	})
	if err != nil {
		return nil, err
	}
	o.Counter("pipeline.intervals.vli").Add(uint64(len(a.VLI.Ends)))
	return a, nil
}

// Pick runs cfg's sampler on one of a's interval sets: binary bi's FLIs
// (flavor "fli") or the primary's VLIs (flavor "vli"; bi is ignored).
// Unset fields of cfg take the suite's defaults, and the sampler fans
// out on the pool Analyze would use. The seed stream is
// "<Seed>/<flavor>/<name>": "fli/<binary>" for a binary's own intervals,
// "vli/<program>" for the primary's shared ones. The stream names are
// backend-independent, so switching backends changes the algorithm,
// never the stream naming.
func (a *Analysis) Pick(ctx context.Context, cfg Config, flavor string, bi int) (*simpoint.Result, error) {
	cfg, err := cfg.withDefaults()
	if err != nil {
		return nil, err
	}
	smp, err := sampler.New(cfg.Sampler)
	if err != nil {
		return nil, err
	}
	ds, name := a.VLI.Dataset, a.Bins[a.Primary].Program.Name
	if flavor == "fli" {
		ds, name = a.FLI[bi].Dataset, a.Bins[bi].Name
	}
	pick, err := smp.Pick(ctx, ds, sampler.Config{
		MaxK: cfg.MaxK, Dim: cfg.Dim, BICThreshold: cfg.BICThreshold,
		Restarts: cfg.Restarts, EarlyTolerance: cfg.EarlyTolerance,
		Pool:   cfg.pool(),
		Budget: cfg.SamplerBudget, Strata: cfg.SamplerStrata,
		Seed: cfg.Seed + "/" + flavor + "/" + name,
	})
	if err != nil {
		return nil, fmt.Errorf("%s %s %s: %w", name, flavor, smp.Name(), err)
	}
	return pick, nil
}

// simulateFull performs walk 3 for one binary: the full simulation,
// attributed per interval under the binary's FLI boundaries and under
// the translated VLI boundaries. The simulation must reproduce walk 1's
// instruction count.
func simulateFull(ctx context.Context, cfg Config, p *prepared, bi int) (walk3Result, error) {
	o := obs.From(ctx)
	bin := p.Bins[bi]
	var w3 walk3Result
	var err error
	w3.vliEnds, err = p.Mapping.TranslateEnds(p.Primary, bi, p.VLI.Ends)
	if err != nil {
		return w3, fmt.Errorf("translating VLI boundaries: %w", err)
	}

	o.Emit(obs.PipelineEvent{Kind: "progress", Benchmark: bin.Program.Name, Binary: bin.Name, Stage: "full simulation"})
	fctx, fspan := obs.StartSpan(ctx, "stage.full_sim", bin.Name)
	defer fspan.End()
	fw, err := SimulateIntervals(fctx, bin, cfg.Input, cfg.Hierarchy,
		Boundaries{FLI: p.FLI[bi].Ends}, Boundaries{VLI: w3.vliEnds})
	if err != nil {
		return w3, err
	}
	st := &fw.Stats
	if total := p.Profiles[bi].TotalInstructions; st.Instructions != total {
		return w3, fmt.Errorf("instruction count mismatch between walks: %d vs %d",
			st.Instructions, total)
	}
	w3.instructions, w3.cycles, w3.cpi = st.Instructions, st.Cycles, st.CPI()
	w3.fli, w3.vli = fw.Deltas[0], fw.Deltas[1]
	return w3, nil
}

// pick selects the simulation points and turns them into the benchmark's
// result: the sampler, then walks 4/5's point statistics (and, without
// warming, the cold walks they read), the VLI weight recalculation and
// the method statistics. It is a pure function of p and cfg's pick-side
// settings, and never modifies p.
func pick(ctx context.Context, p *prepared, cfg Config) (*BenchmarkResult, error) {
	o := obs.From(ctx)
	var fliPicks []*simpoint.Result
	var vliPick *simpoint.Result
	err := runStage(ctx, p.name, "clustering", func(sctx context.Context) error {
		o.Emit(obs.PipelineEvent{Kind: "progress", Benchmark: p.name, Stage: "clustering"})
		var err error
		fliPicks, vliPick, err = selectPoints(sctx, cfg, p)
		return err
	})
	if err != nil {
		return nil, err
	}

	// Walks 4/5 per binary and the method statistics. Each binary owns
	// its Runs[bi] slot.
	var res *BenchmarkResult
	err = runStage(ctx, p.name, "evaluate", func(sctx context.Context) error {
		res = &BenchmarkResult{Name: p.name, Mapping: p.Mapping, Primary: p.Primary,
			Runs: make([]*BinaryRun, len(p.Bins))}
		return cfg.workerPool.Run(len(p.Bins), func(bi int) error {
			if err := faults.Hit(sctx, "evaluate.task"); err != nil {
				return err
			}
			run, err := evaluateBinary(sctx, cfg, p, bi, fliPicks[bi], vliPick)
			if err != nil {
				return fmt.Errorf("%s: %w", p.Bins[bi].Name, err)
			}
			res.Runs[bi] = run
			return nil
		})
	})
	if err != nil {
		return nil, err
	}
	o.Counter("pipeline.benchmarks_completed").Inc()
	return res, nil
}

// selectPoints runs the sampler: per-binary FLI (independent runs,
// independently seeded — exactly what an engineer running the picker per
// binary would do), and one VLI run on the primary. All len(bins)+1 runs
// are independent and fan out together; the SimPoint backend
// additionally parallelizes its own k sweep and k-means restarts on the
// same shared pool, while the stratified backend is serial arithmetic.
func selectPoints(ctx context.Context, cfg Config, p *prepared) ([]*simpoint.Result, *simpoint.Result, error) {
	fliPicks := make([]*simpoint.Result, len(p.Bins))
	var vliPick *simpoint.Result
	err := cfg.workerPool.Run(len(p.Bins)+1, func(i int) error {
		if err := faults.Hit(ctx, "clustering.task"); err != nil {
			return err
		}
		var err error
		if i == len(p.Bins) {
			vliPick, err = p.Pick(ctx, cfg, "vli", 0)
		} else {
			fliPicks[i], err = p.Pick(ctx, cfg, "fli", i)
		}
		return err
	})
	return fliPicks, vliPick, err
}

// evaluateBinary measures walks 4/5 for one binary and assembles its
// BinaryRun.
func evaluateBinary(ctx context.Context, cfg Config, p *prepared, bi int,
	fliPick, vliPick *simpoint.Result) (*BinaryRun, error) {

	o := obs.From(ctx)
	bin := p.Bins[bi]
	w3 := &p.walk3[bi]
	run := &BinaryRun{
		Binary:            bin,
		TotalInstructions: w3.instructions,
		TrueCycles:        w3.cycles,
		TrueCPI:           w3.cpi,
	}
	// The points' windows: walk 3's deltas, or without warming the cold
	// walks'.
	fliPoints, vliPoints := w3.fli, w3.vli
	if cfg.coldStart {
		var err error
		if fliPoints, vliPoints, err = simulateCold(ctx, cfg, p, bi); err != nil {
			return nil, err
		}
	}

	// Walk 4: FLI points (this binary's own).
	fliPointCPI, fliPointIv, fliSimInstr, err := measurePoints(ctx, bin, fliPick, fliPoints)
	if err != nil {
		return nil, err
	}
	_, wspan := obs.StartSpan(ctx, "stage.weighting", bin.Name)
	run.FLI, err = buildMethodStats(fliPick, w3.fli, fliPointCPI, fliPointIv,
		len(p.FLI[bi].Ends), run, nil, fliSimInstr)
	wspan.End()
	if err != nil {
		return nil, err
	}

	// Walk 5: VLI points (the shared cross-binary points located in this
	// binary via translated boundaries).
	vliPointCPI, vliPointIv, vliSimInstr, err := measurePoints(ctx, bin, vliPick, vliPoints)
	if err != nil {
		return nil, err
	}
	// VLI weights are recalculated from THIS binary's per-phase
	// instruction counts (§3.2.6).
	_, wspan = obs.StartSpan(ctx, "stage.weighting", bin.Name)
	vliWeights, err := recalcWeights(vliPick, w3.vli, run.TotalInstructions)
	if err != nil {
		wspan.End()
		return nil, fmt.Errorf("%s VLI weights: %w", bin.Name, err)
	}
	run.VLI, err = buildMethodStats(vliPick, w3.vli, vliPointCPI, vliPointIv,
		len(w3.vliEnds), run, vliWeights, vliSimInstr)
	wspan.End()
	if err != nil {
		return nil, err
	}
	// The recalculated per-binary VLI weights are a reportable invariant:
	// they must sum to ~1. Gauges hold the most recent binary's weights;
	// the mutex keeps one binary's complete weight set as the final state
	// when binaries are evaluated concurrently — an interleaved mix of
	// two binaries' weights would not sum to 1.
	vliGaugeMu.Lock()
	for p, w := range run.VLI.PhaseWeights {
		o.Gauge(fmt.Sprintf("pipeline.vli.phase_weight.p%02d", p)).Set(w)
	}
	vliGaugeMu.Unlock()
	o.Counter("pipeline.binaries_evaluated").Inc()
	return run, nil
}

// vliGaugeMu serializes publication of the per-phase VLI weight gauges
// across concurrently evaluated binaries.
var vliGaugeMu sync.Mutex

// simulateCold runs binary bi's two cold walks, under its FLI and its
// translated VLI boundaries, and returns their per-interval deltas: each
// interval measured from cold caches.
func simulateCold(ctx context.Context, cfg Config, p *prepared, bi int) (fli, vli *IntervalDeltas, err error) {
	bin := p.Bins[bi]
	fw, err := simulateIntervals(ctx, bin, cfg.Input, cfg.Hierarchy, true, Boundaries{FLI: p.FLI[bi].Ends})
	if err != nil {
		return nil, nil, err
	}
	vw, err := simulateIntervals(ctx, bin, cfg.Input, cfg.Hierarchy, true, Boundaries{VLI: p.walk3[bi].vliEnds})
	if err != nil {
		return nil, nil, err
	}
	return fw.Deltas[0], vw.Deltas[0], nil
}

// measurePoints reads one pick's points from d, the per-interval deltas
// of the walk that measures them in bin, and returns, per phase, the CPI
// of its simulation point and the representative interval index, plus
// the instructions simulated in detail. Nothing executes; every point
// answered counts as one pipeline.memo.hits.
func measurePoints(ctx context.Context, bin *compiler.Binary, pick *simpoint.Result,
	d *IntervalDeltas) (cpi []float64, intervals []int, simInstr uint64, err error) {

	if err := faults.Hit(ctx, "evaluate.walk"); err != nil {
		return nil, nil, 0, err
	}
	regions, err := d.window(pick.Points)
	if err != nil {
		return nil, nil, 0, err
	}
	obs.From(ctx).Counter("pipeline.memo.hits").Add(uint64(len(pick.Points)))

	cpi = make([]float64, pick.K)
	intervals = make([]int, pick.K)
	for p := range cpi {
		cpi[p] = math.NaN()
		intervals[p] = -1
	}
	for i, p := range pick.Points {
		st := regions[i]
		if st.Instructions == 0 {
			return nil, nil, 0, fmt.Errorf("simulation point interval %d executed nothing in %s",
				p.Interval, bin.Name)
		}
		simInstr += st.Instructions
		cpi[p.Phase] = float64(st.Cycles) / float64(st.Instructions)
		intervals[p.Phase] = p.Interval
	}
	return cpi, intervals, simInstr, nil
}

// recalcWeights computes per-phase weights from this binary's per-interval
// instruction counts under the shared VLI boundaries. A zero total would
// otherwise divide every weight into NaN and let the NaNs flow silently
// through buildMethodStats' weights[p] <= 0 filter into EstCPI, so it is
// rejected explicitly.
func recalcWeights(pick *simpoint.Result, d *IntervalDeltas, total uint64) ([]float64, error) {
	if total == 0 {
		return nil, fmt.Errorf("no usable simulation points: binary executed no instructions")
	}
	w := make([]float64, pick.K)
	for iv, phase := range pick.PhaseOf {
		if st, ok := d.Interval(iv); ok {
			w[phase] += float64(st.Instructions)
		}
	}
	for p := range w {
		w[p] /= float64(total)
	}
	return w, nil
}

// buildMethodStats assembles a MethodStats from the pieces. weights == nil
// uses the clustering's own weights (FLI); otherwise the recalculated
// per-binary weights (VLI).
func buildMethodStats(pick *simpoint.Result, d *IntervalDeltas,
	pointCPI []float64, pointIv []int, numIntervals int, run *BinaryRun,
	weights []float64, simInstr uint64) (MethodStats, error) {

	ms := MethodStats{
		K:                     pick.K,
		NumPoints:             len(pick.Points),
		NumIntervals:          numIntervals,
		PointCPI:              pointCPI,
		PointInterval:         pointIv,
		PhaseOf:               append([]int(nil), pick.PhaseOf...),
		SimulatedInstructions: simInstr,
	}
	if numIntervals > 0 {
		ms.AvgIntervalInstrs = float64(run.TotalInstructions) / float64(numIntervals)
	}
	if weights == nil {
		weights = append([]float64(nil), pick.PhaseWeights...)
	}
	ms.PhaseWeights = weights

	// Per-phase true CPI from the full-run attribution.
	ms.PhaseTrueCPI = make([]float64, pick.K)
	phaseInstr := make([]uint64, pick.K)
	phaseCycles := make([]uint64, pick.K)
	for iv, phase := range pick.PhaseOf {
		if st, ok := d.Interval(iv); ok {
			phaseInstr[phase] += st.Instructions
			phaseCycles[phase] += st.Cycles
		}
	}
	for p := range ms.PhaseTrueCPI {
		if phaseInstr[p] > 0 {
			ms.PhaseTrueCPI[p] = float64(phaseCycles[p]) / float64(phaseInstr[p])
		}
	}

	var err error
	if ms.EstCPI, err = WeightedCPI(weights, pointCPI); err != nil {
		return ms, err
	}
	ms.EstCycles = ms.EstCPI * float64(run.TotalInstructions)
	if run.TrueCPI > 0 {
		ms.CPIError = math.Abs(ms.EstCPI-run.TrueCPI) / run.TrueCPI
	}
	return ms, nil
}

// WeightedCPI is the sampled whole-program CPI estimate: the weighted
// average of the per-phase point CPIs, skipping phases with no point
// (NaN) or no weight (w <= 0), divided by the weight it kept.
func WeightedCPI(weights, pointCPI []float64) (float64, error) {
	var est, wsum float64
	for p, cpi := range pointCPI {
		if math.IsNaN(cpi) || weights[p] <= 0 {
			continue
		}
		est += weights[p] * cpi
		wsum += weights[p]
	}
	if wsum <= 0 {
		return 0, fmt.Errorf("no usable simulation points")
	}
	return est / wsum, nil
}

// BenchmarkFailure records one benchmark the suite could not complete.
type BenchmarkFailure struct {
	// Name is the benchmark that failed.
	Name string
	// Err is the rendered failure (the joined error chain's message).
	Err string
}

// Suite is a completed multi-benchmark evaluation, possibly partial.
type Suite struct {
	// Config is the configuration the suite ran with (defaults applied).
	Config Config
	// Results holds the completed benchmarks in Config.Benchmarks order.
	// When every benchmark succeeds it has one entry per configured
	// benchmark; failed benchmarks are absent here and listed in
	// Failures instead.
	Results []*BenchmarkResult
	// Failures lists the benchmarks that failed, in Config.Benchmarks
	// order. Reports render these as an explicit appendix so a partial
	// suite is never mistaken for a complete one.
	Failures []BenchmarkFailure
}

// RunCtx evaluates every configured benchmark, in parallel up to
// Config.Parallelism. All benchmarks share one intra-benchmark worker
// pool, so the whole suite never runs more than Parallelism benchmark
// goroutines plus Workers-1 pool helpers.
//
// When the context carries an obs.Observer, every pipeline stage is
// recorded as a span under a per-benchmark root (compile → profile →
// mapping → VLI slicing → full simulation → clustering → weighting), concurrent benchmarks land in separate trace
// lanes keyed by their root spans, stage and completion progress is
// reported, and the metrics registry accumulates interval, marker,
// clustering, simulator and pool counters. Without an observer nothing
// is recorded and nothing is paid.
//
// Every stage runs once (see runStage): panics are isolated into
// *pool.PanicError, and a failed stage fails its benchmark. Stages are
// deterministic, so a failure would repeat; the checkpoint, not a
// retry, is what recovers work after process death.
//
// Within a benchmark, the per-binary profile walks, the SimPoint sweeps,
// and the per-binary evaluations run concurrently on the worker pool.
// The parallel schedule never changes the numbers: every unit of work
// owns an index-addressed result slot and an independently seeded random
// stream, so the output is bit-identical to a Workers=1 run. Spans
// started by pool workers carry the stage span as parent through the
// context, so concurrent work still nests under the benchmark root.
//
// The suite degrades gracefully: a benchmark that fails is recorded in Suite.Failures and the rest of
// the suite keeps running. On failure RunCtx returns the partial Suite
// alongside the joined error, so callers can report the completed
// benchmarks with an explicit failure appendix.
//
// When Config.CheckpointDir is set, each completed benchmark's result is
// persisted as a fingerprinted checkpoint, and benchmarks whose existing
// checkpoints validate against this configuration are loaded instead of
// recomputed — so an interrupted suite resumes where it stopped and
// finishes with results bit-identical to an uninterrupted run.
func RunCtx(ctx context.Context, cfg Config) (*Suite, error) {
	suites, err := runVariants(ctx, []Config{cfg})
	if suites == nil {
		return nil, err
	}
	return suites[0], err
}

// runVariants runs the benchmark suite of cfgs[0] once per config, with
// all of RunCtx's suite machinery. The configs may differ only in
// pick-side settings (Config.prepareSide), so each benchmark's walks 1–3
// run once and every variant picks from them. It returns one Suite per
// config, in order, and the join of every variant's failures; a nil
// slice means the configs themselves were rejected.
func runVariants(ctx context.Context, cfgs []Config) ([]*Suite, error) {
	cfgs = append([]Config(nil), cfgs...)
	for v := range cfgs {
		c, err := cfgs[v].withDefaults()
		if err != nil {
			return nil, err
		}
		if v > 0 && !SamePrepare(c, cfgs[0]) {
			return nil, fmt.Errorf("experiment: variant %d differs from variant 0 beyond pick-side settings", v)
		}
		cfgs[v] = c
	}
	items := make([]suiteItem, len(cfgs[0].Benchmarks))
	for i, name := range cfgs[0].Benchmarks {
		name := name
		items[i] = suiteItem{name: name, gen: func() (*program.Program, error) {
			return program.Generate(name, program.GenConfig{TargetOps: cfgs[0].TargetOps})
		}}
	}
	return runSuite(ctx, cfgs, items)
}

// RunSpecsCtx runs the full pipeline over a suite of synthesized program
// specs with all of RunCtx's suite machinery: bounded parallelism over
// one shared worker pool, graceful degradation into Suite.Failures, and
// — because spec names are content-derived and filename-safe — the same
// checkpoint/resume behavior named benchmarks get, so an interrupted
// spec suite (a killed serve job, say) resumes per spec. The suite's
// Config.Benchmarks is rewritten to the normalized spec names so
// reports, exports, and failures identify specs the way benchmarks are
// identified.
func RunSpecsCtx(ctx context.Context, specs []program.Spec, cfg Config) (*Suite, error) {
	cfg, err := cfg.withDefaults()
	if err != nil {
		return nil, err
	}
	items := make([]suiteItem, len(specs))
	names := make([]string, len(specs))
	for i, spec := range specs {
		spec := spec.Normalize()
		names[i] = spec.Name()
		items[i] = suiteItem{name: spec.Name(), gen: func() (*program.Program, error) {
			return program.GenerateSpec(spec)
		}}
	}
	cfg.Benchmarks = names
	suites, err := runSuite(ctx, []Config{cfg}, items)
	return suites[0], err
}

// suiteItem is one unit of suite work: a stable name (a benchmark name
// or a spec's content-derived name — used for checkpoints, progress,
// and failure reporting) plus the program it evaluates.
type suiteItem struct {
	name string
	gen  func() (*program.Program, error)
}

// runSuite is the suite body shared by RunCtx, RunSpecsCtx and the
// pick-side sweeps. cfgs must already have defaults applied and differ
// only in pick-side settings. Per item it loads each config's checkpoint
// under that config's own fingerprint, then runs prepare once and pick
// for each config still missing. It returns one Suite per config and the
// join of every config's failures.
func runSuite(ctx context.Context, cfgs []Config, items []suiteItem) ([]*Suite, error) {
	o := obs.From(ctx)
	wp := cfgs[0].SharedPool // an injected pool is owned (and instrumented) by its installer
	if wp == nil {
		wp = pool.New(cfgs[0].Workers)
		wp.Instrument(o)
	}
	fps := make([]string, len(cfgs))
	results := make([][]*BenchmarkResult, len(cfgs))
	errs := make([][]error, len(cfgs))
	for v := range cfgs {
		cfgs[v].workerPool = wp
		fps[v] = cfgs[v].fingerprint()
		results[v] = make([]*BenchmarkResult, len(items))
		errs[v] = make([]error, len(items))
	}
	sem := make(chan struct{}, cfgs[0].Parallelism)
	var wg sync.WaitGroup
	var done atomic.Int64
	for i, it := range items {
		wg.Add(1)
		go func(i int, it suiteItem) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			name := it.name
			var missing []Config
			var slots []int
			for v, cfg := range cfgs {
				if cfg.CheckpointDir != "" {
					r, err := loadCheckpoint(cfg.CheckpointDir, name, fps[v])
					switch {
					case err == nil:
						results[v][i] = r
						o.Counter("pipeline.checkpoints_loaded").Inc()
						o.Emit(obs.PipelineEvent{Kind: "checkpoint", Benchmark: name, Detail: "loaded"})
						continue
					case !errors.Is(err, errNoCheckpoint):
						// Corrupt or stale checkpoint: recompute from scratch.
						o.Counter("pipeline.checkpoints_invalid").Inc()
						o.Emit(obs.PipelineEvent{Kind: "checkpoint", Benchmark: name, Detail: "invalid: " + err.Error()})
						o.Emit(obs.PipelineEvent{Kind: "progress", Benchmark: name, Stage: "checkpoint invalid, recomputing"})
					}
				}
				missing = append(missing, cfg)
				slots = append(slots, v)
			}
			if len(missing) == 0 {
				o.Emit(obs.PipelineEvent{Kind: "progress", Benchmark: name, Stage: "resumed from checkpoint",
					Done: int(done.Add(1)), Total: len(items)})
				return
			}
			rs, rerrs := runPipeline(ctx, name, it.gen, missing)
			failed := false
			for k, v := range slots {
				if rerrs[k] != nil {
					errs[v][i] = fmt.Errorf("%s: %w", name, rerrs[k])
					o.Counter("pipeline.benchmarks_failed").Inc()
					failed = true
					continue
				}
				results[v][i] = rs[k]
				if dir := cfgs[v].CheckpointDir; dir != "" {
					if err := saveCheckpoint(dir, rs[k], fps[v]); err != nil {
						// A checkpoint write failure costs resumability, not
						// correctness: report it and keep the result.
						o.Emit(obs.PipelineEvent{Kind: "checkpoint", Benchmark: name, Detail: "write failed: " + err.Error()})
						o.Emit(obs.PipelineEvent{Kind: "progress", Benchmark: name, Stage: "checkpoint write failed: " + err.Error()})
					} else {
						o.Emit(obs.PipelineEvent{Kind: "checkpoint", Benchmark: name, Detail: "saved"})
					}
				}
			}
			stage := "done"
			if failed {
				stage = "failed"
			}
			o.Emit(obs.PipelineEvent{Kind: "progress", Benchmark: name, Stage: stage,
				Done: int(done.Add(1)), Total: len(items)})
		}(i, it)
	}
	wg.Wait()
	suites := make([]*Suite, len(cfgs))
	var all []error
	for v, cfg := range cfgs {
		s := &Suite{Config: cfg}
		for _, r := range results[v] {
			if r != nil {
				s.Results = append(s.Results, r)
			}
		}
		for i, e := range errs[v] {
			if e != nil {
				s.Failures = append(s.Failures, BenchmarkFailure{
					Name: items[i].name, Err: e.Error()})
			}
		}
		suites[v] = s
		all = append(all, errs[v]...)
	}
	// Join every failure (in benchmark order) instead of surfacing only
	// the first: a multi-failure run stays debuggable in one pass. The
	// partial suites are returned alongside the error so completed work
	// survives.
	return suites, errors.Join(all...)
}

// ByName returns the named benchmark's result, or nil.
func (s *Suite) ByName(name string) *BenchmarkResult {
	for _, r := range s.Results {
		if r.Name == name {
			return r
		}
	}
	return nil
}
