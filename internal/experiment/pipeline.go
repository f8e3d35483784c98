package experiment

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sync"
	"sync/atomic"

	"xbsim/internal/cmpsim"
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
	// PointCPI[p] is the CPI of the phase's simulation point measured by
	// region-gated simulation of this binary (NaN when the phase has no
	// point).
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

// PipelineStages lists every fault-injection hook the per-benchmark
// pipeline passes through, in execution order. Plain names fire once per
// stage attempt (inside the stage's retry envelope); ".task" names fire
// once per pool-fanned work unit inside that stage, so faults planted
// there exercise the worker pool's panic isolation as well. The chaos
// subcommand draws its random fault plans from this list.
var PipelineStages = []string{
	"compile", "profile", "profile.task", "mapping", "vli",
	"clustering", "clustering.task", "sampler.stratify", "sampler.allocate",
	"evaluate", "evaluate.task", "evaluate.walk",
}

// RunBenchmark executes the full pipeline for one benchmark.
func RunBenchmark(name string, cfg Config) (*BenchmarkResult, error) {
	return RunBenchmarkCtx(context.Background(), name, cfg)
}

// RunBenchmarkCtx is RunBenchmark with observability and fault
// tolerance. When the context carries an obs.Observer, every pipeline
// stage is recorded as a span under a per-benchmark root (compile →
// profile → mapping → VLI slicing → projection → clustering → full/gated
// simulation → weighting), stage progress is reported per binary, and
// the metrics registry accumulates interval, marker, clustering, and
// simulator counters. Without an observer it behaves — and costs —
// exactly like RunBenchmark.
//
// Every stage runs inside a fault-tolerance envelope (see runStage):
// panics are isolated into *pool.PanicError, Config.StageTimeout bounds
// each attempt, and transient failures — injected faults from a
// faults.Injector on the context, or stage deadline expiries — are
// retried under Config.Retry. Stages are idempotent and deterministic,
// so a run that succeeds after retries is bit-identical to an
// undisturbed one.
//
// Within the benchmark, the per-binary profile walks, the SimPoint
// sweeps, and the per-binary evaluations run concurrently on a bounded
// pool of Config.Workers goroutines. The parallel schedule never changes
// the numbers: every unit of work owns an index-addressed result slot
// and an independently seeded random stream, so the output is
// bit-identical to a Workers=1 run. Spans started by pool workers carry
// the stage span as parent through the context, so concurrent work still
// nests correctly under the benchmark root in the trace.
func RunBenchmarkCtx(ctx context.Context, name string, cfg Config) (*BenchmarkResult, error) {
	cfg, err := cfg.withDefaults()
	if err != nil {
		return nil, err
	}
	return runPipeline(ctx, name, func() (*program.Program, error) {
		return program.Generate(name, program.GenConfig{TargetOps: cfg.TargetOps})
	}, cfg)
}

// RunSpec runs the full benchmark pipeline on a synthesized program
// spec instead of a named benchmark — the same population the selfcheck
// and chaos harnesses draw from.
func RunSpec(spec program.Spec, cfg Config) (*BenchmarkResult, error) {
	return RunSpecCtx(context.Background(), spec, cfg)
}

// RunSpecCtx is RunSpec with observability and fault tolerance (see
// RunBenchmarkCtx).
func RunSpecCtx(ctx context.Context, spec program.Spec, cfg Config) (*BenchmarkResult, error) {
	cfg, err := cfg.withDefaults()
	if err != nil {
		return nil, err
	}
	spec = spec.Normalize()
	return runPipeline(ctx, spec.Name(), func() (*program.Program, error) {
		return program.GenerateSpec(spec)
	}, cfg)
}

// runPipeline is the staged pipeline body shared by RunBenchmarkCtx and
// RunSpecCtx. gen produces the program (stage "compile" covers both
// generation and compilation). Each stage closure is idempotent — it
// allocates its result slots fresh on every attempt — so runStage can
// re-run it after a transient failure without residue from the failed
// attempt.
func runPipeline(ctx context.Context, name string, gen func() (*program.Program, error), cfg Config) (*BenchmarkResult, error) {
	o := obs.From(ctx)
	if cfg.workerPool == nil {
		cfg.workerPool = pool.New(cfg.Workers)
		instrumentPool(cfg.workerPool, o)
	}
	// Suite-level runs (RunCtx) install one memo table and one simulator
	// state pool for all benchmarks; a standalone benchmark run gets its
	// own here.
	if cfg.memo == nil && !cfg.DisableMemo {
		cfg.memo = newEvalMemo()
	}
	if cfg.simPool == nil {
		cfg.simPool = cmpsim.NewStatePool()
	}
	ctx, bspan := obs.StartSpan(ctx, "benchmark")
	bspan.Annotate(name)
	defer bspan.End()

	var prog *program.Program
	var bins []*compiler.Binary
	err := runStage(ctx, cfg, name, "compile", func(sctx context.Context) error {
		o.Report(obs.Event{Benchmark: name, Stage: "compile"})
		_, cspan := obs.StartSpan(sctx, "stage.compile")
		cspan.Annotate(name)
		defer cspan.End()
		var err error
		if prog, err = gen(); err != nil {
			return err
		}
		bins, err = compiler.CompileAll(prog)
		return err
	})
	if err != nil {
		return nil, err
	}

	// Walk 1 per binary: call/branch profile + FLI BBVs. The total
	// instruction count is the end of the last FLI interval, so the walk
	// counts instructions once; walk 3 cross-checks it. The walks are
	// independent per binary, so they fan out on the pool; each writes
	// its own profiles[bi]/fliRes[bi] slot.
	var profiles []*profile.Profile
	var fliRes []*profile.FLIResult
	err = runStage(ctx, cfg, name, "profile", func(sctx context.Context) error {
		profiles = make([]*profile.Profile, len(bins))
		fliRes = make([]*profile.FLIResult, len(bins))
		pctx, pspan := obs.StartSpan(sctx, "stage.profile")
		defer pspan.End()
		return cfg.workerPool.Run(len(bins), func(bi int) error {
			if err := faults.Hit(pctx, "profile.task"); err != nil {
				return err
			}
			bin := bins[bi]
			o.Report(obs.Event{Benchmark: name, Binary: bin.Name, Stage: "profile"})
			mc := exec.NewMarkerCounter(bin)
			fc, err := profile.NewFLICollector(bin, cfg.IntervalSize)
			if err != nil {
				return err
			}
			if err := exec.RunCtx(pctx, bin, cfg.Input, exec.Multi{mc, fc}); err != nil {
				return err
			}
			fliRes[bi] = fc.Finish()
			o.Counter("pipeline.intervals.fli").Add(uint64(len(fliRes[bi].Ends)))
			profiles[bi], err = profile.BuildProfile(bin, cfg.Input, fliRes[bi].TotalInstructions(), mc.Counts)
			return err
		})
	})
	if err != nil {
		return nil, err
	}

	// Mappable points across all binaries.
	var mapped *mapping.Result
	err = runStage(ctx, cfg, name, "mapping", func(sctx context.Context) error {
		o.Report(obs.Event{Benchmark: name, Stage: "mapping"})
		var err error
		mapped, err = mapping.FindCtx(sctx, profiles, cfg.Mapping)
		return err
	})
	if err != nil {
		return nil, err
	}

	// Walk 2 (primary only): VLI BBV collection at mappable markers.
	primary := cfg.Primary
	var vliRes *profile.VLIResult
	err = runStage(ctx, cfg, name, "vli", func(sctx context.Context) error {
		o.Report(obs.Event{Benchmark: name, Stage: "vli slicing"})
		vctx, vspan := obs.StartSpan(sctx, "stage.vli_slicing")
		vspan.Annotate(bins[primary].Name)
		defer vspan.End()
		vc, err := profile.NewVLICollector(bins[primary], cfg.IntervalSize, mapped.MarkersFor(primary))
		if err != nil {
			return err
		}
		if err := exec.RunCtx(vctx, bins[primary], cfg.Input, vc); err != nil {
			return err
		}
		vliRes = vc.Finish()
		return nil
	})
	if err != nil {
		return nil, err
	}
	o.Counter("pipeline.intervals.vli").Add(uint64(len(vliRes.Ends)))

	// Point selection: per-binary FLI (independent runs, independently
	// seeded — exactly what an engineer running the picker per binary
	// would do), and one VLI run on the primary. All len(bins)+1 runs are
	// independent and fan out together; the SimPoint backend additionally
	// parallelizes its own k sweep and k-means restarts on the same
	// shared pool, while the stratified backend is serial arithmetic. The
	// seed strings are backend-independent, so switching backends changes
	// the algorithm, never the stream naming.
	smp, err := sampler.New(cfg.Sampler)
	if err != nil {
		return nil, err
	}
	var fliPicks []*simpoint.Result
	var vliPick *simpoint.Result
	err = runStage(ctx, cfg, name, "clustering", func(sctx context.Context) error {
		o.Report(obs.Event{Benchmark: name, Stage: "clustering"})
		spCfg := sampler.Config{
			MaxK: cfg.MaxK, Dim: cfg.Dim, BICThreshold: cfg.BICThreshold,
			Restarts: cfg.Restarts, EarlyTolerance: cfg.EarlyTolerance,
			Pool:   cfg.workerPool,
			Budget: cfg.SamplerBudget, Strata: cfg.SamplerStrata,
		}
		fliPicks = make([]*simpoint.Result, len(bins))
		vliPick = nil
		return cfg.workerPool.Run(len(bins)+1, func(i int) error {
			if err := faults.Hit(sctx, "clustering.task"); err != nil {
				return err
			}
			pickCfg := spCfg
			if i == len(bins) {
				pickCfg.Seed = fmt.Sprintf("%s/vli/%s", cfg.Seed, prog.Name)
				var err error
				vliPick, err = smp.Pick(sctx, vliRes.Dataset, pickCfg)
				if err != nil {
					return fmt.Errorf("%s vli %s: %w", prog.Name, smp.Name(), err)
				}
				return nil
			}
			pickCfg.Seed = fmt.Sprintf("%s/fli/%s", cfg.Seed, bins[i].Name)
			var err error
			fliPicks[i], err = smp.Pick(sctx, fliRes[i].Dataset, pickCfg)
			if err != nil {
				return fmt.Errorf("%s fli %s: %w", bins[i].Name, smp.Name(), err)
			}
			return nil
		})
	})
	if err != nil {
		return nil, err
	}

	// Walks 3-5 per binary: full + gated simulation and the method
	// statistics. Each binary owns its simulators and its Runs[bi] slot.
	var res *BenchmarkResult
	err = runStage(ctx, cfg, name, "evaluate", func(sctx context.Context) error {
		res = &BenchmarkResult{Name: name, Mapping: mapped, Primary: primary,
			Runs: make([]*BinaryRun, len(bins))}
		return cfg.workerPool.Run(len(bins), func(bi int) error {
			if err := faults.Hit(sctx, "evaluate.task"); err != nil {
				return err
			}
			run, err := evaluateBinary(sctx, cfg, bins, bi, profiles[bi], fliRes[bi], fliPicks[bi], vliRes, vliPick, mapped)
			if err != nil {
				return fmt.Errorf("%s: %w", bins[bi].Name, err)
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

// evaluateBinary performs walks 3-5 for one binary and assembles its
// BinaryRun.
func evaluateBinary(ctx context.Context, cfg Config, bins []*compiler.Binary, bi int,
	prof *profile.Profile, fli *profile.FLIResult, fliPick *simpoint.Result,
	vli *profile.VLIResult, vliPick *simpoint.Result, mapped *mapping.Result) (*BinaryRun, error) {

	o := obs.From(ctx)
	att := o.Attribution()
	bin := bins[bi]
	vliEnds, err := mapped.TranslateEnds(cfg.Primary, bi, vli.Ends)
	if err != nil {
		return nil, fmt.Errorf("translating VLI boundaries: %w", err)
	}
	// Redundancy keys: interval-content fingerprint + hierarchy digest.
	// Two point evaluations with equal keys simulate identical work — the
	// duplicate count is the direct measurement of what content-addressed
	// memoization would save. Built only when attribution is on; key
	// construction costs a hash per point, never per block.
	var fliKey, vliKey func(interval int) string
	if att.Enabled() {
		digest := "/" + cfg.Hierarchy.Digest()
		fliKey = func(iv int) string { return fli.Dataset.Fingerprint(iv) + digest }
		vliKey = func(iv int) string { return vli.Dataset.Fingerprint(iv) + digest }
	}
	// Memo keys: binary content digest × input × hierarchy digest ×
	// warming mode × boundary-set digest. Only built with functional
	// warming on — that is what makes the full walk's per-interval deltas
	// bit-identical to the gated walks' region measurements (memo.go).
	var fliMemoKey, vliMemoKey string
	if cfg.memo != nil && !cfg.DisableWarming {
		base := memoKeyBase(bin, &cfg)
		fliMemoKey = base + "/" + digestFLIEnds(fli.Ends)
		vliMemoKey = base + "/" + digestVLIEnds(vliEnds)
	}

	// Walk 3: full simulation with both interval attributions.
	o.Report(obs.Event{Benchmark: bin.Program.Name, Binary: bin.Name, Stage: "full simulation"})
	fctx, fspan := obs.StartSpan(ctx, "stage.full_sim")
	fspan.Annotate(bin.Name)
	defer fspan.End()
	fws := att.StartWalk(bin.Program.Name, bin.Name, "full")
	defer fws.Abort() // close the sample on every error path; Done wins
	fullSim, err := cmpsim.NewSimulatorPooled(bin, cfg.Hierarchy, cfg.simPool)
	if err != nil {
		return nil, err
	}
	defer fullSim.Release()
	fliSnap := newSnapshotter(fullSim, len(fli.Ends))
	vliSnap := newSnapshotter(fullSim, len(vliEnds))
	fliTr := profile.NewFLITracker(bin, fli.Ends, fliSnap)
	vliTr := profile.NewVLITracker(bin, vliEnds, vliSnap)
	if err := exec.RunCtx(fctx, bin, cfg.Input, exec.Multi{fullSim, fliTr, vliTr}); err != nil {
		return nil, err
	}
	fliSnap.close()
	vliSnap.close()
	fspan.End()
	trueStats := fullSim.Stats()
	fws.Done(trueStats.Instructions, trueStats.Cycles)
	if o != nil {
		// "sim" is the legacy walk-3 family; "sim.full" the per-walk one.
		fullSim.PublishMetrics(o.Metrics, "sim")
		fullSim.PublishMetrics(o.Metrics, "sim.full")
	}
	// Populate the memo with walk 3's per-interval deltas under both
	// boundary sets, then recycle the cache state — walks 4/5 below are
	// answered from the table and never build a simulator on a hit.
	if fliMemoKey != "" {
		events := captureEvents(fullSim.Hierarchy())
		cfg.memo.store(fliMemoKey, fliSnap.entry(events))
		cfg.memo.store(vliMemoKey, vliSnap.entry(events))
	}
	fullSim.Release()

	run := &BinaryRun{
		Binary:            bin,
		TotalInstructions: trueStats.Instructions,
		TrueCycles:        trueStats.Cycles,
		TrueCPI:           trueStats.CPI(),
	}
	if run.TotalInstructions != prof.TotalInstructions {
		return nil, fmt.Errorf("instruction count mismatch between walks: %d vs %d",
			run.TotalInstructions, prof.TotalInstructions)
	}

	// Walk 4: FLI region simulation (this binary's own points).
	o.Report(obs.Event{Benchmark: bin.Program.Name, Binary: bin.Name, Stage: "gated simulation"})
	fliPointCPI, fliPointIv, fliSimInstr, err := simulatePoints(ctx, cfg, bin, fliPick, "fli", fliKey, fliMemoKey,
		func(sink profile.IntervalSink) exec.Visitor {
			return profile.NewFLITracker(bin, fli.Ends, sink)
		})
	if err != nil {
		return nil, err
	}
	_, wspan := obs.StartSpan(ctx, "stage.weighting")
	wspan.Annotate(bin.Name)
	run.FLI, err = buildMethodStats(fliPick, fliSnap, fliPointCPI, fliPointIv,
		len(fli.Ends), run, nil, fliSimInstr)
	wspan.End()
	if err != nil {
		return nil, err
	}

	// Walk 5: VLI region simulation (the shared cross-binary points
	// located in this binary via translated boundaries).
	vliPointCPI, vliPointIv, vliSimInstr, err := simulatePoints(ctx, cfg, bin, vliPick, "vli", vliKey, vliMemoKey,
		func(sink profile.IntervalSink) exec.Visitor {
			return profile.NewVLITracker(bin, vliEnds, sink)
		})
	if err != nil {
		return nil, err
	}
	// VLI weights are recalculated from THIS binary's per-phase
	// instruction counts (§3.2.6).
	_, wspan = obs.StartSpan(ctx, "stage.weighting")
	wspan.Annotate(bin.Name)
	vliWeights, err := recalcWeights(vliPick, vliSnap, run.TotalInstructions)
	if err != nil {
		wspan.End()
		return nil, fmt.Errorf("%s VLI weights: %w", bin.Name, err)
	}
	run.VLI, err = buildMethodStats(vliPick, vliSnap, vliPointCPI, vliPointIv,
		len(vliEnds), run, vliWeights, vliSimInstr)
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

// instrumentPool attaches the worker pool's resource metrics — task
// counts, busy/peak occupancy, and per-task queue wait — to the
// observer's registry. A nil observer leaves the pool uninstrumented,
// preserving the observability-off zero-cost contract.
func instrumentPool(p *pool.Pool, o *obs.Observer) {
	if o == nil {
		return
	}
	p.Instrument(pool.Metrics{
		Tasks:     o.Counter("pool.tasks"),
		Busy:      o.Gauge("pool.busy_workers"),
		BusyPeak:  o.Gauge("pool.busy_peak"),
		QueueWait: o.Histogram("pool.queue_wait_us"),
	})
}

// simulatePoints measures one region-gated simulation walk and returns,
// per phase, the measured CPI of its simulation point and the
// representative interval index. walk names the walk for attribution and
// the per-walk metric family ("fli" or "vli"); evalKey, when non-nil,
// maps a chosen interval to its redundancy-analysis evaluation key.
//
// When memoKey is non-empty and walk 3 has already filed this
// (binary, input, config, warming, boundary-set) combination in the memo
// table, the walk is answered entirely from the table: no simulator is
// built, no execution happens, and the synthesized results — point CPIs,
// attribution, and the sim.gated / sim.<walk> metric families — are
// bit-identical to what the executed walk would have produced (see
// memo.go for the argument). Otherwise the walk simulates as before.
func simulatePoints(ctx context.Context, cfg Config, bin *compiler.Binary, pick *simpoint.Result,
	walk string, evalKey func(interval int) string, memoKey string,
	makeTracker func(profile.IntervalSink) exec.Visitor) (cpi []float64, intervals []int, simInstr uint64, err error) {

	gctx, gspan := obs.StartSpan(ctx, "stage.gated_sim")
	gspan.Annotate(bin.Name)
	defer gspan.End()

	o := obs.From(ctx)
	att := o.Attribution()
	ws := att.StartWalk(bin.Program.Name, bin.Name, walk)
	defer ws.Abort() // close the sample on every error path; Done wins
	if err := faults.Hit(gctx, "evaluate.walk"); err != nil {
		return nil, nil, 0, err
	}

	cpi = make([]float64, pick.K)
	intervals = make([]int, pick.K)
	for p := range cpi {
		cpi[p] = math.NaN()
		intervals[p] = -1
	}

	if entry := cfg.memo.lookup(memoKey); memoKey != "" && entry != nil && entry.covers(pick.Points) {
		var win intervalStats // the gated walk's Stats window, synthesized
		for _, p := range pick.Points {
			st := &entry.intervals[p.Interval]
			if st.instr == 0 {
				return nil, nil, 0, fmt.Errorf("simulation point interval %d executed nothing in %s",
					p.Interval, bin.Name)
			}
			win.add(st)
			cpi[p.Phase] = float64(st.cycles) / float64(st.instr)
			intervals[p.Phase] = p.Interval
			att.AddPoint(bin.Program.Name, bin.Name, walk, p.Interval, st.instr, st.cycles)
		}
		ws.Done(win.instr, win.cycles)
		if o != nil {
			publishMemoMetrics(o.Metrics, "sim.gated", &win, entry.events)
			publishMemoMetrics(o.Metrics, "sim."+walk, &win, entry.events)
		}
		o.Counter("pipeline.memo.hits").Add(uint64(len(pick.Points)))
		o.Counter("pipeline.memo.instructions_saved").Add(win.instr)
		o.Counter("pipeline.memo.bytes_saved").Add(cfg.Hierarchy.StateBytes())
		att.RecordMemo(uint64(len(pick.Points)), 0, win.instr)
		// win.instr is exactly the sum of the chosen intervals' detailed
		// instruction counts — the same total the executed walk reports.
		return cpi, intervals, win.instr, nil
	}
	if memoKey != "" {
		// Memo enabled but no usable entry (shouldn't happen with warming
		// on — walk 3 always populates first — but counted honestly).
		o.Counter("pipeline.memo.misses").Add(uint64(len(pick.Points)))
		att.RecordMemo(0, uint64(len(pick.Points)), 0)
	}

	sim, err := cmpsim.NewSimulatorPooled(bin, cfg.Hierarchy, cfg.simPool)
	if err != nil {
		return nil, nil, 0, err
	}
	defer sim.Release()
	sim.SetFunctionalWarming(!cfg.DisableWarming)
	chosen := make(map[int]bool, len(pick.Points))
	for _, p := range pick.Points {
		chosen[p.Interval] = true
	}
	gate := newGatedSnapshotter(sim, chosen)
	tracker := makeTracker(gate)
	if err := exec.RunCtx(gctx, bin, cfg.Input, exec.Multi{sim, tracker}); err != nil {
		return nil, nil, 0, err
	}
	gate.close()
	simStats := sim.Stats()
	ws.Done(simStats.Instructions, simStats.Cycles)
	if o != nil {
		// "sim.gated" is the legacy family covering walks 4 and 5 together;
		// "sim.fli"/"sim.vli" split it per walk.
		sim.PublishMetrics(o.Metrics, "sim.gated")
		sim.PublishMetrics(o.Metrics, "sim."+walk)
	}

	for _, p := range pick.Points {
		st := gate.regions[p.Interval]
		if st.instr == 0 {
			return nil, nil, 0, fmt.Errorf("simulation point interval %d executed nothing in %s",
				p.Interval, bin.Name)
		}
		simInstr += st.instr
		cpi[p.Phase] = float64(st.cycles) / float64(st.instr)
		intervals[p.Phase] = p.Interval
		att.AddPoint(bin.Program.Name, bin.Name, walk, p.Interval, st.instr, st.cycles)
		if att.Enabled() && evalKey != nil {
			att.RecordEval(evalKey(p.Interval), st.instr)
		}
	}
	return cpi, intervals, simInstr, nil
}

// recalcWeights computes per-phase weights from this binary's per-interval
// instruction counts under the shared VLI boundaries. A zero total would
// otherwise divide every weight into NaN and let the NaNs flow silently
// through buildMethodStats' weights[p] <= 0 filter into EstCPI, so it is
// rejected explicitly.
func recalcWeights(pick *simpoint.Result, snap *snapshotter, total uint64) ([]float64, error) {
	if total == 0 {
		return nil, fmt.Errorf("no usable simulation points: binary executed no instructions")
	}
	w := make([]float64, pick.K)
	for iv, phase := range pick.PhaseOf {
		if iv < len(snap.instr) {
			w[phase] += float64(snap.instr[iv])
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
func buildMethodStats(pick *simpoint.Result, snap *snapshotter,
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
		if iv < len(snap.instr) {
			phaseInstr[phase] += snap.instr[iv]
			phaseCycles[phase] += snap.cycles[iv]
		}
	}
	for p := range ms.PhaseTrueCPI {
		if phaseInstr[p] > 0 {
			ms.PhaseTrueCPI[p] = float64(phaseCycles[p]) / float64(phaseInstr[p])
		}
	}

	// Whole-program estimate: weighted average of point CPIs.
	var est, wsum float64
	for p := 0; p < pick.K; p++ {
		if math.IsNaN(pointCPI[p]) || weights[p] <= 0 {
			continue
		}
		est += weights[p] * pointCPI[p]
		wsum += weights[p]
	}
	if wsum <= 0 {
		return ms, fmt.Errorf("no usable simulation points")
	}
	ms.EstCPI = est / wsum
	ms.EstCycles = ms.EstCPI * float64(run.TotalInstructions)
	if run.TrueCPI > 0 {
		ms.CPIError = math.Abs(ms.EstCPI-run.TrueCPI) / run.TrueCPI
	}
	return ms, nil
}

// snapshotter attributes a simulator's cumulative statistics to
// intervals as an IntervalSink: on each transition the delta since the
// previous snapshot is charged to the interval just left. It captures
// the complete Stats delta — instructions, cycles, loads, stores, DRAM
// accesses, and per-level hits/misses — because the full walk's
// per-interval deltas are exactly what the memo table replays in place
// of the gated walks (see memo.go); the per-level arrays are flat
// ([interval*levels + level]) so the capture costs two allocations, not
// two per interval.
type snapshotter struct {
	sim            *cmpsim.Simulator
	cur            int
	nlev           int
	lastI          uint64
	lastC          uint64
	lastL          uint64
	lastS          uint64
	lastD          uint64
	lastLH, lastLM []uint64

	instr, cycles, loads, stores, dram []uint64
	levelHits, levelMisses             []uint64 // flat [interval*nlev + level]
}

func newSnapshotter(sim *cmpsim.Simulator, numIntervals int) *snapshotter {
	nlev := len(sim.Stats().LevelHits)
	return &snapshotter{
		sim:         sim,
		nlev:        nlev,
		lastLH:      make([]uint64, nlev),
		lastLM:      make([]uint64, nlev),
		instr:       make([]uint64, numIntervals),
		cycles:      make([]uint64, numIntervals),
		loads:       make([]uint64, numIntervals),
		stores:      make([]uint64, numIntervals),
		dram:        make([]uint64, numIntervals),
		levelHits:   make([]uint64, numIntervals*nlev),
		levelMisses: make([]uint64, numIntervals*nlev),
	}
}

// Transition implements profile.IntervalSink.
func (s *snapshotter) Transition(i int) {
	if i == s.cur {
		return
	}
	s.flush()
	s.cur = i
}

func (s *snapshotter) flush() {
	st := s.sim.Stats()
	if s.cur < len(s.instr) {
		s.instr[s.cur] += st.Instructions - s.lastI
		s.cycles[s.cur] += st.Cycles - s.lastC
		s.loads[s.cur] += st.Loads - s.lastL
		s.stores[s.cur] += st.Stores - s.lastS
		s.dram[s.cur] += st.MemoryAccesses - s.lastD
		base := s.cur * s.nlev
		for li := 0; li < s.nlev; li++ {
			s.levelHits[base+li] += st.LevelHits[li] - s.lastLH[li]
			s.levelMisses[base+li] += st.LevelMisses[li] - s.lastLM[li]
		}
	}
	s.lastI, s.lastC = st.Instructions, st.Cycles
	s.lastL, s.lastS, s.lastD = st.Loads, st.Stores, st.MemoryAccesses
	copy(s.lastLH, st.LevelHits)
	copy(s.lastLM, st.LevelMisses)
}

// close flushes the final interval; call after the run.
func (s *snapshotter) close() { s.flush() }

// entry packages the captured per-interval deltas as a memo entry;
// events carries the walk's full-stream cache event counters (see
// captureEvents). The level slices are three-index subslices of the flat
// backings, so the entry shares the snapshotter's storage without
// copying.
func (s *snapshotter) entry(events []levelEvents) *memoEntry {
	e := &memoEntry{intervals: make([]intervalStats, len(s.instr)), events: events}
	for i := range e.intervals {
		base := i * s.nlev
		e.intervals[i] = intervalStats{
			instr:       s.instr[i],
			cycles:      s.cycles[i],
			loads:       s.loads[i],
			stores:      s.stores[i],
			dram:        s.dram[i],
			levelHits:   s.levelHits[base : base+s.nlev : base+s.nlev],
			levelMisses: s.levelMisses[base : base+s.nlev : base+s.nlev],
		}
	}
	return e
}

// regionStat is one simulated region's accumulation.
type regionStat struct {
	instr, cycles uint64
}

// gatedSnapshotter gates a simulator to a chosen set of intervals and
// accumulates per-chosen-interval statistics.
type gatedSnapshotter struct {
	sim     *cmpsim.Simulator
	chosen  map[int]bool
	cur     int
	lastI   uint64
	lastC   uint64
	regions map[int]regionStat
}

func newGatedSnapshotter(sim *cmpsim.Simulator, chosen map[int]bool) *gatedSnapshotter {
	sim.SetEnabled(chosen[0])
	return &gatedSnapshotter{
		sim:     sim,
		chosen:  chosen,
		regions: map[int]regionStat{},
	}
}

// Transition implements profile.IntervalSink.
func (g *gatedSnapshotter) Transition(i int) {
	if i == g.cur {
		return
	}
	g.flush()
	g.cur = i
	g.sim.SetEnabled(g.chosen[i])
}

func (g *gatedSnapshotter) flush() {
	st := g.sim.Stats()
	if g.chosen[g.cur] {
		r := g.regions[g.cur]
		r.instr += st.Instructions - g.lastI
		r.cycles += st.Cycles - g.lastC
		g.regions[g.cur] = r
	}
	g.lastI, g.lastC = st.Instructions, st.Cycles
}

func (g *gatedSnapshotter) close() { g.flush() }

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

// Run evaluates every configured benchmark, in parallel up to
// Config.Parallelism.
func Run(cfg Config) (*Suite, error) {
	return RunCtx(context.Background(), cfg)
}

// RunCtx is Run with observability: benchmark completion progress is
// reported through the context's observer, and every per-benchmark stage
// is traced (see RunBenchmarkCtx). Concurrent benchmarks land in separate
// trace lanes keyed by their root spans. All benchmarks share one
// intra-benchmark worker pool, so the whole suite never runs more than
// Parallelism benchmark goroutines plus Workers-1 pool helpers.
//
// The suite degrades gracefully: a benchmark that fails (after
// exhausting its retries) is recorded in Suite.Failures and the rest of
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
	cfg, err := cfg.withDefaults()
	if err != nil {
		return nil, err
	}
	items := make([]suiteItem, len(cfg.Benchmarks))
	for i, name := range cfg.Benchmarks {
		name := name
		items[i] = suiteItem{name: name, run: func(ctx context.Context, cfg Config) (*BenchmarkResult, error) {
			return RunBenchmarkCtx(ctx, name, cfg)
		}}
	}
	return runSuite(ctx, cfg, items)
}

// RunSpecs evaluates a suite of synthesized program specs — the same
// work RunSpec does one at a time, with RunCtx's suite machinery.
func RunSpecs(specs []program.Spec, cfg Config) (*Suite, error) {
	return RunSpecsCtx(context.Background(), specs, cfg)
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
		items[i] = suiteItem{name: spec.Name(), run: func(ctx context.Context, cfg Config) (*BenchmarkResult, error) {
			return RunSpecCtx(ctx, spec, cfg)
		}}
	}
	cfg.Benchmarks = names
	return runSuite(ctx, cfg, items)
}

// suiteItem is one unit of suite work: a stable name (a benchmark name
// or a spec's content-derived name — used for checkpoints, progress,
// and failure reporting) plus the pipeline invocation that computes it.
type suiteItem struct {
	name string
	run  func(ctx context.Context, cfg Config) (*BenchmarkResult, error)
}

// runSuite is the suite body shared by RunCtx and RunSpecsCtx. cfg must
// already have defaults applied.
func runSuite(ctx context.Context, cfg Config, items []suiteItem) (*Suite, error) {
	o := obs.From(ctx)
	if cfg.SharedPool != nil {
		// An injected pool is owned (and instrumented) by its installer.
		cfg.workerPool = cfg.SharedPool
	} else {
		cfg.workerPool = pool.New(cfg.Workers)
		instrumentPool(cfg.workerPool, o)
	}
	// One memo table and one simulator state pool serve the whole suite,
	// so identical evaluation work recurring across benchmarks (duplicate
	// program specs, repeated configs) is reused and cache-hierarchy
	// state is recycled across all benchmarks' walks.
	if !cfg.DisableMemo {
		cfg.memo = newEvalMemo()
	}
	cfg.simPool = cmpsim.NewStatePool()
	cfgFP := cfg.fingerprint()
	results := make([]*BenchmarkResult, len(items))
	errs := make([]error, len(items))
	sem := make(chan struct{}, cfg.Parallelism)
	var wg sync.WaitGroup
	var done atomic.Int64
	for i, it := range items {
		wg.Add(1)
		go func(i int, it suiteItem) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			name := it.name
			if cfg.CheckpointDir != "" {
				r, err := loadCheckpoint(cfg.CheckpointDir, name, cfgFP)
				switch {
				case err == nil:
					results[i] = r
					o.Counter("pipeline.checkpoints_loaded").Inc()
					o.Emit(obs.PipelineEvent{Kind: "checkpoint", Benchmark: name, Detail: "loaded"})
					o.Report(obs.Event{Benchmark: name, Stage: "resumed from checkpoint",
						Done: int(done.Add(1)), Total: len(items)})
					return
				case !errors.Is(err, errNoCheckpoint):
					// Corrupt or stale checkpoint: recompute from scratch.
					o.Counter("pipeline.checkpoints_invalid").Inc()
					o.Emit(obs.PipelineEvent{Kind: "checkpoint", Benchmark: name, Detail: "invalid: " + err.Error()})
					o.Report(obs.Event{Benchmark: name, Stage: "checkpoint invalid, recomputing"})
				}
			}
			r, err := it.run(ctx, cfg)
			if err != nil {
				errs[i] = fmt.Errorf("%s: %w", name, err)
				o.Counter("pipeline.benchmarks_failed").Inc()
				o.Report(obs.Event{Benchmark: name, Stage: "failed",
					Done: int(done.Add(1)), Total: len(items)})
				return
			}
			results[i] = r
			if cfg.CheckpointDir != "" {
				if err := saveCheckpoint(cfg.CheckpointDir, r, cfgFP); err != nil {
					// A checkpoint write failure costs resumability, not
					// correctness: report it and keep the result.
					o.Emit(obs.PipelineEvent{Kind: "checkpoint", Benchmark: name, Detail: "write failed: " + err.Error()})
					o.Report(obs.Event{Benchmark: name, Stage: "checkpoint write failed: " + err.Error()})
				} else {
					o.Emit(obs.PipelineEvent{Kind: "checkpoint", Benchmark: name, Detail: "saved"})
				}
			}
			o.Report(obs.Event{Benchmark: name, Stage: "done",
				Done: int(done.Add(1)), Total: len(items)})
		}(i, it)
	}
	wg.Wait()
	suite := &Suite{Config: cfg}
	for _, r := range results {
		if r != nil {
			suite.Results = append(suite.Results, r)
		}
	}
	for i, e := range errs {
		if e != nil {
			suite.Failures = append(suite.Failures, BenchmarkFailure{
				Name: items[i].name, Err: e.Error()})
		}
	}
	// Join every failure (in benchmark order) instead of surfacing only
	// the first: a multi-failure run stays debuggable in one pass. The
	// partial suite is returned alongside the error so completed work
	// survives.
	return suite, errors.Join(errs...)
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
