package main

import (
	"context"
	"fmt"
	"time"

	"xbsim/internal/bbv"
	"xbsim/internal/cmpsim"
	"xbsim/internal/compiler"
	"xbsim/internal/exec"
	"xbsim/internal/experiment"
	"xbsim/internal/mapping"
	"xbsim/internal/obs"
	"xbsim/internal/profile"
	"xbsim/internal/program"
	"xbsim/internal/sampler"
	"xbsim/internal/simpoint"
)

// replayItem is one program of the traced pass: how to generate it for
// the replay, and how to run it through the pipeline directly.
type replayItem struct {
	name   string
	gen    func() (*program.Program, error)
	direct func(ctx context.Context) (*experiment.Suite, error)
}

// pipelineSpans are the replay spans that stand for work the pipeline
// itself does; their sum over the direct runs' wall time is the trace
// coverage. The bare exec walks are a reference the pipeline never
// runs, so they are left out.
var pipelineSpans = []string{
	"program.generate", "compiler.compile", "profile.fli", "mapping.find",
	"profile.vli", "sampler.pick", "cmpsim.full_walk",
}

// layerTotals accumulates one round's cost per layer call and the
// counts the per-unit metrics divide by.
type layerTotals struct {
	calls map[string]measured
	// direct is the wall time of the round's direct runs.
	direct time.Duration
	// bare is the bare exec walk time, in total and over the primary
	// binaries only (the VLI walk runs on the primary alone).
	bare, barePrimary time.Duration
	instructions      uint64
	intervals         int // FLI plus VLI intervals collected
	pickedIntervals   int // intervals the sampler picked from
	points            int
	markers           int
	accesses, dram    uint64
}

func (t *layerTotals) add(name string, m measured) {
	c := t.calls[name]
	c.Dur += m.Dur
	c.Alloc += m.Alloc
	t.calls[name] = c
}

// layerPass is the traced pass over items, all serial, in rounds. In
// each round every item runs through the pipeline directly and through
// the replay, which cross-checks each layer's output against the direct
// result; the two alternate which goes first, so the host's slow drifts
// in speed fall on both alike. The first round also runs each item
// under a metrics registry for the pipeline's own stage timings; that
// run is kept apart because the registry makes every exec walk count
// instructions and markers, which the direct run and the replay do not
// pay. Rounds repeat while another one fits in d. layerPass publishes
// each per-layer metric as the median over rounds, the stage timings,
// and the trace coverage, and returns the first round's direct results
// as one suite, or nil if an item failed.
func layerPass(ctx context.Context, cfg experiment.Config, items []replayItem, d time.Duration,
	spans *spanLog, r *result) *experiment.Suite {

	o := &obs.Observer{Metrics: obs.NewRegistry()}
	suite := &experiment.Suite{Config: cfg}
	var rounds []*layerTotals
	spans.name(0, "direct runs")
	start := time.Now()
	for round := 0; ; round++ {
		roundStart := time.Now()
		t := &layerTotals{calls: map[string]measured{}}
		failed := false
		for i, it := range items {
			res, err := passItem(ctx, cfg, i, it, (i+round)%2 == 1, round == 0, o, t, spans)
			r.Attempted++
			if err != nil {
				r.failOp("%s: %v", it.name, err)
				failed = true
				continue
			}
			if round == 0 {
				suite.Results = append(suite.Results, res)
			}
		}
		if failed {
			return nil
		}
		rounds = append(rounds, t)
		if ctx.Err() != nil || time.Since(start)+time.Since(roundStart) > d {
			break
		}
	}

	per := func(unit string, f func(t *layerTotals) float64) metric {
		xs := make([]float64, len(rounds))
		for i, t := range rounds {
			xs[i] = f(t)
		}
		return sampled(unit, xs)
	}
	callMS := func(name string) func(t *layerTotals) float64 {
		return func(t *layerTotals) float64 { return ms(t.calls[name].Dur) }
	}
	r.set("program.generate_ms", per("ms", callMS("program.generate")))
	r.set("compiler.compile_ms", per("ms", callMS("compiler.compile")))
	r.set("exec.walk_ms", per("ms", func(t *layerTotals) float64 { return ms(t.bare) }))
	r.set("exec.ns_per_instr", per("ns", func(t *layerTotals) float64 {
		return float64(t.bare.Nanoseconds()) / float64(t.instructions)
	}))
	r.set("profile.fli_self_ms", per("ms", func(t *layerTotals) float64 { return ms(t.calls["profile.fli"].Dur - t.bare) }))
	r.set("profile.vli_self_ms", per("ms", func(t *layerTotals) float64 { return ms(t.calls["profile.vli"].Dur - t.barePrimary) }))
	r.set("profile.intervals", per("count", func(t *layerTotals) float64 { return float64(t.intervals) }))
	r.set("mapping.find_ms", per("ms", callMS("mapping.find")))
	r.set("mapping.mappable_markers", per("count", func(t *layerTotals) float64 { return float64(t.markers) }))
	r.set("sampler.pick_ms", per("ms", callMS("sampler.pick")))
	r.set("sampler.pick_alloc_mb", per("MB", func(t *layerTotals) float64 { return mb(t.calls["sampler.pick"].Alloc) }))
	r.set("sampler.us_per_interval", per("us", func(t *layerTotals) float64 {
		return float64(t.calls["sampler.pick"].Dur.Nanoseconds()) / 1e3 / float64(t.pickedIntervals)
	}))
	r.set("sampler.points", per("count", func(t *layerTotals) float64 { return float64(t.points) }))
	self := func(t *layerTotals) time.Duration { return t.calls["cmpsim.full_walk"].Dur - t.bare }
	r.set("cmpsim.full_walk_ms", per("ms", callMS("cmpsim.full_walk")))
	r.set("cmpsim.self_ms", per("ms", func(t *layerTotals) float64 { return ms(self(t)) }))
	r.set("cmpsim.ns_per_access", per("ns", func(t *layerTotals) float64 {
		return float64(self(t).Nanoseconds()) / float64(t.accesses)
	}))
	r.set("cmpsim.accesses", per("count", func(t *layerTotals) float64 { return float64(t.accesses) }))
	r.set("cmpsim.dram_frac", per("fraction", func(t *layerTotals) float64 { return float64(t.dram) / float64(t.accesses) }))
	r.set("cmpsim.alloc_mb", per("MB", func(t *layerTotals) float64 { return mb(t.calls["cmpsim.full_walk"].Alloc) }))
	r.set("experiment.serial_wall_ms", per("ms", func(t *layerTotals) float64 { return ms(t.direct) }))

	snap := o.Metrics.Snapshot()
	for _, st := range []string{"compile", "profile", "mapping", "vli", "clustering", "evaluate"} {
		r.set("experiment."+st+"_ms", single("ms", float64(snap.Histograms["stage."+st+".duration_us"].Sum)/1e3))
	}
	for _, st := range []string{"clustering", "evaluate"} {
		r.set("experiment."+st+"_alloc_mb", single("MB", mb(snap.Counters["stage."+st+".alloc_bytes"])))
	}
	hits, misses := snap.Counters["pipeline.memo.hits"], snap.Counters["pipeline.memo.misses"]
	if hits+misses > 0 {
		r.set("experiment.memo_hit_frac", single("fraction", float64(hits)/float64(hits+misses)))
	}

	coverageOf := func(t *layerTotals) float64 {
		var covered time.Duration
		for _, name := range pipelineSpans {
			covered += t.calls[name].Dur
		}
		return 100 * covered.Seconds() / t.direct.Seconds()
	}
	r.set("trace.coverage_pct", per("%", coverageOf))
	// What the replay's own bookkeeping (a span and two allocation
	// reads per call) adds or the direct run's extras take away.
	r.set("trace.overhead_pct", per("%", func(t *layerTotals) float64 { return coverageOf(t) - 100 }))
	return suite
}

// passItem runs one item of a round: the direct run and the replay in
// the given order, then, when observe is set, the run under the metrics
// registry. It returns the direct result once the replay and the
// observed run agree with it.
func passItem(ctx context.Context, cfg experiment.Config, i int, it replayItem, replayFirst, observe bool,
	o *obs.Observer, t *layerTotals, spans *spanLog) (*experiment.BenchmarkResult, error) {

	run := func(ctx context.Context, name string) (*experiment.BenchmarkResult, time.Duration, error) {
		_, end := spans.open(0, 0, name)
		defer end()
		start := time.Now()
		s, err := it.direct(ctx)
		d := time.Since(start)
		switch {
		case err != nil:
			return nil, d, err
		case len(s.Results) != 1:
			return nil, d, fmt.Errorf("direct run returned %d results", len(s.Results))
		}
		return s.Results[0], d, nil
	}
	var res *experiment.BenchmarkResult
	var facts *replayed
	direct := func() error {
		var d time.Duration
		var err error
		res, d, err = run(ctx, it.name)
		t.direct += d
		return err
	}
	replay := func() (err error) {
		facts, err = replayOne(ctx, cfg, i+1, it, t, spans)
		return err
	}
	steps := []func() error{direct, replay}
	if replayFirst {
		steps = []func() error{replay, direct}
	}
	for _, step := range steps {
		if err := step(); err != nil {
			return nil, err
		}
	}
	if err := facts.check(res); err != nil {
		return nil, err
	}
	if observe {
		obsRes, _, err := run(obs.With(ctx, o), it.name+" (metrics)")
		if err != nil {
			return nil, err
		}
		if obsRes.Fingerprint() != res.Fingerprint() {
			return nil, fmt.Errorf("the run under a metrics registry produced a different result")
		}
	}
	return res, nil
}

// replayed is what a replay saw of each binary, for checking against
// the direct run's result.
type replayed struct {
	names                []string
	instructions, cycles []uint64
	fliK, fliIntervals   []int
	vliK                 int
}

// check compares the replay with the direct run of the same program.
func (f *replayed) check(res *experiment.BenchmarkResult) error {
	if len(res.Runs) != len(f.names) {
		return fmt.Errorf("replay compiled %d binaries, the direct run %d", len(f.names), len(res.Runs))
	}
	for bi, run := range res.Runs {
		name := f.names[bi]
		switch {
		case f.instructions[bi] != run.TotalInstructions:
			return fmt.Errorf("%s: replay executed %d instructions, the direct run %d", name, f.instructions[bi], run.TotalInstructions)
		case f.cycles[bi] != run.TrueCycles:
			return fmt.Errorf("%s: replay simulated %d cycles, the direct run %d", name, f.cycles[bi], run.TrueCycles)
		case f.fliK[bi] != run.FLI.K || f.fliIntervals[bi] != run.FLI.NumIntervals:
			return fmt.Errorf("%s: replay's FLI k=%d over %d intervals, the direct run's k=%d over %d",
				name, f.fliK[bi], f.fliIntervals[bi], run.FLI.K, run.FLI.NumIntervals)
		case f.vliK != run.VLI.K:
			return fmt.Errorf("%s: replay's VLI k=%d, the direct run's k=%d", name, f.vliK, run.VLI.K)
		}
	}
	return nil
}

// replayOne mirrors the pipeline's per-benchmark body for one program:
// compile, profile walk, mapping, VLI walk, sampling, full simulation
// walk. The gated walks are left out because the pipeline answers them
// from its evaluation memo without executing. Then it times a bare walk
// of each binary, the reference the self times subtract.
func replayOne(ctx context.Context, cfg experiment.Config, group int, it replayItem,
	t *layerTotals, spans *spanLog) (*replayed, error) {

	spans.name(group, it.name)
	root, end := spans.open(group, 0, it.name)
	defer end()
	call := func(name string, fn func() error) (time.Duration, error) {
		m, err := spans.call(group, root, name, fn)
		t.add(name, m)
		return m.Dur, err
	}

	var prog *program.Program
	if _, err := call("program.generate", func() (err error) {
		prog, err = it.gen()
		return err
	}); err != nil {
		return nil, err
	}
	var bins []*compiler.Binary
	if _, err := call("compiler.compile", func() (err error) {
		bins, err = compiler.CompileAll(prog)
		return err
	}); err != nil {
		return nil, err
	}
	primary := cfg.Primary
	f := &replayed{
		names:        make([]string, len(bins)),
		instructions: make([]uint64, len(bins)),
		cycles:       make([]uint64, len(bins)),
		fliK:         make([]int, len(bins)),
		fliIntervals: make([]int, len(bins)),
	}

	profiles := make([]*profile.Profile, len(bins))
	fli := make([]*profile.FLIResult, len(bins))
	for bi, bin := range bins {
		f.names[bi] = bin.Name
		if _, err := call("profile.fli", func() error {
			ic := exec.NewInstructionCounter(bin)
			mc := exec.NewMarkerCounter(bin)
			fc, err := profile.NewFLICollector(bin, cfg.IntervalSize)
			if err != nil {
				return err
			}
			if err := exec.RunCtx(ctx, bin, cfg.Input, exec.Multi{ic, mc, fc}); err != nil {
				return err
			}
			fli[bi] = fc.Finish()
			profiles[bi], err = profile.BuildProfile(bin, cfg.Input, ic.Instructions, mc.Counts)
			return err
		}); err != nil {
			return nil, err
		}
		t.intervals += len(fli[bi].Ends)
		f.fliIntervals[bi] = len(fli[bi].Ends)
	}

	var mapped *mapping.Result
	if _, err := call("mapping.find", func() (err error) {
		mapped, err = mapping.FindCtx(ctx, profiles, cfg.Mapping)
		return err
	}); err != nil {
		return nil, err
	}
	t.markers += len(mapped.Points)

	var vli *profile.VLIResult
	if _, err := call("profile.vli", func() error {
		vc, err := profile.NewVLICollector(bins[primary], cfg.IntervalSize, mapped.MarkersFor(primary))
		if err != nil {
			return err
		}
		if err := exec.RunCtx(ctx, bins[primary], cfg.Input, vc); err != nil {
			return err
		}
		vli = vc.Finish()
		return nil
	}); err != nil {
		return nil, err
	}
	t.intervals += len(vli.Ends)

	smp, err := sampler.New(cfg.Sampler)
	if err != nil {
		return nil, err
	}
	scfg := sampler.Config{
		MaxK: cfg.MaxK, Dim: cfg.Dim, BICThreshold: cfg.BICThreshold,
		Restarts: cfg.Restarts, EarlyTolerance: cfg.EarlyTolerance,
		Budget: cfg.SamplerBudget, Strata: cfg.SamplerStrata,
	}
	// The seeds are the pipeline's own stream names, so the replay picks
	// exactly the points the direct run did.
	pick := func(seed string, ds *bbv.Dataset) (*simpoint.Result, error) {
		scfg.Seed = seed
		var res *simpoint.Result
		_, err := call("sampler.pick", func() (err error) {
			res, err = smp.Pick(ctx, ds, scfg)
			return err
		})
		if err != nil {
			return nil, err
		}
		t.points += len(res.Points)
		t.pickedIntervals += ds.Len()
		return res, nil
	}
	for bi, bin := range bins {
		res, err := pick(fmt.Sprintf("%s/fli/%s", cfg.Seed, bin.Name), fli[bi].Dataset)
		if err != nil {
			return nil, err
		}
		f.fliK[bi] = res.K
	}
	vliPick, err := pick(fmt.Sprintf("%s/vli/%s", cfg.Seed, prog.Name), vli.Dataset)
	if err != nil {
		return nil, err
	}
	f.vliK = vliPick.K

	// Walk 3: the full simulation with both interval trackers attached,
	// their transitions discarded.
	discard := profile.SinkFunc(func(int) {})
	for bi, bin := range bins {
		ends, err := mapped.TranslateEnds(primary, bi, vli.Ends)
		if err != nil {
			return nil, err
		}
		var st cmpsim.Stats
		if _, err := call("cmpsim.full_walk", func() error {
			sim, err := cmpsim.NewSimulator(bin, cfg.Hierarchy)
			if err != nil {
				return err
			}
			v := exec.Multi{sim, profile.NewFLITracker(bin, fli[bi].Ends, discard), profile.NewVLITracker(bin, ends, discard)}
			if err := exec.RunCtx(ctx, bin, cfg.Input, v); err != nil {
				return err
			}
			st = *sim.Stats()
			return nil
		}); err != nil {
			return nil, err
		}
		t.accesses += st.Loads + st.Stores
		t.dram += st.MemoryAccesses
		f.cycles[bi] = st.Cycles
	}

	// The bare walks come last, so they warm nothing the pipeline's own
	// sequence of calls would find cold.
	for bi, bin := range bins {
		ic := exec.NewInstructionCounter(bin)
		m, err := spans.call(group, root, "exec.walk", func() error {
			return exec.RunCtx(ctx, bin, cfg.Input, ic)
		})
		if err != nil {
			return nil, err
		}
		t.bare += m.Dur
		if bi == primary {
			t.barePrimary += m.Dur
		}
		t.instructions += ic.Instructions
		f.instructions[bi] = ic.Instructions
	}
	return f, nil
}
