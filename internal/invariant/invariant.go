// Package invariant checks the cross-binary invariants the method rests
// on. It checks one named benchmark (CheckBenchmark, behind `xbsim
// verify`), or an open-ended population of synthesized programs: Run
// samples randomized generator configurations (program.RandomSpec) from
// a seeded deterministic distribution and checks every one
// (CheckProgram, behind `xbsim selfcheck`). The invariants are:
//
//   - marker-counts: every mappable point's recorded count equals the
//     count walk 1 profiled for its marker in every compiled target;
//   - symbol-counts: every symbol the primary binary shares with another
//     binary is called equally often in both;
//   - boundary-translate: every variable-length-interval boundary
//     resolves to the same (mappable point, execution count) in every
//     binary, and translation round-trips exactly;
//   - interval-coverage: the primary binary's variable length intervals
//     are at least the target size (all but the last), and in every
//     binary the mapped intervals, as its weight walk counted them, cover
//     the whole run with none empty;
//   - weight-sum: recalculated per-binary phase weights form a
//     probability distribution;
//   - order-invariance: permuting the non-primary binaries leaves every
//     binary's simulation points bit-identical (compared by
//     fingerprint);
//   - worker-invariance: two full analyses, serial and with a worker
//     pool, have bit-identical fingerprints (this also covers
//     run-to-run determinism);
//   - cpi-sanity: sampled CPI estimates are finite, positive, and within
//     a configured relative bound of the whole run the estimate's own
//     walk simulated;
//   - budget-monotonicity: for budgeted sampler backends (stratified),
//     doubling the point budget never makes the mean CPI error
//     substantially worse (trivially satisfied by simpoint, which has no
//     budget knob).
//
// Each checked program costs one analysis, one cross-binary pick, one
// weight walk and one estimate walk per binary; the checks read those
// products, and only order-, worker- and budget-invariance walk again.
// Every invariant is checked under whichever sampler backend
// Config.Sampler selects, so the same metamorphic relations gate both
// the simpoint and the stratified point-selection paths. The test
// oracle is the set of relations, not golden outputs, and the same spec
// encoding drives the native fuzz targets (FuzzMapping,
// FuzzCrossBinaryPoints, FuzzStratifiedSampler) in this package's tests.
package invariant

import (
	"context"
	"fmt"
	"math"
	"sync/atomic"

	"xbsim"
	"xbsim/internal/obs"
	"xbsim/internal/pool"
	"xbsim/internal/program"
	"xbsim/internal/sampler"
)

// Invariants lists every checked invariant in report order.
var Invariants = []string{
	"marker-counts",
	"symbol-counts",
	"boundary-translate",
	"interval-coverage",
	"weight-sum",
	"order-invariance",
	"worker-invariance",
	"cpi-sanity",
	"budget-monotonicity",
}

// Config parameterizes a self-check run. The zero value is usable.
type Config struct {
	// Programs is the number of randomized programs to check (0 = 10).
	Programs int
	// Seed seeds the spec distribution (0 = 1); the same seed always
	// checks the same programs.
	Seed uint64
	// Workers bounds harness-level parallelism across programs; the
	// report is bit-identical for every value. 0 = GOMAXPROCS.
	Workers int
	// TargetOps, when nonzero, overrides every spec's operation count —
	// the knob for trading coverage depth against wall clock.
	TargetOps uint64
	// IntervalSize is the VLI minimum size in instructions (0 = 8000;
	// small, because the generated programs are small).
	IntervalSize uint64
	// MaxK caps the number of phases (0 = 6).
	MaxK int
	// CPIBound is the cpi-sanity relative error bound (0 = 2.0). The
	// default is deliberately loose: cpi-sanity is a net for NaNs and
	// order-of-magnitude breakage, not an accuracy claim. The generated
	// programs are tiny (8000-instruction intervals, k <= MaxK), so an
	// unlucky clustering — e.g. heavy pointer-chasing the BBVs cannot
	// see — can legitimately miss by ~1.4x on every binary at once,
	// because all binaries share the same simulation points. Accuracy
	// on paper-scale workloads is the experiment harness's job.
	CPIBound float64
	// Sampler selects the point-selection backend every invariant is
	// checked under ("" = simpoint). With "stratified" the
	// budget-monotonicity invariant becomes non-trivial.
	Sampler string
	// SamplerBudget is the stratified point budget (0 = backend
	// default); budget-monotonicity compares it against twice itself, or
	// the default against half of it.
	SamplerBudget int
}

func (c Config) withDefaults() Config {
	if c.Programs == 0 {
		c.Programs = 10
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.IntervalSize == 0 {
		c.IntervalSize = 8000
	}
	if c.MaxK == 0 {
		c.MaxK = 6
	}
	if c.CPIBound == 0 {
		c.CPIBound = 2.0
	}
	return c
}

// Check is one invariant's outcome for one program.
type Check struct {
	// Name is the invariant (one of Invariants).
	Name string
	// OK reports whether it held.
	OK bool
	// Detail explains the outcome (what was compared, first violation).
	Detail string
}

// ProgramResult is the outcome for one synthesized program.
type ProgramResult struct {
	// Index is the program's index in the spec distribution.
	Index int
	// Name is the generated program's deterministic name.
	Name string
	// Spec is the generator configuration that was checked.
	Spec program.Spec
	// Err is a pipeline failure that prevented checking ("" when the
	// pipeline ran; a non-empty Err fails the program).
	Err string
	// Checks holds one entry per invariant, in Invariants order.
	Checks []Check
}

// OK reports whether the pipeline ran and every invariant held.
func (pr *ProgramResult) OK() bool {
	if pr.Err != "" {
		return false
	}
	for _, c := range pr.Checks {
		if !c.OK {
			return false
		}
	}
	return true
}

// Tally is one invariant's pass/fail count across the population.
type Tally struct {
	// Name is the invariant.
	Name string
	// Pass and Fail count programs.
	Pass, Fail int
	// FirstFailure is the first failing program's detail ("" when none).
	FirstFailure string
}

// Report is a completed self-check run.
type Report struct {
	// Config is the effective (defaulted) configuration.
	Config Config
	// Programs holds one result per checked program, in index order.
	Programs []ProgramResult
}

// OK reports whether every program passed every invariant.
func (r *Report) OK() bool {
	for i := range r.Programs {
		if !r.Programs[i].OK() {
			return false
		}
	}
	return true
}

// Tallies aggregates per-invariant pass/fail counts in Invariants
// order. Programs whose pipeline failed outright are tallied under a
// trailing synthetic "pipeline" entry.
func (r *Report) Tallies() []Tally {
	byName := map[string]*Tally{}
	order := append([]string(nil), Invariants...)
	order = append(order, "pipeline")
	for _, name := range order {
		byName[name] = &Tally{Name: name}
	}
	for i := range r.Programs {
		pr := &r.Programs[i]
		if pr.Err != "" {
			t := byName["pipeline"]
			t.Fail++
			if t.FirstFailure == "" {
				t.FirstFailure = fmt.Sprintf("%s: %s", pr.Name, pr.Err)
			}
			continue
		}
		byName["pipeline"].Pass++
		for _, c := range pr.Checks {
			t, ok := byName[c.Name]
			if !ok {
				t = &Tally{Name: c.Name}
				byName[c.Name] = t
				order = append(order, c.Name)
			}
			if c.OK {
				t.Pass++
			} else {
				t.Fail++
				if t.FirstFailure == "" {
					t.FirstFailure = fmt.Sprintf("%s: %s", pr.Name, c.Detail)
				}
			}
		}
	}
	out := make([]Tally, 0, len(order))
	for _, name := range order {
		out = append(out, *byName[name])
	}
	return out
}

// Run samples cfg.Programs specs from the seeded distribution and
// checks every invariant on each. Programs are checked in parallel
// (cfg.Workers) with index-addressed results, so the report is
// bit-identical for every worker count. With an observer on the
// context, the run records a "stage.selfcheck" span, per-invariant
// "selfcheck.<invariant>.pass|fail" counters, and per-program progress
// events.
func Run(ctx context.Context, cfg Config) (*Report, error) {
	cfg = cfg.withDefaults()
	ctx, span := obs.StartSpan(ctx, "stage.selfcheck", fmt.Sprintf("%d programs, seed %d", cfg.Programs, cfg.Seed))
	defer span.End()

	o := obs.From(ctx)
	var done atomic.Int64
	results, err := pool.Map(pool.New(cfg.Workers), cfg.Programs, func(i int) (ProgramResult, error) {
		pr := CheckProgram(ctx, program.RandomSpec(cfg.Seed, i), cfg)
		pr.Index = i
		o.Emit(obs.PipelineEvent{
			Kind: "progress", Benchmark: pr.Name, Stage: "self-check",
			Done: int(done.Add(1)), Total: cfg.Programs,
		})
		return pr, nil
	})
	if err != nil {
		return nil, err
	}
	if o != nil {
		for _, r := range results {
			if r.Err != "" {
				o.Counter("selfcheck.pipeline.fail").Inc()
				continue
			}
			o.Counter("selfcheck.pipeline.pass").Inc()
			for _, c := range r.Checks {
				if c.OK {
					o.Counter("selfcheck." + c.Name + ".pass").Inc()
				} else {
					o.Counter("selfcheck." + c.Name + ".fail").Inc()
				}
			}
		}
	}
	return &Report{Config: cfg, Programs: results}, nil
}

// CheckProgram synthesizes the spec's program, compiles all targets and
// checks every invariant on it (see CheckBenchmark). Failures are
// recorded in the result, never returned: a spec that breaks the
// pipeline is a finding, not a harness error.
func CheckProgram(ctx context.Context, s program.Spec, cfg Config) ProgramResult {
	s = s.Normalize()
	if cfg.TargetOps != 0 {
		s.TargetOps = cfg.TargetOps
		s = s.Normalize()
	}
	bench, err := xbsim.NewBenchmarkFromSpec(s)
	if err != nil {
		return ProgramResult{Name: s.Name(), Spec: s, Err: err.Error()}
	}
	pr := CheckBenchmark(ctx, bench, xbsim.Input{Name: "selfcheck", Seed: 0x5EED ^ s.Variant}, cfg)
	pr.Spec = s
	return pr
}

// CheckBenchmark runs the cross-binary pipeline on the benchmark's
// binaries once and checks every invariant on its products, in
// Invariants order. Only the analysis knobs of cfg apply (IntervalSize,
// MaxK, CPIBound, Sampler, SamplerBudget). Failures are recorded in the
// result, never returned.
func CheckBenchmark(ctx context.Context, bench *xbsim.Benchmark, in xbsim.Input, cfg Config) ProgramResult {
	cfg = cfg.withDefaults()
	pr := ProgramResult{Name: bench.Program.Name}

	ctx, span := obs.StartSpan(ctx, "selfcheck.program", pr.Name)
	defer span.End()

	acfg := xbsim.ExperimentConfig{
		IntervalSize: cfg.IntervalSize,
		MaxK:         cfg.MaxK,
		Input:        in,
		// The baseline analysis is serial; worker-invariance reruns it
		// with a pool and demands a bit-identical fingerprint.
		Workers:       1,
		Sampler:       cfg.Sampler,
		SamplerBudget: cfg.SamplerBudget,
	}
	a, err := xbsim.Analyze(ctx, bench.Binaries, acfg)
	if err != nil {
		pr.Err = err.Error()
		return pr
	}
	cp, sets, ests, err := measure(ctx, a, in)
	if err != nil {
		pr.Err = err.Error()
		return pr
	}

	pr.Checks = []Check{
		checkMarkerCounts(a.Profiles, cp),
		checkSymbolCounts(a.Profiles),
		checkBoundaryTranslate(cp),
		checkIntervalCoverage(cp, sets, a.Profiles, cfg.IntervalSize),
		checkWeightSum(cp, sets),
		checkOrderInvariance(ctx, bench.Binaries, acfg, cp, sets),
		checkWorkerInvariance(ctx, bench.Binaries, acfg, cp),
		checkCPISanity(bench.Binaries, ests, cfg.CPIBound),
		checkBudgetMonotonicity(ctx, a, acfg, ests),
	}
	return pr
}

// crossPoints analyzes the binaries under acfg and picks the
// cross-binary points.
func crossPoints(ctx context.Context, bins []*xbsim.Binary, acfg xbsim.ExperimentConfig) (*xbsim.CrossPoints, error) {
	a, err := xbsim.Analyze(ctx, bins, acfg)
	if err != nil {
		return nil, err
	}
	return a.CrossBinaryPoints(ctx)
}

// measure picks a's cross-binary points, maps them into every binary
// (one weight walk each) and estimates each binary from them (one
// simulation walk each).
func measure(ctx context.Context, a *xbsim.Analysis, in xbsim.Input) (*xbsim.CrossPoints, []*xbsim.PointSet, []*xbsim.SampledEstimate, error) {
	cp, err := a.CrossBinaryPoints(ctx)
	if err != nil {
		return nil, nil, nil, err
	}
	bins := cp.Mapping.Binaries
	sets := make([]*xbsim.PointSet, len(bins))
	ests := make([]*xbsim.SampledEstimate, len(bins))
	for b, bin := range bins {
		if sets[b], err = cp.ForBinary(ctx, b); err != nil {
			return nil, nil, nil, fmt.Errorf("binary %d: %w", b, err)
		}
		if ests[b], err = xbsim.EstimateStats(ctx, bin, in, sets[b], nil); err != nil {
			return nil, nil, nil, fmt.Errorf("%s estimate: %w", bin.Name, err)
		}
	}
	return cp, sets, ests, nil
}

// checkMarkerCounts verifies each mappable point's recorded count is the
// count walk 1 profiled for its marker in every binary — the (marker,
// count) region-delimiter guarantee of §3.2.
func checkMarkerCounts(profiles []*xbsim.Profile, cp *xbsim.CrossPoints) Check {
	bad := 0
	detail := ""
	for bi, p := range profiles {
		for _, pt := range cp.Mapping.Points {
			if got := p.MarkerCounts[pt.Markers[bi]]; got != pt.Count {
				bad++
				if detail == "" {
					detail = fmt.Sprintf("point %q fired %d times in %s, recorded %d",
						pt.Name, got, p.Binary.Name, pt.Count)
				}
			}
		}
	}
	if bad > 0 {
		return Check{Name: "marker-counts", Detail: fmt.Sprintf("%d violations; first: %s", bad, detail)}
	}
	return Check{Name: "marker-counts", OK: true, Detail: fmt.Sprintf(
		"%d mappable points fired their recorded counts in all %d binaries", len(cp.Mapping.Points), len(profiles))}
}

// checkSymbolCounts verifies that every symbol the primary binary
// shares with another binary has the same call count in both: the
// compilations differ in code, never in what the program calls.
func checkSymbolCounts(profiles []*xbsim.Profile) Check {
	shared, bad := 0, 0
	detail := ""
	for _, pp := range profiles[0].Procs {
		everywhere := true
		for _, p := range profiles[1:] {
			other := p.ProcBySymbol(pp.Symbol)
			if other == nil {
				everywhere = false
				continue
			}
			if other.Count != pp.Count {
				bad++
				if detail == "" {
					detail = fmt.Sprintf("symbol %q called %d times in %s, %d in %s",
						pp.Symbol, pp.Count, profiles[0].Binary.Name, other.Count, p.Binary.Name)
				}
			}
		}
		if everywhere {
			shared++
		}
	}
	if bad > 0 {
		return Check{Name: "symbol-counts", Detail: fmt.Sprintf("%d count mismatches; first: %s", bad, detail)}
	}
	return Check{Name: "symbol-counts", OK: true, Detail: fmt.Sprintf(
		"%d symbols shared by all %d binaries, no count mismatches", shared, len(profiles))}
}

// checkBoundaryTranslate verifies every VLI boundary resolves to the
// same (mappable point, count) in every binary: translation into each
// binary succeeds, round-trips exactly, and the cut count never exceeds
// the point's total count.
func checkBoundaryTranslate(cp *xbsim.CrossPoints) Check {
	ends := cp.Ends()
	for b := range cp.Mapping.Binaries {
		there, err := cp.Mapping.TranslateEnds(cp.Primary, b, ends)
		if err != nil {
			return Check{Name: "boundary-translate", Detail: fmt.Sprintf("to binary %d: %v", b, err)}
		}
		back, err := cp.Mapping.TranslateEnds(b, cp.Primary, there)
		if err != nil {
			return Check{Name: "boundary-translate", Detail: fmt.Sprintf("back from binary %d: %v", b, err)}
		}
		for i := range ends {
			if back[i] != ends[i] {
				return Check{Name: "boundary-translate", Detail: fmt.Sprintf(
					"boundary %d round-trips through binary %d as (%d,%d), was (%d,%d)",
					i, b, back[i].Marker, back[i].Count, ends[i].Marker, ends[i].Count)}
			}
			if ends[i].Marker < 0 {
				continue // sentinel (end of execution)
			}
			pi, ok := cp.Mapping.PointOfMarker(b, there[i].Marker)
			if !ok {
				return Check{Name: "boundary-translate", Detail: fmt.Sprintf(
					"boundary %d marker %d is not a mappable point in binary %d", i, there[i].Marker, b)}
			}
			pt := cp.Mapping.Points[pi]
			if there[i].Count == 0 || there[i].Count > pt.Count {
				return Check{Name: "boundary-translate", Detail: fmt.Sprintf(
					"boundary %d cuts point %q at count %d, outside [1,%d]", i, pt.Name, there[i].Count, pt.Count)}
			}
		}
	}
	return Check{Name: "boundary-translate", OK: true, Detail: fmt.Sprintf(
		"%d boundaries resolve identically in all %d binaries", len(ends), len(cp.Mapping.Binaries))}
}

// checkIntervalCoverage verifies the intervals partition each run, as
// each binary's weight walk counted them (PointSet.Instructions): the
// primary binary's intervals are at least the target size (all but the
// last, which ends with the run), and every binary's intervals cover its
// whole execution, as its profile counts it, with none empty.
func checkIntervalCoverage(cp *xbsim.CrossPoints, sets []*xbsim.PointSet, profiles []*xbsim.Profile, target uint64) Check {
	for b, ps := range sets {
		var sum uint64
		for i, n := range ps.Instructions {
			sum += n
			if n == 0 {
				return Check{Name: "interval-coverage", Detail: fmt.Sprintf(
					"%s interval %d of %d is empty", ps.Binary.Name, i, len(ps.Instructions))}
			}
			if b == cp.Primary && i < len(ps.Instructions)-1 && n < target {
				return Check{Name: "interval-coverage", Detail: fmt.Sprintf(
					"%s interval %d has %d instructions, below the %d target", ps.Binary.Name, i, n, target)}
			}
		}
		if total := profiles[b].TotalInstructions; sum != total {
			return Check{Name: "interval-coverage", Detail: fmt.Sprintf(
				"%s intervals cover %d of %d instructions", ps.Binary.Name, sum, total)}
		}
	}
	return Check{Name: "interval-coverage", OK: true, Detail: fmt.Sprintf(
		"%d intervals, none empty, cover the runs of all %d binaries; primary ones at least %d instructions",
		cp.NumIntervals(), len(sets), target)}
}

// checkWeightSum verifies the phase weights recalculated in every binary
// form a probability distribution over the shared intervals.
func checkWeightSum(cp *xbsim.CrossPoints, sets []*xbsim.PointSet) Check {
	const tol = 1e-9
	for _, ps := range sets {
		sum := 0.0
		for p, w := range ps.Weights {
			if w < 0 || w > 1+tol || math.IsNaN(w) {
				return Check{Name: "weight-sum", Detail: fmt.Sprintf(
					"%s phase %d weight %v outside [0,1]", ps.Binary.Name, p, w)}
			}
			sum += w
		}
		if math.Abs(sum-1) > tol {
			return Check{Name: "weight-sum", Detail: fmt.Sprintf(
				"%s weights sum to %v, want 1", ps.Binary.Name, sum)}
		}
		if len(ps.PhaseOf) != cp.NumIntervals() {
			return Check{Name: "weight-sum", Detail: fmt.Sprintf(
				"%s labels %d intervals, want %d", ps.Binary.Name, len(ps.PhaseOf), cp.NumIntervals())}
		}
	}
	return Check{Name: "weight-sum", OK: true, Detail: fmt.Sprintf(
		"phase weights sum to 1 in all %d binaries", len(sets))}
}

// checkOrderInvariance reruns the pipeline with the non-primary
// binaries reversed and demands every binary's point set comes out
// bit-identical (by fingerprint). The clustering runs only on the
// primary and point discovery orders points canonically, so the binary
// list order must be immaterial.
func checkOrderInvariance(ctx context.Context, bins []*xbsim.Binary, acfg xbsim.ExperimentConfig,
	cp *xbsim.CrossPoints, sets []*xbsim.PointSet) Check {
	if len(bins) < 3 {
		return Check{Name: "order-invariance", OK: true, Detail: "trivial with fewer than 3 binaries"}
	}
	perm := make([]*xbsim.Binary, 0, len(bins))
	perm = append(perm, bins[0])
	for i := len(bins) - 1; i >= 1; i-- {
		perm = append(perm, bins[i])
	}
	cp2, err := crossPoints(ctx, perm, acfg)
	if err != nil {
		return Check{Name: "order-invariance", Detail: fmt.Sprintf("permuted pipeline: %v", err)}
	}
	if cp2.K() != cp.K() || cp2.NumIntervals() != cp.NumIntervals() {
		return Check{Name: "order-invariance", Detail: fmt.Sprintf(
			"permuted run chose k=%d over %d intervals, baseline k=%d over %d",
			cp2.K(), cp2.NumIntervals(), cp.K(), cp.NumIntervals())}
	}
	for b2, bin := range perm {
		ps2, err := cp2.ForBinary(ctx, b2)
		if err != nil {
			return Check{Name: "order-invariance", Detail: fmt.Sprintf("permuted ForBinary(%d): %v", b2, err)}
		}
		base := sets[(len(bins)-b2)%len(bins)] // perm[b2] is bins[(n-b2) mod n]
		if got, want := ps2.Fingerprint(), base.Fingerprint(); got != want {
			return Check{Name: "order-invariance", Detail: fmt.Sprintf(
				"%s point set fingerprint %s under permuted order, baseline %s", bin.Name, got, want)}
		}
	}
	return Check{Name: "order-invariance", OK: true, Detail: fmt.Sprintf(
		"point sets bit-identical for all %d binaries under reversed order", len(bins))}
}

// checkWorkerInvariance reruns the analysis with a worker pool and
// demands a bit-identical fingerprint against the serial baseline —
// the pool's index-addressed determinism guarantee, end to end. Two
// full analyses agreeing bit for bit also shows the run is
// deterministic.
func checkWorkerInvariance(ctx context.Context, bins []*xbsim.Binary, acfg xbsim.ExperimentConfig, cp *xbsim.CrossPoints) Check {
	acfg.Workers = 3
	cp2, err := crossPoints(ctx, bins, acfg)
	if err != nil {
		return Check{Name: "worker-invariance", Detail: fmt.Sprintf("parallel pipeline: %v", err)}
	}
	if got, want := cp2.Fingerprint(), cp.Fingerprint(); got != want {
		return Check{Name: "worker-invariance", Detail: fmt.Sprintf(
			"fingerprint %s with 3 workers, %s serial", got, want)}
	}
	return Check{Name: "worker-invariance", OK: true,
		Detail: "analysis fingerprint bit-identical for 1 and 3 workers"}
}

// checkCPISanity verifies every binary's sampled estimate is finite,
// positive, and within the configured relative bound of the whole run
// its walk simulated.
func checkCPISanity(bins []*xbsim.Binary, ests []*xbsim.SampledEstimate, bound float64) Check {
	worst := 0.0
	for b, bin := range bins {
		est := ests[b]
		if !isFinite(est.CPI) || est.CPI <= 0 || !isFinite(est.L1MissRate) || !isFinite(est.DRAMPerKI) {
			return Check{Name: "cpi-sanity", Detail: fmt.Sprintf(
				"%s estimate not finite: cpi=%v l1=%v dram/ki=%v", bin.Name, est.CPI, est.L1MissRate, est.DRAMPerKI)}
		}
		rel := cpiError(est)
		if rel > bound {
			return Check{Name: "cpi-sanity", Detail: fmt.Sprintf(
				"%s estimated CPI %.4f vs full %.4f: relative error %.3f exceeds %.3f",
				bin.Name, est.CPI, est.Full.CPI(), rel, bound)}
		}
		if rel > worst {
			worst = rel
		}
	}
	return Check{Name: "cpi-sanity", OK: true, Detail: fmt.Sprintf(
		"CPI estimates within %.3f of full simulation in all %d binaries (bound %.3f)", worst, len(bins), bound)}
}

// cpiError is the estimate's relative CPI error against the whole run
// its walk simulated.
func cpiError(est *xbsim.SampledEstimate) float64 {
	full := est.Full.CPI()
	return math.Abs(est.CPI-full) / full
}

// meanCPIError is the mean of cpiError across the binaries' estimates.
func meanCPIError(ests []*xbsim.SampledEstimate) float64 {
	sum := 0.0
	for _, est := range ests {
		sum += cpiError(est)
	}
	return sum / float64(len(ests))
}

// checkBudgetMonotonicity verifies the budget knob of a budgeted
// backend behaves like a budget: doubling the stratified point budget
// must not make the mean CPI error substantially worse. The baseline
// estimates ests are one side of the comparison: at an unset budget
// they ran at the backend default, which is compared against half of
// it; at an explicit budget b they are compared against 2b. The other
// side re-picks from a's walks and measures again. The simpoint backend
// has no budget knob, so it satisfies the invariant trivially.
func checkBudgetMonotonicity(ctx context.Context, a *xbsim.Analysis, acfg xbsim.ExperimentConfig,
	ests []*xbsim.SampledEstimate) Check {
	if acfg.Sampler == "" || acfg.Sampler == sampler.BackendSimPoint {
		return Check{Name: "budget-monotonicity", OK: true,
			Detail: "trivial: the simpoint backend has no budget knob"}
	}
	lo, hi, other := acfg.SamplerBudget, 2*acfg.SamplerBudget, 2*acfg.SamplerBudget
	if lo <= 0 {
		lo, hi, other = sampler.DefaultBudget/2, sampler.DefaultBudget, sampler.DefaultBudget/2
	}
	acfg.SamplerBudget = other
	ra, err := a.Repick(acfg)
	var otherEsts []*xbsim.SampledEstimate
	if err == nil {
		_, _, otherEsts, err = measure(ctx, ra, acfg.Input)
	}
	if err != nil {
		return Check{Name: "budget-monotonicity", Detail: fmt.Sprintf("budget %d: %v", other, err)}
	}
	errLo, errHi := meanCPIError(ests), meanCPIError(otherEsts)
	if other == lo {
		errLo, errHi = errHi, errLo
	}
	return budgetVerdict(errLo, errHi, lo, hi)
}

// budgetVerdict compares the mean CPI errors at budgets lo and hi = 2lo.
// "Substantially worse" allows a fixed slack — more strata can re-draw
// every representative, so small per-program wobble is legitimate; what
// the invariant rules out is a backend whose extra simulation spend
// systematically buys worse estimates.
func budgetVerdict(errLo, errHi float64, lo, hi int) Check {
	// Generous: the generated programs are tiny, so a single re-drawn
	// representative can move one binary's estimate by a few percent.
	const slack = 0.25
	if errHi > errLo+slack {
		return Check{Name: "budget-monotonicity", Detail: fmt.Sprintf(
			"mean CPI error %.4f at budget %d vs %.4f at budget %d exceeds slack %.2f",
			errHi, hi, errLo, lo, slack)}
	}
	return Check{Name: "budget-monotonicity", OK: true, Detail: fmt.Sprintf(
		"mean CPI error %.4f at budget %d, %.4f at budget %d (slack %.2f)",
		errLo, lo, errHi, hi, slack)}
}

func isFinite(v float64) bool { return !math.IsNaN(v) && !math.IsInf(v, 0) }
