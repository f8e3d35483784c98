// Package xbsim is a from-scratch reproduction of "Cross Binary Simulation
// Points" (Perelman, Lau, Hamerly, Patil, Jaleel, Calder — ISPASS 2007):
// SimPoint-style sampled simulation that picks a single set of simulation
// points usable across every binary compiled from one source program, so
// that ISA and compiler-optimization studies compare the same semantic
// regions of execution.
//
// The library bundles everything the paper's toolchain needed, rebuilt on
// a synthetic substrate (see DESIGN.md for the substitution table):
//
//   - synthetic SPEC2000-like benchmark programs and a four-target
//     compiler (32/64-bit × unoptimized/optimized);
//   - a Pin-like profiling layer over a deterministic executor;
//   - a full SimPoint 3.0 implementation (BBVs, random projection,
//     weighted k-means, BIC model selection);
//   - the paper's mappable-point discovery, including the inlined-loop
//     count heuristic;
//   - a CMP$im-like in-order core with the paper's three-level cache
//     hierarchy.
//
// # Quick start
//
//	ctx := context.Background()
//	bench, _ := xbsim.NewBenchmark("gcc", 2_000_000)
//	cfg := xbsim.ExperimentConfig{IntervalSize: 25_000, Input: xbsim.Input{Name: "ref", Seed: 42}}
//	a, _ := xbsim.Analyze(ctx, bench.Binaries, cfg) // walks 1-2, once
//	cross, _ := a.CrossBinaryPoints(ctx)
//	for i, bin := range bench.Binaries {
//	    ps, _ := cross.ForBinary(ctx, i)
//	    est, _ := xbsim.EstimateStats(ctx, bin, cfg.Input, ps, nil)
//	    fmt.Printf("%s: est %.3f true %.3f\n", bin.Name, est.CPI, est.Full.CPI())
//	}
//
// One Analysis serves every pick: a.PerBinaryPoints(ctx, i) picks binary
// i's classic per-binary points from the same walks, and a.Repick(cfg)
// picks under other sampler settings without walking again. The experiment
// harness (RunExperimentsCtx / WriteReportCtx) regenerates
// every table and figure of the paper's evaluation; see EXPERIMENTS.md.
package xbsim

import (
	"context"
	"fmt"
	"io"
	"math"

	"xbsim/internal/cmpsim"
	"xbsim/internal/compiler"
	"xbsim/internal/exec"
	"xbsim/internal/experiment"
	"xbsim/internal/fingerprint"
	"xbsim/internal/mapping"
	"xbsim/internal/obs"
	"xbsim/internal/pinpoints"
	"xbsim/internal/profile"
	"xbsim/internal/program"
	"xbsim/internal/report"
	"xbsim/internal/simpoint"
)

// Re-exported core types. The implementation lives in internal packages;
// these aliases are the supported public surface.
type (
	// Program is a source-level benchmark program.
	Program = program.Program
	// Input names a program input; the seed drives all input-dependent
	// behavior deterministically.
	Input = program.Input
	// Target is a compilation configuration (architecture × opt level).
	Target = compiler.Target
	// Binary is a compiled program.
	Binary = compiler.Binary
	// Profile is a binary's call-and-branch profile.
	Profile = profile.Profile
	// MappingResult is the cross-binary mappable point set.
	MappingResult = mapping.Result
	// Boundary is a variable-length-interval end point: a mappable marker
	// plus its execution count at the cut.
	Boundary = profile.Boundary
	// MappingOptions tunes mappable-point discovery.
	MappingOptions = mapping.Options
	// Stats is a simulation result (CPI, cache behavior).
	Stats = cmpsim.Stats
	// HierarchyConfig describes the simulated memory system.
	HierarchyConfig = cmpsim.HierarchyConfig
	// ExperimentConfig parameterizes the paper-evaluation harness.
	ExperimentConfig = experiment.Config
	// RetryPolicy controls transient-failure retries per pipeline stage.
	RetryPolicy = experiment.RetryPolicy
	// Suite is a completed — possibly partial — paper evaluation.
	Suite = experiment.Suite
	// BenchmarkFailure records one benchmark a suite could not complete.
	BenchmarkFailure = experiment.BenchmarkFailure
	// RegionFile is a serializable PinPoints-style region descriptor.
	RegionFile = pinpoints.File
)

// IR construction types, for building custom programs by hand instead of
// using the benchmark generator. A Program built from these must pass
// (*Program).Validate before compilation.
type (
	// Proc is a procedure definition.
	Proc = program.Proc
	// Stmt is a procedure-body statement (Compute, Loop, or Call).
	Stmt = program.Stmt
	// Compute is a straight-line block of work.
	Compute = program.Compute
	// Loop repeats its body an input-dependent number of times.
	Loop = program.Loop
	// Call invokes another procedure.
	Call = program.Call
	// OpMix is a compute block's abstract operation mix.
	OpMix = program.OpMix
	// MemPattern describes a compute block's memory behavior.
	MemPattern = program.MemPattern
	// TripSpec determines a loop's iteration counts.
	TripSpec = program.TripSpec
)

// Memory access classes for MemPattern.
const (
	MemStride = program.MemStride
	MemRandom = program.MemRandom
)

// Compilation targets, in the paper's order: 32u, 32o, 64u, 64o.
var AllTargets = compiler.AllTargets

// CompileAll lowers a program for all four paper targets.
func CompileAll(p *Program) ([]*Binary, error) {
	return compiler.CompileAll(p)
}

// Benchmarks returns the names of the synthesizable SPEC2000-like
// benchmarks (the paper's 21-program subset).
func Benchmarks() []string { return program.Benchmarks() }

// Spec is a randomized benchmark-generator configuration: a compact,
// canonical description of a synthetic program beyond the fixed
// benchmark table. Specs drive the metamorphic self-check harness and
// the fuzz targets.
type Spec = program.Spec

// NewBenchmarkFromSpec generates the spec's synthetic program and
// compiles all four targets, like NewBenchmark for randomized specs.
func NewBenchmarkFromSpec(s Spec) (*Benchmark, error) {
	prog, err := program.GenerateSpec(s)
	if err != nil {
		return nil, err
	}
	bins, err := compiler.CompileAll(prog)
	if err != nil {
		return nil, err
	}
	return &Benchmark{Program: prog, Binaries: bins}, nil
}

// Table1 returns the paper's memory system configuration.
func Table1() HierarchyConfig { return cmpsim.DefaultHierarchyConfig() }

// Benchmark bundles a generated program with its four compiled binaries.
type Benchmark struct {
	// Program is the generated source program.
	Program *Program
	// Binaries holds the four compilations in AllTargets order.
	Binaries []*Binary
}

// NewBenchmark synthesizes the named benchmark scaled to roughly targetOps
// abstract operations (0 = default) and compiles all four targets.
func NewBenchmark(name string, targetOps uint64) (*Benchmark, error) {
	prog, err := program.Generate(name, program.GenConfig{TargetOps: targetOps})
	if err != nil {
		return nil, err
	}
	bins, err := compiler.CompileAll(prog)
	if err != nil {
		return nil, err
	}
	return &Benchmark{Program: prog, Binaries: bins}, nil
}

// Binary returns the compilation for the given configuration shorthand
// ("32u", "32o", "64u", "64o"), or nil.
func (b *Benchmark) Binary(target string) *Binary {
	for i, t := range AllTargets {
		if t.String() == target {
			return b.Binaries[i]
		}
	}
	return nil
}

// CollectProfile runs the binary once and returns its call-and-branch
// profile (procedure entry counts, loop entry/body counts, debug info).
// The run is recorded through the context's Observer, if any.
func CollectProfile(ctx context.Context, bin *Binary, in Input) (*Profile, error) {
	return profile.Collect(ctx, bin, in)
}

// Analysis is the paper's method up to clustering over one program's
// binaries (§3.2): every binary profiled with its fixed-length-interval
// BBVs, the mappable points across them, and the primary binary cut into
// variable-length intervals at those points. PerBinaryPoints and
// CrossBinaryPoints pick from it and walk nothing.
type Analysis struct {
	// Mapping is the cross-binary mappable point set (§3.2.1-§3.2.2, plus
	// the §3.3 inlining heuristic unless cfg.Mapping disables it).
	Mapping *MappingResult
	// Profiles[b] is binary b's call-and-branch profile.
	Profiles []*Profile

	an  *experiment.Analysis
	cfg ExperimentConfig
}

// Analyze runs the experiment suite's walks 1 and 2 over the binaries,
// which must be at least two compilations of one program. Unset fields
// of cfg take the suite's defaults (FullExperimentConfig's 60k-instruction
// intervals, SimPoint, the ref input); the fields that name benchmarks
// or scale programs are ignored. Like the suite, every stage retries
// transient failures under cfg.Retry and records spans, progress and
// counters through the context's Observer. cfg's sampler settings apply
// to the picks made from the result.
func Analyze(ctx context.Context, bins []*Binary, cfg ExperimentConfig) (*Analysis, error) {
	an, err := experiment.Analyze(ctx, bins, cfg)
	if err != nil {
		return nil, err
	}
	return &Analysis{Mapping: an.Mapping, Profiles: an.Profiles, an: an, cfg: cfg}, nil
}

// Repick returns an Analysis over a's walks whose picks use cfg's
// sampler settings. It walks nothing, and it fails unless cfg differs
// from a's config only in the settings walks 1–2 do not read.
func (a *Analysis) Repick(cfg ExperimentConfig) (*Analysis, error) {
	if !experiment.SamePrepare(a.cfg, cfg) {
		return nil, fmt.Errorf("xbsim: repick: config differs beyond pick-side settings")
	}
	r := *a
	r.cfg = cfg
	return &r, nil
}

// PointSet is a chosen set of simulation regions for one binary, ready to
// simulate or serialize.
type PointSet struct {
	// Binary the regions apply to.
	Binary *Binary
	// Flavor is FLI (per-binary) or VLI (cross-binary mapped).
	Flavor pinpoints.Flavor
	// K is the number of phases; Weights[p] the phase weights.
	Weights []float64
	// PointInterval[p] is the representative interval per phase (-1 when
	// the phase has no representative).
	PointInterval []int
	// PhaseOf labels every interval with its phase.
	PhaseOf []int
	// Instructions[i] is the number of instructions interval i executes
	// in Binary, as the walk that cut the intervals counted them.
	Instructions []uint64

	intervalSize uint64
	fliEnds      []uint64
	vliEnds      []profile.Boundary
}

// NumPoints returns the number of simulation points.
func (ps *PointSet) NumPoints() int {
	n := 0
	for _, iv := range ps.PointInterval {
		if iv >= 0 {
			n++
		}
	}
	return n
}

// Fingerprint digests everything that determines the point set's
// simulation behavior: flavor, weights (by exact float bits), chosen
// intervals, phase labels, and the interval boundaries. Two point sets
// drive identical sampled simulations exactly when their fingerprints
// match; the self-check harness compares fingerprints across
// metamorphic pipeline variants (permuted binary order, different
// worker counts).
func (ps *PointSet) Fingerprint() string {
	h := fingerprint.New()
	h.String(string(ps.Flavor))
	h.Uint64(ps.intervalSize)
	h.Float64s(ps.Weights)
	h.Ints(ps.PointInterval)
	h.Ints(ps.PhaseOf)
	h.Int(len(ps.fliEnds))
	for _, e := range ps.fliEnds {
		h.Uint64(e)
	}
	h.Int(len(ps.vliEnds))
	for _, e := range ps.vliEnds {
		h.Int(e.Marker)
		h.Uint64(e.Count)
	}
	return h.Sum()
}

// PerBinaryPoints picks classic per-binary SimPoint points for binary b
// (§2): walk 1's fixed-length intervals, BBV clustering, one
// representative per phase. It walks nothing.
func (a *Analysis) PerBinaryPoints(ctx context.Context, b int) (*PointSet, error) {
	if b < 0 || b >= len(a.an.Bins) {
		return nil, fmt.Errorf("xbsim: binary index %d out of range [0,%d)", b, len(a.an.Bins))
	}
	pick, err := a.an.Pick(ctx, a.cfg, "fli", b)
	if err != nil {
		return nil, err
	}
	return &PointSet{
		Binary:        a.an.Bins[b],
		Flavor:        pinpoints.FlavorFLI,
		Weights:       append([]float64(nil), pick.PhaseWeights...),
		PointInterval: pointIntervals(pick),
		PhaseOf:       pick.PhaseOf,
		Instructions:  append([]uint64(nil), a.an.FLI[b].Dataset.Lengths()...),
		intervalSize:  a.an.IntervalSize,
		fliEnds:       a.an.FLI[b].Ends,
	}, nil
}

func pointIntervals(pick *simpoint.Result) []int {
	out := make([]int, pick.K)
	for p := range out {
		out[p] = -1
	}
	for _, pt := range pick.Points {
		out[pt.Phase] = pt.Interval
	}
	return out
}

// CrossPoints is a cross-binary simulation point set: one clustering on
// the primary binary, mapped to every binary via mappable markers.
type CrossPoints struct {
	// Mapping is the mappable point set used for boundaries.
	Mapping *MappingResult
	// Primary is the index of the primary binary.
	Primary int

	input        Input
	intervalSize uint64
	pick         *simpoint.Result
	primaryEnds  []profile.Boundary
}

// CrossBinaryPoints clusters the primary binary's variable-length
// intervals with the configured sampler and returns the cross-binary
// point set, ready to map into every binary (§3).
func (a *Analysis) CrossBinaryPoints(ctx context.Context) (*CrossPoints, error) {
	pick, err := a.an.Pick(ctx, a.cfg, "vli", 0)
	if err != nil {
		return nil, err
	}
	return &CrossPoints{
		Mapping:      a.Mapping,
		Primary:      a.an.Primary,
		input:        a.an.Input,
		intervalSize: a.an.IntervalSize,
		pick:         pick,
		primaryEnds:  a.an.VLI.Ends,
	}, nil
}

// K returns the number of phases.
func (cp *CrossPoints) K() int { return cp.pick.K }

// NumIntervals returns the shared interval count.
func (cp *CrossPoints) NumIntervals() int { return len(cp.primaryEnds) }

// Ends returns a copy of the variable-length-interval boundaries in the
// primary binary's marker space. Every boundary is a mappable marker
// plus its execution count, translatable to any binary via the Mapping.
func (cp *CrossPoints) Ends() []Boundary {
	return append([]Boundary(nil), cp.primaryEnds...)
}

// PhaseOf returns a copy of the per-interval phase labels.
func (cp *CrossPoints) PhaseOf() []int {
	return append([]int(nil), cp.pick.PhaseOf...)
}

// PointIntervals returns the representative interval per phase (-1 when
// a phase has no representative).
func (cp *CrossPoints) PointIntervals() []int {
	return pointIntervals(cp.pick)
}

// Fingerprint digests the complete cross-binary analysis: the clustering
// result, the primary-binary interval boundaries, and the per-binary
// mapping views. Because the clustering runs only on the primary binary
// and point order is binary-order independent, the fingerprint is
// bit-identical across runs with any Workers value.
func (cp *CrossPoints) Fingerprint() string {
	h := fingerprint.New()
	h.Int(cp.Primary)
	h.Uint64(cp.intervalSize)
	h.String(cp.pick.Fingerprint())
	h.Int(len(cp.primaryEnds))
	for _, e := range cp.primaryEnds {
		h.Int(e.Marker)
		h.Uint64(e.Count)
	}
	h.Int(len(cp.Mapping.Binaries))
	for b := range cp.Mapping.Binaries {
		h.String(cp.Mapping.Binaries[b].Name)
		h.String(cp.Mapping.FingerprintFor(b))
	}
	return h.Sum()
}

// ForBinary maps the simulation points into binary b's marker space and
// recalculates the phase weights by counting the instructions each phase
// executes in that binary (§3.2.5-§3.2.6). The returned PointSet is ready
// for EstimateStats and carries the walk's per-interval counts. The
// weight walk runs under ctx, so it is observed and cancellable like
// every other walk.
func (cp *CrossPoints) ForBinary(ctx context.Context, b int) (*PointSet, error) {
	if b < 0 || b >= len(cp.Mapping.Binaries) {
		return nil, fmt.Errorf("xbsim: binary index %d out of range [0,%d)", b, len(cp.Mapping.Binaries))
	}
	bin := cp.Mapping.Binaries[b]
	ends, err := cp.Mapping.TranslateEnds(cp.Primary, b, cp.primaryEnds)
	if err != nil {
		return nil, err
	}
	// Weight recalculation pass: count instructions per interval in this
	// binary.
	tr := profile.NewVLITracker(bin, ends, nil)
	if err := exec.RunCtx(ctx, bin, cp.input, tr); err != nil {
		return nil, err
	}
	var total uint64
	for _, n := range tr.Instructions {
		total += n
	}
	if total == 0 {
		return nil, fmt.Errorf("xbsim: %s executed no instructions on input %q; cannot recalculate phase weights", bin.Name, cp.input.Name)
	}
	weights := make([]float64, cp.pick.K)
	for iv, phase := range cp.pick.PhaseOf {
		weights[phase] += float64(tr.Instructions[iv]) / float64(total)
	}
	return &PointSet{
		Binary:        bin,
		Flavor:        pinpoints.FlavorVLI,
		Weights:       weights,
		PointInterval: pointIntervals(cp.pick),
		PhaseOf:       cp.pick.PhaseOf,
		Instructions:  tr.Instructions,
		intervalSize:  cp.intervalSize,
		vliEnds:       ends,
	}, nil
}

// SimulateFull runs the binary to completion on the cache simulator and
// returns the whole-program statistics. hierarchy == nil uses Table 1.
// The run is recorded as a "stage.full_sim" span and its statistics are
// published under the "sim.full" metric prefix through the context's
// Observer, if any. The simulator's cache state goes back to the
// process-wide recycler when the run is done.
func SimulateFull(ctx context.Context, bin *Binary, in Input, hierarchy *HierarchyConfig) (*Stats, error) {
	sim, err := cmpsim.NewSimulator(bin, orTable1(hierarchy))
	if err != nil {
		return nil, err
	}
	defer sim.Release()
	fctx, fspan := obs.StartSpan(ctx, "stage.full_sim", bin.Name)
	if err := exec.RunCtx(fctx, bin, in, sim); err != nil {
		fspan.End()
		return nil, err
	}
	fspan.End()
	if o := obs.From(ctx); o != nil {
		sim.PublishMetrics(o.Metrics, "sim.full")
	}
	return sim.Stats(), nil
}

func orTable1(hierarchy *HierarchyConfig) HierarchyConfig {
	if hierarchy != nil {
		return *hierarchy
	}
	return Table1()
}

// SampledEstimate is a whole-program estimate computed as the weighted
// average of per-simulation-point measurements (the paper's §2.3 step 6,
// applied to "CPI, miss rate, etc.").
type SampledEstimate struct {
	// CPI is the estimated cycles per instruction.
	CPI float64
	// L1MissRate is the estimated L1 data miss rate (misses / accesses).
	L1MissRate float64
	// DRAMPerKI is the estimated DRAM accesses per 1000 instructions.
	DRAMPerKI float64
	// Full is the whole run's statistics from the walk that measured the
	// regions: the truth the estimate approximates, equal to what
	// SimulateFull returns.
	Full Stats
}

// EstimateStats measures the point set's regions and returns the
// weighted whole-program estimates SimPoint users extrapolate: CPI, L1
// miss rate and DRAM traffic. hierarchy == nil uses Table 1.
//
// The regions are measured the way the experiment suite measures them:
// one full walk attributes every interval's statistics, and each
// simulation point reads its interval's, with the caches functional
// warming (which CMP$im applies while fast-forwarding) leaves. The CPI is
// the suite's weighting (experiment.WeightedCPI). The walk is traced
// and its statistics published under "sim.full" through the context's
// Observer, if any, and it stops when ctx is cancelled.
func EstimateStats(ctx context.Context, bin *Binary, in Input, ps *PointSet, hierarchy *HierarchyConfig) (*SampledEstimate, error) {
	if ps.Binary != bin {
		return nil, fmt.Errorf("xbsim: point set belongs to %s, not %s", ps.Binary.Name, bin.Name)
	}
	set := experiment.Boundaries{FLI: ps.fliEnds}
	if ps.Flavor == pinpoints.FlavorVLI {
		set = experiment.Boundaries{VLI: ps.vliEnds}
	}
	walk, err := experiment.SimulateIntervals(ctx, bin, in, orTable1(hierarchy), set)
	if err != nil {
		return nil, err
	}
	est := SampledEstimate{Full: walk.Stats}
	var wsum float64
	pointCPI := make([]float64, len(ps.PointInterval))
	for p, iv := range ps.PointInterval {
		pointCPI[p] = math.NaN()
		w := ps.Weights[p]
		if iv < 0 || w <= 0 {
			continue
		}
		st, ok := walk.Deltas[0].Interval(iv)
		if !ok || st.Instructions == 0 {
			return nil, fmt.Errorf("xbsim: simulation point interval %d executed nothing", iv)
		}
		pointCPI[p] = float64(st.Cycles) / float64(st.Instructions)
		if st.Accesses > 0 {
			est.L1MissRate += w * float64(st.L1Misses) / float64(st.Accesses)
		}
		est.DRAMPerKI += w * float64(st.DRAMAccesses) / float64(st.Instructions) * 1000
		wsum += w
	}
	if est.CPI, err = experiment.WeightedCPI(ps.Weights, pointCPI); err != nil {
		return nil, fmt.Errorf("xbsim: %w", err)
	}
	est.L1MissRate /= wsum
	est.DRAMPerKI /= wsum
	return &est, nil
}

// RegionFile serializes the point set in PinPoints style for hand-off to
// external simulators.
func (ps *PointSet) RegionFile(in Input) (*RegionFile, error) {
	f := &RegionFile{
		Program:      ps.Binary.Program.Name,
		Binary:       ps.Binary.Name,
		Input:        in.Name,
		Flavor:       ps.Flavor,
		IntervalSize: ps.intervalSize,
	}
	for p, iv := range ps.PointInterval {
		if iv < 0 {
			continue
		}
		r := pinpoints.Region{Phase: p, Weight: ps.Weights[p], Interval: iv}
		switch ps.Flavor {
		case pinpoints.FlavorFLI:
			if iv > 0 {
				r.StartInstr = ps.fliEnds[iv-1]
			}
			r.EndInstr = ps.fliEnds[iv]
		case pinpoints.FlavorVLI:
			start := profile.BoundaryStart
			if iv > 0 {
				start = ps.vliEnds[iv-1]
			}
			r.Start = pinpoints.FromProfileBoundary(start)
			r.End = pinpoints.FromProfileBoundary(ps.vliEnds[iv])
		}
		f.Regions = append(f.Regions, r)
	}
	if err := f.Validate(); err != nil {
		return nil, err
	}
	return f, nil
}

// QuickExperimentConfig returns the reduced five-benchmark evaluation
// configuration; FullExperimentConfig the paper-shaped 21-benchmark one.
func QuickExperimentConfig() ExperimentConfig { return experiment.QuickConfig() }

// FullExperimentConfig returns the paper-shaped configuration: all 21
// benchmarks, four binaries each.
func FullExperimentConfig() ExperimentConfig { return experiment.FullConfig() }

// RunExperimentsCtx executes the paper evaluation for the configuration.
// When the context carries an Observer (see WithObserver), every pipeline
// stage of every benchmark is traced, the metrics registry accumulates
// pipeline counters, and per-benchmark completion is reported as progress
// events.
func RunExperimentsCtx(ctx context.Context, cfg ExperimentConfig) (*Suite, error) {
	return experiment.RunCtx(ctx, cfg)
}

// WriteReportCtx renders Table 1, Figures 1-5, and the Table 2/3 phase
// comparisons for the suite. When the context carries an Observer, the
// stage-timing tree and the metrics snapshot it accumulated are appended
// after the paper artifacts.
func WriteReportCtx(ctx context.Context, w io.Writer, s *Suite) error {
	if err := report.Suite(w, s); err != nil {
		return err
	}
	return report.Appendix(w, obs.From(ctx))
}

// Observability types, re-exported from the internal obs package. An
// Observer travels on a context.Context (WithObserver) and is consumed by
// every entry point that takes a context; a nil Observer — or a plain
// context — records nothing and costs nothing.
type (
	// Observer bundles a metrics registry, an event log that records
	// pipeline events, progress and spans, and a progress sink.
	Observer = obs.Observer
	// MetricsSnapshot is a point-in-time copy of every recorded metric.
	MetricsSnapshot = obs.Snapshot
)

// NewObserver returns an Observer with a fresh metrics registry and
// event log; spans and progress land in o.Events. Render progress lines
// with o := NewObserver(); o.Progress = NewProgressWriter(os.Stderr).
func NewObserver() *Observer { return obs.New() }

// NewProgressWriter returns a progress sink that renders one line per
// event to w.
func NewProgressWriter(w io.Writer) *obs.Progress { return obs.NewProgress(w) }

// WithObserver returns a context carrying the observer; the entry points
// called with it record metrics, spans, and progress.
func WithObserver(ctx context.Context, o *Observer) context.Context {
	return obs.With(ctx, o)
}

// ObserverFrom returns the context's observer, or nil.
func ObserverFrom(ctx context.Context) *Observer {
	return obs.From(ctx)
}
