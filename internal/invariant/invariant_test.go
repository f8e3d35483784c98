package invariant

import (
	"context"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"xbsim"
	"xbsim/internal/mapping"
	"xbsim/internal/obs"
	"xbsim/internal/profile"
	"xbsim/internal/program"
	"xbsim/internal/sampler"
)

// small keeps harness tests fast: few programs, small ops.
var small = Config{Programs: 3, Seed: 1, TargetOps: 120_000}

func TestRunAllInvariantsGreen(t *testing.T) {
	rep, err := Run(context.Background(), small)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Programs) != small.Programs {
		t.Fatalf("checked %d programs, want %d", len(rep.Programs), small.Programs)
	}
	for _, pr := range rep.Programs {
		if pr.Err != "" {
			t.Fatalf("program %d (%s): pipeline failed: %s", pr.Index, pr.Name, pr.Err)
		}
		if len(pr.Checks) != len(Invariants) {
			t.Fatalf("program %d: %d checks, want %d", pr.Index, len(pr.Checks), len(Invariants))
		}
		for i, c := range pr.Checks {
			if c.Name != Invariants[i] {
				t.Fatalf("program %d check %d named %q, want %q", pr.Index, i, c.Name, Invariants[i])
			}
			if !c.OK {
				t.Errorf("program %d (%s): %s failed: %s", pr.Index, pr.Name, c.Name, c.Detail)
			}
		}
	}
	if !rep.OK() {
		t.Fatal("report not OK")
	}
}

// TestRunStratifiedInvariantsGreen runs the same population under the
// stratified backend: every invariant must hold there too, and the
// budget-monotonicity check must actually engage (not report the
// simpoint trivial case).
func TestRunStratifiedInvariantsGreen(t *testing.T) {
	cfg := small
	cfg.Programs = 2
	cfg.Sampler = "stratified"
	cfg.SamplerBudget = 5
	rep, err := Run(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, pr := range rep.Programs {
		if pr.Err != "" {
			t.Fatalf("program %d (%s): pipeline failed: %s", pr.Index, pr.Name, pr.Err)
		}
		for _, c := range pr.Checks {
			if !c.OK {
				t.Errorf("program %d (%s): %s failed: %s", pr.Index, pr.Name, c.Name, c.Detail)
			}
			if c.Name == "budget-monotonicity" && strings.Contains(c.Detail, "trivial") {
				t.Errorf("program %d: budget-monotonicity did not engage under stratified: %s",
					pr.Index, c.Detail)
			}
		}
	}
}

// TestCheckProgramEdgeSpecStratified pushes the smallest legal program
// through the stratified backend: degenerate strata (a handful of
// intervals, budget larger than the interval count) must still satisfy
// every invariant.
func TestCheckProgramEdgeSpecStratified(t *testing.T) {
	edge := program.Spec{
		TargetOps: 1,
		Behaviors: 1,
		Segments:  1,
		WSLadder:  []uint64{1 << 10},
	}
	cfg := Config{IntervalSize: 2000, MaxK: 2, Sampler: "stratified", SamplerBudget: 64}
	pr := CheckProgram(context.Background(), edge, cfg)
	if pr.Err != "" {
		t.Fatalf("edge spec broke the stratified pipeline: %s", pr.Err)
	}
	for _, c := range pr.Checks {
		if !c.OK {
			t.Errorf("edge spec (stratified): %s failed: %s", c.Name, c.Detail)
		}
	}
}

func TestRunWorkerCountInvariant(t *testing.T) {
	cfg1, cfg4 := small, small
	cfg1.Workers = 1
	cfg4.Workers = 4
	r1, err := Run(context.Background(), cfg1)
	if err != nil {
		t.Fatal(err)
	}
	r4, err := Run(context.Background(), cfg4)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(r1.Programs, r4.Programs) {
		t.Fatal("report differs between 1 and 4 harness workers")
	}
}

func TestRunRecordsObservability(t *testing.T) {
	o := obs.New()
	cfg := small
	cfg.Programs = 2
	rep, err := Run(obs.With(context.Background(), o), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.OK() {
		t.Fatal("report not OK")
	}
	if got := o.Metrics.Counter("selfcheck.pipeline.pass").Value(); got != 2 {
		t.Fatalf("pipeline pass counter = %d, want 2", got)
	}
	for _, name := range Invariants {
		if got := o.Metrics.Counter("selfcheck." + name + ".pass").Value(); got != 2 {
			t.Fatalf("%s pass counter = %d, want 2", name, got)
		}
	}
}

func TestTallies(t *testing.T) {
	rep := &Report{Programs: []ProgramResult{
		{Name: "a", Checks: []Check{{Name: "marker-counts", OK: true}, {Name: "weight-sum", OK: false, Detail: "boom"}}},
		{Name: "b", Err: "compile exploded"},
	}}
	if rep.OK() {
		t.Fatal("report with failures reports OK")
	}
	byName := map[string]Tally{}
	for _, tl := range rep.Tallies() {
		byName[tl.Name] = tl
	}
	if tl := byName["marker-counts"]; tl.Pass != 1 || tl.Fail != 0 {
		t.Fatalf("marker-counts tally %+v", tl)
	}
	if tl := byName["weight-sum"]; tl.Fail != 1 || !strings.Contains(tl.FirstFailure, "boom") {
		t.Fatalf("weight-sum tally %+v", tl)
	}
	if tl := byName["pipeline"]; tl.Pass != 1 || tl.Fail != 1 || !strings.Contains(tl.FirstFailure, "compile exploded") {
		t.Fatalf("pipeline tally %+v", tl)
	}
}

// TestCheckProgramEdgeSpec pushes the smallest program the spec space
// admits — one behavior, one segment, minimum operation count, a single
// tiny working set — through the full pipeline. This is the edge the
// zero-instruction weight guards (xbsim.CrossPoints.ForBinary and the
// experiment pipeline's recalcWeights) defend: a binary whose
// recalculation pass executes nothing used to divide 0/0 into NaN VLI
// weights that flowed silently into EstCPI. The weight-sum invariant
// rejects NaN and non-distribution weights, so a regression of either
// guard — or any generator change that lets a degenerate program reach
// the division — fails here rather than corrupting estimates.
func TestCheckProgramEdgeSpec(t *testing.T) {
	edge := program.Spec{
		TargetOps: 1, // wraps to minSpecOps, the smallest legal run
		Behaviors: 1,
		Segments:  1,
		WSLadder:  []uint64{1 << 10},
	}
	cfg := Config{IntervalSize: 2000, MaxK: 2}
	pr := CheckProgram(context.Background(), edge, cfg)
	if pr.Err != "" {
		t.Fatalf("edge spec broke the pipeline: %s", pr.Err)
	}
	for _, c := range pr.Checks {
		if !c.OK {
			t.Errorf("edge spec: %s failed: %s", c.Name, c.Detail)
		}
	}
}

func TestCheckProgramOpsOverride(t *testing.T) {
	s := program.RandomSpec(9, 0)
	cfg := small
	cfg.TargetOps = 90_000
	pr := CheckProgram(context.Background(), s, cfg)
	if pr.Err != "" {
		t.Fatalf("pipeline failed: %s", pr.Err)
	}
	if pr.Spec.TargetOps != 90_000 {
		t.Fatalf("spec ops %d, want override 90000", pr.Spec.TargetOps)
	}
}

// TestCheckBenchmarkAllInvariantsHold checks named benchmarks — the
// `xbsim verify` path — including applu, whose variable length intervals
// are the suite's outliers.
func TestCheckBenchmarkAllInvariantsHold(t *testing.T) {
	in := xbsim.Input{Name: "ref", Seed: 404}
	for _, name := range []string{"gzip", "applu", "gcc"} {
		bench, err := xbsim.NewBenchmark(name, 250_000)
		if err != nil {
			t.Fatal(err)
		}
		pr := CheckBenchmark(context.Background(), bench, in, Config{})
		if pr.Err != "" {
			t.Fatalf("%s: pipeline failed: %s", name, pr.Err)
		}
		if pr.Name != name || len(pr.Checks) != len(Invariants) {
			t.Fatalf("%s: result %q with %d checks, want %d", name, pr.Name, len(pr.Checks), len(Invariants))
		}
		for _, c := range pr.Checks {
			if !c.OK {
				t.Errorf("%s: %s failed: %s", name, c.Name, c.Detail)
			}
		}
	}
}

// A single binary has no cross-binary mapping: the pipeline failure is
// recorded, not returned or panicked on.
func TestCheckBenchmarkSingleBinary(t *testing.T) {
	bench, err := xbsim.NewBenchmark("art", 250_000)
	if err != nil {
		t.Fatal(err)
	}
	bench.Binaries = bench.Binaries[:1]
	pr := CheckBenchmark(context.Background(), bench, xbsim.Input{Name: "ref"}, Config{})
	if pr.Err == "" || pr.OK() {
		t.Fatalf("single binary checked without a pipeline error: %+v", pr)
	}
}

func TestCheckSymbolCountsDetectsMismatch(t *testing.T) {
	mk := func(name string, procs ...profile.ProcProfile) *xbsim.Profile {
		return &xbsim.Profile{Binary: &xbsim.Binary{Name: name}, Procs: procs}
	}
	a := mk("p.32u", profile.ProcProfile{Symbol: "main", Count: 1}, profile.ProcProfile{Symbol: "f", Count: 7})
	b := mk("p.32o", profile.ProcProfile{Symbol: "main", Count: 1}) // f inlined away
	if c := checkSymbolCounts([]*xbsim.Profile{a, b}); !c.OK {
		t.Fatalf("a symbol missing from one binary failed the check: %s", c.Detail)
	}
	bad := mk("p.64u", profile.ProcProfile{Symbol: "main", Count: 1}, profile.ProcProfile{Symbol: "f", Count: 8})
	c := checkSymbolCounts([]*xbsim.Profile{a, b, bad})
	if c.OK || !strings.Contains(c.Detail, `"f" called 7 times in p.32u, 8 in p.64u`) {
		t.Fatalf("count mismatch not reported: %+v", c)
	}
}

// Each check reads the harness' products, so doctoring one product must
// fail exactly the check that reads it, under its own name; and
// checkIntervalCoverage must flag primary intervals below the target it
// is given.
func TestCheckIntervalCoverageDetectsUndersized(t *testing.T) {
	bench, err := xbsim.NewBenchmark("gzip", 250_000)
	if err != nil {
		t.Fatal(err)
	}
	in := xbsim.Input{Name: "ref", Seed: 404}
	ctx := context.Background()
	acfg := xbsim.ExperimentConfig{IntervalSize: 8000, MaxK: 6, Workers: 1, Input: in}
	a, err := xbsim.Analyze(ctx, bench.Binaries, acfg)
	if err != nil {
		t.Fatal(err)
	}
	cp, sets, ests, err := measure(ctx, a, in)
	if err != nil {
		t.Fatal(err)
	}
	if cp.NumIntervals() < 3 {
		t.Fatalf("only %d intervals", cp.NumIntervals())
	}
	for _, c := range []Check{
		checkMarkerCounts(a.Profiles, cp),
		checkBoundaryTranslate(cp),
		checkIntervalCoverage(cp, sets, a.Profiles, 8000),
		checkWeightSum(cp, sets),
		checkCPISanity(bench.Binaries, ests, 2),
		budgetVerdict(0.1, 0.35, 6, 12),
	} {
		if !c.OK {
			t.Fatalf("%s fails on undoctored products: %s", c.Name, c.Detail)
		}
	}
	fails := func(what string, c Check, name, detail string) {
		t.Helper()
		if c.OK || c.Name != name || !strings.Contains(c.Detail, detail) {
			t.Errorf("%s: got %+v, want %s failing with %q", what, c, name, detail)
		}
	}

	// withPoint doctors mapping point i on a copy of cp.
	withPoint := func(i int, doctor func(pt *mapping.Point)) *xbsim.CrossPoints {
		m := *cp.Mapping
		m.Points = append([]mapping.Point(nil), m.Points...)
		doctor(&m.Points[i])
		c := *cp
		c.Mapping = &m
		return &c
	}
	fails("a point's count +1", checkMarkerCounts(a.Profiles, withPoint(0, func(pt *mapping.Point) { pt.Count++ })),
		"marker-counts", "recorded")
	end := cp.Ends()[0]
	pi, ok := cp.Mapping.PointOfMarker(cp.Primary, end.Marker)
	if !ok {
		t.Fatalf("boundary marker %d is not a mappable point", end.Marker)
	}
	fails("a boundary count beyond its point's count",
		checkBoundaryTranslate(withPoint(pi, func(pt *mapping.Point) { pt.Count = end.Count - 1 })),
		"boundary-translate", "outside [1,")

	// withSet doctors binary b's point set on a copy of sets.
	withSet := func(b int, doctor func(ps *xbsim.PointSet)) []*xbsim.PointSet {
		out := append([]*xbsim.PointSet(nil), sets...)
		ps := *sets[b]
		ps.Weights = append([]float64(nil), ps.Weights...)
		ps.Instructions = append([]uint64(nil), ps.Instructions...)
		doctor(&ps)
		out[b] = &ps
		return out
	}
	fails("four times the target", checkIntervalCoverage(cp, sets, a.Profiles, 32_000),
		"interval-coverage", "below the 32000 target")
	fails("an emptied interval count", checkIntervalCoverage(cp, withSet(1, func(ps *xbsim.PointSet) { ps.Instructions[1] = 0 }), a.Profiles, 8000),
		"interval-coverage", "interval 1 of")
	profiles := append([]*xbsim.Profile(nil), a.Profiles...)
	p2 := *profiles[2]
	p2.TotalInstructions++
	profiles[2] = &p2
	fails("an uncovered instruction", checkIntervalCoverage(cp, sets, profiles, 8000),
		"interval-coverage", "intervals cover")
	fails("a weight +0.01", checkWeightSum(cp, withSet(2, func(ps *xbsim.PointSet) { ps.Weights[0] += 0.01 })),
		"weight-sum", "want 1")
	fails("a bound of 1e-12", checkCPISanity(bench.Binaries, ests, 1e-12), "cpi-sanity", "exceeds")
	fails("errHi > errLo+slack", budgetVerdict(0.1, 0.36, 6, 12), "budget-monotonicity", "exceeds slack")

	// budget-monotonicity's baseline estimates are hi at the default
	// budget and lo at an explicit one.
	for _, tc := range []struct{ budget, baseline int }{{0, sampler.DefaultBudget}, {5, 5}} {
		strat := acfg
		strat.Sampler, strat.SamplerBudget = "stratified", tc.budget
		sa, err := a.Repick(strat)
		if err != nil {
			t.Fatal(err)
		}
		_, _, sests, err := measure(ctx, sa, in)
		if err != nil {
			t.Fatal(err)
		}
		c := checkBudgetMonotonicity(ctx, a, strat, sests)
		if want := fmt.Sprintf("%.4f at budget %d", meanCPIError(sests), tc.baseline); !c.OK || !strings.Contains(c.Detail, want) {
			t.Errorf("budget %d: %+v, want the baseline's %q", tc.budget, c, want)
		}
	}

	// The checks that walk the binaries walk under the check's context.
	done, cancel := context.WithCancel(ctx)
	cancel()
	strat := acfg
	strat.Sampler = "stratified"
	for _, c := range []Check{
		checkOrderInvariance(done, bench.Binaries, acfg, cp, sets),
		checkWorkerInvariance(done, bench.Binaries, acfg, cp),
		checkBudgetMonotonicity(done, a, strat, ests),
	} {
		if c.OK || !strings.Contains(c.Detail, "context canceled") {
			t.Errorf("%s under a cancelled context: %+v", c.Name, c)
		}
	}
}

// TestCheckBenchmarkWalkCount pins what one checked program costs in
// walks: the analysis (5), one weight and one estimate walk per binary
// (8), order-invariance's analysis and weight walks (9) and
// worker-invariance's analysis (5); under stratified, budget-monotonicity
// adds one weight and one estimate walk per binary for its re-pick (8).
func TestCheckBenchmarkWalkCount(t *testing.T) {
	for _, tc := range []struct {
		sampler string
		walks   uint64
	}{{"", 27}, {"stratified", 35}} {
		o := obs.New()
		cfg := small
		cfg.Sampler = tc.sampler
		pr := CheckProgram(obs.With(context.Background(), o), program.RandomSpec(1, 0), cfg)
		if !pr.OK() {
			t.Fatalf("sampler %q: program not OK: %+v", tc.sampler, pr)
		}
		if got := o.Metrics.Counter("exec.runs").Value(); got != tc.walks {
			t.Errorf("sampler %q: exec.runs = %d, want %d", tc.sampler, got, tc.walks)
		}
	}
}
