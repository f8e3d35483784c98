package invariant

import (
	"context"
	"reflect"
	"strings"
	"testing"

	"xbsim"
	"xbsim/internal/obs"
	"xbsim/internal/profile"
	"xbsim/internal/program"
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

// checkIntervalCoverage must flag primary intervals below the target it
// is given: checking against four times the target the intervals were
// built for has to fail on a run with several intervals.
func TestCheckIntervalCoverageDetectsUndersized(t *testing.T) {
	bench, err := xbsim.NewBenchmark("gzip", 250_000)
	if err != nil {
		t.Fatal(err)
	}
	in := xbsim.Input{Name: "ref", Seed: 404}
	ctx := context.Background()
	a, err := xbsim.Analyze(ctx, bench.Binaries, xbsim.ExperimentConfig{IntervalSize: 8000, MaxK: 6, Workers: 1, Input: in})
	if err != nil {
		t.Fatal(err)
	}
	cp, err := a.CrossBinaryPoints(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if cp.NumIntervals() < 3 {
		t.Fatalf("only %d intervals", cp.NumIntervals())
	}
	profiles := a.Profiles
	if c := checkIntervalCoverage(cp, in, profiles, 8000); !c.OK {
		t.Fatalf("intervals fail at their own target: %s", c.Detail)
	}
	if c := checkIntervalCoverage(cp, in, profiles, 32_000); c.OK || !strings.Contains(c.Detail, "below the 32000 target") {
		t.Fatalf("undersized intervals not reported: %+v", c)
	}
	profiles[2].TotalInstructions++
	if c := checkIntervalCoverage(cp, in, profiles, 8000); c.OK || !strings.Contains(c.Detail, "intervals cover") {
		t.Fatalf("uncovered instruction not reported: %+v", c)
	}
}
