package experiment

import (
	"context"
	"errors"
	"runtime"
	"strings"
	"testing"
	"time"

	"xbsim/internal/faults"
	"xbsim/internal/obs"
	"xbsim/internal/program"
)

// programSpecForTest is a small deterministic spec for pipeline tests.
func programSpecForTest(t *testing.T) program.Spec {
	t.Helper()
	return program.RandomSpec(42, 0)
}

// isolationBenchmarks is the two-benchmark suite the fault-isolation
// tests run: one benchmark takes the fault, the other must not notice.
var isolationBenchmarks = []string{"gzip", "swim"}

// fingerprints maps each result in s to its fingerprint.
func fingerprints(s *Suite) map[string]string {
	fps := map[string]string{}
	for _, r := range s.Results {
		fps[r.Name] = r.Fingerprint()
	}
	return fps
}

// runIsolated runs cfg's suite with one injected rule and checks that
// the fault failed exactly one benchmark, in stage, recorded in
// Suite.Failures and by one stage.fail event (plus a panic event for a
// panic rule), while every other benchmark is bit-identical to clean.
// A rule that fails nothing (a delay) must leave every benchmark
// identical. It returns the observer for further checks.
func runIsolated(t *testing.T, cfg Config, clean map[string]string, rule faults.Rule, stage string) *obs.Observer {
	t.Helper()
	o := obs.New()
	ctx := obs.With(faults.With(context.Background(), faults.NewInjector(rule)), o)
	suite, err := RunCtx(ctx, cfg)
	if suite == nil {
		t.Fatalf("suite discarded: %v", err)
	}
	if n := o.Counter("pipeline.faults_injected." + rule.Stage).Value(); n != 1 {
		t.Fatalf("faults_injected.%s = %d, want 1", rule.Stage, n)
	}
	for _, r := range suite.Results {
		if got, want := r.Fingerprint(), clean[r.Name]; got != want {
			t.Errorf("%s diverged from the fault-free run: %s != %s", r.Name, got, want)
		}
	}
	kinds := map[string]int{}
	for _, ev := range o.Events.Events() {
		kinds[ev.Kind]++
		if ev.Kind == "stage.fail" && ev.Stage != stage {
			t.Errorf("stage.fail in %q, want %q: %+v", ev.Stage, stage, ev)
		}
	}
	if stage == "" {
		if err != nil || len(suite.Results) != len(clean) || kinds["stage.fail"] != 0 {
			t.Fatalf("a fault that fails nothing failed the suite: %v (%d results)", err, len(suite.Results))
		}
		return o
	}
	if !faults.Injected(err) {
		t.Fatalf("suite error %v does not carry the injected fault", err)
	}
	if len(suite.Failures) != 1 || len(suite.Results) != len(clean)-1 {
		t.Fatalf("failures %+v with %d results, want exactly one failed benchmark", suite.Failures, len(suite.Results))
	}
	if !strings.Contains(suite.Failures[0].Err, "injected") {
		t.Errorf("failure record does not name the fault: %+v", suite.Failures[0])
	}
	wantPanics := 0
	if rule.Kind == faults.KindPanic {
		wantPanics = 1
	}
	if kinds["stage.fail"] != 1 || kinds["panic"] != wantPanics {
		t.Errorf("event kinds = %v, want one stage.fail and %d panic", kinds, wantPanics)
	}
	return o
}

// An injected error or panic at any layer of the pipeline — a stage
// hook, a pool-fanned task, a walk — fails exactly the benchmark it
// lands in; a delay succeeds in place. Nothing is retried: stages are
// deterministic, so a real failure would repeat.
func TestInjectedFaultFailsOnlyItsBenchmark(t *testing.T) {
	clean, err := RunCtx(context.Background(), testConfig(isolationBenchmarks...))
	if err != nil {
		t.Fatal(err)
	}
	base := fingerprints(clean)
	for _, tc := range []struct {
		rule  faults.Rule
		stage string // the stage that fails; "" when nothing may fail
	}{
		{faults.Rule{Stage: "compile", Kind: faults.KindError}, "compile"},
		{faults.Rule{Stage: "profile.task", Index: 1, Kind: faults.KindPanic}, "profile"},
		{faults.Rule{Stage: "mapping", Kind: faults.KindError}, "mapping"},
		{faults.Rule{Stage: "clustering.task", Kind: faults.KindPanic}, "clustering"},
		{faults.Rule{Stage: "evaluate.task", Index: 2, Kind: faults.KindPanic}, "evaluate"},
		{faults.Rule{Stage: "clustering.task", Kind: faults.KindDelay, Delay: 2 * time.Millisecond}, ""},
	} {
		t.Run(tc.rule.Stage+"/"+tc.rule.Kind.String(), func(t *testing.T) {
			runIsolated(t, testConfig(isolationBenchmarks...), base, tc.rule, tc.stage)
		})
	}
}

// A failing benchmark (here an unknown one) must not stop the rest of
// the suite: it completes: partial results plus an explicit
// failure record, returned alongside the joined error.
func TestSuiteSurvivesFailingBenchmark(t *testing.T) {
	o := obs.New()
	ctx := obs.With(context.Background(), o)
	cfg := testConfig("gzip", "nosuch")
	suite, err := RunCtx(ctx, cfg)
	if err == nil {
		t.Fatal("suite with an unknown benchmark reported success")
	}
	if !strings.Contains(err.Error(), "nosuch") {
		t.Fatalf("joined error does not name the failed benchmark: %v", err)
	}
	if suite == nil {
		t.Fatal("failure discarded the partial suite")
	}
	if len(suite.Results) != 1 || suite.Results[0].Name != "gzip" {
		t.Fatalf("partial results = %+v, want [gzip]", suite.Results)
	}
	if len(suite.Failures) != 1 || suite.Failures[0].Name != "nosuch" {
		t.Fatalf("failures = %+v, want [nosuch]", suite.Failures)
	}
	if suite.ByName("gzip") == nil || suite.ByName("nosuch") != nil {
		t.Fatal("ByName inconsistent with partial results")
	}
	if n := o.Counter("pipeline.benchmarks_failed").Value(); n != 1 {
		t.Fatalf("benchmarks_failed = %d, want 1", n)
	}
}

// Cancelling the suite context mid-run must abort promptly with a
// wrapped context.Canceled and leak no goroutines.
func TestSuiteCancellation(t *testing.T) {
	before := runtime.NumGoroutine()
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(30 * time.Millisecond)
		cancel()
	}()
	_, err := RunCtx(ctx, testConfig("gcc", "apsi", "applu", "mcf"))
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled suite returned %v, want wrapped context.Canceled", err)
	}
	// All pipeline goroutines (benchmark runners, pool helpers) must
	// wind down once cancellation propagates.
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before+2 {
		if time.Now().After(deadline) {
			t.Fatalf("goroutines leaked after cancellation: %d before, %d after",
				before, runtime.NumGoroutine())
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// A hang fault must be interruptible by the parent context. (The
// job-level deadline ends one too: jobqueue's TestJobDeadline.)
func TestHangFaultYieldsToParentCancellation(t *testing.T) {
	inj := faults.NewInjector(
		faults.Rule{Stage: "vli", Index: 0, Kind: faults.KindHang},
	)
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(50 * time.Millisecond)
		cancel()
	}()
	start := time.Now()
	_, err := runBenchmark(faults.With(ctx, inj), "mcf", testConfig("mcf"))
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("hung benchmark returned %v, want wrapped context.Canceled", err)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("cancellation took %v", elapsed)
	}
}

// RunSpecsCtx must push a synthesized spec through the same pipeline and
// produce the spec-named result deterministically.
func TestRunSpecDeterministic(t *testing.T) {
	spec := programSpecForTest(t)
	cfg := testConfig()
	run := func() *BenchmarkResult {
		s, err := RunSpecsCtx(context.Background(), []program.Spec{spec}, cfg)
		if err != nil {
			t.Fatal(err)
		}
		return s.Results[0]
	}
	a, b := run(), run()
	if a.Name != spec.Name() {
		t.Fatalf("result name %q, want %q", a.Name, spec.Name())
	}
	if a.Fingerprint() != b.Fingerprint() {
		t.Fatalf("spec runs diverged: %s != %s", a.Fingerprint(), b.Fingerprint())
	}
}

// A faulted run with a flight recorder attached must journal the stage
// lifecycle up to the fault, the fired fault, and the stage's failure
// as structured events.
func TestFlightRecorderJournalsFaults(t *testing.T) {
	inj := faults.NewInjector(
		faults.Rule{Stage: "mapping", Index: 0, Kind: faults.KindError},
	)
	o := obs.New()
	ctx := obs.With(faults.With(context.Background(), inj), o)
	if _, err := runBenchmark(ctx, "gzip", testConfig("gzip")); err == nil {
		t.Fatal("faulted benchmark succeeded")
	}
	kinds := map[string]int{}
	for _, ev := range o.Events.Events() {
		kinds[ev.Kind]++
		switch ev.Kind {
		case "fault":
			if ev.Stage != "mapping" || !strings.Contains(ev.Detail, "error fault") {
				t.Errorf("fault event = %+v", ev)
			}
		case "stage.fail":
			if ev.Stage != "mapping" || ev.Benchmark != "gzip" || !strings.Contains(ev.Detail, "injected error fault") {
				t.Errorf("fail event = %+v", ev)
			}
		}
	}
	// compile and profile start and finish; mapping starts, takes the
	// fault and fails; nothing after it runs.
	if kinds["stage.start"] != 3 || kinds["stage.finish"] != 2 {
		t.Errorf("stage lifecycle events = %v, want 3 starts / 2 finishes", kinds)
	}
	if kinds["fault"] != 1 || kinds["stage.fail"] != 1 {
		t.Errorf("event kinds = %v", kinds)
	}
}
