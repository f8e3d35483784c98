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

// retryConfig is testConfig plus a fast retry policy for fault tests.
func retryConfig(benchmarks ...string) Config {
	cfg := testConfig(benchmarks...)
	cfg.Retry = RetryPolicy{MaxRetries: 3, BaseDelay: time.Millisecond, MaxDelay: 4 * time.Millisecond}
	return cfg
}

// Transient faults across every layer of the pipeline — stage-level
// errors, worker panics, delays — must be retried away, and the
// recovered run must be bit-identical to an undisturbed one.
func TestRetryRecoversInjectedFaults(t *testing.T) {
	baseline, err := runBenchmark(context.Background(), "gzip", testConfig("gzip"))
	if err != nil {
		t.Fatal(err)
	}

	inj := faults.NewInjector(
		faults.Rule{Stage: "compile", Index: 0, Kind: faults.KindError},
		faults.Rule{Stage: "profile.task", Index: 1, Kind: faults.KindPanic},
		faults.Rule{Stage: "mapping", Index: 0, Kind: faults.KindError},
		faults.Rule{Stage: "clustering.task", Index: 0, Kind: faults.KindDelay, Delay: 2 * time.Millisecond},
		faults.Rule{Stage: "evaluate.task", Index: 2, Kind: faults.KindPanic},
	)
	o := obs.New()
	ctx := obs.With(faults.With(context.Background(), inj), o)
	res, err := runBenchmark(ctx, "gzip", retryConfig("gzip"))
	if err != nil {
		t.Fatalf("faulted run failed despite retries: %v", err)
	}
	if got, want := res.Fingerprint(), baseline.Fingerprint(); got != want {
		t.Fatalf("faulted run diverged: %s != %s", got, want)
	}
	if n := o.Counter("pipeline.faults_injected").Value(); n != 5 {
		t.Fatalf("faults_injected = %d, want 5", n)
	}
	// Four faults are errors/panics (one per stage envelope); the delay
	// succeeds in place and must not trigger a retry.
	if n := o.Counter("pipeline.retries").Value(); n != 4 {
		t.Fatalf("retries = %d, want 4", n)
	}
	// Fired faults are attributed to their stage hook, retries to the
	// enclosing stage envelope — the per-stage observability chaos runs
	// rely on.
	for _, hook := range []string{"compile", "profile.task", "mapping", "clustering.task", "evaluate.task"} {
		if n := o.Counter("pipeline.faults_injected." + hook).Value(); n != 1 {
			t.Errorf("faults_injected.%s = %d, want 1", hook, n)
		}
	}
	for stage, want := range map[string]uint64{
		"compile": 1, "profile": 1, "mapping": 1, "evaluate": 1,
		"clustering": 0, // the delay fault succeeds in place
	} {
		if n := o.Counter("pipeline.retries." + stage).Value(); n != want {
			t.Errorf("retries.%s = %d, want %d", stage, n, want)
		}
	}
}

// A hang fault blocks until the stage deadline expires; the expiry is
// transient, so the next attempt must succeed bit-identically.
func TestHangFaultTimesOutAndRetries(t *testing.T) {
	baseline, err := runBenchmark(context.Background(), "mcf", testConfig("mcf"))
	if err != nil {
		t.Fatal(err)
	}
	inj := faults.NewInjector(
		faults.Rule{Stage: "mapping", Index: 0, Kind: faults.KindHang},
	)
	o := obs.New()
	ctx := obs.With(faults.With(context.Background(), inj), o)
	cfg := retryConfig("mcf")
	// The deadline only needs to be far above an honest stage's duration
	// so that exactly the hung attempt expires. Under -race with the full
	// package's heap mapped, a real evaluate attempt can cross 2s, which
	// would burn the retry budget on legitimate work — keep headroom.
	cfg.StageTimeout = 5 * time.Second
	res, err := runBenchmark(ctx, "mcf", cfg)
	if err != nil {
		t.Fatalf("hang was not retried away: %v", err)
	}
	if got, want := res.Fingerprint(), baseline.Fingerprint(); got != want {
		t.Fatalf("post-hang run diverged: %s != %s", got, want)
	}
	if n := o.Counter("pipeline.retries").Value(); n == 0 {
		t.Fatal("hang recovered without a retry")
	}
}

// Faults on more consecutive invocations than the retry budget must
// surface as a failure that still identifies the injected fault.
func TestExhaustedRetriesFailBenchmark(t *testing.T) {
	inj := faults.NewInjector(
		faults.Rule{Stage: "profile", Index: 0, Kind: faults.KindError},
		faults.Rule{Stage: "profile", Index: 1, Kind: faults.KindError},
		faults.Rule{Stage: "profile", Index: 2, Kind: faults.KindError},
	)
	cfg := testConfig("mcf")
	cfg.Retry = RetryPolicy{MaxRetries: 2, BaseDelay: time.Millisecond}
	_, err := runBenchmark(faults.With(context.Background(), inj), "mcf", cfg)
	if err == nil {
		t.Fatal("benchmark succeeded with faults on every attempt")
	}
	if !faults.Injected(err) {
		t.Fatalf("exhausted-retries error lost the injected fault: %v", err)
	}
}

// A deterministic failure (unknown benchmark) must not be retried, and
// the rest of the suite must complete: partial results plus an explicit
// failure record, returned alongside the joined error.
func TestSuiteSurvivesFailingBenchmark(t *testing.T) {
	o := obs.New()
	ctx := obs.With(context.Background(), o)
	cfg := retryConfig("gzip", "nosuch")
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
	// A deterministic failure must fail fast, not burn the retry budget.
	if n := o.Counter("pipeline.retries").Value(); n != 0 {
		t.Fatalf("retries = %d on a deterministic failure, want 0", n)
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
	cfg := testConfig("gcc", "apsi", "applu", "mcf")
	cfg.Retry = RetryPolicy{MaxRetries: 3, BaseDelay: time.Millisecond}
	_, err := RunCtx(ctx, cfg)
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

// A hang fault with no stage deadline must be interruptible by the
// parent context, and the cancellation must not be retried.
func TestHangFaultYieldsToParentCancellation(t *testing.T) {
	inj := faults.NewInjector(
		faults.Rule{Stage: "vli", Index: 0, Kind: faults.KindHang},
	)
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(50 * time.Millisecond)
		cancel()
	}()
	o := obs.New()
	start := time.Now()
	_, err := runBenchmark(obs.With(faults.With(ctx, inj), o), "mcf", retryConfig("mcf"))
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("hung benchmark returned %v, want wrapped context.Canceled", err)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("cancellation took %v", elapsed)
	}
	if n := o.Counter("pipeline.retries").Value(); n != 0 {
		t.Fatalf("retries = %d after parent cancellation, want 0", n)
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
// lifecycle, the fired fault, and the retry as structured events.
func TestFlightRecorderJournalsFaultsAndRetries(t *testing.T) {
	inj := faults.NewInjector(
		faults.Rule{Stage: "mapping", Index: 0, Kind: faults.KindError},
	)
	o := obs.New()
	ctx := obs.With(faults.With(context.Background(), inj), o)
	if _, err := runBenchmark(ctx, "gzip", retryConfig("gzip")); err != nil {
		t.Fatal(err)
	}
	kinds := map[string]int{}
	for _, ev := range o.Events.Events() {
		kinds[ev.Kind]++
		switch ev.Kind {
		case "fault":
			if ev.Stage != "mapping" || !strings.Contains(ev.Detail, "error fault") {
				t.Errorf("fault event = %+v", ev)
			}
		case "stage.retry":
			if ev.Stage != "mapping" || ev.Benchmark != "gzip" {
				t.Errorf("retry event = %+v", ev)
			}
		}
	}
	// Seven stage envelopes start and finish (evaluate runs twice: walk
	// 3 in prepare, the point statistics in pick); the faulted mapping
	// attempt adds one extra start. The fault and the retry each appear
	// exactly once, and nothing failed terminally.
	if kinds["stage.start"] != 8 || kinds["stage.finish"] != 7 {
		t.Errorf("stage lifecycle events = %v, want 8 starts / 7 finishes", kinds)
	}
	if kinds["fault"] != 1 || kinds["stage.retry"] != 1 || kinds["stage.fail"] != 0 {
		t.Errorf("event kinds = %v", kinds)
	}
}
