package main

import (
	"context"
	"errors"
	"fmt"
	"io"
	"time"

	"xbsim/internal/experiment"
	"xbsim/internal/faults"
	"xbsim/internal/obs"
	"xbsim/internal/program"
)

// cmdChaos is the fault-tolerance acceptance harness: it pushes the
// selfcheck population of randomized programs through the benchmark
// pipeline twice — once clean, once under a randomized fault schedule
// with retries enabled — and asserts that every faulted run that
// recovers is bit-identical (by result fingerprint) to its fault-free
// baseline. Runs whose fault schedule outlasts the retry budget are
// tolerated and reported; a fingerprint mismatch fails the command,
// because it means fault handling changed the numbers.
func cmdChaos(ctx context.Context, args []string, w io.Writer) error {
	fs := newFlagSet("chaos")
	n := fs.Int("programs", 10, "number of randomized programs to run")
	seed := fs.Uint64("seed", 1, "spec distribution and fault-plan seed (same seed = same schedules)")
	nFaults := fs.Int("faults", 3, "faults injected per faulted run")
	retries := fs.Int("retries", 3, "retry budget per pipeline stage")
	stageTimeout := fs.Duration("stage-timeout", 10*time.Second, "per-stage deadline (bounds hang faults)")
	ops := fs.Uint64("ops", 0, "override every program's operation count (0 = keep each spec's own scale)")
	interval := fs.Uint64("interval", 8000, "interval size in instructions")
	workers := fs.Int("workers", 0, "worker pool size (0 = GOMAXPROCS, 1 = serial; never changes the numbers)")
	inject := fs.String("inject", "", "fixed fault rules stage@index:kind[:duration] instead of random plans")
	sampler, samplerBudget := samplerFlags(fs)
	if err := parseFlags(fs, args); err != nil {
		return err
	}
	if *n <= 0 {
		return usagef("-programs must be positive")
	}
	if *nFaults < 0 {
		return usagef("-faults must be non-negative")
	}
	fixed := []faults.Rule(nil)
	if *inject != "" {
		var err error
		if fixed, err = faults.ParseRules(*inject); err != nil {
			return usageError{err}
		}
	}

	cfg := experiment.QuickConfig()
	cfg.IntervalSize = *interval
	cfg.Workers = *workers
	cfg.Seed = fmt.Sprintf("chaos/%d", *seed)
	cfg.Retry = experiment.RetryPolicy{MaxRetries: *retries, BaseDelay: 2 * time.Millisecond, MaxDelay: 50 * time.Millisecond}
	cfg.StageTimeout = *stageTimeout
	cfg.Sampler = *sampler
	cfg.SamplerBudget = *samplerBudget

	fmt.Fprintf(w, "chaos: %d programs, seed %d, %d faults per run, %d retries\n",
		*n, *seed, *nFaults, *retries)
	var identical, exhausted, mismatched int
	for i := 0; i < *n; i++ {
		spec := program.RandomSpec(*seed, i)
		if *ops != 0 {
			spec.TargetOps = *ops
		}
		spec = spec.Normalize()

		baseline, err := runSpec(ctx, spec, cfg)
		if err != nil {
			return fmt.Errorf("chaos: fault-free baseline of %s failed: %w", spec.Name(), err)
		}

		plan := fixed
		if plan == nil {
			plan = faults.RandomPlan(fmt.Sprintf("chaos/%d/%d", *seed, i), experiment.PipelineStages, *nFaults)
		}
		inj := faults.NewInjector(plan...)
		o := obs.New()
		res, err := runSpec(obs.With(faults.With(ctx, inj), o), spec, cfg)
		retried := o.Counter("pipeline.retries").Value()
		switch {
		case err != nil && ctx.Err() != nil:
			return err
		case err != nil && (faults.Injected(err) || errors.Is(err, context.DeadlineExceeded)):
			// The schedule outlasted the retry budget; that is a
			// legitimate outcome, not a correctness failure.
			exhausted++
			fmt.Fprintf(w, "  tol  %-22s retries exhausted after %d retries (%d faults hit)\n",
				spec.Name(), retried, inj.Injected())
		case err != nil:
			return fmt.Errorf("chaos: %s failed with a non-injected error: %w", spec.Name(), err)
		case res.Fingerprint() != baseline.Fingerprint():
			mismatched++
			fmt.Fprintf(w, "  FAIL %-22s fingerprint %s != baseline %s (%d faults, %d retries)\n",
				spec.Name(), res.Fingerprint(), baseline.Fingerprint(), inj.Injected(), retried)
		default:
			identical++
			fmt.Fprintf(w, "  ok   %-22s bit-identical after %d faults, %d retries\n",
				spec.Name(), inj.Injected(), retried)
		}
	}
	fmt.Fprintf(w, "chaos: %d bit-identical, %d exhausted retries, %d mismatched\n",
		identical, exhausted, mismatched)
	if mismatched > 0 {
		return fmt.Errorf("chaos: %d recovered run(s) diverged from the fault-free baseline", mismatched)
	}
	return nil
}

// runSpec runs one spec through the suite pipeline and returns its result.
func runSpec(ctx context.Context, spec program.Spec, cfg experiment.Config) (*experiment.BenchmarkResult, error) {
	s, err := experiment.RunSpecsCtx(ctx, []program.Spec{spec}, cfg)
	if err != nil {
		return nil, err
	}
	return s.Results[0], nil
}
