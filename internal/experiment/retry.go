package experiment

import (
	"context"
	"errors"
	"fmt"
	"time"

	"xbsim/internal/faults"
	"xbsim/internal/obs"
	"xbsim/internal/pool"
	"xbsim/internal/xrand"
)

// RetryPolicy controls how transient pipeline-stage failures are
// retried: capped exponential backoff with deterministic jitter drawn
// from the experiment's seeded random stream, so reruns back off
// identically. The zero value disables retries.
type RetryPolicy struct {
	// MaxRetries is the number of extra attempts after the first failure
	// (0 = fail on the first error).
	MaxRetries int
	// BaseDelay is the backoff before the first retry (default 5ms when
	// retries are enabled).
	BaseDelay time.Duration
	// MaxDelay caps the exponential backoff (default 250ms).
	MaxDelay time.Duration
}

func (p RetryPolicy) withDefaults() RetryPolicy {
	if p.MaxRetries <= 0 {
		return p
	}
	if p.BaseDelay <= 0 {
		p.BaseDelay = 5 * time.Millisecond
	}
	if p.MaxDelay <= 0 {
		p.MaxDelay = 250 * time.Millisecond
	}
	return p
}

// delay returns the backoff before retry attempt (0-based): BaseDelay
// doubled per attempt, capped at MaxDelay, plus deterministic jitter in
// [0, delay/2) so colliding retries decorrelate without a wall-clock or
// global randomness dependency.
func (p RetryPolicy) delay(attempt int, rng *xrand.Stream) time.Duration {
	d := p.BaseDelay
	for i := 0; i < attempt && d < p.MaxDelay; i++ {
		d *= 2
	}
	if d > p.MaxDelay {
		d = p.MaxDelay
	}
	if half := int64(d / 2); half > 0 {
		d += time.Duration(rng.Uint64n(uint64(half)))
	}
	return d
}

// transientError reports whether a stage failure is worth retrying: an
// injected fault (including one recovered from a panic, seen through
// pool.PanicError and errors.Join) or a stage deadline expiry. Everything
// else — a real bug, a cancelled parent context — fails the stage
// immediately, because a deterministic pipeline will fail the same way
// on every attempt.
func transientError(err error) bool {
	if faults.Injected(err) {
		return true
	}
	return errors.Is(err, context.DeadlineExceeded)
}

// runStage runs one pipeline stage with the config's fault-tolerance
// envelope: a per-attempt deadline (Config.StageTimeout), panic
// isolation (a stage-level panic becomes a *pool.PanicError), the
// injector's stage hook, and retries with capped exponential backoff on
// transient failures. fn receives the attempt's context — the stage
// deadline, observer, and fault injector all travel on it — and must be
// idempotent: every attempt starts from scratch, so stages allocate
// their result slots inside fn.
//
// Every attempt is additionally accounted as a resource sample
// (stage.<name>.duration_us/alloc_bytes/gc_cycles/goroutines_peak, see
// obs.StageSample) and journaled in the flight recorder as
// stage.start/stage.finish/stage.retry/stage.fail events.
func runStage(ctx context.Context, cfg Config, bench, stage string, fn func(ctx context.Context) error) error {
	o := obs.From(ctx)
	// The submission's correlation ID rides the context from the serving
	// layer; stamping it here tags stage events even when the recorder is
	// shared (the CLI path) rather than per-job. Zero-cost when absent.
	trace := obs.TraceIDFrom(ctx)
	retry := cfg.Retry.withDefaults()
	var rng *xrand.Stream
	for attempt := 0; ; attempt++ {
		sctx := ctx
		cancel := context.CancelFunc(nil)
		if cfg.StageTimeout > 0 {
			sctx, cancel = context.WithTimeout(ctx, cfg.StageTimeout)
		}
		o.Emit(obs.PipelineEvent{Kind: "stage.start", Benchmark: bench, Stage: stage, Trace: trace})
		err := pool.Protect(func() error {
			if err := faults.Hit(sctx, stage); err != nil {
				return err
			}
			sample := o.StartStage(stage)
			defer sample.Done()
			return fn(sctx)
		})
		if cancel != nil {
			cancel()
		}
		if err == nil {
			o.Emit(obs.PipelineEvent{Kind: "stage.finish", Benchmark: bench, Stage: stage, Trace: trace})
			return nil
		}
		// Never retry when the caller is gone, out of attempts, or the
		// failure is deterministic.
		if ctx.Err() != nil || attempt >= retry.MaxRetries || !transientError(err) {
			// A panic carries its pool location so the trace timeline shows
			// exactly where the stage blew up, not just that it failed.
			var pe *pool.PanicError
			if errors.As(err, &pe) {
				o.Emit(obs.PipelineEvent{Kind: "panic", Benchmark: bench, Stage: stage, Trace: trace,
					Detail: fmt.Sprintf("pool task %d panicked: %v", pe.Index, pe.Value)})
			}
			o.Emit(obs.PipelineEvent{Kind: "stage.fail", Benchmark: bench, Stage: stage, Detail: err.Error(), Trace: trace})
			return err
		}
		o.Counter("pipeline.retries").Inc()
		o.Counter("pipeline.retries." + stage).Inc()
		o.Emit(obs.PipelineEvent{Kind: "stage.retry", Benchmark: bench, Stage: stage, Detail: err.Error(), Trace: trace})
		o.Emit(obs.PipelineEvent{Kind: "progress", Benchmark: bench, Stage: stage + " retry"})
		if rng == nil {
			rng = xrand.New(cfg.Seed + "/backoff/" + bench + "/" + stage)
		}
		if !sleepCtx(ctx, retry.delay(attempt, rng)) {
			return err
		}
	}
}

// sleepCtx sleeps for d or until ctx is done, reporting whether the full
// sleep completed.
func sleepCtx(ctx context.Context, d time.Duration) bool {
	if d <= 0 {
		return true
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return true
	case <-ctx.Done():
		return false
	}
}
