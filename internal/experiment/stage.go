package experiment

import (
	"context"
	"errors"
	"fmt"

	"xbsim/internal/faults"
	"xbsim/internal/obs"
	"xbsim/internal/pool"
)

// runStage runs one pipeline stage once: the injector's stage hook,
// then fn under panic isolation (a stage-level panic becomes a
// *pool.PanicError). Stages are deterministic, so a failure is final:
// the benchmark fails, and recovery from process death is the
// checkpoint's job, not a retry's. fn receives ctx, which carries the
// observer and the fault injector.
//
// The attempt is accounted as a resource sample
// (stage.<name>.duration_us/alloc_bytes/gc_cycles/goroutines_peak, see
// obs.StageSample) and journaled in the flight recorder as
// stage.start/stage.finish/stage.fail events.
func runStage(ctx context.Context, bench, stage string, fn func(ctx context.Context) error) error {
	o := obs.From(ctx)
	// The submission's correlation ID rides the context from the serving
	// layer; stamping it here tags stage events even when the recorder is
	// shared (the CLI path) rather than per-job. Zero-cost when absent.
	trace := obs.TraceIDFrom(ctx)
	o.Emit(obs.PipelineEvent{Kind: "stage.start", Benchmark: bench, Stage: stage, Trace: trace})
	err := pool.Protect(func() error {
		if err := faults.Hit(ctx, stage); err != nil {
			return err
		}
		sample := o.StartStage(stage)
		defer sample.Done()
		return fn(ctx)
	})
	if err == nil {
		o.Emit(obs.PipelineEvent{Kind: "stage.finish", Benchmark: bench, Stage: stage, Trace: trace})
		return nil
	}
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
