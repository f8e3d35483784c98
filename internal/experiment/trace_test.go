package experiment

import (
	"context"
	"runtime"
	"testing"

	"xbsim/internal/obs"
)

// Tracing is observation, and observation must change nothing: the same
// configuration run with a trace ID and a full observer on the context
// must fingerprint identically to a bare run — serially and at
// GOMAXPROCS parallelism.
func TestTracingDoesNotPerturbResults(t *testing.T) {
	for _, workers := range []int{1, runtime.GOMAXPROCS(0)} {
		cfg := testConfig("gzip", "art")
		cfg.Workers = workers

		bare, err := RunCtx(context.Background(), cfg)
		if err != nil {
			t.Fatal(err)
		}

		o := obs.New()
		o.Events.SetTrace("t-determinism")
		ctx := obs.WithTraceID(obs.With(context.Background(), o), "t-determinism")
		traced, err := RunCtx(ctx, cfg)
		if err != nil {
			t.Fatal(err)
		}

		if bf, tf := bare.Fingerprint(), traced.Fingerprint(); bf != tf {
			t.Fatalf("workers=%d: traced fingerprint %s != bare %s — tracing perturbed the pipeline",
				workers, tf, bf)
		}

		// And the observation actually happened: stage events exist and
		// every one carries the trace.
		evs := o.Events.Events()
		if len(evs) == 0 {
			t.Fatalf("workers=%d: traced run recorded no events", workers)
		}
		for _, ev := range evs {
			if ev.Trace != "t-determinism" {
				t.Fatalf("workers=%d: event %q carries trace %q", workers, ev.Kind, ev.Trace)
			}
		}
	}
}
