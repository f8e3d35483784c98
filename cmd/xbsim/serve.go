package main

import (
	"context"
	"fmt"
	"io"
	"os"
	"runtime"
	"time"

	"xbsim/internal/faults"
	"xbsim/internal/obs"
	"xbsim/internal/serve"
)

// cmdServe runs the durable analysis service. The service drains
// gracefully on SIGINT/SIGTERM: admission closes, running suites
// checkpoint and re-spool, and the process exits 0 with every accepted
// job journaled in the spool for the next start to resume.
func cmdServe(ctx context.Context, args []string, w io.Writer) error {
	fs := newFlagSet("serve")
	addr := fs.String("addr", "127.0.0.1:8080", "listen address")
	spool := fs.String("spool", "", "durable job spool directory (required)")
	concurrency := fs.Int("concurrency", 2, "jobs executed in parallel")
	maxPending := fs.Int("max-pending", 64, "pending-queue depth cap; beyond it submissions get 429")
	workers := fs.Int("workers", 0, "worker pool shared by all jobs (0 = GOMAXPROCS)")
	inject := fs.String("inject", "", "fault rules to inject, comma-separated stage@index:kind (testing; serve.crash simulates process death)")
	if err := parseFlags(fs, args); err != nil {
		return err
	}
	if *inject != "" {
		rules, err := faults.ParseRules(*inject)
		if err != nil {
			return usageError{err}
		}
		ctx = faults.With(ctx, faults.NewInjector(rules...))
	}
	if *spool == "" {
		return usagef("-spool is required")
	}

	o := obs.From(ctx)
	if o == nil {
		o = obs.New()
		o.Events = obs.NewRecorder(obs.DefaultRecorderCapacity)
		ctx = obs.With(ctx, o)
	} else if o.Events == nil {
		o.Events = obs.NewRecorder(obs.DefaultRecorderCapacity)
	}
	s, err := serve.Start(ctx, serve.Options{
		Addr:        *addr,
		Spool:       *spool,
		Concurrency: *concurrency,
		MaxPending:  *maxPending,
		Workers:     *workers,
		Observer:    o,
	})
	if err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "xbsim: serving on http://%s (spool %s, %d slot(s), %d worker(s))\n",
		s.Addr(), *spool, *concurrency, poolSize(*workers))

	// Block until SIGINT/SIGTERM cancels the context, then drain. The
	// shutdown gets its own deadline — the triggering context is already
	// canceled.
	<-ctx.Done()
	fmt.Fprintln(os.Stderr, "xbsim: draining...")
	sctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	if err := s.Shutdown(sctx); err != nil {
		return fmt.Errorf("serve: shutdown: %w", err)
	}
	fmt.Fprintln(os.Stderr, "xbsim: drained, all accepted jobs journaled")
	return nil
}

func poolSize(workers int) int {
	if workers > 0 {
		return workers
	}
	return runtime.GOMAXPROCS(0)
}
