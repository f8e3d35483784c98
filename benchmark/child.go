package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"time"
)

// childEnv selects the child role when the benchmark re-executes
// itself: "setup" sets the workload up and exits, "run" sets it up and
// measures it, "sweep" measures serve-mixed without the reference.
// Each workload runs in its own process so its set-up time and peak
// memory are its own.
const childEnv = "XBBENCH_CHILD"

// readyLine is what a child prints once set-up is done; the parent's
// set-up time is the time from starting the child to reading it.
const readyLine = "xbbench: ready"

// childDeadline bounds a child's whole life, so a hung workload fails
// instead of outliving the benchmark's time limit.
const childDeadline = 170 * time.Second

// childOptions are the settings a child runs under.
type childOptions struct {
	Workload string
	Seed     uint64
	Seconds  int
	Trace    bool
	Smoke    bool
	Workdir  string
	// Rate is serve-mixed's arrival rate in jobs per second.
	Rate float64
}

// traceOut is where a traced run writes its spans.
func (o childOptions) traceOut() string {
	return filepath.Join(o.Workdir, o.Workload+".trace.json")
}

func (o childOptions) args() []string {
	args := []string{"-workload", o.Workload, "-seed", fmt.Sprint(o.Seed),
		"-seconds", fmt.Sprint(o.Seconds), "-workdir", o.Workdir, "-rate", fmt.Sprint(o.Rate)}
	if o.Trace {
		args = append(args, "-trace", "1")
	}
	if o.Smoke {
		args = append(args, "-smoke")
	}
	return args
}

// result is one workload run: its checks and every metric it measured.
type result struct {
	Workload  string            `json:"workload"`
	Seed      uint64            `json:"seed"`
	Trace     bool              `json:"trace"`
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Problems  []string          `json:"problems,omitempty"`
	Metrics   map[string]metric `json:"metrics"`
	// ReferenceMB is the resident memory of the reference tables, which
	// the parent takes off the child's peak.
	ReferenceMB float64 `json:"reference_mb,omitempty"`
}

// failOp records a failed operation.
func (r *result) failOp(format string, args ...any) {
	r.Failed++
	r.invalid(format, args...)
}

// invalid records a problem that makes the run's results untrustworthy
// without being one operation's failure.
func (r *result) invalid(format string, args ...any) {
	r.Problems = append(r.Problems, fmt.Sprintf(format, args...))
}

// set records a metric; one with no samples is left out.
func (r *result) set(name string, m metric) {
	if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
		return
	}
	r.Metrics[name] = m
}

// Validity limits: a traced run whose replay strays this far from the
// pipeline, or a serve-mixed run whose load generator fell this far
// behind its schedule, did not measure what it reports.
const (
	coverageLow, coverageHigh = 85, 115 // trace.coverage_pct, %
	maxLateMS                 = 20      // loadgen.late_ms_p95
)

// checkValidity applies the validity limits to a finished run.
func checkValidity(r *result) {
	if c, ok := r.Metrics["trace.coverage_pct"]; ok && (c.Value < coverageLow || c.Value > coverageHigh) {
		r.invalid("trace coverage %.1f%% is outside %d-%d%% of the direct runs", c.Value, coverageLow, coverageHigh)
	}
	if l, ok := r.Metrics["loadgen.late_ms_p95"]; ok && l.Value > maxLateMS {
		r.invalid("the load generator ran %.1f ms late at p95 (limit %d ms)", l.Value, maxLateMS)
	}
}

// runner measures one workload after set-up.
type runner interface {
	// measure runs the timed phase for d with tracing off, timing ref
	// next to it. Only serve-mixed takes a nil ref, in a sweep.
	measure(ctx context.Context, d time.Duration, ref *reference, r *result)
	// layers is the traced pass that gives the per-layer metrics;
	// serve-mixed runs its traffic as measure does.
	layers(ctx context.Context, d time.Duration, ref *reference, spans *spanLog, r *result)
	close() error
}

// setup prepares a workload: batch workloads build their configuration,
// serve-mixed starts its service and waits until it is ready.
func setup(ctx context.Context, w workload, opts childOptions) (runner, error) {
	if w.Config == nil {
		return newServeRunner(ctx, opts)
	}
	return newBatchRunner(w, opts), nil
}

// childMain is the child process: set up, announce readiness, measure,
// and print the result as one JSON line.
func childMain(role string, args []string, stdout, stderr io.Writer) int {
	runtime.GOMAXPROCS(procs)
	fs := flag.NewFlagSet("xbbench child", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var o childOptions
	var trace int
	fs.StringVar(&o.Workload, "workload", "", "")
	fs.Uint64Var(&o.Seed, "seed", 0, "")
	fs.IntVar(&o.Seconds, "seconds", 0, "")
	fs.IntVar(&trace, "trace", 0, "")
	fs.BoolVar(&o.Smoke, "smoke", false, "")
	fs.StringVar(&o.Workdir, "workdir", "", "")
	fs.Float64Var(&o.Rate, "rate", arrivalRate, "")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	o.Trace = trace != 0
	ws, err := findWorkloads(o.Workload)
	if err != nil || len(ws) != 1 {
		fmt.Fprintf(stderr, "xbbench: child needs one workload, got %q\n", o.Workload)
		return 2
	}

	ctx, cancel := context.WithTimeout(context.Background(), childDeadline)
	defer cancel()
	rn, err := setup(ctx, ws[0], o)
	if err != nil {
		fmt.Fprintf(stderr, "xbbench: %s set-up: %v\n", o.Workload, err)
		return 1
	}
	fmt.Fprintln(stdout, readyLine)
	if role == "setup" {
		if err := rn.close(); err != nil {
			fmt.Fprintf(stderr, "xbbench: %s: %v\n", o.Workload, err)
			return 1
		}
		return 0
	}

	r := &result{Workload: o.Workload, Seed: o.Seed, Trace: o.Trace, Metrics: map[string]metric{}}
	d := time.Duration(o.Seconds) * time.Second
	if role == "sweep" {
		// One unbroken open loop, with no pauses for the reference, so
		// a backlog can build over the whole run.
		rn.measure(ctx, d, nil, r)
	} else {
		withReference(r, func(ref *reference) {
			if !o.Trace {
				rn.measure(ctx, d, ref, r)
				return
			}
			spans := newSpanLog()
			rn.layers(ctx, d, ref, spans, r)
			if err := writeSpans(spans, o.traceOut()); err != nil {
				r.invalid("writing spans: %v", err)
			}
		})
	}
	if err := rn.close(); err != nil {
		r.invalid("closing %s: %v", o.Workload, err)
	}
	if !o.Smoke {
		// A smoke run checks plumbing, often under the race detector,
		// where neither limit can hold.
		checkValidity(r)
	}
	if r.Attempted > 0 {
		r.set("failed_frac", single("fraction", float64(r.Failed)/float64(r.Attempted)))
	}
	r.Correct = r.Failed == 0 && len(r.Problems) == 0
	line, err := json.Marshal(r)
	if err != nil {
		fmt.Fprintf(stderr, "xbbench: encoding the result: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	return 0
}

// withReference calls measure with the reference kernel mapped.
func withReference(r *result, measure func(ref *reference)) {
	ref, err := newReference()
	if err != nil {
		r.invalid("%v", err)
		return
	}
	measure(ref)
	r.ReferenceMB = ref.residentMB()
	if err := ref.close(); err != nil {
		r.invalid("unmapping the reference tables: %v", err)
	}
}

func writeSpans(spans *spanLog, path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := spans.writeChrome(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
