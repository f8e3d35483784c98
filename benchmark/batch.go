package main

import (
	"bytes"
	"context"
	"fmt"
	"runtime"
	"strings"
	"time"

	"xbsim/internal/experiment"
	"xbsim/internal/program"
)

// batchRunner drives one batch workload: a closed loop of suite runs,
// each started when the previous one returns.
type batchRunner struct {
	name string
	cfg  experiment.Config
	opts childOptions
	// want is the suite fingerprint every run must produce: the recorded
	// one for this workload and seed, or else the first run's.
	want string
}

func newBatchRunner(w workload, opts childOptions) *batchRunner {
	b := &batchRunner{name: w.Name, cfg: w.Config(opts.Seed, opts.Smoke), opts: opts}
	if !opts.Smoke {
		b.want = expected[w.Name][fmt.Sprint(opts.Seed)]
	}
	return b
}

func (b *batchRunner) close() error { return nil }

// measure runs whole suites back to back until another run would end
// past d, then reports their wall time, instruction rate and
// allocation. The reference runs before the first suite and then after
// every refEvery of suites, one slice per refEvery the block took, so
// it costs the same share of every workload's time; each suite's wall
// time is normalised by the mean slice on either side of its block.
func (b *batchRunner) measure(ctx context.Context, d time.Duration, ref *reference, r *result) {
	var wallMS, normMS, mips, allocMB []float64
	var first *experiment.Suite
	var block []time.Duration // wall times since the last slice
	start := time.Now()
	before := ref.slices(1)
	last := time.Now()
	for {
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		t := time.Now()
		suite, err := experiment.RunCtx(ctx, b.cfg)
		wall := time.Since(t)
		runtime.ReadMemStats(&m1)
		r.Attempted++
		if err == nil {
			err = b.check(suite)
		}
		if err != nil {
			r.failOp("run %d: %v", r.Attempted, err)
		} else {
			if first == nil {
				first = suite
			}
			wallMS = append(wallMS, ms(wall))
			block = append(block, wall)
			mips = append(mips, float64(instructions(suite))/wall.Seconds()/1e6)
			allocMB = append(allocMB, mb(m1.TotalAlloc-m0.TotalAlloc))
		}
		done := ctx.Err() != nil || time.Since(start)+wall > d
		if took := time.Since(last); done || took >= refEvery {
			after := ref.slices(int(took / refEvery))
			for _, w := range block {
				normMS = append(normMS, normalised(w, (before+after)/2))
			}
			block, before, last = nil, after, time.Now()
		}
		if done {
			break
		}
	}
	r.set("norm_latency_ms", sampled("ms", normMS))
	r.set("latency_p50_ms", sampled("ms", wallMS))
	r.set("minstr_per_s", sampled("Minstr/s", mips))
	r.set("alloc_mb", sampled("MB", allocMB))
	if first != nil {
		accuracy(first, "", r)
	}
}

// check compares a suite's fingerprint with the one every run must
// produce.
func (b *batchRunner) check(s *experiment.Suite) error {
	if len(s.Failures) > 0 {
		return fmt.Errorf("%d benchmark(s) failed: %s", len(s.Failures), s.Failures[0].Err)
	}
	fp := s.Fingerprint()
	switch {
	case b.want == "":
		b.want = fp
	case fp != b.want:
		return fmt.Errorf("suite fingerprint %s, want %s", fp, b.want)
	}
	return nil
}

// layers is the traced pass: each benchmark run directly and replayed
// layer by layer (serially, see layerPass), the spool and journal
// microbenchmarks, and the workload's first benchmark served as a job.
// The serve and job-queue layers are measured here too because a traced
// run reports every per-layer metric of BENCHMARK.json, whatever the
// workload.
func (b *batchRunner) layers(ctx context.Context, d time.Duration, _ *reference, spans *spanLog, r *result) {
	serial := b.cfg
	serial.Workers, serial.Parallelism = 1, 1
	items := make([]replayItem, len(serial.Benchmarks))
	for i, name := range serial.Benchmarks {
		one := serial
		one.Benchmarks = []string{name}
		items[i] = replayItem{
			name: name,
			gen: func() (*program.Program, error) {
				return program.Generate(name, program.GenConfig{TargetOps: serial.TargetOps})
			},
			direct: func(ctx context.Context) (*experiment.Suite, error) { return experiment.RunCtx(ctx, one) },
		}
	}
	suite := layerPass(ctx, serial, items, d, spans, r)
	if suite == nil {
		return
	}
	r.Attempted++
	if err := b.check(suite); err != nil {
		r.failOp("direct runs: %v", err)
		return
	}
	accuracy(suite, "experiment.", r)

	var payload bytes.Buffer
	if err := suite.WriteJSON(&payload); err != nil {
		r.failOp("rendering the suite: %v", err)
		return
	}
	microbench(b.opts, payload.Bytes(), spans, r)
	one := b.cfg
	one.Benchmarks = one.Benchmarks[:1]
	want := (&experiment.Suite{Results: suite.Results[:1]}).Fingerprint()
	serveProbe(ctx, b.opts, one, want, spans, r)
}

// accuracy publishes what the suite says about the paper's claims: the
// Figure 3 CPI errors, the mean of the Figures 4-5 VLI speedup errors,
// and the share of dynamic instructions VLI simulates in detail.
func accuracy(s *experiment.Suite, prefix string, r *result) {
	avg := func(fs experiment.FigureSeries) float64 { return fs.Values[len(fs.Values)-1] }
	fig3 := s.Figure3()
	r.set(prefix+"cpi_err_fli_pct", single("%", 100*avg(fig3.Series[0])))
	r.set(prefix+"cpi_err_vli_pct", single("%", 100*avg(fig3.Series[1])))
	var sum float64
	var n int
	for _, f := range []*experiment.Figure{s.Figure4(), s.Figure5()} {
		for _, fs := range f.Series {
			if strings.HasPrefix(fs.Name, "vli_") {
				sum += avg(fs)
				n++
			}
		}
	}
	r.set(prefix+"speedup_err_vli_pct", single("%", 100*sum/float64(n)))
	var simulated uint64
	for _, br := range s.Results {
		for _, run := range br.Runs {
			simulated += run.VLI.SimulatedInstructions
		}
	}
	r.set(prefix+"sim_instr_frac_vli_pct", single("%", 100*float64(simulated)/float64(instructions(s))))
}

// instructions is the suite's dynamic instruction count over every
// binary.
func instructions(s *experiment.Suite) uint64 {
	var n uint64
	for _, br := range s.Results {
		for _, run := range br.Runs {
			n += run.TotalInstructions
		}
	}
	return n
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

func mb(bytes uint64) float64 { return float64(bytes) / 1e6 }
