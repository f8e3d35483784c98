package main

import (
	"fmt"
	"strings"

	"xbsim/internal/experiment"
	"xbsim/internal/sampler"
)

// Load settings shared by every workload, fixed whatever the host's CPU
// count: one process with two OS threads, two pipeline workers, two
// concurrent benchmark pipelines (or serve job slots).
const (
	procs       = 2
	workers     = 2
	parallelism = 2
)

// workload is one named input set. Batch workloads are closed loops of
// experiment.RunCtx suite runs over Config; serve-mixed (Config nil) is
// an open-loop traffic mix against an in-process service.
type workload struct {
	Name string
	// Config builds the batch suite for a seed; smoke shrinks it to a
	// few hundred milliseconds for the smoke test.
	Config func(seed uint64, smoke bool) experiment.Config
}

// workloads lists every workload in the default run order. Why each was
// chosen is in README.md.
var workloads = []workload{
	{Name: "paper-full", Config: paperFull},
	{Name: "fine-simpoint", Config: fineSimPoint},
	{Name: "fine-stratified", Config: fineStratified},
	{Name: "serve-mixed"},
}

// paperFull is the paper's shape: 21 benchmarks, four binaries each,
// 8M operations, 60k-instruction intervals, SimPoint.
func paperFull(seed uint64, smoke bool) experiment.Config {
	cfg := experiment.FullConfig()
	if smoke {
		cfg.Benchmarks = []string{"gzip", "swim"}
		cfg.TargetOps = 300_000
		cfg.IntervalSize = 6_000
	}
	return batchSettings(cfg, seed)
}

// fineSimPoint is the quick suite at a quarter of its interval size, so
// clustering sees four times the intervals.
func fineSimPoint(seed uint64, smoke bool) experiment.Config {
	cfg := experiment.QuickConfig()
	cfg.IntervalSize = 3_000
	if smoke {
		cfg.Benchmarks = []string{"gcc", "swim"}
		cfg.TargetOps = 200_000
		cfg.IntervalSize = 2_000
	}
	return batchSettings(cfg, seed)
}

// fineStratified runs fineSimPoint's programs and intervals through the
// stratified sampler, which bypasses k-means.
func fineStratified(seed uint64, smoke bool) experiment.Config {
	cfg := fineSimPoint(seed, smoke)
	cfg.Sampler = sampler.BackendStratified
	return cfg
}

func batchSettings(cfg experiment.Config, seed uint64) experiment.Config {
	cfg.Input.Seed = seed
	cfg.Workers = workers
	cfg.Parallelism = parallelism
	return cfg
}

// serveConfig is what every serve-mixed job runs: the quick suite's
// settings at the service load test's scale (400k operations, 8k
// intervals). The jobs carry synthesized program specs, not benchmarks.
func serveConfig() experiment.Config {
	cfg := experiment.QuickConfig()
	cfg.TargetOps = 400_000
	cfg.IntervalSize = 8_000
	return cfg
}

// findWorkloads resolves a comma-separated list of names ("all" for
// every workload) in the order given.
func findWorkloads(list string) ([]workload, error) {
	if list == "all" {
		return workloads, nil
	}
	var out []workload
	for _, name := range strings.Split(list, ",") {
		found := false
		for _, w := range workloads {
			if w.Name == name {
				out = append(out, w)
				found = true
			}
		}
		if !found {
			return nil, fmt.Errorf("unknown workload %q", name)
		}
	}
	return out, nil
}
