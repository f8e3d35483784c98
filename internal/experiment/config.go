// Package experiment orchestrates the paper's evaluation: for each
// benchmark it builds the four binaries, profiles them, runs per-binary
// SimPoint (FLI) and cross-binary mappable SimPoint (VLI), simulates the
// chosen regions on the CMP$im substitute, and compares both estimates
// against full-run simulation. The outputs feed Figures 1-5 and Tables
// 2-3 (internal/report renders them).
package experiment

import (
	"fmt"
	"reflect"
	"runtime"

	"xbsim/internal/cmpsim"
	"xbsim/internal/compiler"
	"xbsim/internal/mapping"
	"xbsim/internal/pool"
	"xbsim/internal/program"
	"xbsim/internal/sampler"
)

// Config parameterizes a full evaluation sweep.
type Config struct {
	// Benchmarks are the benchmark names to run (program.Benchmarks()
	// subset). Empty means all.
	Benchmarks []string
	// TargetOps scales each benchmark's total abstract operation count.
	TargetOps uint64
	// IntervalSize is the interval size in dynamic instructions: the FLI
	// size for every binary and the minimum VLI size on the primary. The
	// paper uses 100M; the synthetic runs are ~1000x smaller.
	IntervalSize uint64
	// MaxK caps SimPoint clusters; the paper uses 10.
	MaxK int
	// Dim is SimPoint's projection dimensionality (paper/SimPoint: 15).
	Dim int
	// BICThreshold is SimPoint's model-selection threshold (default 0.9).
	BICThreshold float64
	// Restarts is the per-k k-means restart count.
	Restarts int
	// Seed names the top-level random stream.
	Seed string
	// Input is the program input (the "ref" input).
	Input program.Input
	// Hierarchy is the simulated memory system (defaults to Table 1).
	Hierarchy cmpsim.HierarchyConfig
	// Mapping tunes the mappable-point matchers.
	Mapping mapping.Options
	// Primary selects the primary binary by index into
	// compiler.AllTargets (default 0 = 32-bit unoptimized).
	Primary int
	// EarlyTolerance > 0 enables early simulation points: each phase
	// picks the earliest interval within (1 + tolerance) of the
	// centroid-closest one, trading a little representativeness for less
	// fast-forwarding (Perelman et al., PACT 2003).
	EarlyTolerance float64
	// Sampler selects the point-selection backend: "simpoint" (default,
	// empty means simpoint) runs the SimPoint k-means picker unchanged;
	// "stratified" runs two-phase stratified sampling (see
	// internal/sampler). For non-default backends the choice joins the
	// checkpoint fingerprint, so results from different backends never
	// cross-contaminate.
	Sampler string
	// SamplerBudget is the stratified backend's deep-simulation budget
	// (total simulation points per clustering run). <= 0 means the
	// backend default (12). Ignored by the simpoint backend.
	SamplerBudget int
	// SamplerStrata caps the stratified backend's stratum count. <= 0
	// means the backend default (8). Ignored by the simpoint backend.
	SamplerStrata int
	// Parallelism caps concurrent benchmark pipelines (default NumCPU).
	Parallelism int
	// Workers bounds the intra-benchmark worker pool: per-binary profile
	// walks, the SimPoint k sweep and its k-means restarts, and
	// per-binary evaluation all draw from one shared pool of this size.
	// Results are bit-identical for every value — all randomness is
	// per-index seeded and results are collected by index — so Workers
	// trades only wall clock, never output. Default GOMAXPROCS; 1 runs
	// the pipeline serially.
	Workers int
	// CheckpointDir, when set, persists each completed benchmark's
	// result as an atomically written JSON checkpoint carrying a
	// fingerprint, and makes RunCtx skip benchmarks whose checkpoints
	// validate against the current configuration — so a killed suite
	// resumes where it stopped. Invalid or corrupt checkpoints are
	// detected by fingerprint mismatch and recomputed.
	CheckpointDir string
	// SharedPool, when non-nil, is used as the suite's intra-benchmark
	// worker pool instead of a fresh pool of Workers goroutines. The
	// serve scheduler installs one pool shared by every concurrent job so
	// the whole process, not each suite, is bounded by one worker budget
	// (the pool's caller-participates token scheme makes cross-suite
	// sharing deadlock-free). Like Workers, this is a wall-clock knob:
	// results are bit-identical with or without it.
	SharedPool *pool.Pool
	// coldStart measures every simulation point from cold caches, as a
	// checkpoint-driven simulator without warm-up does, instead of from
	// the caches functional warming leaves: each pick runs two cold
	// walks per binary (see walk3.go). Only the warming ablation and
	// tests set it.
	coldStart bool
	// workerPool is the shared bounded pool threaded through the
	// pipeline. The suite installs one pool for all its benchmarks so
	// they share a single Workers budget.
	workerPool *pool.Pool
}

// QuickConfig is a reduced configuration for tests and go-test benches:
// five representative benchmarks at small scale.
func QuickConfig() Config {
	cfg := FullConfig()
	cfg.Benchmarks = []string{"gcc", "apsi", "applu", "mcf", "swim"}
	cfg.TargetOps = 1_200_000
	cfg.IntervalSize = 12_000
	return cfg
}

// FullConfig is the paper-shaped configuration: all 21 benchmarks, four
// binaries each, ~100+ intervals per run.
func FullConfig() Config {
	return Config{
		Benchmarks:   program.Benchmarks(),
		TargetOps:    8_000_000,
		IntervalSize: 60_000,
		MaxK:         10,
		Dim:          15,
		BICThreshold: 0.9,
		Restarts:     5,
		Seed:         "xbsim",
		Input:        program.Input{Name: "ref", Seed: 0x5EED},
		Hierarchy:    cmpsim.DefaultHierarchyConfig(),
	}
}

// prepareSide returns c with every pick-side setting zeroed: the
// sampler, its budget and strata, MaxK, Dim, BICThreshold, Restarts,
// EarlyTolerance, Seed and coldStart. Walks 1–3 read none of them, so
// configs with equal prepare sides share one prepare per benchmark.
func (c Config) prepareSide() Config {
	c.Sampler, c.SamplerBudget, c.SamplerStrata = "", 0, 0
	c.MaxK, c.Dim, c.Restarts = 0, 0, 0
	c.BICThreshold, c.EarlyTolerance = 0, 0
	c.Seed = ""
	c.coldStart = false
	return c
}

// SamePrepare reports whether a and b differ only in pick-side settings
// (prepareSide), so that picks under b may read walks made under a.
func SamePrepare(a, b Config) bool {
	return reflect.DeepEqual(a.prepareSide(), b.prepareSide())
}

// pool returns the worker pool c's stages fan out on: the suite's, else
// SharedPool, else a fresh pool of Workers.
func (c Config) pool() *pool.Pool {
	switch {
	case c.workerPool != nil:
		return c.workerPool
	case c.SharedPool != nil:
		return c.SharedPool
	}
	return pool.New(c.Workers)
}

func (c Config) withDefaults() (Config, error) {
	if len(c.Benchmarks) == 0 {
		c.Benchmarks = program.Benchmarks()
	}
	if c.TargetOps == 0 {
		c.TargetOps = 8_000_000
	}
	if c.IntervalSize == 0 {
		c.IntervalSize = 60_000
	}
	if c.MaxK <= 0 {
		c.MaxK = 10
	}
	if c.Dim <= 0 {
		c.Dim = 15
	}
	if c.BICThreshold <= 0 {
		c.BICThreshold = 0.9
	}
	if c.Restarts <= 0 {
		c.Restarts = 5
	}
	if c.Seed == "" {
		c.Seed = "xbsim"
	}
	if c.Input == (program.Input{}) {
		c.Input = program.Input{Name: "ref", Seed: 0x5EED}
	}
	if len(c.Hierarchy.Levels) == 0 {
		c.Hierarchy = cmpsim.DefaultHierarchyConfig()
	}
	if c.Primary < 0 || c.Primary >= len(compiler.AllTargets) {
		return c, fmt.Errorf("experiment: primary binary index %d out of range", c.Primary)
	}
	if c.Sampler == "" {
		c.Sampler = sampler.BackendSimPoint
	}
	if _, err := sampler.New(c.Sampler); err != nil {
		return c, fmt.Errorf("experiment: %w", err)
	}
	if c.Parallelism <= 0 {
		c.Parallelism = runtime.GOMAXPROCS(0)
	}
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	return c, nil
}
