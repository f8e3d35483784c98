// Package sampler puts point selection behind a pluggable interface.
//
// The paper's pipeline picks one representative interval per SimPoint
// phase; PAPERS.md's "CPU Simulation Using Two-Phase Stratified Sampling"
// (Ekman, NVIDIA) reaches equal CPI error with fewer simulated
// instructions by stratifying intervals with a cheap pass and spending a
// fixed deep-simulation budget where the within-stratum variance says it
// matters. Both designs answer the same question — which intervals do we
// simulate in detail, and with what weights — so they share one contract:
// a Sampler consumes a bbv.Dataset and produces a *simpoint.Result
// (points, per-interval phase labels, phase weights). Everything
// downstream — evaluation, weight recalculation per binary, memoization,
// fingerprints, goldens — is backend-agnostic.
//
// Backends are addressed by name ("simpoint", "stratified") so the choice
// threads through experiment.Config, checkpoint fingerprints, and the CLI
// as a plain string.
package sampler

import (
	"context"
	"fmt"
	"strings"

	"xbsim/internal/bbv"
	"xbsim/internal/pool"
	"xbsim/internal/simpoint"
)

// Backend names. BackendSimPoint is the default and preserves the
// pre-refactor pipeline bit for bit.
const (
	BackendSimPoint   = "simpoint"
	BackendStratified = "stratified"
)

// Backends returns the known backend names in stable order.
func Backends() []string { return []string{BackendSimPoint, BackendStratified} }

// Config carries every knob any backend needs; each backend reads its
// own subset and ignores the rest. Zero values select the backend's
// defaults, so a Config valid for SimPoint is valid for stratified too.
type Config struct {
	// MaxK, Dim, BICThreshold, Restarts, and EarlyTolerance are
	// the SimPoint knobs; see simpoint.Config. The stratified backend
	// reuses Dim-independent cheap features and ignores these.
	MaxK           int
	Dim            int
	BICThreshold   float64
	Restarts       int
	EarlyTolerance float64
	// Seed names the deterministic random stream. Both backends derive
	// every draw from it, so equal (backend, seed, dataset) means equal
	// output regardless of worker count.
	Seed string
	// Pool, when non-nil, parallelizes the SimPoint k-sweep. The
	// stratified backend is cheap enough to run serially and ignores it
	// (which is also what makes its worker-invariance trivial).
	Pool *pool.Pool
	// Budget is the stratified deep-simulation budget: the total number
	// of simulation points drawn across all strata. <= 0 means 12. It is
	// capped at the interval count.
	Budget int
	// Strata caps how many strata the cheap pass may split the intervals
	// into. <= 0 means 8. It is capped at Budget (every nonempty stratum
	// receives at least one point, so more strata than budget would
	// starve some below 1).
	Strata int
}

// Sampler selects simulation points from an interval dataset. Pick must
// be deterministic in (dataset, Config.Seed) — bit-identical output at
// any worker count — because the invariant harness and the
// fault-isolation tests pin its fingerprints.
type Sampler interface {
	// Name returns the backend name, one of Backends().
	Name() string
	// Pick selects the simulation points.
	Pick(ctx context.Context, ds *bbv.Dataset, cfg Config) (*simpoint.Result, error)
}

// New returns the named backend. The empty string selects SimPoint, the
// pre-refactor default.
func New(name string) (Sampler, error) {
	switch name {
	case "", BackendSimPoint:
		return simpointSampler{}, nil
	case BackendStratified:
		return stratifiedSampler{}, nil
	}
	return nil, fmt.Errorf("sampler: unknown backend %q (want %s)",
		name, strings.Join(Backends(), " or "))
}
