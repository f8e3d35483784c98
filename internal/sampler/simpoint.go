package sampler

import (
	"context"

	"xbsim/internal/bbv"
	"xbsim/internal/simpoint"
)

// simpointSampler adapts simpoint.PickCtx to the Sampler interface. The
// Config mapping is one-to-one and adds nothing, so picks through this
// backend are bit-identical to calling simpoint.PickCtx directly — the
// package tests pin that with result fingerprints, and the unchanged
// golden files pin it at pipeline level.
type simpointSampler struct{}

func (simpointSampler) Name() string { return BackendSimPoint }

func (simpointSampler) Pick(ctx context.Context, ds *bbv.Dataset, cfg Config) (*simpoint.Result, error) {
	return simpoint.PickCtx(ctx, ds, simpoint.Config{
		MaxK:           cfg.MaxK,
		Dim:            cfg.Dim,
		BICThreshold:   cfg.BICThreshold,
		Restarts:       cfg.Restarts,
		Seed:           cfg.Seed,
		EarlyTolerance: cfg.EarlyTolerance,
		Pool:           cfg.Pool,
	})
}
