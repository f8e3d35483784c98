package experiment

import (
	"context"
	"fmt"

	"xbsim/internal/sampler"
)

// This file is the cross-backend sampler comparison harness: it runs the
// same suite under every sampler backend (and, for budgeted backends,
// several budgets) and reduces each run to the two numbers the backends
// compete on — CPI estimation error and detailed-simulation cost. The
// JSON tags shape the `xbsim samplers -json` output.

// SamplerRow is one (backend, budget) configuration's aggregate outcome
// over the whole suite.
type SamplerRow struct {
	// Backend is the sampler backend name (sampler.Backends()).
	Backend string `json:"backend"`
	// Budget is the point budget the backend ran with; 0 for backends
	// without a budget knob (simpoint chooses K by BIC).
	Budget int `json:"budget,omitempty"`
	// Benchmarks and Binaries count the completed benchmarks and the
	// binary runs aggregated below.
	Benchmarks int `json:"benchmarks"`
	Binaries   int `json:"binaries"`
	// FLIPoints and VLIPoints are the total simulation points chosen
	// across all binary runs, per method.
	FLIPoints int `json:"fliPoints"`
	VLIPoints int `json:"vliPoints"`
	// TotalInstructions is the summed dynamic instruction count of every
	// binary run — the denominator of the simulated fractions.
	TotalInstructions uint64 `json:"totalInstructions"`
	// FLISimulatedInstructions / VLISimulatedInstructions are the summed
	// detailed-simulation costs per method.
	FLISimulatedInstructions uint64 `json:"fliSimulatedInstructions"`
	VLISimulatedInstructions uint64 `json:"vliSimulatedInstructions"`
	// FLISimulatedFraction / VLISimulatedFraction are the costs as
	// fractions of TotalInstructions.
	FLISimulatedFraction float64 `json:"fliSimulatedFraction"`
	VLISimulatedFraction float64 `json:"vliSimulatedFraction"`
	// FLIMeanCPIError / VLIMeanCPIError are the mean per-binary CPI
	// error magnitudes per method.
	FLIMeanCPIError float64 `json:"fliMeanCPIError"`
	VLIMeanCPIError float64 `json:"vliMeanCPIError"`
	// Failures counts benchmarks that did not complete under this
	// configuration.
	Failures int `json:"failures"`
}

// SamplerComparison is a full backend-comparison run.
type SamplerComparison struct {
	// Benchmarks is the suite the rows were measured on.
	Benchmarks []string `json:"benchmarks"`
	// Rows holds one entry per (backend, budget) configuration, in the
	// order they ran: simpoint first, then stratified per budget.
	Rows []SamplerRow `json:"rows"`
}

// CompareSamplers runs cfg's suite once per sampler configuration —
// the simpoint backend, then the stratified backend at each budget in
// budgets (default {8, 16}) — and aggregates each run into one
// SamplerRow. Backends share everything but point selection: each
// benchmark's walks 1–3 run once and every configuration picks from
// them, with the same seeds. A benchmark failure degrades the row
// (counted in Failures, aggregates cover the completed benchmarks); only
// a configuration with zero completed benchmarks aborts the comparison.
func CompareSamplers(ctx context.Context, cfg Config, budgets []int) (*SamplerComparison, error) {
	if len(budgets) == 0 {
		budgets = []int{8, 16}
	}
	c := cfg
	c.Sampler, c.SamplerBudget = sampler.BackendSimPoint, 0
	cfgs := []Config{c}
	for _, b := range budgets {
		if b <= 0 {
			return nil, fmt.Errorf("experiment: sampler budget %d must be positive", b)
		}
		c.Sampler, c.SamplerBudget = sampler.BackendStratified, b
		cfgs = append(cfgs, c)
	}
	suites, err := runVariants(ctx, cfgs)
	if suites == nil {
		return nil, err
	}
	cmp := &SamplerComparison{Benchmarks: cfg.Benchmarks}
	for v, suite := range suites {
		backend, budget := cfgs[v].Sampler, cfgs[v].SamplerBudget
		if len(suite.Results) == 0 {
			return nil, fmt.Errorf("experiment: sampler %s%s: %w", backend, budgetSuffix(budget), err)
		}
		cmp.Rows = append(cmp.Rows, reduceSuite(suite, backend, budget))
	}
	return cmp, nil
}

// budgetSuffix renders "/<budget>" for budgeted configurations.
func budgetSuffix(budget int) string {
	if budget <= 0 {
		return ""
	}
	return fmt.Sprintf("/%d", budget)
}

// reduceSuite folds one suite run into its comparison row.
func reduceSuite(s *Suite, backend string, budget int) SamplerRow {
	row := SamplerRow{
		Backend:    backend,
		Budget:     budget,
		Benchmarks: len(s.Results),
		Failures:   len(s.Failures),
	}
	var fliErr, vliErr float64
	for _, r := range s.Results {
		for _, run := range r.Runs {
			row.Binaries++
			row.FLIPoints += run.FLI.NumPoints
			row.VLIPoints += run.VLI.NumPoints
			row.TotalInstructions += run.TotalInstructions
			row.FLISimulatedInstructions += run.FLI.SimulatedInstructions
			row.VLISimulatedInstructions += run.VLI.SimulatedInstructions
			fliErr += run.FLI.CPIError
			vliErr += run.VLI.CPIError
		}
	}
	if row.Binaries > 0 {
		row.FLIMeanCPIError = fliErr / float64(row.Binaries)
		row.VLIMeanCPIError = vliErr / float64(row.Binaries)
	}
	if row.TotalInstructions > 0 {
		row.FLISimulatedFraction = float64(row.FLISimulatedInstructions) / float64(row.TotalInstructions)
		row.VLISimulatedFraction = float64(row.VLISimulatedInstructions) / float64(row.TotalInstructions)
	}
	return row
}
