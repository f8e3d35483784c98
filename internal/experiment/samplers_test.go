package experiment

import (
	"context"
	"math"
	"strings"
	"testing"

	"xbsim/internal/faults"
	"xbsim/internal/sampler"
)

// TestStratifiedWorkersDeterminism extends the parallelism contract to
// the stratified backend: a Workers=1 suite and a Workers=8 suite must
// produce bit-identical MethodStats. The stratified sampler is serial
// arithmetic on deterministic streams, so worker count must never leak
// into its picks. Run under -race in CI.
func TestStratifiedWorkersDeterminism(t *testing.T) {
	mk := func(workers int) Config {
		cfg := testConfig("gzip", "art")
		cfg.Sampler = sampler.BackendStratified
		cfg.SamplerBudget = 7
		cfg.Workers = workers
		return cfg
	}
	serial, err := RunCtx(context.Background(), mk(1))
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := RunCtx(context.Background(), mk(8))
	if err != nil {
		t.Fatal(err)
	}
	if len(serial.Results) != len(parallel.Results) {
		t.Fatalf("result counts differ: %d vs %d", len(serial.Results), len(parallel.Results))
	}
	for i, sr := range serial.Results {
		pr := parallel.Results[i]
		for bi, srun := range sr.Runs {
			prun := pr.Runs[bi]
			label := sr.Name + "/" + srun.Binary.Name
			sameMethodStats(t, label+"/FLI", srun.FLI, prun.FLI)
			sameMethodStats(t, label+"/VLI", srun.VLI, prun.VLI)
			if srun.FLI.SimulatedInstructions != prun.FLI.SimulatedInstructions ||
				srun.VLI.SimulatedInstructions != prun.VLI.SimulatedInstructions {
				t.Errorf("%s: simulated-instruction counts differ: FLI %d/%d VLI %d/%d", label,
					srun.FLI.SimulatedInstructions, prun.FLI.SimulatedInstructions,
					srun.VLI.SimulatedInstructions, prun.VLI.SimulatedInstructions)
			}
		}
	}
}

// TestSimulatedInstructionsAccounting checks the cost metric the
// backend comparison is built on: every method reports a positive
// detailed-simulation cost no larger than the full run.
func TestSimulatedInstructionsAccounting(t *testing.T) {
	suite, err := RunCtx(context.Background(), testConfig("swim"))
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range suite.Results {
		for _, run := range r.Runs {
			for label, ms := range map[string]*MethodStats{"FLI": &run.FLI, "VLI": &run.VLI} {
				if ms.SimulatedInstructions == 0 {
					t.Errorf("%s/%s/%s: zero simulated instructions", r.Name, run.Binary.Name, label)
				}
				if ms.SimulatedInstructions > run.TotalInstructions {
					t.Errorf("%s/%s/%s: simulated %d exceeds total %d",
						r.Name, run.Binary.Name, label, ms.SimulatedInstructions, run.TotalInstructions)
				}
			}
		}
	}
}

func TestCompareSamplers(t *testing.T) {
	cfg := testConfig("swim", "gzip")
	cmp, err := CompareSamplers(context.Background(), cfg, []int{4, 8})
	if err != nil {
		t.Fatal(err)
	}
	if len(cmp.Rows) != 3 {
		t.Fatalf("%d rows, want 3 (simpoint + 2 stratified budgets)", len(cmp.Rows))
	}
	if cmp.Rows[0].Backend != sampler.BackendSimPoint || cmp.Rows[0].Budget != 0 {
		t.Fatalf("first row %+v, want simpoint without budget", cmp.Rows[0])
	}
	for i, budget := range []int{4, 8} {
		row := cmp.Rows[i+1]
		if row.Backend != sampler.BackendStratified || row.Budget != budget {
			t.Fatalf("row %d = %s/%d, want stratified/%d", i+1, row.Backend, row.Budget, budget)
		}
	}
	for _, row := range cmp.Rows {
		if row.Benchmarks != 2 || row.Binaries != 8 || row.Failures != 0 {
			t.Fatalf("row %s/%d aggregates %d benchmarks %d binaries %d failures",
				row.Backend, row.Budget, row.Benchmarks, row.Binaries, row.Failures)
		}
		if row.TotalInstructions == 0 ||
			row.FLISimulatedInstructions == 0 || row.VLISimulatedInstructions == 0 {
			t.Fatalf("row %s/%d has zero instruction accounting: %+v", row.Backend, row.Budget, row)
		}
		for _, frac := range []float64{row.FLISimulatedFraction, row.VLISimulatedFraction} {
			if frac <= 0 || frac > 1 {
				t.Fatalf("row %s/%d simulated fraction %v outside (0,1]", row.Backend, row.Budget, frac)
			}
		}
		for _, e := range []float64{row.FLIMeanCPIError, row.VLIMeanCPIError} {
			if math.IsNaN(e) || e < 0 {
				t.Fatalf("row %s/%d mean CPI error %v", row.Backend, row.Budget, e)
			}
		}
	}
	// The stratified budget knob must show up as monotone cost: budget 8
	// simulates at least as many instructions as budget 4.
	if cmp.Rows[2].VLISimulatedInstructions < cmp.Rows[1].VLISimulatedInstructions {
		t.Errorf("budget 8 simulated %d VLI instructions, budget 4 %d — budget knob not driving cost",
			cmp.Rows[2].VLISimulatedInstructions, cmp.Rows[1].VLISimulatedInstructions)
	}
}

func TestCompareSamplersRejectsBadBudget(t *testing.T) {
	_, err := CompareSamplers(context.Background(), testConfig("swim"), []int{0})
	if err == nil || !strings.Contains(err.Error(), "must be positive") {
		t.Fatalf("err = %v, want budget validation failure", err)
	}
}

// TestStratifiedFaultFailsOnlyItsBenchmark checks the stratified
// phases as fault stages: a fault injected at sampler.stratify or
// sampler.allocate fails the enclosing clustering stage of exactly one
// benchmark, and the other is bit-identical to the fault-free run.
func TestStratifiedFaultFailsOnlyItsBenchmark(t *testing.T) {
	mk := func() Config {
		cfg := testConfig(isolationBenchmarks...)
		cfg.Sampler = sampler.BackendStratified
		cfg.SamplerBudget = 6
		return cfg
	}
	clean, err := RunCtx(context.Background(), mk())
	if err != nil {
		t.Fatal(err)
	}
	base := fingerprints(clean)
	for _, rule := range []faults.Rule{
		{Stage: "sampler.stratify", Index: 0, Kind: faults.KindError},
		{Stage: "sampler.allocate", Index: 1, Kind: faults.KindError},
	} {
		t.Run(rule.Stage, func(t *testing.T) {
			runIsolated(t, mk(), base, rule, "clustering")
		})
	}
}

// TestUnknownSamplerRejected pins config validation: a typo'd backend
// fails fast at defaulting time, not deep inside the pipeline.
func TestUnknownSamplerRejected(t *testing.T) {
	cfg := testConfig("swim")
	cfg.Sampler = "quantum"
	if _, err := RunCtx(context.Background(), cfg); err == nil || !strings.Contains(err.Error(), "unknown backend") {
		t.Fatalf("err = %v, want unknown backend", err)
	}
}
