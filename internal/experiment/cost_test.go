package experiment

import (
	"context"
	"strings"
	"testing"

	"xbsim/internal/obs"
)

// TestPipelineAttribution pins where the evaluate stage's cost is
// recorded: the event log holds one stage.full_sim span per binary
// (walk 3, the only walk that runs under default warming), the full
// walk's sim.full counters equal the pipeline's exact totals, each
// method's SimulatedInstructions is a strict part of the run, and the
// full-simulation spans explain the evaluate stage's wall time.
func TestPipelineAttribution(t *testing.T) {
	o := obs.New()
	ctx := obs.With(context.Background(), o)

	cfg := testConfig("gzip")
	// The wall-coverage bound below (span time within the evaluate
	// stage's wall time) holds only when the per-binary walks run one
	// after another; concurrent walks sum to more than the stage took.
	cfg.Workers = 1
	res, err := runBenchmark(ctx, "gzip", cfg)
	if err != nil {
		t.Fatal(err)
	}

	spans := map[string]int{}
	var simUS uint64
	for _, s := range o.Events.Spans() {
		if s.Name == "stage.full_sim" {
			spans[s.Detail]++
			simUS += uint64(s.Dur.Microseconds())
		}
	}
	var wantInstr, wantCycles uint64
	for _, run := range res.Runs {
		if n := spans[run.Binary.Name]; n != 1 {
			t.Errorf("%s: %d stage.full_sim spans, want 1", run.Binary.Name, n)
		}
		for _, m := range []MethodStats{run.FLI, run.VLI} {
			if m.SimulatedInstructions == 0 || m.SimulatedInstructions >= run.TotalInstructions {
				t.Errorf("%s: %d instructions simulated at the points of a %d-instruction run",
					run.Binary.Name, m.SimulatedInstructions, run.TotalInstructions)
			}
		}
		wantInstr += run.TotalInstructions
		wantCycles += run.TrueCycles
	}
	snap := o.Metrics.Snapshot()
	if got := snap.Counters["sim.full.instructions"]; got != wantInstr {
		t.Errorf("sim.full.instructions = %d, want %d", got, wantInstr)
	}
	if got := snap.Counters["sim.full.cycles"]; got != wantCycles {
		t.Errorf("sim.full.cycles = %d, want %d", got, wantCycles)
	}

	// Wall coverage: the full-simulation spans must explain the bulk of
	// the evaluate stage. The CLI reports the exact figure; here the
	// bound is loose (80%) so scheduler noise cannot flake CI.
	stage := snap.Histograms["stage.evaluate.duration_us"]
	if stage.Sum == 0 {
		t.Fatal("stage.evaluate.duration_us not recorded")
	}
	if simUS > stage.Sum {
		t.Errorf("full simulation %dus exceeds evaluate stage %dus", simUS, stage.Sum)
	}
	if float64(simUS) < 0.8*float64(stage.Sum) {
		t.Errorf("full simulation %dus is under 80%% of evaluate stage %dus", simUS, stage.Sum)
	}
}

// TestPerWalkMetricFamilies pins the per-walk families: walk 3 publishes
// its statistics once under sim.full, with the cache event counters, and
// no other sim.* family exists: walks 4/5 are answered from walk 3, and
// the former aggregates "sim" and "sim.gated" and the per-walk
// "sim.fli"/"sim.vli" are gone.
func TestPerWalkMetricFamilies(t *testing.T) {
	o := &obs.Observer{Metrics: obs.NewRegistry()}
	ctx := obs.With(context.Background(), o)
	if _, err := runBenchmark(ctx, "gzip", testConfig("gzip")); err != nil {
		t.Fatal(err)
	}
	snap := o.Metrics.Snapshot()

	for _, m := range []string{".instructions", ".cycles", ".loads", ".cache.l1.hits"} {
		if snap.Counters["sim.full"+m] == 0 {
			t.Errorf("sim.full%s not published", m)
		}
	}
	if _, ok := snap.Counters["sim.full.cache.l1.evictions"]; !ok {
		t.Error("sim.full.cache.l1.evictions not published")
	}
	for name := range snap.Counters {
		if strings.HasPrefix(name, "sim.") && !strings.HasPrefix(name, "sim.full.") {
			t.Errorf("%s published; only walk 3 publishes", name)
		}
	}
}
