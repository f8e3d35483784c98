package experiment

import (
	"context"
	"math"
	"strings"
	"testing"

	"xbsim/internal/obs"
)

// TestPipelineMetrics runs one benchmark end to end with an observer
// attached and checks the observability invariants the subsystem
// guarantees: the simulator's instruction counter equals the pipeline's
// exact instruction totals, the span tree covers every pipeline stage,
// and the published VLI phase weights sum to 1.
func TestPipelineMetrics(t *testing.T) {
	o := obs.New()
	var progress strings.Builder
	o.Progress = obs.NewProgress(&progress)
	ctx := obs.With(context.Background(), o)

	res, err := runBenchmark(ctx, "gzip", testConfig("gzip"))
	if err != nil {
		t.Fatal(err)
	}
	snap := o.Metrics.Snapshot()

	// The full-simulation walk publishes under "sim.full": its instruction
	// counter must equal the sum of the exact per-binary totals.
	var wantInstr uint64
	for _, run := range res.Runs {
		wantInstr += run.TotalInstructions
	}
	if got := snap.Counters["sim.full.instructions"]; got != wantInstr {
		t.Errorf("sim.full.instructions = %d, want %d", got, wantInstr)
	}
	if snap.Counters["sim.full.cycles"] == 0 {
		t.Error("sim.full.cycles not recorded")
	}
	// Cache levels: three levels, hits+misses > 0 at L1.
	if snap.Counters["sim.full.cache.l1.hits"]+snap.Counters["sim.full.cache.l1.misses"] == 0 {
		t.Error("no L1 accesses recorded")
	}

	// The span tree must cover every pipeline stage.
	stages := o.Events.StageNames()
	have := map[string]bool{}
	for _, s := range stages {
		have[s] = true
	}
	for _, want := range []string{
		"benchmark",
		"stage.compile",
		"stage.profile",
		"stage.mapping",
		"stage.vli_slicing",
		"stage.projection",
		"stage.clustering",
		"stage.full_sim",
		"stage.weighting",
		"exec.run",
	} {
		if !have[want] {
			t.Errorf("span %q missing; recorded: %v", want, stages)
		}
	}
	// Every span must be ended after a clean run.
	for _, v := range o.Events.Spans() {
		if !v.Ended {
			t.Errorf("span %d (%s) left open", v.ID, v.Name)
		}
	}

	// The published per-binary VLI phase weights (last binary wins) must
	// sum to ~1.
	if wsum := snap.SumGaugePrefix("pipeline.vli.phase_weight."); math.Abs(wsum-1) > 0.02 {
		t.Errorf("VLI phase weights sum to %v", wsum)
	}

	// Interval production counters: FLIs for 4 binaries, VLIs once.
	fli := 0
	for _, run := range res.Runs {
		fli += run.FLI.NumIntervals
	}
	if got := snap.Counters["pipeline.intervals.fli"]; got != uint64(fli) {
		t.Errorf("pipeline.intervals.fli = %d, want %d", got, fli)
	}
	if got := snap.Counters["pipeline.intervals.vli"]; got != uint64(res.Runs[0].VLI.NumIntervals) {
		t.Errorf("pipeline.intervals.vli = %d, want %d", got, res.Runs[0].VLI.NumIntervals)
	}

	// Clustering and mapping activity must be visible.
	for _, name := range []string{
		"kmeans.runs", "kmeans.restarts", "kmeans.iterations",
		"simpoint.runs", "simpoint.intervals_clustered",
		"mapping.points", "exec.runs", "exec.instructions",
		"pipeline.benchmarks_completed", "pipeline.binaries_evaluated",
	} {
		if snap.Counters[name] == 0 {
			t.Errorf("counter %q not recorded", name)
		}
	}
	if snap.Gauges["simpoint.chosen_k"] <= 0 {
		t.Error("simpoint.chosen_k not recorded")
	}
	if snap.Histograms["kmeans.iterations_per_restart"].Count == 0 {
		t.Error("kmeans iteration histogram empty")
	}

	// Progress events were streamed.
	for _, want := range []string{"compile", "profile", "mapping", "full simulation"} {
		if !strings.Contains(progress.String(), want) {
			t.Errorf("progress output missing %q:\n%s", want, progress.String())
		}
	}
}

// RunCtx must report suite-level completion progress and produce the same
// results as Run.
func TestRunCtxProgress(t *testing.T) {
	o := &obs.Observer{}
	var progress strings.Builder
	o.Progress = obs.NewProgress(&progress)
	ctx := obs.With(context.Background(), o)

	suite, err := RunCtx(ctx, testConfig("art", "gzip"))
	if err != nil {
		t.Fatal(err)
	}
	if len(suite.Results) != 2 {
		t.Fatalf("%d results", len(suite.Results))
	}
	out := progress.String()
	if !strings.Contains(out, "[1/2]") || !strings.Contains(out, "[2/2]") {
		t.Fatalf("suite progress missing completion counts:\n%s", out)
	}
}

// Observability must not change the numbers: a run with an observer
// attached produces bit-identical results to a run without.
func TestObservabilityDoesNotPerturbResults(t *testing.T) {
	plain, err := runBenchmark(context.Background(), "art", testConfig("art"))
	if err != nil {
		t.Fatal(err)
	}
	ctx := obs.With(context.Background(), obs.New())
	observed, err := runBenchmark(ctx, "art", testConfig("art"))
	if err != nil {
		t.Fatal(err)
	}
	for bi := range plain.Runs {
		p, o := plain.Runs[bi], observed.Runs[bi]
		if p.TotalInstructions != o.TotalInstructions || p.TrueCycles != o.TrueCycles {
			t.Fatalf("%s: totals differ with observer: %d/%d vs %d/%d",
				p.Binary.Name, p.TotalInstructions, p.TrueCycles, o.TotalInstructions, o.TrueCycles)
		}
		if p.FLI.EstCPI != o.FLI.EstCPI || p.VLI.EstCPI != o.VLI.EstCPI {
			t.Fatalf("%s: estimates differ with observer", p.Binary.Name)
		}
	}
}
