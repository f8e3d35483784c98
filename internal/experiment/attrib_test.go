package experiment

import (
	"context"
	"testing"

	"xbsim/internal/obs"
)

// TestPipelineAttribution runs one benchmark with the cost-attribution
// profiler attached and checks the tentpole invariants: every (binary,
// walk) pair gets a walk-level node whose simulated totals match the
// pipeline's exact numbers, every simulation point gets a point node,
// and the attributed walk time explains the evaluate stage's wall time.
func TestPipelineAttribution(t *testing.T) {
	o := &obs.Observer{Metrics: obs.NewRegistry(), Attrib: obs.NewAttribution()}
	ctx := obs.With(context.Background(), o)

	cfg := testConfig("gzip")
	// The wall-coverage bound below (attributed walk time within the
	// evaluate stage's wall time) holds only when the per-binary walks run
	// one after another; concurrent walks sum to more than the stage took.
	cfg.Workers = 1
	res, err := runBenchmark(ctx, "gzip", cfg)
	if err != nil {
		t.Fatal(err)
	}
	snap := o.Attrib.Snapshot()

	// One walk-level node per (binary, walk): 4 binaries × 3 walks.
	walks := map[obs.AttribKey]obs.AttribValue{}
	for _, n := range snap.Walks() {
		walks[obs.AttribKey{Benchmark: n.Benchmark, Binary: n.Binary, Walk: n.Walk, Point: n.Point}] = n.Value
	}
	if len(walks) != 3*len(res.Runs) {
		t.Fatalf("walk nodes = %d, want %d", len(walks), 3*len(res.Runs))
	}
	for _, run := range res.Runs {
		for _, walk := range []string{"full", "fli", "vli"} {
			key := obs.AttribKey{Benchmark: "gzip", Binary: run.Binary.Name, Walk: walk, Point: obs.WholeWalk}
			v, ok := walks[key]
			if !ok {
				t.Fatalf("no walk node for %+v", key)
			}
			if v.WallNS == 0 {
				t.Errorf("%s/%s: no wall time attributed", run.Binary.Name, walk)
			}
			if v.Instructions == 0 || v.Cycles == 0 {
				t.Errorf("%s/%s: no simulated totals attributed", run.Binary.Name, walk)
			}
		}
		// The full walk's totals are exact.
		full := walks[obs.AttribKey{Benchmark: "gzip", Binary: run.Binary.Name, Walk: "full", Point: obs.WholeWalk}]
		if full.Instructions != run.TotalInstructions || full.Cycles != run.TrueCycles {
			t.Errorf("%s/full: %d instr %d cycles, want %d/%d",
				run.Binary.Name, full.Instructions, full.Cycles,
				run.TotalInstructions, run.TrueCycles)
		}
	}

	// Point nodes: one per chosen simulation point per gated walk, with
	// the evaluation folded in.
	var fliPoints, vliPoints, wantFLI, wantVLI int
	for _, n := range snap.Nodes {
		if n.Point == obs.WholeWalk {
			continue
		}
		if n.Value.Evals != 1 || n.Value.Instructions == 0 {
			t.Errorf("point node %+v: evals %d instr %d", n, n.Value.Evals, n.Value.Instructions)
		}
		switch n.Walk {
		case "fli":
			fliPoints++
		case "vli":
			vliPoints++
		default:
			t.Errorf("point node on walk %q", n.Walk)
		}
	}
	for _, run := range res.Runs {
		wantFLI += run.FLI.NumPoints
		wantVLI += run.VLI.NumPoints
	}
	if fliPoints != wantFLI || vliPoints != wantVLI {
		t.Errorf("point nodes fli/vli = %d/%d, want %d/%d", fliPoints, vliPoints, wantFLI, wantVLI)
	}

	// Wall coverage: the attributed walk time must explain the bulk of
	// the evaluate stage. The CLI reports the exact figure; here the
	// bound is loose (80%) so scheduler noise cannot flake CI.
	stage := o.Metrics.Snapshot().Histograms["stage.evaluate.duration_us"]
	if stage.Sum == 0 {
		t.Fatal("stage.evaluate.duration_us not recorded")
	}
	attributed := snap.TotalWallNS() / 1000
	if attributed > stage.Sum {
		t.Errorf("attributed %dus exceeds evaluate stage %dus", attributed, stage.Sum)
	}
	if float64(attributed) < 0.8*float64(stage.Sum) {
		t.Errorf("attributed %dus is under 80%% of evaluate stage %dus", attributed, stage.Sum)
	}
}

// TestPerWalkMetricFamilies pins the per-walk families sim.full.*,
// sim.fli.* and sim.vli.*: each walk publishes its statistics once, under
// its own family, and the former aggregates "sim" and "sim.gated" are
// gone.
func TestPerWalkMetricFamilies(t *testing.T) {
	o := &obs.Observer{Metrics: obs.NewRegistry()}
	ctx := obs.With(context.Background(), o)
	if _, err := runBenchmark(ctx, "gzip", testConfig("gzip")); err != nil {
		t.Fatal(err)
	}
	snap := o.Metrics.Snapshot()

	for _, walk := range []string{"full", "fli", "vli"} {
		for _, m := range []string{".instructions", ".cycles", ".loads"} {
			if snap.Counters["sim."+walk+m] == 0 {
				t.Errorf("sim.%s%s not published", walk, m)
			}
		}
		if snap.Counters["sim."+walk+".cache.l1.hits"] == 0 {
			t.Errorf("sim.%s.cache.l1.hits not published", walk)
		}
	}
	for _, alias := range []string{"sim.instructions", "sim.cache.l1.hits", "sim.gated.instructions"} {
		if _, ok := snap.Counters[alias]; ok {
			t.Errorf("%s published; only the per-walk families should be", alias)
		}
	}
	// The cache event counters ride along on every family.
	if _, ok := snap.Counters["sim.full.cache.l1.evictions"]; !ok {
		t.Error("sim.full.cache.l1.evictions not published")
	}
	if _, ok := snap.Counters["sim.vli.cache.l1.writebacks"]; !ok {
		t.Error("sim.vli.cache.l1.writebacks not published")
	}
}

// Attribution must not change the numbers: a run with the profiler
// attached produces bit-identical results to a run without.
func TestAttributionDoesNotPerturbResults(t *testing.T) {
	plain, err := runBenchmark(context.Background(), "art", testConfig("art"))
	if err != nil {
		t.Fatal(err)
	}
	o := &obs.Observer{Attrib: obs.NewAttribution()}
	profiled, err := runBenchmark(obs.With(context.Background(), o), "art", testConfig("art"))
	if err != nil {
		t.Fatal(err)
	}
	for bi := range plain.Runs {
		p, q := plain.Runs[bi], profiled.Runs[bi]
		if p.TotalInstructions != q.TotalInstructions || p.TrueCycles != q.TrueCycles {
			t.Fatalf("%s: totals differ under attribution: %d/%d vs %d/%d",
				p.Binary.Name, p.TotalInstructions, p.TrueCycles, q.TotalInstructions, q.TrueCycles)
		}
		if p.FLI.EstCPI != q.FLI.EstCPI || p.VLI.EstCPI != q.VLI.EstCPI {
			t.Fatalf("%s: estimates differ under attribution", p.Binary.Name)
		}
	}
}
