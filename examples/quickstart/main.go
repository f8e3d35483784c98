// Quickstart: the paper's pitch in one program. Pick one set of
// cross-binary simulation points for a benchmark, estimate every binary's
// CPI from a handful of simulated regions, and — the part that matters
// for design-space exploration — estimate speedups between binaries.
//
// Whole-program CPI estimates carry sampling bias (phases merged when a
// program has more behaviors than clusters), but because cross-binary
// SimPoint simulates the SAME semantic regions in every binary, the bias
// is consistent and cancels in speedup ratios. Per-binary SimPoint picks
// unrelated regions per binary, so its biases shift and pollute the
// comparison.
//
// Run with:
//
//	go run ./examples/quickstart
package main

import (
	"context"
	"fmt"
	"log"
	"math"

	"xbsim"
)

func main() {
	// Synthesize the "crafty"-like benchmark (irregular chess-engine-style
	// integer code with seven distinct behaviors) and compile the paper's
	// four binaries: 32/64-bit x unoptimized/optimized.
	bench, err := xbsim.NewBenchmark("crafty", 2_000_000)
	if err != nil {
		log.Fatal(err)
	}
	ctx := context.Background()
	input := xbsim.Input{Name: "ref", Seed: 42}

	// One analysis of all four binaries: profiles, fixed-length
	// intervals, the points mappable across all four, and the primary
	// binary's variable-length intervals cut at them.
	a, err := xbsim.Analyze(ctx, bench.Binaries, xbsim.ExperimentConfig{IntervalSize: 25_000, Input: input})
	if err != nil {
		log.Fatal(err)
	}
	// Cross-binary (VLI) points: one SimPoint run on the primary binary.
	cross, err := a.CrossBinaryPoints(ctx)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("crafty: %d phases over %d shared intervals, %d mappable points\n\n",
		cross.K(), cross.NumIntervals(), len(cross.Mapping.Points))

	type result struct {
		trueCycles uint64
		instrs     uint64
		vliCPI     float64
		fliCPI     float64
		trueCPI    float64
	}
	results := make([]result, len(bench.Binaries))

	fmt.Printf("%-10s %9s | %9s %8s | %9s %8s\n",
		"binary", "true CPI", "VLI est", "bias", "FLI est", "bias")
	for i, bin := range bench.Binaries {
		vliPoints, err := cross.ForBinary(i)
		if err != nil {
			log.Fatal(err)
		}
		vli, err := xbsim.EstimateCPI(ctx, bin, input, vliPoints, nil)
		if err != nil {
			log.Fatal(err)
		}
		// Per-binary (FLI) baseline: an independent SimPoint run on this
		// binary's own intervals.
		fliPoints, err := a.PerBinaryPoints(ctx, i)
		if err != nil {
			log.Fatal(err)
		}
		fli, err := xbsim.EstimateCPI(ctx, bin, input, fliPoints, nil)
		if err != nil {
			log.Fatal(err)
		}
		full, err := xbsim.SimulateFull(ctx, bin, input, nil)
		if err != nil {
			log.Fatal(err)
		}
		results[i] = result{full.Cycles, full.Instructions, vli, fli, full.CPI()}
		fmt.Printf("%-10s %9.3f | %9.3f %+7.1f%% | %9.3f %+7.1f%%\n",
			bin.Name, full.CPI(),
			vli, (vli-full.CPI())/full.CPI()*100,
			fli, (fli-full.CPI())/full.CPI()*100)
	}

	// Speedups: the biases above cancel for VLI (same regions simulated
	// everywhere) but not for FLI.
	fmt.Printf("\n%-22s %8s | %8s %8s | %8s %8s\n",
		"speedup pair", "true", "VLI est", "error", "FLI est", "error")
	pairs := []struct {
		name string
		a, b int
	}{
		{"32-bit: O0 -> O2", 0, 1},
		{"64-bit: O0 -> O2", 2, 3},
		{"O0: 32 -> 64-bit", 0, 2},
		{"O2: 32 -> 64-bit", 1, 3},
	}
	for _, p := range pairs {
		ra, rb := results[p.a], results[p.b]
		truth := float64(ra.trueCycles) / float64(rb.trueCycles)
		vli := (ra.vliCPI * float64(ra.instrs)) / (rb.vliCPI * float64(rb.instrs))
		fli := (ra.fliCPI * float64(ra.instrs)) / (rb.fliCPI * float64(rb.instrs))
		fmt.Printf("%-22s %8.3f | %8.3f %7.2f%% | %8.3f %7.2f%%\n",
			p.name, truth,
			vli, math.Abs(truth-vli)/truth*100,
			fli, math.Abs(truth-fli)/truth*100)
	}
}
