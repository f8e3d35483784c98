// ISA comparison: the paper's first motivating scenario. An architect
// wants to know how much faster (or slower) the 64-bit build of each
// program runs compared to the 32-bit build — without simulating full
// executions. Per-binary SimPoint picks different regions for each binary
// and its biases shift; cross-binary SimPoint simulates the same semantic
// regions in both and keeps the bias consistent.
//
// Run with:
//
//	go run ./examples/isacompare
package main

import (
	"context"
	"fmt"
	"log"
	"math"

	"xbsim"
)

// The compared binaries, indexed in the paper's target order (32u, 32o,
// 64u, 64o).
const i32, i64 = 1, 3

func main() {
	ctx := context.Background()
	input := xbsim.Input{Name: "ref", Seed: 7}
	cfg := xbsim.ExperimentConfig{IntervalSize: 20_000, Input: input}
	benchmarks := []string{"gcc", "mcf", "swim", "crafty", "equake"}

	fmt.Println("Estimating 32-bit -> 64-bit speedup (optimized binaries)")
	fmt.Printf("%-8s %10s | %12s %8s | %12s %8s\n",
		"bench", "true", "per-binary", "error", "cross-binary", "error")

	for _, name := range benchmarks {
		bench, err := xbsim.NewBenchmark(name, 1_500_000)
		if err != nil {
			log.Fatal(err)
		}

		// Ground truth from full simulation.
		full32, err := xbsim.SimulateFull(ctx, bench.Binaries[i32], input, nil)
		if err != nil {
			log.Fatal(err)
		}
		full64, err := xbsim.SimulateFull(ctx, bench.Binaries[i64], input, nil)
		if err != nil {
			log.Fatal(err)
		}
		trueSpeedup := float64(full32.Cycles) / float64(full64.Cycles)

		// One analysis of all four binaries serves both methods.
		a, err := xbsim.Analyze(ctx, bench.Binaries, cfg)
		if err != nil {
			log.Fatal(err)
		}

		// Per-binary SimPoint: independent points per binary.
		fli32, err := a.PerBinaryPoints(ctx, i32)
		if err != nil {
			log.Fatal(err)
		}
		fli64, err := a.PerBinaryPoints(ctx, i64)
		if err != nil {
			log.Fatal(err)
		}
		fliSpeedup, err := speedup(ctx, input, fli32, fli64, full32.Instructions, full64.Instructions)
		if err != nil {
			log.Fatal(err)
		}

		// Cross-binary SimPoint: one set of points, mapped to both.
		cross, err := a.CrossBinaryPoints(ctx)
		if err != nil {
			log.Fatal(err)
		}
		vli32, err := cross.ForBinary(i32)
		if err != nil {
			log.Fatal(err)
		}
		vli64, err := cross.ForBinary(i64)
		if err != nil {
			log.Fatal(err)
		}
		vliSpeedup, err := speedup(ctx, input, vli32, vli64, full32.Instructions, full64.Instructions)
		if err != nil {
			log.Fatal(err)
		}

		fmt.Printf("%-8s %10.3f | %12.3f %7.2f%% | %12.3f %7.2f%%\n",
			name, trueSpeedup,
			fliSpeedup, relErr(trueSpeedup, fliSpeedup)*100,
			vliSpeedup, relErr(trueSpeedup, vliSpeedup)*100)
	}
}

func relErr(truth, est float64) float64 {
	return math.Abs(truth-est) / truth
}

// speedup estimates psA's binary's speedup over psB's: each CPI estimate
// becomes cycles through the exact instruction count (cheap to obtain —
// it needs no timing simulation).
func speedup(ctx context.Context, input xbsim.Input, psA, psB *xbsim.PointSet, instrA, instrB uint64) (float64, error) {
	cpiA, err := xbsim.EstimateCPI(ctx, psA.Binary, input, psA, nil)
	if err != nil {
		return 0, err
	}
	cpiB, err := xbsim.EstimateCPI(ctx, psB.Binary, input, psB, nil)
	if err != nil {
		return 0, err
	}
	return (cpiA * float64(instrA)) / (cpiB * float64(instrB)), nil
}
