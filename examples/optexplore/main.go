// Compiler optimization exploration: the paper's third scenario. A
// compiler team evaluates how much an optimization level buys on a future
// processor using sampled simulation — and runs into the paper's §3.3
// hazard: optimizations like inlining and loop restructuring destroy the
// structure cross-binary mapping relies on. This example estimates the
// O0 -> O2 speedup for several benchmarks and then dissects applu, whose
// inlined-and-distributed solver loops defeat the mapping over large
// regions and inflate the variable length intervals (the paper's
// Figure 2 outlier).
//
// Run with:
//
//	go run ./examples/optexplore
package main

import (
	"context"
	"fmt"
	"log"
	"math"

	"xbsim"
)

func main() {
	ctx := context.Background()
	cfg := xbsim.ExperimentConfig{IntervalSize: 20_000, Input: xbsim.Input{Name: "ref", Seed: 99}}
	input := cfg.Input

	fmt.Println("O0 -> O2 speedup on the 32-bit platform, cross-binary SimPoint")
	fmt.Printf("%-8s %10s %10s %8s %14s\n", "bench", "true", "estimated", "error", "avg VLI size")
	for _, name := range []string{"gzip", "vpr", "applu", "sixtrack"} {
		bench, err := xbsim.NewBenchmark(name, 1_500_000)
		if err != nil {
			log.Fatal(err)
		}
		a, err := xbsim.Analyze(ctx, bench.Binaries, cfg)
		if err != nil {
			log.Fatal(err)
		}
		cross, err := a.CrossBinaryPoints(ctx)
		if err != nil {
			log.Fatal(err)
		}

		type side struct {
			bin  *xbsim.Binary
			est  float64
			full *xbsim.Stats
		}
		sides := map[string]*side{"32u": nil, "32o": nil}
		var avgInterval float64
		for i, bin := range bench.Binaries {
			t := bin.Target.String()
			if _, want := sides[t]; !want {
				continue
			}
			ps, err := cross.ForBinary(i)
			if err != nil {
				log.Fatal(err)
			}
			est, err := xbsim.EstimateCPI(ctx, bin, input, ps, nil)
			if err != nil {
				log.Fatal(err)
			}
			full, err := xbsim.SimulateFull(ctx, bin, input, nil)
			if err != nil {
				log.Fatal(err)
			}
			sides[t] = &side{bin: bin, est: est, full: full}
			avgInterval += float64(full.Instructions) / float64(cross.NumIntervals()) / 2
		}
		u, o := sides["32u"], sides["32o"]
		trueSpeedup := float64(u.full.Cycles) / float64(o.full.Cycles)
		estSpeedup := (u.est * float64(u.full.Instructions)) /
			(o.est * float64(o.full.Instructions))
		fmt.Printf("%-8s %10.3f %10.3f %7.2f%% %14.0f\n",
			name, trueSpeedup, estSpeedup,
			math.Abs(trueSpeedup-estSpeedup)/trueSpeedup*100, avgInterval)
	}

	// Dissect applu's mapping failure.
	fmt.Println("\napplu under the hood (why its intervals balloon):")
	bench, err := xbsim.NewBenchmark("applu", 1_500_000)
	if err != nil {
		log.Fatal(err)
	}
	a, err := xbsim.Analyze(ctx, bench.Binaries, cfg)
	if err != nil {
		log.Fatal(err)
	}
	m := a.Mapping
	for bi, bin := range m.Binaries {
		fmt.Printf("  %-10s %3d loop pieces, %3d with no mappable entry point\n",
			bin.Name, m.Diag.LoopsPerBinary[bi], m.Diag.UnmappedLoopsPerBinary[bi])
	}
	fmt.Printf("  inlined-loop heuristic: %d matched, %d ambiguous\n",
		m.Diag.HeuristicMatched, m.Diag.HeuristicAmbiguous)
	fmt.Println("  The five solve_* procedures are inlined at O2 and their loops")
	fmt.Println("  distributed into count-identical pieces, so neither line matching")
	fmt.Println("  nor the count heuristic can place boundaries inside them; intervals")
	fmt.Println("  stretch to the next surviving marker.")

	// Show the same comparison with the heuristic disabled: coverage
	// drops further.
	cfg.Mapping.DisableInlineHeuristic = true
	noHeur, err := xbsim.Analyze(ctx, bench.Binaries, cfg)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("  mappable points: %d with the heuristic, %d without\n",
		len(m.Points), len(noHeur.Mapping.Points))
}
