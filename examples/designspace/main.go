// Design-space exploration: the paper's §1 scenario in full. An architect
// must decide which (binary, memory system) combination performs best —
// e.g. "should we ship the 64-bit binary, and how much L2 do we need?" —
// without fully simulating every combination.
//
// Simulation points are chosen ONCE (basic block vectors depend only on
// executed code, not on the memory system), then each candidate memory
// system simulates only those regions in each binary. Cross-binary points
// make the comparison apples-to-apples: the same semantic work is measured
// in every cell of the design matrix.
//
// Run with:
//
//	go run ./examples/designspace
package main

import (
	"context"
	"fmt"
	"log"

	"xbsim"
)

// l2Variant builds a Table-1 hierarchy with a different L2 capacity.
func l2Variant(capacityKB uint64) xbsim.HierarchyConfig {
	cfg := xbsim.Table1()
	cfg.Levels[1].CapacityBytes = capacityKB << 10
	return cfg
}

func main() {
	const benchName = "twolf"
	bench, err := xbsim.NewBenchmark(benchName, 1_500_000)
	if err != nil {
		log.Fatal(err)
	}
	ctx := context.Background()
	input := xbsim.Input{Name: "ref", Seed: 11}

	// Phase 1 (one-time): pick cross-binary simulation points.
	a, err := xbsim.Analyze(ctx, bench.Binaries, xbsim.ExperimentConfig{IntervalSize: 20_000, Input: input})
	if err != nil {
		log.Fatal(err)
	}
	cross, err := a.CrossBinaryPoints(ctx)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%s: %d phases chosen once, reused across the whole design space\n\n",
		benchName, cross.K())

	memSystems := []struct {
		name string
		cfg  xbsim.HierarchyConfig
	}{
		{"L2=256KB", l2Variant(256)},
		{"L2=512KB", l2Variant(512)}, // the paper's Table 1
		{"L2=1MB", l2Variant(1024)},
	}
	binaries := []string{"32o", "64o"}

	// Phase 2: estimated cycles for every (binary, memory system) cell,
	// with full-simulation truth alongside to grade the decisions.
	fmt.Printf("%-10s %-10s %14s %14s %8s\n",
		"binary", "memory", "est cycles", "true cycles", "err")
	type cell struct {
		bin, mem          string
		estCyc, trueCyc   float64
		estBest, trueBest bool
	}
	var cells []cell
	for _, target := range binaries {
		bin := bench.Binary(target)
		var idx int
		for i, b := range bench.Binaries {
			if b == bin {
				idx = i
			}
		}
		points, err := cross.ForBinary(ctx, idx)
		if err != nil {
			log.Fatal(err)
		}
		for _, mem := range memSystems {
			cfg := mem.cfg
			est, err := xbsim.EstimateStats(ctx, bin, input, points, &cfg)
			if err != nil {
				log.Fatal(err)
			}
			full := est.Full
			estCyc := est.CPI * float64(full.Instructions)
			cells = append(cells, cell{
				bin: bin.Name, mem: mem.name,
				estCyc: estCyc, trueCyc: float64(full.Cycles),
			})
		}
	}

	// Mark the winners under the estimate and under truth.
	bestEst, bestTrue := 0, 0
	for i, c := range cells {
		if c.estCyc < cells[bestEst].estCyc {
			bestEst = i
		}
		if c.trueCyc < cells[bestTrue].trueCyc {
			bestTrue = i
		}
	}
	cells[bestEst].estBest = true
	cells[bestTrue].trueBest = true

	for _, c := range cells {
		marks := ""
		if c.estBest {
			marks += "  <- best (estimated)"
		}
		if c.trueBest {
			marks += "  <- best (true)"
		}
		fmt.Printf("%-10s %-10s %14.0f %14.0f %7.2f%%%s\n",
			c.bin, c.mem, c.estCyc, c.trueCyc,
			(c.estCyc-c.trueCyc)/c.trueCyc*100, marks)
	}
	if bestEst == bestTrue {
		fmt.Println("\nThe sampled estimate picked the same design as full simulation,")
		fmt.Printf("simulating ~%d regions per cell instead of whole programs.\n", cross.K())
	} else {
		fmt.Println("\nThe sampled estimate picked a different design than full simulation;")
		fmt.Println("with consistent bias this indicates the candidates are within the")
		fmt.Println("sampling error of each other.")
	}
}
