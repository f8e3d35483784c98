package xbsim_test

import (
	"context"
	"fmt"
	"log"

	"xbsim"
)

// ExampleNewBenchmark synthesizes a benchmark and inspects its four
// compilations.
func ExampleNewBenchmark() {
	bench, err := xbsim.NewBenchmark("swim", 300_000)
	if err != nil {
		log.Fatal(err)
	}
	for _, bin := range bench.Binaries {
		fmt.Println(bin.Name)
	}
	// Output:
	// swim.32u
	// swim.32o
	// swim.64u
	// swim.64o
}

// ExampleAnalyze shows mappable-point discovery: the points exist in all
// four binaries with identical execution counts.
func ExampleAnalyze() {
	bench, err := xbsim.NewBenchmark("swim", 300_000)
	if err != nil {
		log.Fatal(err)
	}
	a, err := xbsim.Analyze(context.Background(), bench.Binaries, xbsim.ExperimentConfig{
		IntervalSize: 10_000,
		Input:        xbsim.Input{Name: "ref", Seed: 1},
	})
	if err != nil {
		log.Fatal(err)
	}
	m := a.Mapping
	// "main" is always mappable: every binary keeps its symbol and calls
	// it exactly once.
	for _, pt := range m.Points {
		if pt.Name == "main" {
			fmt.Printf("main: kind=%v count=%d binaries=%d\n",
				pt.Kind, pt.Count, len(pt.Markers))
		}
	}
	// Output:
	// main: kind=proc count=1 binaries=4
}

// ExampleAnalysis_CrossBinaryPoints runs the paper's cross-binary
// pipeline and emits a PinPoints-style region file for one binary.
func ExampleAnalysis_CrossBinaryPoints() {
	ctx := context.Background()
	bench, err := xbsim.NewBenchmark("swim", 300_000)
	if err != nil {
		log.Fatal(err)
	}
	input := xbsim.Input{Name: "ref", Seed: 1}
	a, err := xbsim.Analyze(ctx, bench.Binaries, xbsim.ExperimentConfig{IntervalSize: 10_000, Input: input})
	if err != nil {
		log.Fatal(err)
	}
	cross, err := a.CrossBinaryPoints(ctx)
	if err != nil {
		log.Fatal(err)
	}
	ps, err := cross.ForBinary(ctx, 3) // 64-bit optimized
	if err != nil {
		log.Fatal(err)
	}
	file, err := ps.RegionFile(input)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%s: %s hasRegions=%v\n", file.Binary, file.Flavor, len(file.Regions) > 0)
	// Output:
	// swim.64o: vli hasRegions=true
}

// ExampleSimulateFull runs the CMP$im-style simulator to completion.
func ExampleSimulateFull() {
	bench, err := xbsim.NewBenchmark("swim", 300_000)
	if err != nil {
		log.Fatal(err)
	}
	st, err := xbsim.SimulateFull(context.Background(), bench.Binary("32o"), xbsim.Input{Name: "ref", Seed: 1}, nil)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("CPI at least 1: %v\n", st.CPI() >= 1)
	fmt.Printf("memory traffic simulated: %v\n", st.Loads > 0 && st.Stores > 0)
	// Output:
	// CPI at least 1: true
	// memory traffic simulated: true
}

// ExampleTable1 prints the paper's simulated memory system parameters.
func ExampleTable1() {
	cfg := xbsim.Table1()
	for _, l := range cfg.Levels {
		fmt.Printf("%s %dKB %d-way %d-cycle\n",
			l.Name, l.CapacityBytes>>10, l.Associativity, l.HitLatency)
	}
	fmt.Printf("DRAM %d-cycle\n", cfg.MemoryLatency)
	// Output:
	// FLC(L1D) 32KB 2-way 3-cycle
	// MLC(L2D) 512KB 8-way 14-cycle
	// LLC(L3D) 1024KB 16-way 35-cycle
	// DRAM 250-cycle
}
