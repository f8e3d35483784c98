// Custom program: build a program in the IR by hand instead of using the
// benchmark generator, compile it for all four targets, and run the full
// cross-binary pipeline on it. This is what adopting the library for your
// own workload model looks like.
//
// The program alternates between a cache-friendly phase (small strided
// working set) and a DRAM-bound phase (large random working set), calling
// a tiny helper that the optimizer will inline.
//
// Run with:
//
//	go run ./examples/customprogram
package main

import (
	"context"
	"fmt"
	"log"

	"xbsim"
)

func buildProgram() *xbsim.Program {
	p := &xbsim.Program{Name: "custom"}

	// A small helper procedure — below the O2 inline threshold, so its
	// symbol disappears in optimized binaries and its loop is only
	// mappable through the count heuristic.
	helper := &xbsim.Proc{Index: 1, Name: "checksum", Line: 100, Body: []xbsim.Stmt{
		&xbsim.Loop{ID: 10, Line: 101, Trip: xbsim.TripSpec{Base: 6},
			Body: []xbsim.Stmt{
				&xbsim.Compute{Line: 102,
					Ops: xbsim.OpMix{IntOps: 4, Loads: 2},
					Mem: xbsim.MemPattern{Region: 0, WorkingSet: 4 << 10, Stride: 8, Class: xbsim.MemStride}},
			}},
	}}

	// Phase A: streaming over a small array (cache resident).
	phaseA := &xbsim.Proc{Index: 2, Name: "stream", Line: 200, Body: []xbsim.Stmt{
		&xbsim.Compute{Line: 201, Ops: xbsim.OpMix{IntOps: 80, FPOps: 10}},
		&xbsim.Loop{ID: 20, Line: 202, Trip: xbsim.TripSpec{Base: 40, Jitter: 4},
			Body: []xbsim.Stmt{
				&xbsim.Compute{Line: 203,
					Ops: xbsim.OpMix{IntOps: 10, FPOps: 20, Loads: 8, Stores: 4},
					Mem: xbsim.MemPattern{Region: 1, WorkingSet: 24 << 10, Stride: 8, Class: xbsim.MemStride}},
			}},
		&xbsim.Call{Line: 204, Callee: 1},
	}}

	// Phase B: pointer chasing over a large graph (DRAM bound).
	phaseB := &xbsim.Proc{Index: 3, Name: "chase", Line: 300, Body: []xbsim.Stmt{
		&xbsim.Compute{Line: 301, Ops: xbsim.OpMix{IntOps: 80, FPOps: 10}},
		&xbsim.Loop{ID: 30, Line: 302, Trip: xbsim.TripSpec{Base: 32, Jitter: 3},
			Body: []xbsim.Stmt{
				&xbsim.Compute{Line: 303,
					Ops: xbsim.OpMix{IntOps: 25, Loads: 12, Stores: 3},
					Mem: xbsim.MemPattern{Region: 2, WorkingSet: 8 << 20, Class: xbsim.MemRandom}},
			}},
	}}

	// main: alternate A, B, A, B, ... in sizable segments.
	var body []xbsim.Stmt
	loopID := 40
	line := 400
	for seg := 0; seg < 12; seg++ {
		callee := phaseA.Index
		if seg%2 == 1 {
			callee = phaseB.Index
		}
		body = append(body, &xbsim.Loop{
			ID: loopID, Line: line, Trip: xbsim.TripSpec{Base: 60, Jitter: 5},
			Body: []xbsim.Stmt{&xbsim.Call{Line: line + 1, Callee: callee}},
		})
		loopID++
		line += 10
	}
	p.Procs = []*xbsim.Proc{
		{Index: 0, Name: "main", Line: 1, Body: body},
		helper, phaseA, phaseB,
	}
	return p
}

func main() {
	prog := buildProgram()
	if err := prog.Validate(); err != nil {
		log.Fatal(err)
	}
	bins, err := xbsim.CompileAll(prog)
	if err != nil {
		log.Fatal(err)
	}
	ctx := context.Background()
	input := xbsim.Input{Name: "ref", Seed: 1}

	fmt.Println("custom program: two alternating phases + an inlinable helper")
	a, err := xbsim.Analyze(ctx, bins, xbsim.ExperimentConfig{IntervalSize: 30_000, Input: input})
	if err != nil {
		log.Fatal(err)
	}
	cross, err := a.CrossBinaryPoints(ctx)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("phases found: %d (expect ~2-3: stream, chase, main glue)\n", cross.K())
	fmt.Printf("mappable points: %d\n\n", len(cross.Mapping.Points))

	fmt.Printf("%-12s %10s %10s %8s\n", "binary", "true CPI", "est CPI", "error")
	for i, bin := range bins {
		ps, err := cross.ForBinary(ctx, i)
		if err != nil {
			log.Fatal(err)
		}
		est, err := xbsim.EstimateStats(ctx, bin, input, ps, nil)
		if err != nil {
			log.Fatal(err)
		}
		full := est.Full.CPI()
		fmt.Printf("%-12s %10.3f %10.3f %+7.2f%%\n",
			bin.Name, full, est.CPI, (est.CPI-full)/full*100)
	}

	// Emit a PinPoints-style region file for the optimized 64-bit binary.
	ps, err := cross.ForBinary(ctx, 3)
	if err != nil {
		log.Fatal(err)
	}
	f, err := ps.RegionFile(input)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nregion file for %s: %d regions (use RegionFile().Save to persist)\n",
		f.Binary, len(f.Regions))
}
