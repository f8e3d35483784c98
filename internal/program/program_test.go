package program

import (
	"math"
	"reflect"
	"strings"
	"testing"
)

func TestAllBenchmarksGenerateAndValidate(t *testing.T) {
	for _, name := range Benchmarks() {
		p, err := Generate(name, GenConfig{TargetOps: 1_000_000})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if err := p.Validate(); err != nil {
			t.Fatalf("%s: invalid: %v", name, err)
		}
		if p.Procs[0].Name != "main" {
			t.Errorf("%s: proc 0 is %q, want main", name, p.Procs[0].Name)
		}
	}
}

func TestGenerateUnknownBenchmark(t *testing.T) {
	if _, err := Generate("nonexistent", GenConfig{}); err == nil {
		t.Fatal("unknown benchmark accepted")
	}
}

func TestGenerateDeterministic(t *testing.T) {
	a := MustGenerate("gcc", GenConfig{TargetOps: 500_000})
	b := MustGenerate("gcc", GenConfig{TargetOps: 500_000})
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same (name, config) generated different programs")
	}
}

func TestGenerateScalesWithTargetOps(t *testing.T) {
	small := EstimateDynamicOps(MustGenerate("swim", GenConfig{TargetOps: 1_000_000}))
	large := EstimateDynamicOps(MustGenerate("swim", GenConfig{TargetOps: 8_000_000}))
	ratio := float64(large) / float64(small)
	if ratio < 4 || ratio > 16 {
		t.Fatalf("8x target gave %.1fx ops (small=%d large=%d)", ratio, small, large)
	}
}

func TestEstimateNearTarget(t *testing.T) {
	for _, name := range []string{"gcc", "swim", "mcf", "applu"} {
		const target = 2_000_000
		p := MustGenerate(name, GenConfig{TargetOps: target})
		est := EstimateDynamicOps(p)
		ratio := float64(est) / target
		if ratio < 0.5 || ratio > 2.0 {
			t.Errorf("%s: estimated ops %d vs target %d (ratio %.2f)", name, est, target, ratio)
		}
	}
}

func TestBehaviorCountMatchesTraits(t *testing.T) {
	p := MustGenerate("gcc", GenConfig{TargetOps: 500_000})
	workProcs := 0
	for _, proc := range p.Procs {
		if strings.HasPrefix(proc.Name, "work_") {
			workProcs++
		}
	}
	if workProcs != benchTraits["gcc"].behaviors {
		t.Fatalf("gcc has %d work procs, traits say %d", workProcs, benchTraits["gcc"].behaviors)
	}
}

func TestAppluHasSolverStructure(t *testing.T) {
	p := MustGenerate("applu", GenConfig{TargetOps: 500_000})
	solvers := 0
	for _, proc := range p.Procs {
		if strings.HasPrefix(proc.Name, "solve_") {
			solvers++
			// Each solver: one loop whose body has exactly 3 computes —
			// the structure that triggers loop distribution at O2.
			if len(proc.Body) != 1 {
				t.Fatalf("%s body has %d stmts", proc.Name, len(proc.Body))
			}
			loop, ok := proc.Body[0].(*Loop)
			if !ok {
				t.Fatalf("%s body is not a loop", proc.Name)
			}
			if len(loop.Body) != 3 {
				t.Fatalf("%s loop body has %d stmts, want 3", proc.Name, len(loop.Body))
			}
		}
	}
	if solvers != 5 {
		t.Fatalf("applu has %d solvers, want 5", solvers)
	}
}

func TestAmbiguousHelperPair(t *testing.T) {
	p := MustGenerate("gcc", GenConfig{TargetOps: 500_000})
	h0, h1 := p.ProcByName("helper_0"), p.ProcByName("helper_1")
	if h0 == nil || h1 == nil {
		t.Fatal("gcc lacks helper_0/helper_1")
	}
	l0 := h0.Body[0].(*Loop)
	l1 := h1.Body[0].(*Loop)
	if l0.Trip.Base != l1.Trip.Base {
		t.Fatalf("ambiguous pair trips differ: %d vs %d", l0.Trip.Base, l1.Trip.Base)
	}
}

func TestLoopIDsUniqueAndLinesMonotonic(t *testing.T) {
	p := MustGenerate("vortex", GenConfig{TargetOps: 500_000})
	seen := map[int]bool{}
	for _, l := range p.Loops() {
		if seen[l.ID] {
			t.Fatalf("duplicate loop ID %d", l.ID)
		}
		seen[l.ID] = true
		if l.Line <= 0 {
			t.Fatalf("loop %d has line %d", l.ID, l.Line)
		}
	}
}

func TestEveryBehaviorScheduled(t *testing.T) {
	// main's segments must cover every behavior at least once; otherwise a
	// source phase would never execute.
	for _, name := range []string{"gcc", "apsi", "perlbmk"} {
		p := MustGenerate(name, GenConfig{TargetOps: 500_000})
		called := map[int]bool{}
		for _, s := range p.Procs[0].Body {
			loop, ok := s.(*Loop)
			if !ok {
				continue
			}
			for _, inner := range loop.Body {
				if c, ok := inner.(*Call); ok {
					called[c.Callee] = true
				}
			}
		}
		for _, proc := range p.Procs {
			if strings.HasPrefix(proc.Name, "work_") && !called[proc.Index] {
				t.Errorf("%s: behavior %s never scheduled", name, proc.Name)
			}
		}
	}
}

func TestValidateCatchesRecursion(t *testing.T) {
	p := &Program{Name: "rec", Procs: []*Proc{
		{Index: 0, Name: "a", Line: 1, Body: []Stmt{&Call{Line: 2, Callee: 1}}},
		{Index: 1, Name: "b", Line: 3, Body: []Stmt{&Call{Line: 4, Callee: 0}}},
	}}
	if err := p.Validate(); err == nil || !strings.Contains(err.Error(), "recursive") {
		t.Fatalf("recursion not caught: %v", err)
	}
}

func TestValidateCatchesBadStructures(t *testing.T) {
	cases := []struct {
		name string
		p    *Program
	}{
		{"empty name", &Program{Procs: []*Proc{{Index: 0, Name: "main", Line: 1}}}},
		{"no procs", &Program{Name: "x"}},
		{"bad index", &Program{Name: "x", Procs: []*Proc{{Index: 5, Name: "main", Line: 1}}}},
		{"dup names", &Program{Name: "x", Procs: []*Proc{
			{Index: 0, Name: "main", Line: 1}, {Index: 1, Name: "main", Line: 2}}}},
		{"oob call", &Program{Name: "x", Procs: []*Proc{
			{Index: 0, Name: "main", Line: 1, Body: []Stmt{&Call{Line: 2, Callee: 9}}}}}},
		{"empty mix", &Program{Name: "x", Procs: []*Proc{
			{Index: 0, Name: "main", Line: 1, Body: []Stmt{&Compute{Line: 2}}}}}},
		{"zero ws", &Program{Name: "x", Procs: []*Proc{
			{Index: 0, Name: "main", Line: 1, Body: []Stmt{
				&Compute{Line: 2, Ops: OpMix{Loads: 1}}}}}}},
		{"bad trip", &Program{Name: "x", Procs: []*Proc{
			{Index: 0, Name: "main", Line: 1, Body: []Stmt{
				&Loop{ID: 0, Line: 2, Trip: TripSpec{Base: 0},
					Body: []Stmt{&Compute{Line: 3, Ops: OpMix{IntOps: 1}}}}}}}}},
		{"empty loop", &Program{Name: "x", Procs: []*Proc{
			{Index: 0, Name: "main", Line: 1, Body: []Stmt{
				&Loop{ID: 0, Line: 2, Trip: TripSpec{Base: 1}}}}}}},
		{"dup loop id", &Program{Name: "x", Procs: []*Proc{
			{Index: 0, Name: "main", Line: 1, Body: []Stmt{
				&Loop{ID: 0, Line: 2, Trip: TripSpec{Base: 1},
					Body: []Stmt{&Compute{Line: 3, Ops: OpMix{IntOps: 1}}}},
				&Loop{ID: 0, Line: 4, Trip: TripSpec{Base: 1},
					Body: []Stmt{&Compute{Line: 5, Ops: OpMix{IntOps: 1}}}}}}}}},
	}
	for _, tc := range cases {
		if err := tc.p.Validate(); err == nil {
			t.Errorf("%s: validation passed, want error", tc.name)
		}
	}
}

func TestOpMixTotal(t *testing.T) {
	m := OpMix{IntOps: 1, FPOps: 2, Loads: 3, Stores: 4}
	if m.Total() != 10 {
		t.Fatalf("Total = %d", m.Total())
	}
}

func TestMemClassString(t *testing.T) {
	if MemStride.String() != "stride" || MemRandom.String() != "random" {
		t.Fatal("MemClass strings wrong")
	}
	if !strings.Contains(MemClass(9).String(), "9") {
		t.Fatal("unknown MemClass string")
	}
}

func TestStaticOps(t *testing.T) {
	stmts := []Stmt{
		&Compute{Line: 1, Ops: OpMix{IntOps: 5}},
		&Loop{ID: 0, Line: 2, Trip: TripSpec{Base: 100},
			Body: []Stmt{&Compute{Line: 3, Ops: OpMix{IntOps: 7}}}},
		&Call{Line: 4, Callee: 0},
	}
	// 5 + (7+1) + 1 = 14; static size ignores trip counts.
	if got := StaticOps(stmts); got != 14 {
		t.Fatalf("StaticOps = %d, want 14", got)
	}
}

func TestWsLadderWithinBenchmarksSpansCaches(t *testing.T) {
	// At least one benchmark must stress DRAM and one must fit in L1, or
	// the CPI spread the paper's figures rely on cannot appear.
	var sawTiny, sawHuge bool
	for _, tr := range benchTraits {
		for _, ws := range tr.wsLadder {
			if ws <= 32<<10 {
				sawTiny = true
			}
			if ws > 1<<20 {
				sawHuge = true
			}
		}
	}
	if !sawTiny || !sawHuge {
		t.Fatalf("ws ladders do not span cache hierarchy: tiny=%v huge=%v", sawTiny, sawHuge)
	}
}

func TestTripJitterBounds(t *testing.T) {
	for _, name := range Benchmarks() {
		p := MustGenerate(name, GenConfig{TargetOps: 300_000})
		for _, l := range p.Loops() {
			if l.Trip.Jitter >= l.Trip.Base {
				t.Fatalf("%s loop %d: jitter %d >= base %d", name, l.ID, l.Trip.Jitter, l.Trip.Base)
			}
		}
	}
}

func TestEstimateDynamicOpsAdditive(t *testing.T) {
	p := &Program{Name: "t", Procs: []*Proc{
		{Index: 0, Name: "main", Line: 1, Body: []Stmt{
			&Loop{ID: 0, Line: 2, Trip: TripSpec{Base: 10}, Body: []Stmt{
				&Compute{Line: 3, Ops: OpMix{IntOps: 3}},
				&Call{Line: 4, Callee: 1},
			}},
		}},
		{Index: 1, Name: "leaf", Line: 5, Body: []Stmt{
			&Compute{Line: 6, Ops: OpMix{IntOps: 2}},
		}},
	}}
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	// 10 * (3 + 8 + 2) = 130
	if got := EstimateDynamicOps(p); got != 130 {
		t.Fatalf("EstimateDynamicOps = %d, want 130", got)
	}
}

func TestGenerateDefaultTargetOps(t *testing.T) {
	p := MustGenerate("gzip", GenConfig{})
	est := EstimateDynamicOps(p)
	if ratio := float64(est) / 10_000_000; math.Abs(math.Log2(ratio)) > 1.5 {
		t.Fatalf("default TargetOps estimate %d far from 10M", est)
	}
}
