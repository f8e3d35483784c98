package compiler

import (
	"reflect"
	"strings"
	"testing"

	"xbsim/internal/program"
)

func genProg(t *testing.T, name string) *program.Program {
	t.Helper()
	p, err := program.Generate(name, program.GenConfig{TargetOps: 400_000})
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestCompileAllBenchmarksAllTargets(t *testing.T) {
	for _, name := range program.Benchmarks() {
		p := genProg(t, name)
		bins, err := CompileAll(p)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if len(bins) != 4 {
			t.Fatalf("%s: %d binaries", name, len(bins))
		}
		for _, b := range bins {
			if len(b.Blocks) == 0 || len(b.Markers) == 0 {
				t.Fatalf("%s %s: empty binary", name, b.Target)
			}
			if b.Entry() == nil {
				t.Fatalf("%s %s: no entry", name, b.Target)
			}
		}
	}
}

func TestTargetStrings(t *testing.T) {
	want := []string{"32u", "32o", "64u", "64o"}
	for i, tg := range AllTargets {
		if tg.String() != want[i] {
			t.Errorf("target %d = %q, want %q", i, tg, want[i])
		}
	}
}

func TestCompileDeterministic(t *testing.T) {
	p := genProg(t, "gcc")
	a := MustCompile(p, Target{Arch32, O2})
	b := MustCompile(p, Target{Arch32, O2})
	if !reflect.DeepEqual(a.Blocks, b.Blocks) || !reflect.DeepEqual(a.Markers, b.Markers) {
		t.Fatal("compilation not deterministic")
	}
}

func TestO0KeepsAllSymbols(t *testing.T) {
	p := genProg(t, "gcc")
	b := MustCompile(p, Target{Arch32, O0})
	if len(b.Symbols) != len(p.Procs) {
		t.Fatalf("O0 has %d symbols for %d procs", len(b.Symbols), len(p.Procs))
	}
	for _, proc := range p.Procs {
		if b.SymbolByName(proc.Name) == nil {
			t.Errorf("O0 missing symbol %q", proc.Name)
		}
	}
}

func TestO2InlinesSmallProcs(t *testing.T) {
	p := genProg(t, "gcc")
	b := MustCompile(p, Target{Arch64, O2})
	// Helpers are below the threshold and must lose their symbols.
	for _, proc := range p.Procs {
		isSmall := program.StaticOps(proc.Body) < inlineThreshold && proc.Index != 0
		sym := b.SymbolByName(proc.Name)
		if isSmall && sym != nil {
			t.Errorf("O2 kept symbol for small proc %q", proc.Name)
		}
		if !isSmall && sym == nil {
			t.Errorf("O2 dropped symbol for large proc %q", proc.Name)
		}
	}
	// gcc has helpers, so at least one symbol must disappear.
	if len(b.Symbols) >= len(p.Procs) {
		t.Fatal("O2 inlined nothing in gcc")
	}
}

func TestO2UnrollsInnermostComputeLoops(t *testing.T) {
	p := genProg(t, "swim")
	o0 := MustCompile(p, Target{Arch32, O0})
	o2 := MustCompile(p, Target{Arch32, O2})
	if countUnrolled(o0) != 0 {
		t.Fatal("O0 unrolled loops")
	}
	if countUnrolled(o2) == 0 {
		t.Fatal("O2 unrolled nothing")
	}
}

func countUnrolled(b *Binary) int {
	n := 0
	var walk func(stmts []LStmt)
	walk = func(stmts []LStmt) {
		for _, s := range stmts {
			switch s := s.(type) {
			case *LLoop:
				if s.Unroll == UnrollFactor {
					n++
				}
				for _, p := range s.Pieces {
					walk(p.Body)
				}
			case *LCall:
				if s.Inlined != nil {
					walk(s.Inlined.Stmts)
				}
			}
		}
	}
	for _, proc := range b.Procs {
		if proc != nil {
			walk(proc.Stmts)
		}
	}
	return n
}

// collectLoops gathers every LLoop in the binary (including inline clones).
func collectLoops(b *Binary) []*LLoop {
	var out []*LLoop
	var walk func(stmts []LStmt)
	walk = func(stmts []LStmt) {
		for _, s := range stmts {
			switch s := s.(type) {
			case *LLoop:
				out = append(out, s)
				for _, p := range s.Pieces {
					walk(p.Body)
				}
			case *LCall:
				if s.Inlined != nil {
					walk(s.Inlined.Stmts)
				}
			}
		}
	}
	for _, proc := range b.Procs {
		if proc != nil {
			walk(proc.Stmts)
		}
	}
	return out
}

func TestAppluO2DistributesSolverLoops(t *testing.T) {
	p := genProg(t, "applu")
	o2 := MustCompile(p, Target{Arch32, O2})
	distributed := 0
	for _, l := range collectLoops(o2) {
		if len(l.Pieces) == 2 {
			distributed++
		}
	}
	if distributed == 0 {
		t.Fatal("applu O2 distributed no loops")
	}
	o0 := MustCompile(p, Target{Arch32, O0})
	for _, l := range collectLoops(o0) {
		if len(l.Pieces) != 1 {
			t.Fatal("O0 distributed a loop")
		}
	}
}

func TestAppluO2RestructuresLoopsWithInlinedCalls(t *testing.T) {
	p := genProg(t, "applu")
	o2 := MustCompile(p, Target{Arch32, O2})
	restructured := 0
	for _, l := range collectLoops(o2) {
		if l.Unroll == RestructureLatchDiv && len(l.Pieces) == 1 {
			// Verify its markers lost line info.
			for _, m := range o2.Markers {
				if m.Block == l.Pieces[0].EntryBlock && m.Line == 0 {
					restructured++
				}
			}
		}
	}
	if restructured == 0 {
		t.Fatal("applu O2 restructured no loops")
	}
}

func TestInlinedCloneLoopsLoseLineInfo(t *testing.T) {
	p := genProg(t, "gcc")
	o2 := MustCompile(p, Target{Arch32, O2})
	cloneLoopMarkers := 0
	for _, m := range o2.Markers {
		if m.Kind == MarkerLoopEntry && m.Line == 0 {
			cloneLoopMarkers++
		}
	}
	if cloneLoopMarkers == 0 {
		t.Fatal("no line-stripped loop markers at O2 despite inlining")
	}
	o0 := MustCompile(p, Target{Arch32, O0})
	for _, m := range o0.Markers {
		if m.Kind != MarkerProcEntry && m.Line == 0 {
			t.Fatal("O0 loop marker lost line info")
		}
	}
}

func TestO0ExpandsMoreThanO2(t *testing.T) {
	// Compare the lowering of the same source compute statement (matched
	// by source line): O0 must emit clearly more instructions. Static
	// binary totals are not comparable because O2 inline clones duplicate
	// blocks.
	p := genProg(t, "crafty")
	o0 := MustCompile(p, Target{Arch32, O0})
	o2 := MustCompile(p, Target{Arch32, O2})
	perLine := func(b *Binary) map[int]int {
		out := map[int]int{}
		for _, blk := range b.Blocks {
			if blk.SrcLine > 0 && blk.Loads+blk.Stores > 0 {
				if _, ok := out[blk.SrcLine]; !ok {
					out[blk.SrcLine] = blk.Instrs
				}
			}
		}
		return out
	}
	m0, m2 := perLine(o0), perLine(o2)
	compared := 0
	for line, i0 := range m0 {
		i2, ok := m2[line]
		if !ok {
			continue
		}
		compared++
		if float64(i0) < 1.4*float64(i2) {
			t.Fatalf("line %d: O0 %d instrs not clearly larger than O2 %d", line, i0, i2)
		}
	}
	if compared < 5 {
		t.Fatalf("only %d compute blocks comparable", compared)
	}
}

func TestO0HasSpillsO2DoesNot(t *testing.T) {
	p := genProg(t, "crafty")
	o0 := MustCompile(p, Target{Arch32, O0})
	o2 := MustCompile(p, Target{Arch32, O2})
	spills := func(b *Binary) int {
		n := 0
		for _, blk := range b.Blocks {
			n += blk.SpillLoads + blk.SpillStores
		}
		return n
	}
	if spills(o0) == 0 {
		t.Fatal("O0 has no spill traffic")
	}
	if spills(o2) != 0 {
		t.Fatal("O2 has spill traffic")
	}
}

func Test64BitScalesRandomWorkingSets(t *testing.T) {
	p := genProg(t, "mcf") // mcf is pointer-chasing heavy
	b32 := MustCompile(p, Target{Arch32, O0})
	b64 := MustCompile(p, Target{Arch64, O0})
	grew := false
	for i := range b32.Blocks {
		m32, m64 := b32.Blocks[i].Mem, b64.Blocks[i].Mem
		if m32.Class == program.MemRandom && (b32.Blocks[i].Loads > 0 || b32.Blocks[i].Stores > 0) {
			if m64.WorkingSet <= m32.WorkingSet {
				t.Fatalf("block %d: 64-bit random WS %d not larger than 32-bit %d",
					i, m64.WorkingSet, m32.WorkingSet)
			}
			grew = true
		}
		if m32.Class == program.MemStride && m64.WorkingSet != m32.WorkingSet {
			t.Fatalf("block %d: strided WS changed across arch", i)
		}
	}
	if !grew {
		t.Fatal("mcf has no random-access blocks")
	}
}

func TestStackRegionDistinct(t *testing.T) {
	p := genProg(t, "gzip")
	b := MustCompile(p, Target{Arch32, O0})
	for _, blk := range b.Blocks {
		if (blk.Loads > 0 || blk.Stores > 0) && blk.Mem.Region == b.StackRegion {
			t.Fatal("program data region collides with stack region")
		}
	}
	sm := b.StackMem()
	if sm.Region != b.StackRegion || sm.WorkingSet == 0 {
		t.Fatalf("bad stack mem pattern %+v", sm)
	}
}

func TestMarkersWellFormed(t *testing.T) {
	p := genProg(t, "vortex")
	for _, tg := range AllTargets {
		b := MustCompile(p, tg)
		blockSeen := map[int]bool{}
		counts := map[MarkerKind]int{}
		for i, m := range b.Markers {
			if m.ID != i {
				t.Fatalf("%s: marker %d has ID %d", tg, i, m.ID)
			}
			if m.Block < 0 || m.Block >= len(b.Blocks) {
				t.Fatalf("%s: marker %d block out of range", tg, i)
			}
			if blockSeen[m.Block] {
				t.Fatalf("%s: block %d carries two markers", tg, m.Block)
			}
			blockSeen[m.Block] = true
			counts[m.Kind]++
			switch m.Kind {
			case MarkerProcEntry:
				if m.Symbol == "" || m.SourceLoopID != -1 {
					t.Fatalf("%s: bad proc marker %+v", tg, m)
				}
			case MarkerLoopEntry, MarkerLoopBody:
				if m.SourceLoopID < 0 {
					t.Fatalf("%s: loop marker without source loop %+v", tg, m)
				}
			}
		}
		if counts[MarkerProcEntry] != len(b.Symbols) {
			t.Fatalf("%s: %d proc markers for %d symbols", tg, counts[MarkerProcEntry], len(b.Symbols))
		}
		if counts[MarkerLoopEntry] != counts[MarkerLoopBody] {
			t.Fatalf("%s: loop entry/body marker counts differ", tg)
		}
	}
}

func TestBlockIDsConsistent(t *testing.T) {
	p := genProg(t, "eon")
	b := MustCompile(p, Target{Arch64, O2})
	for i, blk := range b.Blocks {
		if blk.ID != i {
			t.Fatalf("block %d has ID %d", i, blk.ID)
		}
		if blk.Instrs <= 0 {
			t.Fatalf("block %d has %d instrs", i, blk.Instrs)
		}
		if blk.FPInstrs > blk.Instrs {
			t.Fatalf("block %d: FP %d > total %d", i, blk.FPInstrs, blk.Instrs)
		}
	}
}

func TestBinaryNames(t *testing.T) {
	p := genProg(t, "art")
	b := MustCompile(p, Target{Arch64, O2})
	if b.Name != "art.64o" {
		t.Fatalf("Name = %q", b.Name)
	}
}

func TestCompileRejectsInvalidProgram(t *testing.T) {
	bad := &program.Program{Name: "bad"}
	if _, err := Compile(bad, Target{Arch32, O0}); err == nil {
		t.Fatal("invalid program accepted")
	}
}

func TestKindStrings(t *testing.T) {
	for _, k := range []MarkerKind{MarkerProcEntry, MarkerLoopEntry, MarkerLoopBody} {
		if k.String() == "" || strings.HasPrefix(k.String(), "MarkerKind") {
			t.Errorf("kind %d has bad string %q", int(k), k)
		}
	}
}

func TestSameOptSameStructureAcrossArch(t *testing.T) {
	// 32o and 64o make identical optimization decisions: same marker
	// structure (kinds, lines, symbols), different instruction counts.
	p := genProg(t, "apsi")
	a := MustCompile(p, Target{Arch32, O2})
	b := MustCompile(p, Target{Arch64, O2})
	if len(a.Markers) != len(b.Markers) {
		t.Fatalf("marker counts differ across arch: %d vs %d", len(a.Markers), len(b.Markers))
	}
	for i := range a.Markers {
		ma, mb := a.Markers[i], b.Markers[i]
		if ma.Kind != mb.Kind || ma.Line != mb.Line || ma.Symbol != mb.Symbol ||
			ma.SourceLoopID != mb.SourceLoopID || ma.Piece != mb.Piece {
			t.Fatalf("marker %d differs across arch: %+v vs %+v", i, ma, mb)
		}
	}
}
