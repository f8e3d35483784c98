package exec

import (
	"context"
	"slices"
	"testing"

	"xbsim/internal/compiler"
	"xbsim/internal/obs"
	"xbsim/internal/program"
)

var refInput = program.Input{Name: "ref", Seed: 0xC0FFEE}

func smallProgram(t *testing.T, name string) *program.Program {
	t.Helper()
	p, err := program.Generate(name, program.GenConfig{TargetOps: 200_000})
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func runCounters(t *testing.T, bin *compiler.Binary) (*InstructionCounter, *MarkerCounter) {
	t.Helper()
	ic := NewInstructionCounter(bin)
	mc := NewMarkerCounter(bin)
	if err := RunCtx(context.Background(), bin, refInput, Multi{ic, mc}); err != nil {
		t.Fatal(err)
	}
	return ic, mc
}

func TestTripCountBoundsAndDeterminism(t *testing.T) {
	spec := program.TripSpec{Base: 100, Jitter: 7}
	for ord := uint64(0); ord < 200; ord++ {
		v := TripCount(spec, 42, 3, ord)
		if v < 93 || v > 107 {
			t.Fatalf("trip %d out of [93,107]", v)
		}
		if v != TripCount(spec, 42, 3, ord) {
			t.Fatal("TripCount not deterministic")
		}
	}
	if TripCount(program.TripSpec{Base: 5}, 1, 1, 1) != 5 {
		t.Fatal("zero-jitter trip should equal base")
	}
}

func TestTripCountVariesWithOrdinalAndSeed(t *testing.T) {
	spec := program.TripSpec{Base: 100, Jitter: 10}
	varied := false
	for ord := uint64(1); ord < 50; ord++ {
		if TripCount(spec, 42, 3, ord) != TripCount(spec, 42, 3, 0) {
			varied = true
		}
	}
	if !varied {
		t.Fatal("trip count constant across ordinals despite jitter")
	}
	if TripCount(spec, 1, 3, 0) == TripCount(spec, 2, 3, 0) &&
		TripCount(spec, 1, 3, 1) == TripCount(spec, 2, 3, 1) &&
		TripCount(spec, 1, 3, 2) == TripCount(spec, 2, 3, 2) {
		t.Fatal("trip counts identical across seeds")
	}
}

func TestRunDeterministic(t *testing.T) {
	p := smallProgram(t, "gzip")
	bin := compiler.MustCompile(p, compiler.Target{Arch: compiler.Arch32, Opt: compiler.O0})
	ic1, mc1 := runCounters(t, bin)
	ic2, mc2 := runCounters(t, bin)
	if ic1.Instructions != ic2.Instructions || ic1.BlockExecs != ic2.BlockExecs {
		t.Fatal("instruction counts differ across identical runs")
	}
	for i := range mc1.Counts {
		if mc1.Counts[i] != mc2.Counts[i] {
			t.Fatalf("marker %d count differs across identical runs", i)
		}
	}
}

func TestDifferentInputsDiffer(t *testing.T) {
	p := smallProgram(t, "gzip")
	bin := compiler.MustCompile(p, compiler.Target{Arch: compiler.Arch32, Opt: compiler.O0})
	ic1 := NewInstructionCounter(bin)
	if err := RunCtx(context.Background(), bin, program.Input{Name: "a", Seed: 1}, ic1); err != nil {
		t.Fatal(err)
	}
	ic2 := NewInstructionCounter(bin)
	if err := RunCtx(context.Background(), bin, program.Input{Name: "b", Seed: 2}, ic2); err != nil {
		t.Fatal(err)
	}
	if ic1.Instructions == ic2.Instructions {
		t.Fatal("different input seeds produced identical instruction counts (suspicious)")
	}
}

// TestSemanticInvarianceAcrossBinaries is the load-bearing test of the
// whole reproduction: procedure call counts and loop execution counts must
// be identical across all four binaries of a program.
func TestSemanticInvarianceAcrossBinaries(t *testing.T) {
	for _, name := range []string{"gzip", "gcc", "applu", "mcf"} {
		p := smallProgram(t, name)
		bins, err := compiler.CompileAll(p)
		if err != nil {
			t.Fatal(err)
		}
		// Collect per-binary: symbol -> proc entry count, and per source
		// loop: entry count (summed over pieces must NOT be used — each
		// piece fires once per entry, so piece 0's count equals the
		// semantic entry count) and total latch-at-unroll-1 iteration
		// counts where comparable.
		type loopCounts struct {
			entryPiece0 uint64
			bodyTotal   uint64 // only comparable for unroll==1, single piece
			unroll      int
			pieces      int
		}
		procCounts := make([]map[string]uint64, len(bins))
		loopEntry := make([]map[int]uint64, len(bins))
		for bi, bin := range bins {
			mc := NewMarkerCounter(bin)
			if err := RunCtx(context.Background(), bin, refInput, mc); err != nil {
				t.Fatal(err)
			}
			procCounts[bi] = map[string]uint64{}
			loopEntry[bi] = map[int]uint64{}
			for _, m := range bin.Markers {
				switch m.Kind {
				case compiler.MarkerProcEntry:
					procCounts[bi][m.Symbol] = mc.Counts[m.ID]
				case compiler.MarkerLoopEntry:
					// Sum over inline clones (one clone per call site),
					// counting only piece 0 so distributed loops are not
					// double-counted.
					if m.Piece == 0 {
						loopEntry[bi][m.SourceLoopID] += mc.Counts[m.ID]
					}
				}
			}
		}
		// Symbols present in all binaries must agree on call counts.
		for sym, want := range procCounts[0] {
			for bi := 1; bi < len(bins); bi++ {
				got, ok := procCounts[bi][sym]
				if !ok {
					continue // inlined away in this binary
				}
				if got != want {
					t.Fatalf("%s: proc %s count %d in %s vs %d in %s",
						name, sym, want, bins[0].Target, got, bins[bi].Target)
				}
			}
		}
		// Loop entries (piece 0) must agree everywhere the loop exists.
		for id, want := range loopEntry[0] {
			for bi := 1; bi < len(bins); bi++ {
				if got, ok := loopEntry[bi][id]; ok && got != want {
					t.Fatalf("%s: loop %d entry count %d in %s vs %d in %s",
						name, id, want, bins[0].Target, got, bins[bi].Target)
				}
			}
		}
	}
}

func TestDistributedPiecesFireEqually(t *testing.T) {
	p := smallProgram(t, "applu")
	o2 := compiler.MustCompile(p, compiler.Target{Arch: compiler.Arch32, Opt: compiler.O2})
	mc := NewMarkerCounter(o2)
	if err := RunCtx(context.Background(), o2, refInput, mc); err != nil {
		t.Fatal(err)
	}
	// For every distributed loop, both pieces' entry markers fire the same
	// number of times, and both latch markers fire the same number too.
	byLoop := map[int]map[int]map[compiler.MarkerKind]uint64{} // loopID -> piece -> kind -> count
	for _, m := range o2.Markers {
		if m.SourceLoopID < 0 {
			continue
		}
		if byLoop[m.SourceLoopID] == nil {
			byLoop[m.SourceLoopID] = map[int]map[compiler.MarkerKind]uint64{}
		}
		if byLoop[m.SourceLoopID][m.Piece] == nil {
			byLoop[m.SourceLoopID][m.Piece] = map[compiler.MarkerKind]uint64{}
		}
		byLoop[m.SourceLoopID][m.Piece][m.Kind] += mc.Counts[m.ID]
	}
	checked := false
	for id, pieces := range byLoop {
		if len(pieces) < 2 {
			continue
		}
		checked = true
		e0 := pieces[0][compiler.MarkerLoopEntry]
		e1 := pieces[1][compiler.MarkerLoopEntry]
		if e0 != e1 {
			t.Fatalf("loop %d pieces entered unequally: %d vs %d", id, e0, e1)
		}
		b0 := pieces[0][compiler.MarkerLoopBody]
		b1 := pieces[1][compiler.MarkerLoopBody]
		if b0 != b1 {
			t.Fatalf("loop %d piece latches fired unequally: %d vs %d", id, b0, b1)
		}
	}
	if !checked {
		t.Fatal("no distributed loops found in applu O2")
	}
}

func TestUnrolledLatchCountsShrink(t *testing.T) {
	p := smallProgram(t, "swim")
	o0 := compiler.MustCompile(p, compiler.Target{Arch: compiler.Arch32, Opt: compiler.O0})
	o2 := compiler.MustCompile(p, compiler.Target{Arch: compiler.Arch32, Opt: compiler.O2})
	mc0 := NewMarkerCounter(o0)
	if err := RunCtx(context.Background(), o0, refInput, mc0); err != nil {
		t.Fatal(err)
	}
	mc2 := NewMarkerCounter(o2)
	if err := RunCtx(context.Background(), o2, refInput, mc2); err != nil {
		t.Fatal(err)
	}
	latchBySource := func(b *compiler.Binary, mc *MarkerCounter) map[int]uint64 {
		out := map[int]uint64{}
		for _, m := range b.Markers {
			if m.Kind == compiler.MarkerLoopBody {
				out[m.SourceLoopID] += mc.Counts[m.ID]
			}
		}
		return out
	}
	l0 := latchBySource(o0, mc0)
	l2 := latchBySource(o2, mc2)
	// Find an unrolled loop and verify its latch count dropped ~4x.
	found := false
	var walk func(stmts []compiler.LStmt)
	walk = func(stmts []compiler.LStmt) {
		for _, s := range stmts {
			switch s := s.(type) {
			case *compiler.LLoop:
				if s.Unroll == compiler.UnrollFactor {
					a, b := l0[s.SourceID], l2[s.SourceID]
					if a == 0 || b == 0 {
						continue
					}
					ratio := float64(a) / float64(b)
					if ratio < 3 || ratio > 5 {
						t.Fatalf("loop %d latch ratio %.2f, want ~4", s.SourceID, ratio)
					}
					found = true
				}
				for _, p := range s.Pieces {
					walk(p.Body)
				}
			case *compiler.LCall:
				if s.Inlined != nil {
					walk(s.Inlined.Stmts)
				}
			}
		}
	}
	for _, proc := range o2.Procs {
		if proc != nil {
			walk(proc.Stmts)
		}
	}
	if !found {
		t.Fatal("no unrolled loop with comparable counts")
	}
}

func TestO0ExecutesMoreInstructions(t *testing.T) {
	p := smallProgram(t, "crafty")
	o0 := compiler.MustCompile(p, compiler.Target{Arch: compiler.Arch32, Opt: compiler.O0})
	o2 := compiler.MustCompile(p, compiler.Target{Arch: compiler.Arch32, Opt: compiler.O2})
	ic0, _ := runCounters(t, o0)
	ic2, _ := runCounters(t, o2)
	if ic0.Instructions <= ic2.Instructions {
		t.Fatalf("O0 executed %d instrs, O2 %d", ic0.Instructions, ic2.Instructions)
	}
	ratio := float64(ic0.Instructions) / float64(ic2.Instructions)
	if ratio < 1.5 || ratio > 5 {
		t.Fatalf("O0/O2 dynamic ratio %.2f outside plausible [1.5,5]", ratio)
	}
}

func Test32BitExecutesMoreThan64Bit(t *testing.T) {
	p := smallProgram(t, "apsi")
	b32 := compiler.MustCompile(p, compiler.Target{Arch: compiler.Arch32, Opt: compiler.O2})
	b64 := compiler.MustCompile(p, compiler.Target{Arch: compiler.Arch64, Opt: compiler.O2})
	ic32, _ := runCounters(t, b32)
	ic64, _ := runCounters(t, b64)
	if ic32.Instructions <= ic64.Instructions {
		t.Fatalf("32-bit executed %d, 64-bit %d; expected 32-bit larger",
			ic32.Instructions, ic64.Instructions)
	}
}

func TestRunnerRejectsNil(t *testing.T) {
	if _, err := NewRunner(nil, refInput); err == nil {
		t.Fatal("nil binary accepted")
	}
}

func TestMultiVisitorFansOut(t *testing.T) {
	p := smallProgram(t, "art")
	bin := compiler.MustCompile(p, compiler.Target{Arch: compiler.Arch32, Opt: compiler.O2})
	a := NewInstructionCounter(bin)
	b := NewInstructionCounter(bin)
	if err := RunCtx(context.Background(), bin, refInput, Multi{a, b}); err != nil {
		t.Fatal(err)
	}
	if a.Instructions != b.Instructions || a.Instructions == 0 {
		t.Fatalf("multi visitor mismatch: %d vs %d", a.Instructions, b.Instructions)
	}
}

// eventLog records, for every visitor sharing it, each event in arrival
// order: visitor ID, then the block (non-negative) or ^marker.
type eventLog struct{ events []int }

type recorder struct {
	id  int
	log *eventLog
}

func (r recorder) OnBlock(b int)  { r.log.events = append(r.log.events, r.id, b) }
func (r recorder) OnMarker(m int) { r.log.events = append(r.log.events, r.id, ^m) }

func TestFlattenSplicesNestedMulti(t *testing.T) {
	log := &eventLog{}
	r := func(id int) Visitor { return recorder{id, log} }
	args := []Visitor{r(0), Multi{r(1), Multi{r(2), Multi{}}, r(3)}, r(4)}
	got := flatten(args...)
	want := Multi{r(0), r(1), r(2), r(3), r(4)}
	if !slices.Equal(got, want) || cap(got) != len(want) {
		t.Fatalf("flatten = %v (cap %d), want %v", got, cap(got), want)
	}
	if allocs := testing.AllocsPerRun(100, func() { got = flatten(args...) }); allocs != 1 {
		t.Fatalf("flatten allocates %v times, want 1", allocs)
	}
}

// RunCtx splices its cancellation checker and metrics visitors into the
// caller's Multi; every visitor must still see the same events in the
// same interleaving as a plain Run of the nested Multi.
func TestRunCtxFlatFanOutKeepsEventOrder(t *testing.T) {
	p := smallProgram(t, "mcf")
	bin := compiler.MustCompile(p, compiler.Target{Arch: compiler.Arch64, Opt: compiler.O2})
	nested := func(log *eventLog) Visitor {
		return Multi{recorder{0, log}, Multi{recorder{1, log}, recorder{2, log}}, recorder{3, log}}
	}
	var want eventLog
	if err := RunCtx(context.Background(), bin, refInput, nested(&want)); err != nil {
		t.Fatal(err)
	}
	cancelable, cancel := context.WithCancel(context.Background())
	defer cancel()
	for name, ctx := range map[string]context.Context{
		"cancelable": cancelable,
		"observed":   obs.With(context.Background(), obs.New()),
		"both":       obs.With(cancelable, obs.New()),
	} {
		var got eventLog
		if err := RunCtx(ctx, bin, refInput, nested(&got)); err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(got.events, want.events) {
			t.Fatalf("%s: RunCtx delivered %d events differently from Run's %d", name, len(got.events), len(want.events))
		}
	}
}

func BenchmarkRun(b *testing.B) {
	p, err := program.Generate("gzip", program.GenConfig{TargetOps: 200_000})
	if err != nil {
		b.Fatal(err)
	}
	bin := compiler.MustCompile(p, compiler.Target{Arch: compiler.Arch32, Opt: compiler.O2})
	ic := NewInstructionCounter(bin)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := RunCtx(context.Background(), bin, refInput, ic); err != nil {
			b.Fatal(err)
		}
	}
	b.SetBytes(0)
	b.ReportMetric(float64(ic.Instructions)/float64(b.N), "instrs/run")
}
