package profile

import (
	"context"
	"runtime"
	"testing"

	"xbsim/internal/compiler"
	"xbsim/internal/exec"
	"xbsim/internal/program"
)

var refInput = program.Input{Name: "ref", Seed: 99}

func binFor(t testing.TB, name string, tg compiler.Target) *compiler.Binary {
	t.Helper()
	p, err := program.Generate(name, program.GenConfig{TargetOps: 200_000})
	if err != nil {
		t.Fatal(err)
	}
	return compiler.MustCompile(p, tg)
}

func allMarkers(bin *compiler.Binary) []int {
	ids := make([]int, len(bin.Markers))
	for i := range ids {
		ids[i] = i
	}
	return ids
}

func TestCollectProfileBasics(t *testing.T) {
	bin := binFor(t, "gzip", compiler.Target{Arch: compiler.Arch32, Opt: compiler.O0})
	p, err := Collect(context.Background(), bin, refInput)
	if err != nil {
		t.Fatal(err)
	}
	if p.TotalInstructions == 0 {
		t.Fatal("no instructions profiled")
	}
	if len(p.Procs) != len(bin.Symbols) {
		t.Fatalf("%d proc profiles for %d symbols", len(p.Procs), len(bin.Symbols))
	}
	main := p.ProcBySymbol("main")
	if main == nil || main.Count != 1 {
		t.Fatalf("main profile %+v", main)
	}
	if p.ProcBySymbol("no-such-proc") != nil {
		t.Fatal("found nonexistent proc")
	}
	for _, l := range p.Loops {
		if l.EntryCount == 0 {
			t.Fatalf("loop (line %d) never entered; generator should produce live code", l.Line)
		}
		if l.BodyCount < l.EntryCount {
			t.Fatalf("loop body count %d < entry count %d", l.BodyCount, l.EntryCount)
		}
	}
}

func TestProfileLoopPairing(t *testing.T) {
	// Every loop-entry/body marker in the binary must be represented in
	// exactly one LoopProfile.
	bin := binFor(t, "applu", compiler.Target{Arch: compiler.Arch64, Opt: compiler.O2})
	p, err := Collect(context.Background(), bin, refInput)
	if err != nil {
		t.Fatal(err)
	}
	seen := map[int]bool{}
	for _, l := range p.Loops {
		if seen[l.EntryMarker] || seen[l.BodyMarker] {
			t.Fatal("marker in two loop profiles")
		}
		seen[l.EntryMarker] = true
		seen[l.BodyMarker] = true
		if bin.Markers[l.EntryMarker].Kind != compiler.MarkerLoopEntry {
			t.Fatal("entry marker wrong kind")
		}
		if bin.Markers[l.BodyMarker].Kind != compiler.MarkerLoopBody {
			t.Fatal("body marker wrong kind")
		}
	}
	loopMarkers := 0
	for _, m := range bin.Markers {
		if m.Kind != compiler.MarkerProcEntry {
			loopMarkers++
		}
	}
	if len(seen) != loopMarkers {
		t.Fatalf("paired %d loop markers of %d", len(seen), loopMarkers)
	}
}

func TestBuildProfileRejectsBadCounts(t *testing.T) {
	bin := binFor(t, "art", compiler.Target{Arch: compiler.Arch32, Opt: compiler.O0})
	if _, err := BuildProfile(bin, refInput, 0, make([]uint64, 3)); err == nil {
		t.Fatal("wrong-length counts accepted")
	}
}

func TestFLICollectorCoversExecution(t *testing.T) {
	bin := binFor(t, "gzip", compiler.Target{Arch: compiler.Arch32, Opt: compiler.O2})
	const size = 20_000
	c, err := NewFLICollector(bin, size)
	if err != nil {
		t.Fatal(err)
	}
	ic := exec.NewInstructionCounter(bin)
	if err := exec.Run(bin, refInput, exec.Multi{c, ic}); err != nil {
		t.Fatal(err)
	}
	res := c.Finish()
	if res.Dataset.Len() < 2 {
		t.Fatalf("only %d intervals", res.Dataset.Len())
	}
	if res.Dataset.TotalInstructions() != ic.Instructions {
		t.Fatalf("intervals cover %d of %d instructions",
			res.Dataset.TotalInstructions(), ic.Instructions)
	}
	// All intervals except the last must be >= size and < size + max
	// block; ends must be strictly increasing.
	var prev uint64
	for i, end := range res.Ends {
		if end <= prev {
			t.Fatalf("interval %d end %d not increasing", i, end)
		}
		length := end - prev
		if i < len(res.Ends)-1 && length < size {
			t.Fatalf("interval %d has %d < size instructions", i, length)
		}
		if length != res.Dataset.Lengths()[i] {
			t.Fatalf("interval %d length mismatch: %d vs %d", i, length, res.Dataset.Lengths()[i])
		}
		prev = end
	}
	if res.Ends[len(res.Ends)-1] != ic.Instructions || res.TotalInstructions() != ic.Instructions {
		t.Fatal("last interval does not end at program end")
	}
}

func TestNewFLICollectorRejectsZeroSize(t *testing.T) {
	bin := binFor(t, "art", compiler.Target{Arch: compiler.Arch32, Opt: compiler.O0})
	if _, err := NewFLICollector(bin, 0); err == nil {
		t.Fatal("zero size accepted")
	}
}

func TestVLICollectorCutsAtMarkers(t *testing.T) {
	bin := binFor(t, "gzip", compiler.Target{Arch: compiler.Arch32, Opt: compiler.O2})
	const size = 20_000
	c, err := NewVLICollector(bin, size, allMarkers(bin))
	if err != nil {
		t.Fatal(err)
	}
	ic := exec.NewInstructionCounter(bin)
	if err := exec.Run(bin, refInput, exec.Multi{c, ic}); err != nil {
		t.Fatal(err)
	}
	res := c.Finish()
	if res.Dataset.Len() < 2 {
		t.Fatalf("only %d intervals", res.Dataset.Len())
	}
	if res.Dataset.TotalInstructions() != ic.Instructions {
		t.Fatalf("VLIs cover %d of %d instructions",
			res.Dataset.TotalInstructions(), ic.Instructions)
	}
	for i, l := range res.Dataset.Lengths() {
		if i < res.Dataset.Len()-1 && l < size {
			t.Fatalf("interval %d has %d < size instructions", i, l)
		}
	}
	for i, b := range res.Ends {
		last := i == len(res.Ends)-1
		if b.Marker == -1 && !last {
			t.Fatal("interior end-of-program boundary")
		}
		if b.Marker >= 0 && b.Count == 0 {
			t.Fatal("zero-count boundary")
		}
	}
}

func TestVLICollectorRestrictedMarkersGiveBiggerIntervals(t *testing.T) {
	bin := binFor(t, "gzip", compiler.Target{Arch: compiler.Arch32, Opt: compiler.O2})
	const size = 10_000
	// Only proc-entry markers allowed: intervals must be at least as large
	// as with all markers, typically larger.
	var procOnly []int
	for _, m := range bin.Markers {
		if m.Kind == compiler.MarkerProcEntry {
			procOnly = append(procOnly, m.ID)
		}
	}
	run := func(markers []int) float64 {
		c, err := NewVLICollector(bin, size, markers)
		if err != nil {
			t.Fatal(err)
		}
		if err := exec.Run(bin, refInput, c); err != nil {
			t.Fatal(err)
		}
		res := c.Finish()
		return float64(res.Dataset.TotalInstructions()) / float64(res.Dataset.Len())
	}
	avgAll := run(allMarkers(bin))
	avgProc := run(procOnly)
	if avgProc < avgAll {
		t.Fatalf("restricting markers shrank intervals: %v vs %v", avgProc, avgAll)
	}
}

func TestNewVLICollectorValidation(t *testing.T) {
	bin := binFor(t, "art", compiler.Target{Arch: compiler.Arch32, Opt: compiler.O0})
	if _, err := NewVLICollector(bin, 0, nil); err == nil {
		t.Fatal("zero size accepted")
	}
	if _, err := NewVLICollector(bin, 10, []int{len(bin.Markers)}); err == nil {
		t.Fatal("out-of-range marker accepted")
	}
}

// TestVLITrackerReplaysCollectorIntervals is the round-trip invariant: the
// boundaries recorded by the collector, replayed through a tracker on the
// SAME binary, must reproduce the interval instruction counts exactly.
func TestVLITrackerReplaysCollectorIntervals(t *testing.T) {
	bin := binFor(t, "vortex", compiler.Target{Arch: compiler.Arch64, Opt: compiler.O2})
	c, err := NewVLICollector(bin, 15_000, allMarkers(bin))
	if err != nil {
		t.Fatal(err)
	}
	if err := exec.Run(bin, refInput, c); err != nil {
		t.Fatal(err)
	}
	res := c.Finish()

	var transitions []int
	tr := NewVLITracker(bin, res.Ends, SinkFunc(func(i int) { transitions = append(transitions, i) }))
	if err := exec.Run(bin, refInput, tr); err != nil {
		t.Fatal(err)
	}
	for i, want := range res.Dataset.Lengths() {
		if tr.Instructions[i] != want {
			t.Fatalf("interval %d: tracker saw %d instrs, collector %d",
				i, tr.Instructions[i], want)
		}
	}
	// Transitions: 0 at start, then one per boundary crossed.
	if len(transitions) == 0 || transitions[0] != 0 {
		t.Fatalf("transitions %v missing start", transitions)
	}
	for i := 1; i < len(transitions); i++ {
		if transitions[i] != transitions[i-1]+1 {
			t.Fatalf("non-sequential transitions %v", transitions)
		}
	}
	wantTrans := len(res.Ends)
	if res.Ends[len(res.Ends)-1] == BoundaryEnd {
		wantTrans-- // end-of-program boundary never fires as a marker
	}
	if len(transitions) != wantTrans+1 {
		t.Fatalf("%d transitions, want %d", len(transitions), wantTrans+1)
	}
}

// TestVLITrackerCrossBinaryInstructionAttribution checks that replaying
// the primary binary's boundaries on another binary (after translating
// markers via ground-truth source loop IDs) accounts for that binary's
// full execution across intervals.
func TestVLITrackerCrossBinaryInstructionAttribution(t *testing.T) {
	p, err := program.Generate("gzip", program.GenConfig{TargetOps: 200_000})
	if err != nil {
		t.Fatal(err)
	}
	a := compiler.MustCompile(p, compiler.Target{Arch: compiler.Arch32, Opt: compiler.O0})
	b := compiler.MustCompile(p, compiler.Target{Arch: compiler.Arch64, Opt: compiler.O0})
	// O0/O0 across arch: marker tables align index-for-index (verified in
	// compiler tests), so translation is the identity.
	c, err := NewVLICollector(a, 15_000, allMarkers(a))
	if err != nil {
		t.Fatal(err)
	}
	if err := exec.Run(a, refInput, c); err != nil {
		t.Fatal(err)
	}
	res := c.Finish()

	tr := NewVLITracker(b, res.Ends, nil)
	ic := exec.NewInstructionCounter(b)
	if err := exec.Run(b, refInput, exec.Multi{tr, ic}); err != nil {
		t.Fatal(err)
	}
	var sum uint64
	for _, n := range tr.Instructions {
		sum += n
	}
	if sum != ic.Instructions {
		t.Fatalf("intervals account for %d of %d instructions in the other binary",
			sum, ic.Instructions)
	}
	// The mapped intervals must all be non-empty: the same semantic region
	// executes work in every binary.
	for i, n := range tr.Instructions {
		if n == 0 {
			t.Fatalf("interval %d empty in mapped binary", i)
		}
	}
}

func TestFLITrackerMatchesCollector(t *testing.T) {
	bin := binFor(t, "twolf", compiler.Target{Arch: compiler.Arch32, Opt: compiler.O0})
	c, err := NewFLICollector(bin, 25_000)
	if err != nil {
		t.Fatal(err)
	}
	if err := exec.Run(bin, refInput, c); err != nil {
		t.Fatal(err)
	}
	res := c.Finish()

	var transitions []int
	tr := NewFLITracker(bin, res.Ends, SinkFunc(func(i int) { transitions = append(transitions, i) }))
	if err := exec.Run(bin, refInput, tr); err != nil {
		t.Fatal(err)
	}
	for i, want := range res.Dataset.Lengths() {
		if tr.Instructions[i] != want {
			t.Fatalf("interval %d: tracker %d vs collector %d", i, tr.Instructions[i], want)
		}
	}
	if transitions[0] != 0 || len(transitions) != len(res.Ends)+1 {
		t.Fatalf("transitions %v for %d intervals", transitions, len(res.Ends))
	}
}

func TestFLIResultTotalInstructionsEmpty(t *testing.T) {
	if got := (&FLIResult{}).TotalInstructions(); got != 0 {
		t.Fatalf("empty result TotalInstructions = %d", got)
	}
}

// unitBinary is a binary of n one-instruction blocks, enough for the
// collectors, which read only the block table.
func unitBinary(n int) *compiler.Binary {
	bin := &compiler.Binary{Blocks: make([]compiler.Block, n)}
	for i := range bin.Blocks {
		bin.Blocks[i] = compiler.Block{ID: i, Instrs: 1}
	}
	return bin
}

// FLICollector.OnBlock allocates nothing between cuts. A cut copies its
// row into the dataset's shared chunks, so short rows allocate only when a
// chunk fills, and no cut allocates more than one chunk pair (block IDs
// and weights) plus the amortized growth of the slices that hold one entry
// per interval or per chunk.
func TestFLICollectorAllocations(t *testing.T) {
	const n = 1000
	c, err := NewFLICollector(unitBinary(n), 1<<62)
	if err != nil {
		t.Fatal(err)
	}
	for b := 0; b < n; b++ {
		c.OnBlock(b) // grow the dense vector once
	}
	var b int
	if allocs := testing.AllocsPerRun(10*n, func() { c.OnBlock(b % n); b++ }); allocs != 0 {
		t.Fatalf("OnBlock between cuts allocates %v times", allocs)
	}

	// perCut returns the mean allocations of a cut over cuts intervals
	// that each touch `distinct` blocks once; the last block cuts. It
	// keeps the fraction testing.AllocsPerRun truncates away.
	perCut := func(distinct, cuts int) float64 {
		c, err := NewFLICollector(unitBinary(distinct), uint64(distinct))
		if err != nil {
			t.Fatal(err)
		}
		for b := 0; b < distinct; b++ {
			c.OnBlock(b)
		}
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < cuts*distinct; i++ {
			c.OnBlock(i % distinct)
		}
		runtime.ReadMemStats(&after)
		return float64(after.Mallocs-before.Mallocs) / float64(cuts)
	}
	short := perCut(10, 2000)
	t.Logf("a cut of 10 distinct blocks allocates %v times on average", short)
	if short >= 0.1 {
		t.Fatalf("a cut of 10 distinct blocks allocates %v times on average; want < 0.1", short)
	}
	// 1000 blocks fill most of a chunk, 5000 take a chunk of their own:
	// either way a cut allocates one chunk pair. In 1000 cuts the five
	// per-interval and per-chunk slices (rows, lengths, ends, and the two
	// chunk lists) each grow about fifteen times, under 0.1 allocations
	// per cut; the bound leaves room for that and runtime noise.
	for _, distinct := range []int{1000, 5000} {
		got := perCut(distinct, 1000)
		t.Logf("a cut of %d distinct blocks allocates %v times on average", distinct, got)
		if got > 2.25 {
			t.Fatalf("a cut of %d distinct blocks allocates %v times on average; want at most 2 plus header growth (2.25)", distinct, got)
		}
	}
}

func BenchmarkFLICollection(b *testing.B) {
	bin := binFor(b, "gzip", compiler.Target{Arch: compiler.Arch32, Opt: compiler.O2})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c, err := NewFLICollector(bin, 25_000)
		if err != nil {
			b.Fatal(err)
		}
		if err := exec.Run(bin, refInput, c); err != nil {
			b.Fatal(err)
		}
		c.Finish()
	}
}
