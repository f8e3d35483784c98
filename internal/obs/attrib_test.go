package obs

import (
	"testing"
	"time"
)

// TestAttributionAccumulates pins the accumulation semantics: walk
// samples charge wall time, allocation, and simulated totals to the
// walk-level node; AddPoint charges point nodes; repeated charges to one
// key accumulate instead of overwriting.
func TestAttributionAccumulates(t *testing.T) {
	a := NewAttribution()
	if !a.Enabled() {
		t.Fatal("fresh Attribution not enabled")
	}

	ws := a.StartWalk("gcc", "gcc.32u", "full")
	time.Sleep(time.Millisecond)
	ws.Done(1000, 2000)
	ws = a.StartWalk("gcc", "gcc.32u", "full")
	ws.Done(500, 700)
	a.AddPoint("gcc", "gcc.32u", "fli", 3, 100, 150)
	a.AddPoint("gcc", "gcc.32u", "fli", 3, 10, 15)
	a.AddPoint("gcc", "gcc.32u", "fli", 7, 40, 80)

	snap := a.Snapshot()
	if len(snap.Nodes) != 3 {
		t.Fatalf("nodes = %d, want 3 (1 walk + 2 points)", len(snap.Nodes))
	}
	walks := snap.Walks()
	if len(walks) != 1 {
		t.Fatalf("walk nodes = %d, want 1", len(walks))
	}
	w := walks[0]
	if w.Walk != "full" || w.Point != WholeWalk {
		t.Fatalf("walk node = %+v", w)
	}
	if w.Value.Instructions != 1500 || w.Value.Cycles != 2700 {
		t.Errorf("walk totals = %d instr / %d cycles, want 1500/2700",
			w.Value.Instructions, w.Value.Cycles)
	}
	if w.Value.WallNS == 0 {
		t.Error("walk wall time not charged")
	}
	if snap.TotalWallNS() != w.Value.WallNS {
		t.Errorf("TotalWallNS = %d, want %d", snap.TotalWallNS(), w.Value.WallNS)
	}

	var p3 *AttribNode
	for i := range snap.Nodes {
		if snap.Nodes[i].Point == 3 {
			p3 = &snap.Nodes[i]
		}
	}
	if p3 == nil {
		t.Fatal("point 3 node missing")
	}
	if p3.Value.Instructions != 110 || p3.Value.Cycles != 165 || p3.Value.Evals != 2 {
		t.Errorf("point 3 = %+v, want 110 instr, 165 cycles, 2 evals", p3.Value)
	}
}

// TestAttributionSnapshotOrder pins the deterministic node order:
// (benchmark, binary, walk, point) ascending, walk-level nodes (-1)
// before their points.
func TestAttributionSnapshotOrder(t *testing.T) {
	a := NewAttribution()
	a.AddPoint("b", "b.64o", "vli", 9, 1, 1)
	a.AddPoint("b", "b.64o", "vli", 2, 1, 1)
	a.AddPoint("b", "b.32u", "fli", 0, 1, 1)
	a.AddPoint("a", "a.32u", "fli", 5, 1, 1)
	a.StartWalk("b", "b.64o", "vli").Done(1, 1)

	var got []AttribKey
	for _, n := range a.Snapshot().Nodes {
		got = append(got, AttribKey{n.Benchmark, n.Binary, n.Walk, n.Point})
	}
	want := []AttribKey{
		{"a", "a.32u", "fli", 5},
		{"b", "b.32u", "fli", 0},
		{"b", "b.64o", "vli", WholeWalk},
		{"b", "b.64o", "vli", 2},
		{"b", "b.64o", "vli", 9},
	}
	if len(got) != len(want) {
		t.Fatalf("nodes = %+v, want %+v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("node %d = %+v, want %+v", i, got[i], want[i])
		}
	}
}

// TestAttributionNilSafe pins the package contract on the new type: a
// nil *Attribution and a nil *WalkSample are valid no-op sinks.
func TestAttributionNilSafe(t *testing.T) {
	var a *Attribution
	if a.Enabled() {
		t.Error("nil Attribution enabled")
	}
	ws := a.StartWalk("b", "x", "full")
	if ws != nil {
		t.Fatalf("nil StartWalk = %v, want nil", ws)
	}
	ws.Done(1, 2)
	a.AddPoint("b", "x", "full", 0, 1, 2)
	snap := a.Snapshot()
	if len(snap.Nodes) != 0 {
		t.Errorf("nil snapshot = %+v, want empty", snap)
	}

	var o *Observer
	if o.Attribution() != nil {
		t.Error("nil Observer.Attribution() != nil")
	}
	if (&Observer{}).Attribution() != nil {
		t.Error("Attribution() on observer without profiler != nil")
	}
}

// TestAttributionDisabledZeroAlloc pins the zero-cost-when-off contract
// the hot path relies on: the full disabled call sequence — StartWalk,
// Done, AddPoint — performs no allocations.
func TestAttributionDisabledZeroAlloc(t *testing.T) {
	var a *Attribution
	allocs := testing.AllocsPerRun(1000, func() {
		ws := a.StartWalk("gcc", "gcc.32u", "full")
		ws.Done(100, 200)
		a.AddPoint("gcc", "gcc.32u", "fli", 3, 10, 20)
	})
	if allocs != 0 {
		t.Fatalf("disabled attribution path allocates %.1f bytes/op, want 0", allocs)
	}
}

// BenchmarkAttributionDisabled measures the disabled path so regressions
// in its cost show up in benchstat diffs.
func BenchmarkAttributionDisabled(b *testing.B) {
	var a *Attribution
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		ws := a.StartWalk("gcc", "gcc.32u", "full")
		ws.Done(100, 200)
		a.AddPoint("gcc", "gcc.32u", "fli", 3, 10, 20)
	}
}

// BenchmarkAttributionEnabled measures the enabled recording cost at the
// real granularity (one walk sample + one point).
func BenchmarkAttributionEnabled(b *testing.B) {
	a := NewAttribution()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		ws := a.StartWalk("gcc", "gcc.32u", "full")
		ws.Done(100, 200)
		a.AddPoint("gcc", "gcc.32u", "fli", 3, 10, 20)
	}
}
