package profile

import (
	"context"
	"testing"

	"xbsim/internal/compiler"
	"xbsim/internal/exec"
)

func TestFLITrackerEmptyEnds(t *testing.T) {
	// No boundaries: everything lands past the last interval and the
	// tracker must not panic or attribute anything.
	bin := binFor(t, "art", compiler.Target{Arch: compiler.Arch32, Opt: compiler.O2})
	tr := NewFLITracker(bin, nil, nil)
	if err := exec.RunCtx(context.Background(), bin, refInput, tr); err != nil {
		t.Fatal(err)
	}
	if tr.Interval() != 0 || len(tr.Instructions) != 0 {
		t.Fatalf("empty-ends tracker state: interval=%d", tr.Interval())
	}
}

func TestVLITrackerEmptyEnds(t *testing.T) {
	bin := binFor(t, "art", compiler.Target{Arch: compiler.Arch32, Opt: compiler.O2})
	tr := NewVLITracker(bin, nil, nil)
	if err := exec.RunCtx(context.Background(), bin, refInput, tr); err != nil {
		t.Fatal(err)
	}
	if tr.Interval() != 0 {
		t.Fatalf("interval = %d", tr.Interval())
	}
}

func TestVLITrackerBoundaryNeverFires(t *testing.T) {
	// A boundary whose count exceeds the marker's total firings: the run
	// stays in interval 0 and all instructions attribute there.
	bin := binFor(t, "art", compiler.Target{Arch: compiler.Arch32, Opt: compiler.O2})
	ends := []Boundary{{Marker: 0, Count: 1 << 60}}
	tr := NewVLITracker(bin, ends, nil)
	ic := exec.NewInstructionCounter(bin)
	if err := exec.RunCtx(context.Background(), bin, refInput, exec.Multi{tr, ic}); err != nil {
		t.Fatal(err)
	}
	if tr.Interval() != 0 {
		t.Fatalf("crossed a boundary that never fired (interval %d)", tr.Interval())
	}
	if tr.Instructions[0] != ic.Instructions {
		t.Fatalf("interval 0 holds %d of %d instructions", tr.Instructions[0], ic.Instructions)
	}
}

func TestFLITrackerZeroOffsetBoundary(t *testing.T) {
	// An end offset of 0 is crossed by the very first block; interval 0
	// gets that block's instructions (attribution is block-granular) and
	// everything after goes to interval 1.
	bin := binFor(t, "art", compiler.Target{Arch: compiler.Arch32, Opt: compiler.O2})
	ic := exec.NewInstructionCounter(bin)
	if err := exec.RunCtx(context.Background(), bin, refInput, ic); err != nil {
		t.Fatal(err)
	}
	tr := NewFLITracker(bin, []uint64{0, ic.Instructions}, nil)
	if err := exec.RunCtx(context.Background(), bin, refInput, tr); err != nil {
		t.Fatal(err)
	}
	if tr.Interval() != 2 {
		t.Fatalf("final interval %d, want 2", tr.Interval())
	}
	if tr.Instructions[0]+tr.Instructions[1] != ic.Instructions {
		t.Fatal("intervals do not partition the run")
	}
}

func TestVLICollectorHugeSizeYieldsOneInterval(t *testing.T) {
	bin := binFor(t, "art", compiler.Target{Arch: compiler.Arch32, Opt: compiler.O2})
	c, err := NewVLICollector(bin, 1<<50, allMarkers(bin))
	if err != nil {
		t.Fatal(err)
	}
	if err := exec.RunCtx(context.Background(), bin, refInput, c); err != nil {
		t.Fatal(err)
	}
	res := c.Finish()
	if res.Dataset.Len() != 1 {
		t.Fatalf("%d intervals for huge target", res.Dataset.Len())
	}
	if res.Ends[0] != BoundaryEnd {
		t.Fatalf("single interval ends at %+v, want end sentinel", res.Ends[0])
	}
}

func TestFLICollectorHugeSizeYieldsOneInterval(t *testing.T) {
	bin := binFor(t, "art", compiler.Target{Arch: compiler.Arch32, Opt: compiler.O2})
	c, err := NewFLICollector(bin, 1<<50)
	if err != nil {
		t.Fatal(err)
	}
	if err := exec.RunCtx(context.Background(), bin, refInput, c); err != nil {
		t.Fatal(err)
	}
	if res := c.Finish(); res.Dataset.Len() != 1 {
		t.Fatalf("%d intervals for huge size", res.Dataset.Len())
	}
}
