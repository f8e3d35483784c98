package simpoint

import (
	"context"
	"math"
	"reflect"
	"testing"

	"xbsim/internal/pool"
)

// A pooled sweep must choose the identical clustering, points, weights,
// and BIC trace as the serial sweep.
func TestParallelSweepMatchesSerial(t *testing.T) {
	ds, _ := phasedDataset(3, 4, 3, 0.05, "parallel-sweep")
	serial, err := PickCtx(context.Background(), ds, Config{MaxK: 8, Seed: "psweep"})
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := PickCtx(context.Background(), ds, Config{MaxK: 8, Seed: "psweep", Pool: pool.New(8)})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(serial, parallel) {
		t.Fatalf("pooled sweep differs from serial:\nserial   %+v\nparallel %+v", serial, parallel)
	}
}

// Non-finite BIC scores must be excluded from the min-max normalization
// instead of poisoning it into silently choosing the maximum k.
func TestChooseKSkipsNonFiniteScores(t *testing.T) {
	nan, negInf := math.NaN(), math.Inf(-1)

	// A NaN (or -Inf) among otherwise plateauing scores: the plateau
	// still wins and the poisoned k is never chosen.
	if got := chooseK([]float64{nan, -100, -5, -4, -3}, 0.9); got != 3 {
		t.Fatalf("chooseK with NaN = %d, want 3", got)
	}
	if got := chooseK([]float64{negInf, -100, -5, -4, -3}, 0.9); got != 3 {
		t.Fatalf("chooseK with -Inf = %d, want 3", got)
	}
	// Before the fix, -Inf stretched the range so no norm reached the
	// threshold and the maximum k was chosen; the degenerate k itself
	// must also never be returned.
	if got := chooseK([]float64{-5, -4, nan}, 0.9); got == 3 {
		t.Fatal("chooseK returned the non-finite k")
	}

	// Only one finite score: that k is the only defensible choice.
	if got := chooseK([]float64{nan, negInf, -7, nan}, 0.9); got != 3 {
		t.Fatalf("chooseK single finite = %d, want 3", got)
	}
	// Equal finite scores around non-finite holes: smallest finite k.
	if got := chooseK([]float64{nan, -7, -7}, 0.9); got != 2 {
		t.Fatalf("chooseK flat finite = %d, want 2", got)
	}
	// Nothing finite at all: fall back to k = 1.
	if got := chooseK([]float64{nan, negInf, math.Inf(1)}, 0.9); got != 1 {
		t.Fatalf("chooseK all non-finite = %d, want 1", got)
	}
}
