package simpoint

import (
	"context"
	"testing"

	"xbsim/internal/bbv"
)

func TestEarlyToleranceMovesPointsEarlier(t *testing.T) {
	ds, _ := phasedDataset(3, 6, 3, 0.05, "early")
	classic, err := PickCtx(context.Background(), ds, Config{Seed: "e1"})
	if err != nil {
		t.Fatal(err)
	}
	early, err := PickCtx(context.Background(), ds, Config{Seed: "e1", EarlyTolerance: 2.0})
	if err != nil {
		t.Fatal(err)
	}
	if classic.K != early.K {
		t.Fatalf("K changed: %d vs %d", classic.K, early.K)
	}
	movedEarlier := false
	for p := range classic.Points {
		c, e := classic.Points[p], early.Points[p]
		if e.Interval > c.Interval {
			t.Fatalf("phase %d: early point at %d AFTER classic %d", p, e.Interval, c.Interval)
		}
		if e.Interval < c.Interval {
			movedEarlier = true
		}
		// Weights and phase labels must be untouched.
		if e.Weight != c.Weight || e.Phase != c.Phase {
			t.Fatalf("phase %d: early selection changed weight/phase", p)
		}
	}
	if !movedEarlier {
		t.Fatal("generous tolerance moved no point earlier (phases repeat, so earlier near-equivalents exist)")
	}
	// The early representative must stay within its own phase.
	for _, pt := range early.Points {
		if early.PhaseOf[pt.Interval] != pt.Phase {
			t.Fatalf("early representative %d left its phase", pt.Interval)
		}
	}
}

func TestEarlyToleranceZeroIsClassic(t *testing.T) {
	ds, _ := phasedDataset(3, 5, 2, 0.05, "early-zero")
	a, err := PickCtx(context.Background(), ds, Config{Seed: "e2"})
	if err != nil {
		t.Fatal(err)
	}
	b, err := PickCtx(context.Background(), ds, Config{Seed: "e2", EarlyTolerance: 0})
	if err != nil {
		t.Fatal(err)
	}
	for p := range a.Points {
		if a.Points[p] != b.Points[p] {
			t.Fatalf("tolerance 0 changed point %d", p)
		}
	}
}

func TestEarlyToleranceIdenticalVectors(t *testing.T) {
	// All intervals identical: the earliest (index 0) must be chosen.
	ds := bbv.NewDataset()
	v := bbv.NewVector()
	for i := 0; i < 8; i++ {
		v.Reset()
		v.Add(0, 100, 4)
		ds.Append(v)
	}
	res, err := PickCtx(context.Background(), ds, Config{Seed: "e3", EarlyTolerance: 0.1})
	if err != nil {
		t.Fatal(err)
	}
	if res.K != 1 || res.Points[0].Interval != 0 {
		t.Fatalf("identical intervals: got K=%d, point at %d", res.K, res.Points[0].Interval)
	}
}

func TestMaxKCappedOnTinyDatasets(t *testing.T) {
	ds, _ := phasedDataset(1, 3, 2, 0.05, "fixedk-tiny") // 6 intervals
	res, err := PickCtx(context.Background(), ds, Config{Seed: "fk2", MaxK: 50})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.BICByK) != 3 || res.K > 3 {
		t.Fatalf("MaxK not capped: %d clusterings scored, K=%d for 6 intervals", len(res.BICByK), res.K)
	}
}
