package sampler

import (
	"context"
	"strings"
	"testing"

	"xbsim/internal/bbv"
	"xbsim/internal/simpoint"
	"xbsim/internal/xrand"
)

// phasedDataset builds a dataset with `phases` distinct code signatures
// cycling phase-by-phase — the same shape the simpoint tests use, so
// both backends see realistic multi-modal interval populations.
func phasedDataset(phases, perPhase, visits int, jitter float64, seed string) *bbv.Dataset {
	rng := xrand.New(seed)
	ds := bbv.NewDataset()
	v := bbv.NewVector()
	for visit := 0; visit < visits; visit++ {
		for ph := 0; ph < phases; ph++ {
			for i := 0; i < perPhase; i++ {
				v.Reset()
				base := ph * 10
				for b := 0; b < 8; b++ {
					execs := uint64(100 + float64(50*b)*(1+jitter*rng.NormFloat64()))
					v.Add(base+b, execs, b%4+1)
				}
				ds.Append(v)
			}
		}
	}
	return ds
}

func TestNewBackends(t *testing.T) {
	for _, name := range append([]string{""}, Backends()...) {
		s, err := New(name)
		if err != nil {
			t.Fatalf("New(%q): %v", name, err)
		}
		want := name
		if want == "" {
			want = BackendSimPoint
		}
		if s.Name() != want {
			t.Fatalf("New(%q).Name() = %q, want %q", name, s.Name(), want)
		}
	}
	if _, err := New("bogus"); err == nil || !strings.Contains(err.Error(), "unknown backend") {
		t.Fatalf("New(bogus) error = %v, want unknown backend", err)
	}
}

// TestSimPointBackendMatchesDirect pins the tentpole's bit-identity
// guarantee at the package level: the simpoint backend reached through
// the Sampler interface must produce exactly the result of calling
// simpoint.PickCtx directly with the corresponding configuration.
func TestSimPointBackendMatchesDirect(t *testing.T) {
	ds := phasedDataset(3, 4, 3, 0.02, "parity")
	cfg := Config{MaxK: 8, Dim: 15, BICThreshold: 0.9, Seed: "parity/seed"}

	smp, err := New(BackendSimPoint)
	if err != nil {
		t.Fatal(err)
	}
	got, err := smp.Pick(context.Background(), ds, cfg)
	if err != nil {
		t.Fatal(err)
	}
	want, err := simpoint.PickCtx(context.Background(), ds, simpoint.Config{
		MaxK: 8, Dim: 15, BICThreshold: 0.9, Seed: "parity/seed",
	})
	if err != nil {
		t.Fatal(err)
	}
	if got.Fingerprint() != want.Fingerprint() {
		t.Fatalf("sampler-interface fingerprint %s != direct simpoint %s",
			got.Fingerprint(), want.Fingerprint())
	}
	if got.K != want.K || len(got.Points) != len(want.Points) {
		t.Fatalf("K=%d points=%d via interface, K=%d points=%d direct",
			got.K, len(got.Points), want.K, len(want.Points))
	}
}

func TestStratifiedDeterminism(t *testing.T) {
	ds := phasedDataset(4, 5, 3, 0.05, "det")
	cfg := Config{Seed: "det/seed", Budget: 9, Strata: 4}
	smp, err := New(BackendStratified)
	if err != nil {
		t.Fatal(err)
	}
	a, err := smp.Pick(context.Background(), ds, cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := smp.Pick(context.Background(), ds, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a.Fingerprint() != b.Fingerprint() {
		t.Fatalf("rerun fingerprint %s != %s", b.Fingerprint(), a.Fingerprint())
	}
}

// TestStratifiedResultShape checks the contract the pipeline depends
// on: K equals the (capped) budget exactly, every interval carries a
// valid phase label, every point's interval lies in its own phase, and
// the phase weights form a probability distribution.
func TestStratifiedResultShape(t *testing.T) {
	cases := []struct {
		name  string
		ds    *bbv.Dataset
		cfg   Config
		wantK int
	}{
		{"exact-budget", phasedDataset(3, 4, 3, 0.02, "shape"), Config{Seed: "s", Budget: 10, Strata: 5}, 10},
		{"budget-over-intervals", phasedDataset(2, 2, 1, 0, "cap"), Config{Seed: "s", Budget: 50}, 4},
		{"defaults", phasedDataset(4, 6, 3, 0.05, "def"), Config{Seed: "s"}, DefaultBudget},
		{"single-point", phasedDataset(3, 4, 2, 0.05, "one"), Config{Seed: "s", Budget: 1}, 1},
	}
	smp, err := New(BackendStratified)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			res, err := smp.Pick(context.Background(), tc.ds, tc.cfg)
			if err != nil {
				t.Fatal(err)
			}
			if res.K != tc.wantK {
				t.Fatalf("K=%d, want %d", res.K, tc.wantK)
			}
			if len(res.Points) != res.K || len(res.PhaseWeights) != res.K {
				t.Fatalf("points=%d weights=%d, want K=%d of each",
					len(res.Points), len(res.PhaseWeights), res.K)
			}
			if len(res.PhaseOf) != tc.ds.Len() {
				t.Fatalf("labeled %d intervals, dataset has %d", len(res.PhaseOf), tc.ds.Len())
			}
			sum := 0.0
			for p, w := range res.PhaseWeights {
				if w <= 0 || w > 1 {
					t.Fatalf("phase %d weight %v outside (0,1]", p, w)
				}
				sum += w
			}
			if sum < 1-1e-9 || sum > 1+1e-9 {
				t.Fatalf("weights sum to %v, want 1", sum)
			}
			for i, ph := range res.PhaseOf {
				if ph < 0 || ph >= res.K {
					t.Fatalf("interval %d labeled phase %d, K=%d", i, ph, res.K)
				}
			}
			for _, pt := range res.Points {
				if res.PhaseOf[pt.Interval] != pt.Phase {
					t.Fatalf("point interval %d labeled phase %d, point says %d",
						pt.Interval, res.PhaseOf[pt.Interval], pt.Phase)
				}
				if pt.Instructions != tc.ds.Lengths()[pt.Interval] {
					t.Fatalf("point interval %d records %d instructions, dataset says %d",
						pt.Interval, pt.Instructions, tc.ds.Lengths()[pt.Interval])
				}
			}
		})
	}
}

func TestStratifiedErrors(t *testing.T) {
	smp, err := New(BackendStratified)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := smp.Pick(context.Background(), bbv.NewDataset(), Config{Seed: "s"}); err == nil ||
		!strings.Contains(err.Error(), "empty dataset") {
		t.Fatalf("empty dataset error = %v", err)
	}
	// A dataset whose intervals executed nothing: zero-instruction
	// binaries must be rejected before the projection ever runs.
	zero := bbv.NewDataset()
	zero.Append(bbv.NewVector())
	zero.Append(bbv.NewVector())
	if _, err := smp.Pick(context.Background(), zero, Config{Seed: "s"}); err == nil ||
		!strings.Contains(err.Error(), "no instructions") {
		t.Fatalf("zero-instruction dataset error = %v", err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := smp.Pick(ctx, phasedDataset(2, 2, 1, 0, "ctx"), Config{Seed: "s"}); err == nil {
		t.Fatal("cancelled context accepted")
	}
}

// TestStratifiedDegenerate covers the edge strata: a one-interval
// dataset and an all-identical-BBV dataset (zero variance everywhere,
// so stratification cannot split and allocation falls back to
// weight-proportional).
func TestStratifiedDegenerate(t *testing.T) {
	smp, err := New(BackendStratified)
	if err != nil {
		t.Fatal(err)
	}

	one := bbv.NewDataset()
	v := bbv.NewVector()
	v.Add(0, 100, 2)
	one.Append(v)
	res, err := smp.Pick(context.Background(), one, Config{Seed: "s", Budget: 8})
	if err != nil {
		t.Fatal(err)
	}
	if res.K != 1 || res.Points[0].Interval != 0 || res.PhaseWeights[0] != 1 {
		t.Fatalf("one-interval dataset: K=%d points=%v weights=%v", res.K, res.Points, res.PhaseWeights)
	}

	same := bbv.NewDataset()
	for i := 0; i < 12; i++ {
		v.Reset()
		v.Add(0, 100, 2)
		v.Add(1, 50, 1)
		same.Append(v)
	}
	res, err = smp.Pick(context.Background(), same, Config{Seed: "s", Budget: 6, Strata: 4})
	if err != nil {
		t.Fatal(err)
	}
	// Identical BBVs leave nothing to split on: one stratum, but the
	// budget still lands exactly via contiguous segments of it.
	if res.K != 6 {
		t.Fatalf("all-identical dataset: K=%d, want 6", res.K)
	}
	sum := 0.0
	for _, w := range res.PhaseWeights {
		sum += w
	}
	if sum < 1-1e-9 || sum > 1+1e-9 {
		t.Fatalf("all-identical dataset weights sum to %v", sum)
	}
}
