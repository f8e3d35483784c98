package sampler

import (
	"context"
	"testing"

	"xbsim/internal/compiler"
	"xbsim/internal/exec"
	"xbsim/internal/profile"
	"xbsim/internal/program"
	"xbsim/internal/vecmath"
)

// matrixOf packs feature rows of equal length into a matrix.
func matrixOf(rows [][]float64) vecmath.Matrix {
	m := vecmath.NewMatrix(len(rows), len(rows[0]))
	for i, r := range rows {
		copy(m.Row(i), r)
	}
	return m
}

// mkStratum builds a stratum over synthetic one-dimensional features.
func mkStratum(items []int, feats [][]float64, lengths []uint64) *stratum {
	return newStratum(items, matrixOf(feats), lengths)
}

// TestAllocate is the budget-allocation rounding table: allocations must
// sum to exactly the budget, no nonempty stratum may fall below one
// point, and no stratum may absorb more points than it has members.
func TestAllocate(t *testing.T) {
	// Features chosen so stratum variances differ: items 0-3 spread out,
	// 4-5 identical, 6-9 mildly spread.
	feats := [][]float64{
		{0.0}, {1.0}, {2.0}, {3.0},
		{5.0}, {5.0},
		{8.0}, {8.2}, {8.4}, {8.6},
	}
	lengths := []uint64{100, 100, 100, 100, 400, 400, 50, 50, 50, 50}
	groups := [][]int{{0, 1, 2, 3}, {4, 5}, {6, 7, 8, 9}}
	var strata []*stratum
	for _, g := range groups {
		strata = append(strata, mkStratum(g, feats, lengths))
	}

	for _, budget := range []int{3, 4, 5, 7, 10} {
		alloc := allocate(strata, budget)
		sum := 0
		for i, n := range alloc {
			sum += n
			if n < 1 {
				t.Fatalf("budget %d: stratum %d starved to %d points", budget, i, n)
			}
			if n > len(strata[i].items) {
				t.Fatalf("budget %d: stratum %d got %d points for %d members",
					budget, i, n, len(strata[i].items))
			}
		}
		if sum != budget {
			t.Fatalf("budget %d: allocations %v sum to %d", budget, alloc, sum)
		}
	}

	// Full budget saturates every stratum exactly.
	alloc := allocate(strata, 10)
	for i, n := range alloc {
		if n != len(strata[i].items) {
			t.Fatalf("saturating budget: stratum %d got %d of %d", i, n, len(strata[i].items))
		}
	}
}

// TestAllocateZeroVariance exercises the weight-proportional fallback:
// with zero variance everywhere the Neyman scores vanish, and the
// remaining budget must follow instruction weight instead.
func TestAllocateZeroVariance(t *testing.T) {
	feats := [][]float64{{1}, {1}, {1}, {1}, {1}, {1}}
	lengths := []uint64{900, 900, 900, 100, 100, 100}
	strata := []*stratum{
		mkStratum([]int{0, 1, 2}, feats, lengths),
		mkStratum([]int{3, 4, 5}, feats, lengths),
	}
	alloc := allocate(strata, 4)
	if alloc[0]+alloc[1] != 4 {
		t.Fatalf("allocations %v do not sum to 4", alloc)
	}
	if alloc[0] < alloc[1] {
		t.Fatalf("heavy stratum got %d points, light stratum %d", alloc[0], alloc[1])
	}
}

// TestStratify checks the splitting loop: respects maxStrata, partitions
// the intervals exactly, keeps members ascending, and separates clearly
// bimodal features.
func TestStratify(t *testing.T) {
	feats := [][]float64{
		{0.0}, {0.1}, {0.2}, {0.1},
		{9.0}, {9.1}, {9.2}, {9.1},
	}
	lengths := []uint64{100, 100, 100, 100, 100, 100, 100, 100}

	strata := stratify(matrixOf(feats), lengths, 2)
	if len(strata) != 2 {
		t.Fatalf("got %d strata, want 2", len(strata))
	}
	seen := map[int]bool{}
	for _, s := range strata {
		for i, it := range s.items {
			if seen[it] {
				t.Fatalf("interval %d in two strata", it)
			}
			seen[it] = true
			if i > 0 && s.items[i-1] >= it {
				t.Fatalf("stratum members not ascending: %v", s.items)
			}
		}
	}
	if len(seen) != len(feats) {
		t.Fatalf("%d intervals assigned, want %d", len(seen), len(feats))
	}
	// The bimodal split must separate the low cluster from the high one.
	for _, s := range strata {
		lo, hi := false, false
		for _, it := range s.items {
			if feats[it][0] < 5 {
				lo = true
			} else {
				hi = true
			}
		}
		if lo && hi {
			t.Fatalf("stratum %v mixes both modes", s.items)
		}
	}

	// Unsplittable input stops early regardless of maxStrata.
	same := [][]float64{{1}, {1}, {1}, {1}}
	if got := stratify(matrixOf(same), lengths[:4], 4); len(got) != 1 {
		t.Fatalf("identical features split into %d strata", len(got))
	}
}

// TestSplitSkewedMedian pins the boundary-tightening path: when the
// weighted median lands on the maximum feature value, the split must
// fall back to strictly-below and still leave both sides nonempty.
func TestSplitSkewedMedian(t *testing.T) {
	// One light low interval, three heavy identical high ones: the
	// weighted median is the maximum value.
	feats := [][]float64{{0.0}, {5.0}, {5.0}, {5.0}}
	lengths := []uint64{1, 1000, 1000, 1000}
	s := mkStratum([]int{0, 1, 2, 3}, feats, lengths)
	if s.splitDim != 0 {
		t.Fatalf("splitDim = %d, want 0", s.splitDim)
	}
	left, right := split(s, matrixOf(feats), lengths, make([]int, len(s.items)))
	if len(left.items) == 0 || len(right.items) == 0 {
		t.Fatalf("split produced an empty side: left=%v right=%v", left.items, right.items)
	}
	if len(left.items)+len(right.items) != 4 {
		t.Fatalf("split lost intervals: left=%v right=%v", left.items, right.items)
	}
}

// BenchmarkStratifiedPick runs the stratified sampler at the
// fine-stratified workload's size: one binary of the quick suite (gcc,
// 1.2M operations) cut into 3k-instruction intervals. It reports B/op.
func BenchmarkStratifiedPick(b *testing.B) {
	p, err := program.Generate("gcc", program.GenConfig{TargetOps: 1_200_000})
	if err != nil {
		b.Fatal(err)
	}
	bin := compiler.MustCompile(p, compiler.Target{Arch: compiler.Arch32, Opt: compiler.O2})
	c, err := profile.NewFLICollector(bin, 3_000)
	if err != nil {
		b.Fatal(err)
	}
	if err := exec.RunCtx(context.Background(), bin, program.Input{Name: "ref", Seed: 0x5EED}, c); err != nil {
		b.Fatal(err)
	}
	ds := c.Finish().Dataset
	smp, err := New(BackendStratified)
	if err != nil {
		b.Fatal(err)
	}
	cfg := Config{Seed: "xbsim"}
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := smp.Pick(ctx, ds, cfg); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(ds.Len()), "intervals")
}
