package vecmath

import (
	"math"
	"testing"
	"testing/quick"

	"xbsim/internal/xrand"
)

func almostEqual(a, b, tol float64) bool {
	return math.Abs(a-b) <= tol
}

func TestSquaredDistance(t *testing.T) {
	a := []float64{0, 0, 0}
	b := []float64{1, 2, 2}
	if got := SquaredDistance(a, b); got != 9 {
		t.Fatalf("SquaredDistance = %v, want 9", got)
	}
	if got := math.Sqrt(SquaredDistance(a, b)); got != 3 {
		t.Fatalf("Euclidean distance = %v, want 3", got)
	}
}

func TestDistanceMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic on dimension mismatch")
		}
	}()
	SquaredDistance([]float64{1}, []float64{1, 2})
}

func TestManhattanDistance(t *testing.T) {
	if got := ManhattanDistance([]float64{1, -2}, []float64{-1, 1}); got != 5 {
		t.Fatalf("ManhattanDistance = %v, want 5", got)
	}
}

func TestDistanceProperties(t *testing.T) {
	rng := xrand.New("dist-prop")
	dist := func(a, b []float64) float64 { return math.Sqrt(SquaredDistance(a, b)) }
	randVec := func(n int) []float64 {
		v := make([]float64, n)
		for i := range v {
			v[i] = rng.NormFloat64()
		}
		return v
	}
	f := func(dimRaw uint8) bool {
		dim := int(dimRaw%16) + 1
		a, b, c := randVec(dim), randVec(dim), randVec(dim)
		// Symmetry.
		if !almostEqual(dist(a, b), dist(b, a), 1e-12) {
			return false
		}
		// Identity.
		if dist(a, a) != 0 {
			return false
		}
		// Triangle inequality.
		return dist(a, c) <= dist(a, b)+dist(b, c)+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestNormalizeL1(t *testing.T) {
	v := []float64{1, 3, -4}
	if ok := NormalizeL1(v); !ok {
		t.Fatal("NormalizeL1 reported zero norm")
	}
	if !almostEqual(L1Norm(v), 1, 1e-12) {
		t.Fatalf("L1 norm after normalize = %v", L1Norm(v))
	}
	z := []float64{0, 0}
	if ok := NormalizeL1(z); ok {
		t.Fatal("NormalizeL1 succeeded on zero vector")
	}
}

func TestAddScaledAndScale(t *testing.T) {
	dst := []float64{1, 2}
	AddScaled(dst, []float64{10, 20}, 0.5)
	if dst[0] != 6 || dst[1] != 12 {
		t.Fatalf("AddScaled result %v", dst)
	}
	Scale(dst, 2)
	if dst[0] != 12 || dst[1] != 24 {
		t.Fatalf("Scale result %v", dst)
	}
	Zero(dst)
	if dst[0] != 0 || dst[1] != 0 {
		t.Fatalf("Zero result %v", dst)
	}
}

func TestMeanUnweighted(t *testing.T) {
	m := Mean([][]float64{{0, 2}, {4, 6}}, nil)
	if m[0] != 2 || m[1] != 4 {
		t.Fatalf("Mean = %v", m)
	}
}

func TestMeanWeighted(t *testing.T) {
	m := Mean([][]float64{{0, 0}, {10, 20}}, []float64{3, 1})
	if !almostEqual(m[0], 2.5, 1e-12) || !almostEqual(m[1], 5, 1e-12) {
		t.Fatalf("weighted Mean = %v", m)
	}
}

func TestProjectionShape(t *testing.T) {
	p := NewProjection(100, 15, xrand.New("proj"))
	if p.InDim() != 100 || p.OutDim() != 15 {
		t.Fatalf("projection dims %dx%d", p.InDim(), p.OutDim())
	}
	v := make([]float64, 100)
	v[3] = 1
	out := p.Apply(v)
	if len(out) != 15 {
		t.Fatalf("projected length %d", len(out))
	}
}

func TestProjectionLinearity(t *testing.T) {
	rng := xrand.New("proj-lin")
	p := NewProjection(40, 8, rng)
	a := make([]float64, 40)
	b := make([]float64, 40)
	for i := range a {
		a[i] = rng.NormFloat64()
		b[i] = rng.NormFloat64()
	}
	sum := make([]float64, 40)
	for i := range sum {
		sum[i] = 2*a[i] + 3*b[i]
	}
	pa, pb, psum := p.Apply(a), p.Apply(b), p.Apply(sum)
	for j := range psum {
		want := 2*pa[j] + 3*pb[j]
		if !almostEqual(psum[j], want, 1e-9) {
			t.Fatalf("projection not linear at dim %d: %v vs %v", j, psum[j], want)
		}
	}
}

func TestProjectionSparseMatchesDense(t *testing.T) {
	rng := xrand.New("proj-sparse")
	p := NewProjection(50, 6, rng)
	dense := make([]float64, 50)
	var idx []int
	var vals []float64
	for _, i := range []int{2, 17, 49} {
		dense[i] = rng.NormFloat64()
		idx = append(idx, i)
		vals = append(vals, dense[i])
	}
	d := p.Apply(dense)
	s := make([]float64, p.OutDim())
	p.ApplySparseInto(s, idx, vals)
	for j := range d {
		if !almostEqual(d[j], s[j], 1e-12) {
			t.Fatalf("sparse projection mismatch at %d: %v vs %v", j, d[j], s[j])
		}
	}
}

// ApplySparseInto must overwrite whatever dst held and allocate nothing.
func TestApplySparseIntoOverwritesAndAllocatesNothing(t *testing.T) {
	rng := xrand.New("proj-into")
	p := NewProjection(40, 7, rng)
	idx := []int{0, 3, 11, 39}
	vals := []float64{0.25, -1.5, 3, 0.125}
	want := make([]float64, p.OutDim())
	p.ApplySparseInto(want, idx, vals)
	dst := []float64{9, 9, 9, 9, 9, 9, 9}
	p.ApplySparseInto(dst, idx, vals)
	for j := range want {
		if math.Float64bits(dst[j]) != math.Float64bits(want[j]) {
			t.Fatalf("dim %d: %v into a used buffer, %v into a zeroed one", j, dst[j], want[j])
		}
	}
	if n := testing.AllocsPerRun(100, func() { p.ApplySparseInto(dst, idx, vals) }); n != 0 {
		t.Fatalf("ApplySparseInto allocates %.0f times per call, want 0", n)
	}
}

func TestMatrixRows(t *testing.T) {
	m := NewMatrix(3, 2)
	copy(m.Data, []float64{1, 2, 3, 4, 5, 6})
	if got := m.Row(2); got[0] != 5 || got[1] != 6 {
		t.Fatalf("row 2 = %v", got)
	}
	views := m.RowViews()
	views[1][0] = 30 // views alias the backing array
	if m.Row(1)[0] != 30 || m.Data[2] != 30 {
		t.Fatalf("row view does not alias the matrix: %v", m.Data)
	}
	if r := m.Row(0); cap(r) != 2 {
		t.Fatalf("row capacity %d lets an append overwrite the next row", cap(r))
	}
}

func TestProjectionPreservesRelativeDistances(t *testing.T) {
	// Johnson–Lindenstrauss sanity check: a far pair should remain farther
	// than a near pair after projecting from 2000 to 15 dims.
	rng := xrand.New("jl")
	p := NewProjection(2000, 15, rng.Split("matrix"))
	base := make([]float64, 2000)
	near := make([]float64, 2000)
	far := make([]float64, 2000)
	for i := range base {
		base[i] = rng.NormFloat64()
		near[i] = base[i] + 0.01*rng.NormFloat64()
		far[i] = base[i] + 1.0*rng.NormFloat64()
	}
	pb, pn, pf := p.Apply(base), p.Apply(near), p.Apply(far)
	near2, far2 := SquaredDistance(pb, pn), SquaredDistance(pb, pf)
	if near2 >= far2 {
		t.Fatalf("projection scrambled distances: near %v far %v",
			math.Sqrt(near2), math.Sqrt(far2))
	}
}

func TestProjectionDeterministic(t *testing.T) {
	p1 := NewProjection(10, 4, xrand.New("same"))
	p2 := NewProjection(10, 4, xrand.New("same"))
	v := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	a, b := p1.Apply(v), p2.Apply(v)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("projection not deterministic at dim %d", i)
		}
	}
}

func TestProjectionSparseIndexOutOfRangePanics(t *testing.T) {
	p := NewProjection(5, 2, xrand.New("x"))
	defer func() {
		if recover() == nil {
			t.Fatal("no panic on out-of-range sparse index")
		}
	}()
	p.ApplySparseInto(make([]float64, 2), []int{5}, []float64{1})
}

func BenchmarkProjectSparse(b *testing.B) {
	rng := xrand.New("bench-proj")
	p := NewProjection(10000, 15, rng)
	idx := make([]int, 200)
	vals := make([]float64, 200)
	for i := range idx {
		idx[i] = rng.Intn(10000)
		vals[i] = rng.Float64()
	}
	dst := make([]float64, p.OutDim())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.ApplySparseInto(dst, idx, vals)
	}
}
