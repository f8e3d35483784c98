package bbv

import (
	"math"
	"testing"
	"testing/quick"

	"xbsim/internal/vecmath"
	"xbsim/internal/xrand"
)

func TestVectorAdd(t *testing.T) {
	v := NewVector()
	v.Add(3, 10, 5) // block 3, 10 executions, 5 instructions each
	v.Add(7, 2, 4)
	v.Add(3, 1, 5)
	if got := v.Instructions(); got != 10*5+2*4+1*5 {
		t.Fatalf("Instructions = %d", got)
	}
	if v.Len() != 2 {
		t.Fatalf("Len = %d, want 2", v.Len())
	}
	idx, vals := v.Sparse()
	if len(idx) != 2 || idx[0] != 3 || idx[1] != 7 {
		t.Fatalf("Sparse indices %v", idx)
	}
	if vals[0] != 55 || vals[1] != 8 {
		t.Fatalf("Sparse values %v", vals)
	}
}

func TestVectorAddZeroExecutions(t *testing.T) {
	v := NewVector()
	v.Add(1, 0, 100)
	if v.Len() != 0 || v.Instructions() != 0 {
		t.Fatal("zero executions should not record anything")
	}
}

func TestVectorResetAndClone(t *testing.T) {
	v := NewVector()
	v.Add(1, 1, 1)
	c := v.Clone()
	v.Reset()
	if v.Len() != 0 || v.Instructions() != 0 {
		t.Fatal("Reset did not clear vector")
	}
	if c.Len() != 1 || c.Instructions() != 1 {
		t.Fatal("Clone affected by Reset")
	}
}

func TestVectorSumEqualsInstructions(t *testing.T) {
	rng := xrand.New("bbv-sum")
	f := func(nRaw uint8) bool {
		v := NewVector()
		n := int(nRaw%50) + 1
		for i := 0; i < n; i++ {
			v.Add(rng.Intn(100), uint64(rng.Intn(20)), rng.Intn(10)+1)
		}
		_, vals := v.Sparse()
		var sum float64
		for _, x := range vals {
			sum += x
		}
		return math.Abs(sum-float64(v.Instructions())) < 1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func buildDataset(t *testing.T, intervals int) *Dataset {
	t.Helper()
	rng := xrand.New("bbv-dataset")
	d := NewDataset()
	v := NewVector()
	for i := 0; i < intervals; i++ {
		v.Reset()
		for j := 0; j < 20; j++ {
			v.Add(rng.Intn(500), uint64(rng.Intn(50)+1), rng.Intn(8)+1)
		}
		d.Append(v)
	}
	return d
}

func TestDatasetAppendClones(t *testing.T) {
	d := NewDataset()
	v := NewVector()
	v.Add(0, 1, 1)
	d.Append(v)
	v.Reset()
	v.Add(5, 9, 9)
	if d.Vector(0).Len() != 1 || d.Vector(0).Instructions() != 1 {
		t.Fatal("Append did not clone; later mutation leaked in")
	}
}

func TestDatasetLengths(t *testing.T) {
	d := buildDataset(t, 10)
	if d.Len() != 10 {
		t.Fatalf("Len = %d", d.Len())
	}
	var total uint64
	for i, l := range d.Lengths() {
		if l != d.Vector(i).Instructions() {
			t.Fatalf("length %d mismatch", i)
		}
		total += l
	}
	if total != d.TotalInstructions() {
		t.Fatal("TotalInstructions mismatch")
	}
	w := d.Weights()
	for i := range w {
		if w[i] != float64(d.Lengths()[i]) {
			t.Fatalf("weight %d mismatch", i)
		}
	}
}

func TestProjectShapes(t *testing.T) {
	d := buildDataset(t, 12)
	m, err := d.ProjectMatrix(15, xrand.New("proj"))
	if err != nil {
		t.Fatal(err)
	}
	if m.Rows != 12 {
		t.Fatalf("rows = %d", m.Rows)
	}
	for i := 0; i < m.Rows; i++ {
		if len(m.Row(i)) != 15 {
			t.Fatalf("row dim = %d", len(m.Row(i)))
		}
	}
}

// ProjectMatrix fills one contiguous matrix with exactly the rows the
// per-row path produces: each vector's sorted sparse entries,
// L1-normalized, projected on its own.
func TestProjectMatrixMatchesPerRowProjection(t *testing.T) {
	d := buildDataset(t, 9)
	m, err := d.ProjectMatrix(15, xrand.New("flat"))
	if err != nil {
		t.Fatal(err)
	}
	proj := vecmath.NewProjection(d.MaxBlockID()+1, 15, xrand.New("flat"))
	if m.Rows != d.Len() || m.Cols != proj.OutDim() {
		t.Fatalf("matrix %dx%d, want %dx%d", m.Rows, m.Cols, d.Len(), proj.OutDim())
	}
	for i := 0; i < d.Len(); i++ {
		idx, vals := d.Vector(i).Sparse()
		var norm float64
		for _, x := range vals {
			norm += x
		}
		for j := range vals {
			vals[j] /= norm
		}
		want := make([]float64, proj.OutDim())
		proj.ApplySparseInto(want, idx, vals)
		for j, x := range m.Row(i) {
			if math.Float64bits(x) != math.Float64bits(want[j]) {
				t.Fatalf("row %d dim %d: %v, per-row projection %v", i, j, x, want[j])
			}
		}
	}
}

func TestProjectEmptyDataset(t *testing.T) {
	d := NewDataset()
	if _, err := d.ProjectMatrix(15, xrand.New("x")); err == nil {
		t.Fatal("expected error for empty dataset")
	}
}

func TestProjectEmptyIntervalRejected(t *testing.T) {
	d := NewDataset()
	d.Append(NewVector()) // empty interval
	if _, err := d.ProjectMatrix(15, xrand.New("x")); err == nil {
		t.Fatal("expected error for empty interval")
	}
}

func TestProjectDeterministic(t *testing.T) {
	d := buildDataset(t, 6)
	a, err := d.ProjectMatrix(15, xrand.New("same-seed"))
	if err != nil {
		t.Fatal(err)
	}
	b, err := d.ProjectMatrix(15, xrand.New("same-seed"))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < a.Rows; i++ {
		for j, x := range a.Row(i) {
			if x != b.Row(i)[j] {
				t.Fatalf("projection not deterministic at [%d][%d]", i, j)
			}
		}
	}
}

func TestProjectScaleInvariance(t *testing.T) {
	// Two intervals executing the same code mix at different lengths must
	// project to (almost) the same point: that is the purpose of L1
	// normalization for variable length intervals.
	d := NewDataset()
	a := NewVector()
	a.Add(1, 10, 4)
	a.Add(2, 30, 2)
	d.Append(a)
	b := NewVector()
	b.Add(1, 1000, 4)
	b.Add(2, 3000, 2)
	d.Append(b)
	m, err := d.ProjectMatrix(8, xrand.New("scale"))
	if err != nil {
		t.Fatal(err)
	}
	r0, r1 := m.Row(0), m.Row(1)
	for j := range r0 {
		if math.Abs(r0[j]-r1[j]) > 1e-9 {
			t.Fatalf("scaled intervals project differently at dim %d: %v vs %v",
				j, r0[j], r1[j])
		}
	}
}

func TestProjectSmallDimensionality(t *testing.T) {
	// When there are fewer static blocks than the projection dimension the
	// dataset clamps outDim instead of projecting up.
	d := NewDataset()
	v := NewVector()
	v.Add(0, 1, 1)
	v.Add(1, 2, 1)
	d.Append(v)
	m, err := d.ProjectMatrix(15, xrand.New("tiny"))
	if err != nil {
		t.Fatal(err)
	}
	if len(m.Row(0)) != 2 {
		t.Fatalf("expected clamped dim 2, got %d", len(m.Row(0)))
	}
}

func TestMaxBlockID(t *testing.T) {
	d := NewDataset()
	if d.MaxBlockID() != -1 {
		t.Fatal("empty dataset MaxBlockID should be -1")
	}
	v := NewVector()
	v.Add(41, 1, 1)
	d.Append(v)
	if d.MaxBlockID() != 41 {
		t.Fatalf("MaxBlockID = %d", d.MaxBlockID())
	}
}
