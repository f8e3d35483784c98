// Package vecmath provides the small amount of dense linear algebra the
// SimPoint pipeline needs: Euclidean distances, centroid accumulation, and
// random linear projection matrices.
//
// SimPoint reduces high-dimensional basic-block vectors (one dimension per
// static basic block, often tens of thousands) to a handful of dimensions
// (15 in SimPoint 3.0) with a random projection before clustering; by the
// Johnson–Lindenstrauss lemma this approximately preserves pairwise
// distances, which is all k-means cares about.
package vecmath

import (
	"fmt"

	"xbsim/internal/xrand"
)

// SquaredDistance returns the squared Euclidean distance between a and b.
// It panics if the lengths differ.
func SquaredDistance(a, b []float64) float64 {
	if len(a) != len(b) {
		panic(fmt.Sprintf("vecmath: dimension mismatch %d vs %d", len(a), len(b)))
	}
	var sum float64
	for i := range a {
		d := a[i] - b[i]
		sum += d * d
	}
	return sum
}

// AddScaled adds scale*src into dst element-wise.
func AddScaled(dst, src []float64, scale float64) {
	if len(dst) != len(src) {
		panic(fmt.Sprintf("vecmath: dimension mismatch %d vs %d", len(dst), len(src)))
	}
	for i := range dst {
		dst[i] += scale * src[i]
	}
}

// Scale multiplies v by scale in place.
func Scale(v []float64, scale float64) {
	for i := range v {
		v[i] *= scale
	}
}

// Zero clears v in place.
func Zero(v []float64) {
	for i := range v {
		v[i] = 0
	}
}

// Matrix is a dense row-major matrix: row i is Data[i*Cols : (i+1)*Cols].
// Keeping every row in one backing array lets hot loops walk points and
// centroids without a slice header per row.
type Matrix struct {
	Rows, Cols int
	Data       []float64
}

// NewMatrix returns a zeroed rows x cols matrix.
func NewMatrix(rows, cols int) Matrix {
	return Matrix{Rows: rows, Cols: cols, Data: make([]float64, rows*cols)}
}

// Row returns row i as a view into the matrix's backing array.
func (m Matrix) Row(i int) []float64 {
	return m.Data[i*m.Cols : (i+1)*m.Cols : (i+1)*m.Cols]
}

// RowViews returns every row as a view into the backing array, for
// callers that index points as [][]float64.
func (m Matrix) RowViews() [][]float64 {
	rows := make([][]float64, m.Rows)
	for i := range rows {
		rows[i] = m.Row(i)
	}
	return rows
}

// Projection is a dense inDim x outDim random projection matrix. Rows are
// indexed by input dimension so sparse inputs can be projected by walking
// only their non-zero entries.
type Projection struct {
	// m's row i is the outDim-length row for input dimension i.
	m Matrix
}

// NewProjection builds a random projection from inDim to outDim dimensions.
// Entries are drawn i.i.d. uniform in [-1, 1), matching the SimPoint 3.0
// implementation, from the given stream.
func NewProjection(inDim, outDim int, rng *xrand.Stream) *Projection {
	if inDim <= 0 || outDim <= 0 {
		panic(fmt.Sprintf("vecmath: invalid projection dims %dx%d", inDim, outDim))
	}
	m := NewMatrix(inDim, outDim)
	for j := range m.Data {
		m.Data[j] = 2*rng.Float64() - 1
	}
	return &Projection{m: m}
}

// InDim returns the input dimensionality.
func (p *Projection) InDim() int { return p.m.Rows }

// OutDim returns the output dimensionality.
func (p *Projection) OutDim() int { return p.m.Cols }

// Apply projects the dense vector v (length InDim) into a new vector of
// length OutDim.
func (p *Projection) Apply(v []float64) []float64 {
	if len(v) != p.InDim() {
		panic(fmt.Sprintf("vecmath: projection input dim %d, want %d", len(v), p.InDim()))
	}
	out := make([]float64, p.OutDim())
	for i, x := range v {
		if x == 0 {
			continue
		}
		AddScaled(out, p.m.Row(i), x)
	}
	return out
}

// ApplySparseInto projects a sparse vector, given as parallel index/value
// slices with indices in [0, InDim), into dst (length OutDim), which it
// overwrites. It allocates nothing, so a caller projecting many vectors
// can fill the rows of one matrix.
func (p *Projection) ApplySparseInto(dst []float64, indices []int, values []float64) {
	if len(indices) != len(values) {
		panic("vecmath: sparse index/value length mismatch")
	}
	if len(dst) != p.OutDim() {
		panic(fmt.Sprintf("vecmath: projection output dim %d, want %d", len(dst), p.OutDim()))
	}
	Zero(dst)
	for k, i := range indices {
		if i < 0 || i >= p.InDim() {
			panic(fmt.Sprintf("vecmath: sparse index %d out of range [0,%d)", i, p.InDim()))
		}
		AddScaled(dst, p.m.Row(i), values[k])
	}
}

// Mean returns the (optionally weighted) mean of the given vectors. All
// vectors must share a dimension. With nil weights every vector has weight
// 1. It panics on an empty input or non-positive total weight.
func Mean(vectors [][]float64, weights []float64) []float64 {
	if len(vectors) == 0 {
		panic("vecmath: Mean of no vectors")
	}
	dim := len(vectors[0])
	out := make([]float64, dim)
	var total float64
	for i, v := range vectors {
		w := 1.0
		if weights != nil {
			w = weights[i]
		}
		AddScaled(out, v, w)
		total += w
	}
	if total <= 0 {
		panic("vecmath: Mean with non-positive total weight")
	}
	Scale(out, 1/total)
	return out
}
