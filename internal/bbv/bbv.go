// Package bbv implements basic block vectors (BBVs), the interval
// signatures SimPoint clusters.
//
// A BBV is a frequency vector with one dimension per static basic block of
// a binary. While an interval of execution is profiled, each dynamic entry
// into basic block b adds size(b) — the block's instruction count — to
// dimension b (Sherwood et al., "Basic block distribution analysis", PACT
// 2001). Before clustering, each vector is normalized to L1 norm 1 so that
// intervals of different lengths (variable length intervals) remain
// comparable, and then randomly projected to a low dimension.
package bbv

import (
	"fmt"
	"math"
	"slices"

	"xbsim/internal/vecmath"
	"xbsim/internal/xrand"
)

// Vector is a basic block vector under construction: per static basic
// block (indexed by block ID) an instruction-weighted execution count.
// It accumulates densely — a weight and a membership bit per block,
// grown on demand — and keeps the list of blocks it has touched, so
// Reset and Append cost the touched blocks only, never the binary's size.
// Block IDs must be non-negative and fit in an int32.
type Vector struct {
	weight  []float64
	present []bool
	// touched lists each block with present set, in first-Add order
	// until Append sorts it.
	touched []int32
	// instructions is the total dynamic instruction count accumulated into
	// this vector; for BBVs built with Add(block, executions, blockSize)
	// this equals the sum of the weights.
	instructions uint64
}

// NewVector returns an empty vector.
func NewVector() *Vector {
	return &Vector{}
}

// Add records that basic block `block` (containing blockSize instructions)
// executed `executions` times in this interval. The block becomes a
// member on its first Add with executions > 0, even when blockSize is 0.
func (v *Vector) Add(block int, executions uint64, blockSize int) {
	if executions == 0 {
		return
	}
	if block >= len(v.weight) {
		v.grow(block)
	}
	if !v.present[block] {
		v.present[block] = true
		v.touched = append(v.touched, int32(block))
	}
	v.weight[block] += float64(executions) * float64(blockSize)
	v.instructions += executions * uint64(blockSize)
}

// grow extends the dense state to cover block, at least doubling it.
func (v *Vector) grow(block int) {
	if block > math.MaxInt32 {
		panic(fmt.Sprintf("bbv: block ID %d exceeds int32", block))
	}
	n := max(block+1, 2*len(v.weight))
	v.weight = append(v.weight, make([]float64, n-len(v.weight))...)
	v.present = append(v.present, make([]bool, n-len(v.present))...)
}

// Instructions returns the total dynamic instructions accumulated.
func (v *Vector) Instructions() uint64 { return v.instructions }

// Len returns the number of distinct basic blocks touched.
func (v *Vector) Len() int { return len(v.touched) }

// Reset clears the vector for reuse, zeroing only the touched blocks.
func (v *Vector) Reset() {
	for _, b := range v.touched {
		v.weight[b] = 0
		v.present[b] = false
	}
	v.touched = v.touched[:0]
	v.instructions = 0
}

// Clone returns a deep copy of the vector.
func (v *Vector) Clone() *Vector {
	return &Vector{
		weight:       slices.Clone(v.weight),
		present:      slices.Clone(v.present),
		touched:      slices.Clone(v.touched),
		instructions: v.instructions,
	}
}

// Sparse returns the vector's non-zero entries as parallel index/value
// slices sorted by index.
func (v *Vector) Sparse() (indices []int, values []float64) {
	indices = appendInts(make([]int, 0, len(v.touched)), v.touched)
	slices.Sort(indices)
	values = make([]float64, len(indices))
	for i, b := range indices {
		values[i] = v.weight[b]
	}
	return indices, values
}

// appendInts appends the block IDs of row to dst as ints.
func appendInts(dst []int, row []int32) []int {
	for _, b := range row {
		dst = append(dst, int(b))
	}
	return dst
}

// Dataset is an ordered collection of interval BBVs plus the interval
// lengths (dynamic instruction counts), ready to be normalized, projected,
// and clustered. For fixed length intervals the lengths are all (about)
// equal; for variable length intervals they differ and are used as
// clustering weights, as in SimPoint 3.0.
//
// Each interval is stored as one exact-size row: its block IDs in
// ascending order and their weights, in parallel slices.
type Dataset struct {
	indices [][]int32
	values  [][]float64
	lengths []uint64
	// dim is one more than the largest block ID appended, 0 when none.
	dim int
}

// NewDataset returns an empty dataset.
func NewDataset() *Dataset {
	return &Dataset{}
}

// Append adds an interval's vector to the dataset as a sorted row copied
// out of it, so the caller may Reset and reuse the vector. It sorts the
// vector's touched list in place.
func (d *Dataset) Append(v *Vector) {
	slices.Sort(v.touched)
	idx := slices.Clone(v.touched)
	vals := make([]float64, len(idx))
	for i, b := range idx {
		vals[i] = v.weight[b]
	}
	if n := len(idx); n > 0 {
		d.dim = max(d.dim, int(idx[n-1])+1)
	}
	d.indices = append(d.indices, idx)
	d.values = append(d.values, vals)
	d.lengths = append(d.lengths, v.Instructions())
}

// Len returns the number of intervals.
func (d *Dataset) Len() int { return len(d.lengths) }

// Lengths returns the per-interval dynamic instruction counts. The returned
// slice is owned by the dataset; callers must not modify it.
func (d *Dataset) Lengths() []uint64 { return d.lengths }

// TotalInstructions returns the sum of all interval lengths.
func (d *Dataset) TotalInstructions() uint64 {
	var total uint64
	for _, l := range d.lengths {
		total += l
	}
	return total
}

// Vector returns a copy of interval i's raw (unnormalized) vector.
func (d *Dataset) Vector(i int) *Vector {
	v := &Vector{instructions: d.lengths[i]}
	if idx := d.indices[i]; len(idx) > 0 {
		v.grow(int(idx[len(idx)-1]))
		for k, b := range idx {
			v.weight[b] = d.values[i][k]
			v.present[b] = true
		}
		v.touched = slices.Clone(idx)
	}
	return v
}

// MaxBlockID returns the largest basic block ID present across all
// intervals, or -1 for an empty dataset.
func (d *Dataset) MaxBlockID() int { return d.dim - 1 }

// Project normalizes every interval vector to L1 norm 1 and projects it to
// outDim dimensions with a random projection drawn from rng. It returns one
// dense row per interval. Empty intervals (no instructions) are rejected
// with an error because they cannot be normalized.
func (d *Dataset) Project(outDim int, rng *xrand.Stream) ([][]float64, error) {
	m, err := d.ProjectMatrix(outDim, rng)
	if err != nil {
		return nil, err
	}
	return m.RowViews(), nil
}

// ProjectMatrix is Project returning the rows as one contiguous matrix
// (row i is interval i), filled in place without a per-row allocation.
func (d *Dataset) ProjectMatrix(outDim int, rng *xrand.Stream) (vecmath.Matrix, error) {
	if d.Len() == 0 {
		return vecmath.Matrix{}, fmt.Errorf("bbv: empty dataset")
	}
	for i, l := range d.lengths {
		if l == 0 {
			return vecmath.Matrix{}, fmt.Errorf("bbv: interval %d is empty", i)
		}
	}
	inDim := d.dim
	if inDim < outDim {
		// Projecting up is pointless; keep native dimensionality by using
		// an identity-like embedding via a square projection. Still random
		// so tests exercise the same code path.
		outDim = inDim
	}
	proj := vecmath.NewProjection(inDim, outDim, rng)
	m := vecmath.NewMatrix(d.Len(), outDim)
	var idx []int
	var vals []float64
	for i, row := range d.indices {
		idx = appendInts(idx[:0], row)
		vals = append(vals[:0], d.values[i]...)
		// L1-normalize the sparse values before projecting; projection is
		// linear so this equals projecting then scaling, but normalizing
		// first keeps magnitudes uniform.
		var norm float64
		for _, x := range vals {
			norm += x
		}
		for j := range vals {
			vals[j] /= norm
		}
		proj.ApplySparseInto(m.Row(i), idx, vals)
	}
	return m, nil
}

// Weights returns the interval lengths as float64 clustering weights.
func (d *Dataset) Weights() []float64 {
	w := make([]float64, len(d.lengths))
	for i, l := range d.lengths {
		w[i] = float64(l)
	}
	return w
}
