package bbv

import (
	"fmt"
	"sort"

	"xbsim/internal/fingerprint"
	"xbsim/internal/vecmath"
	"xbsim/internal/xrand"
)

// This file keeps the map-based Vector and Dataset that dense
// accumulation replaced, unchanged but for names, as the oracle the
// exactness tests compare against: every interval is a map from block ID
// to weight, Append clones it, and every projection sorts its keys.

// refVector is the map-based basic block vector under construction. Keys are static
// basic block IDs, values are instruction-weighted execution counts.
type refVector struct {
	counts map[int]float64
	// instructions is the total dynamic instruction count accumulated into
	// this vector; for BBVs built with Add(block, executions, blockSize)
	// this equals the sum of the values in counts.
	instructions uint64
}

// newRefVector returns an empty vector.
func newRefVector() *refVector {
	return &refVector{counts: make(map[int]float64)}
}

// Add records that basic block `block` (containing blockSize instructions)
// executed `executions` times in this interval.
func (v *refVector) Add(block int, executions uint64, blockSize int) {
	if executions == 0 {
		return
	}
	v.counts[block] += float64(executions) * float64(blockSize)
	v.instructions += executions * uint64(blockSize)
}

// Instructions returns the total dynamic instructions accumulated.
func (v *refVector) Instructions() uint64 { return v.instructions }

// Len returns the number of distinct basic blocks touched.
func (v *refVector) Len() int { return len(v.counts) }

// Reset clears the vector for reuse.
func (v *refVector) Reset() {
	clear(v.counts)
	v.instructions = 0
}

// Clone returns a deep copy of the vector.
func (v *refVector) Clone() *refVector {
	c := &refVector{counts: make(map[int]float64, len(v.counts)), instructions: v.instructions}
	for k, val := range v.counts {
		c.counts[k] = val
	}
	return c
}

// Sparse returns the vector's non-zero entries as parallel index/value
// slices sorted by index.
func (v *refVector) Sparse() (indices []int, values []float64) {
	return v.sparseInto(make([]int, 0, len(v.counts)), make([]float64, 0, len(v.counts)))
}

// sparseInto is Sparse reusing the capacity of indices and values, which
// it overwrites.
func (v *refVector) sparseInto(indices []int, values []float64) ([]int, []float64) {
	indices = indices[:0]
	for k := range v.counts {
		indices = append(indices, k)
	}
	sort.Ints(indices)
	values = values[:0]
	for _, k := range indices {
		values = append(values, v.counts[k])
	}
	return indices, values
}

// Fingerprint returns a short deterministic content digest of the
// vector: the sparse (block, weight) pairs in index order plus the
// accumulated instruction count, hashed bit-exactly. Two intervals share
// a fingerprint exactly when they executed an identical instruction-
// weighted block mix — the interval half of the redundancy analyzer's
// (interval, cache-config) evaluation key.
func (v *refVector) Fingerprint() string {
	indices, values := v.Sparse()
	h := fingerprint.New()
	h.Uint64(v.instructions)
	h.Ints(indices)
	h.Float64s(values)
	return h.Sum()
}

// refDataset is the map-based collection of interval BBVs plus the interval
// lengths (dynamic instruction counts), ready to be normalized, projected,
// and clustered. For fixed length intervals the lengths are all (about)
// equal; for variable length intervals they differ and are used as
// clustering weights, as in SimPoint 3.0.
type refDataset struct {
	vectors []*refVector
	lengths []uint64
}

// newRefDataset returns an empty dataset.
func newRefDataset() *refDataset {
	return &refDataset{}
}

// Append adds an interval's vector to the dataset. The vector is cloned, so
// the caller may Reset and reuse it.
func (d *refDataset) Append(v *refVector) {
	d.vectors = append(d.vectors, v.Clone())
	d.lengths = append(d.lengths, v.Instructions())
}

// Len returns the number of intervals.
func (d *refDataset) Len() int { return len(d.vectors) }

// Lengths returns the per-interval dynamic instruction counts. The returned
// slice is owned by the dataset; callers must not modify it.
func (d *refDataset) Lengths() []uint64 { return d.lengths }

// TotalInstructions returns the sum of all interval lengths.
func (d *refDataset) TotalInstructions() uint64 {
	var total uint64
	for _, l := range d.lengths {
		total += l
	}
	return total
}

// Vector returns interval i's raw (unnormalized) vector.
func (d *refDataset) Vector(i int) *refVector { return d.vectors[i] }

// MaxBlockID returns the largest basic block ID present across all
// intervals, or -1 for an empty dataset.
func (d *refDataset) MaxBlockID() int {
	maxID := -1
	for _, v := range d.vectors {
		for k := range v.counts {
			if k > maxID {
				maxID = k
			}
		}
	}
	return maxID
}

// Project normalizes every interval vector to L1 norm 1 and projects it to
// outDim dimensions with a random projection drawn from rng. It returns one
// dense row per interval. Empty intervals (no instructions) are rejected
// with an error because they cannot be normalized.
func (d *refDataset) Project(outDim int, rng *xrand.Stream) ([][]float64, error) {
	m, err := d.ProjectMatrix(outDim, rng)
	if err != nil {
		return nil, err
	}
	return m.RowViews(), nil
}

// ProjectMatrix is Project returning the rows as one contiguous matrix
// (row i is interval i), filled in place without a per-row allocation.
func (d *refDataset) ProjectMatrix(outDim int, rng *xrand.Stream) (vecmath.Matrix, error) {
	if d.Len() == 0 {
		return vecmath.Matrix{}, fmt.Errorf("bbv: empty dataset")
	}
	for i, v := range d.vectors {
		if v.instructions == 0 {
			return vecmath.Matrix{}, fmt.Errorf("bbv: interval %d is empty", i)
		}
	}
	inDim := d.MaxBlockID() + 1
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
	for i, v := range d.vectors {
		idx, vals = v.sparseInto(idx, vals)
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
func (d *refDataset) Weights() []float64 {
	w := make([]float64, len(d.lengths))
	for i, l := range d.lengths {
		w[i] = float64(l)
	}
	return w
}
