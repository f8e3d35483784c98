package bbv

import (
	"fmt"
	"math"
	"slices"
	"testing"
	"unsafe"

	"xbsim/internal/xrand"
)

// bbvOp is one step of a stream driven in lockstep through the dense
// Vector/Dataset and the map-based oracle.
type bbvOp struct {
	kind       opKind
	block      int
	executions uint64
	size       int
}

type opKind uint8

const (
	opAdd opKind = iota
	opAppend
	opAppendReset // what the collectors do at a cut
	opReset
	opClone // snapshot the vector; the snapshot is checked at the end
)

// checkStream drives ops through both implementations, comparing the
// vector after every step and the datasets, snapshots and projections
// at the end.
func checkStream(ops []bbvOp) error {
	v, r := NewVector(), newRefVector()
	d, rd := NewDataset(), newRefDataset()
	var snaps []*Vector
	var refSnaps []*refVector
	for i, op := range ops {
		switch op.kind {
		case opAdd:
			v.Add(op.block, op.executions, op.size)
			r.Add(op.block, op.executions, op.size)
		case opAppend:
			d.Append(v)
			rd.Append(r)
		case opAppendReset:
			d.Append(v)
			rd.Append(r)
			v.Reset()
			r.Reset()
		case opReset:
			v.Reset()
			r.Reset()
		case opClone:
			snaps = append(snaps, v.Clone())
			refSnaps = append(refSnaps, r.Clone())
		}
		if err := sameVector(v, r); err != nil {
			return fmt.Errorf("op %d (%+v): %w", i, op, err)
		}
	}
	for i := range snaps {
		if err := sameVector(snaps[i], refSnaps[i]); err != nil {
			return fmt.Errorf("clone %d: %w", i, err)
		}
	}
	return sameDataset(d, rd)
}

func sameVector(v *Vector, r *refVector) error {
	if v.Len() != r.Len() || v.Instructions() != r.Instructions() {
		return fmt.Errorf("Len/Instructions %d/%d, oracle %d/%d", v.Len(), v.Instructions(), r.Len(), r.Instructions())
	}
	idx, vals := v.Sparse()
	ridx, rvals := r.Sparse()
	if !slices.Equal(idx, ridx) {
		return fmt.Errorf("Sparse indices %v, oracle %v", idx, ridx)
	}
	if !sameBits(vals, rvals) {
		return fmt.Errorf("Sparse values %v, oracle %v", vals, rvals)
	}
	return nil
}

func sameDataset(d *Dataset, rd *refDataset) error {
	if d.Len() != rd.Len() || d.MaxBlockID() != rd.MaxBlockID() || d.TotalInstructions() != rd.TotalInstructions() {
		return fmt.Errorf("dataset Len/MaxBlockID/TotalInstructions %d/%d/%d, oracle %d/%d/%d",
			d.Len(), d.MaxBlockID(), d.TotalInstructions(), rd.Len(), rd.MaxBlockID(), rd.TotalInstructions())
	}
	if !slices.Equal(d.Lengths(), rd.Lengths()) {
		return fmt.Errorf("Lengths %v, oracle %v", d.Lengths(), rd.Lengths())
	}
	for i := 0; i < d.Len(); i++ {
		if err := sameVector(d.Vector(i), rd.Vector(i)); err != nil {
			return fmt.Errorf("interval %d: %w", i, err)
		}
	}
	for _, dim := range []int{3, 15} {
		m, err := d.ProjectMatrix(dim, xrand.New("exact-proj"))
		rm, rerr := rd.ProjectMatrix(dim, xrand.New("exact-proj"))
		if (err == nil) != (rerr == nil) {
			return fmt.Errorf("ProjectMatrix(%d) error %v, oracle %v", dim, err, rerr)
		}
		if err != nil {
			if err.Error() != rerr.Error() {
				return fmt.Errorf("ProjectMatrix(%d) error %q, oracle %q", dim, err, rerr)
			}
			continue
		}
		if m.Rows != rm.Rows || m.Cols != rm.Cols || !sameBits(m.Data, rm.Data) {
			return fmt.Errorf("ProjectMatrix(%d) differs from the oracle", dim)
		}
	}
	return nil
}

func sameBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// randomStream draws n ops over blocks [0, blocks), with a cut every
// cutEvery adds on average.
func randomStream(s *xrand.Stream, n, blocks, cutEvery int) []bbvOp {
	ops := make([]bbvOp, 0, n)
	for i := 0; i < n; i++ {
		switch x := s.Intn(cutEvery * 10); {
		case x < 7:
			ops = append(ops, bbvOp{kind: opAppendReset})
		case x == 7:
			ops = append(ops, bbvOp{kind: opAppend})
		case x == 8:
			ops = append(ops, bbvOp{kind: opReset})
		case x == 9:
			ops = append(ops, bbvOp{kind: opClone})
		default:
			// Skew toward low IDs so blocks repeat within an interval.
			b := s.Intn(blocks)
			if s.Intn(2) == 0 {
				b = s.Intn(min(blocks, 8))
			}
			ops = append(ops, bbvOp{kind: opAdd, block: b,
				executions: uint64(s.Intn(4)), size: s.Intn(20)})
		}
	}
	return ops
}

func TestDatasetMatchesReference(t *testing.T) {
	add := func(b int, e uint64, size int) bbvOp { return bbvOp{kind: opAdd, block: b, executions: e, size: size} }
	cut := bbvOp{kind: opAppendReset}
	streams := map[string][]bbvOp{
		"empty":            nil,
		"one empty cut":    {cut},
		"block 0":          {add(0, 1, 1), add(0, 2, 3), cut},
		"zero-size blocks": {add(4, 3, 0), add(2, 1, 5), add(4, 1, 0), cut, add(9, 1, 0), cut},
		"only zero-size":   {add(7, 5, 0), cut},
		"zero executions":  {add(3, 0, 9), add(5, 0, 0), cut, add(3, 0, 9), add(1, 1, 1), cut},
		"repeated blocks":  {add(6, 1, 7), add(6, 1, 7), add(2, 4, 1), add(6, 3, 7), cut},
		"sparse high IDs":  {add(1<<20, 1, 3), add(5, 1, 1), cut, add(1<<19+7, 2, 2), cut},
		"reset reuse":      {add(3, 1, 4), {kind: opReset}, add(8, 1, 1), cut, add(3, 1, 4), cut},
		"append no reset":  {add(9, 1, 2), add(1, 1, 1), {kind: opAppend}, add(0, 1, 3), add(9, 1, 2), cut},
		"clone":            {add(2, 1, 2), {kind: opClone}, add(2, 1, 2), add(4, 1, 1), {kind: opClone}, cut, {kind: opClone}},
		"huge weights":     {add(1, 1<<52, 3), add(1, 1, 1), add(2, 1<<40, 7), add(1, 3, 3), cut},
	}
	for name, ops := range streams {
		if err := checkStream(ops); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
	s := xrand.New("bbv-exact")
	for i := 0; i < 40; i++ {
		blocks := []int{1, 8, 300, 5000}[i%4]
		if err := checkStream(randomStream(s, 2000, blocks, 1+i%30)); err != nil {
			t.Fatalf("random stream %d (%d blocks): %v", i, blocks, err)
		}
	}
}

// FuzzDatasetExact decodes four bytes per op: a kind/flags byte, a block
// ID (8 bits, or 14 bits to reach sparse high IDs when flagged), and
// a byte split into executions (low nibble, 0 included) and block size
// (high nibble, 0 included). Flags shift the executions left by 40 or by
// 60 bits and negate the block size, so one add can make a weight at or
// past 2^63 or below zero, both of which take the escape code.
func FuzzDatasetExact(f *testing.F) {
	f.Add([]byte("\x00\x00\x00\x11\x05\x00\x00\x00"))
	f.Add([]byte("\x40\xff\xff\x31\x00\x02\x00\x01\x07\x00\x00\x00\x05\x00\x00\x00\x00\x02\x00\x01\x06\x00\x00\x00"))
	// The longest varint codes: gaps up to 2^14 and weights near 2^48.
	f.Add([]byte("\x60\xff\x3f\xff\x40\x00\x20\xff\x20\x00\x00\xff\x02\x00\x00\x00\x60\x01\x3f\xf1\x02\x00\x00\x00"))
	// Escaped weights: 15<<60 executions of a one-instruction block, and
	// one execution of a block of size -3, each then appended.
	f.Add([]byte("\x10\x03\x00\x1f\x02\x00\x00\x00"))
	f.Add([]byte("\x80\x03\x00\x31\x02\x00\x00\x00"))
	f.Fuzz(func(t *testing.T, data []byte) {
		var ops []bbvOp
		for ; len(data) >= 4; data = data[4:] {
			op := bbvOp{kind: opKind(data[0] % 8)}
			if op.kind > opClone {
				op.kind = opAdd
			}
			op.block = int(data[1])
			if data[0]&0x40 != 0 {
				op.block |= int(data[2]&0x3F) << 8
			}
			op.executions = uint64(data[3] & 0xF)
			switch {
			case data[0]&0x10 != 0:
				op.executions <<= 60
			case data[0]&0x20 != 0:
				op.executions <<= 40
			}
			op.size = int(data[3] >> 4)
			if data[0]&0x80 != 0 {
				op.size = -op.size
			}
			ops = append(ops, op)
		}
		if err := checkStream(ops); err != nil {
			t.Fatal(err)
		}
	})
}

// rowOfBytes adds to v and r distinct blocks, in descending ID order,
// whose row encodes to exactly size bytes (0 or at least 2): gaps of 1
// and weights of 1 take one byte each, a weight of 100 takes two.
func rowOfBytes(v *Vector, r *refVector, size int) {
	entries := size / 2
	for j := entries; j >= 1; j-- {
		w := 1
		if j == 1 && size%2 == 1 {
			w = 100
		}
		v.Add(j, 1, w)
		r.Add(j, 1, w)
	}
}

// TestDatasetChunkBoundaries appends rows that fill a chunk exactly,
// overflow it by one byte, are empty, or exceed chunkBytes and so take a
// chunk of their own, and checks them against the oracle and the chunk
// layout: rows are packed and never straddle, a shared chunk is exactly
// chunkBytes, a row opens a new one only when the current one lacks room,
// an oversized chunk holds exactly one row, and no chunk is ever
// regrown.
func TestDatasetChunkBoundaries(t *testing.T) {
	sizes := []int{chunkBytes, 0, chunkBytes - 1, 2, 3, chunkBytes + 1, 4, chunkBytes / 2,
		chunkBytes/2 - 7, 3 * chunkBytes, 0, 7, chunkBytes - 7, chunkBytes + 5, 2}
	d, rd := NewDataset(), newRefDataset()
	v, r := NewVector(), newRefVector()
	var bases []*byte
	for _, size := range sizes {
		rowOfBytes(v, r, size)
		d.Append(v)
		rd.Append(r)
		v.Reset()
		r.Reset()
		for c, chunk := range d.chunks {
			if c < len(bases) && unsafe.SliceData(chunk) != bases[c] {
				t.Fatalf("chunk %d moved after %d rows", c, len(d.rows))
			}
		}
		for c := len(bases); c < len(d.chunks); c++ {
			bases = append(bases, unsafe.SliceData(d.chunks[c]))
		}
	}
	if err := sameDataset(d, rd); err != nil {
		t.Fatal(err)
	}
	rowsIn := make([]int, len(d.chunks))
	used := make([]int, len(d.chunks))
	shared := -1
	for i, ref := range d.rows {
		c, size := int(ref.chunk), sizes[i]
		if int(ref.n) != size/2 {
			t.Fatalf("row %d has %d entries, want %d", i, ref.n, size/2)
		}
		if int(ref.off) != used[c] {
			t.Fatalf("row %d starts at byte %d of chunk %d, want %d", i, ref.off, c, used[c])
		}
		used[c] += size
		if size > 0 {
			rowsIn[c]++
		}
		if cap(d.chunks[c]) == chunkBytes && c != shared {
			// Rows never return to an earlier shared chunk, so its final
			// length is its length when row i opened chunk c.
			if shared >= 0 && len(d.chunks[shared])+size <= chunkBytes {
				t.Fatalf("row %d of %d bytes opened chunk %d; chunk %d had room", i, size, c, shared)
			}
			shared = c
		}
	}
	for c, chunk := range d.chunks {
		switch {
		case len(chunk) != used[c]:
			t.Fatalf("chunk %d holds %d bytes, its rows %d", c, len(chunk), used[c])
		case cap(chunk) > chunkBytes && (len(chunk) != cap(chunk) || rowsIn[c] != 1):
			t.Fatalf("oversized chunk %d holds %d rows in %d of %d bytes", c, rowsIn[c], len(chunk), cap(chunk))
		case cap(chunk) < chunkBytes:
			t.Fatalf("chunk %d has capacity %d, want chunkBytes or one oversized row", c, cap(chunk))
		}
	}
}

// Weights outside uvarint's reach take the escape code and still round-trip
// bit for bit: negative block sizes and weights of 2^63 or more through
// Add, checked against the oracle in Vector(i) and ProjectMatrix, and
// every other kind of float64 through Vector(i).
func TestDatasetEscapedWeights(t *testing.T) {
	add := func(b int, e uint64, size int) bbvOp { return bbvOp{kind: opAdd, block: b, executions: e, size: size} }
	cut := bbvOp{kind: opAppendReset}
	largestBelow := uint64(1)<<53 - 1 // times 1024 is the largest float64 below 2^63
	ops := []bbvOp{
		add(0, 3, -5), cut,
		add(0, 1<<61, 4), cut, // exactly 2^63
		add(0, 1<<62, 7), cut,
		add(0, largestBelow, 1024), cut,
		add(0, 2, -1), add(3, 4, 5), add(9, 1<<62, 6), add(12, 1, 1), cut,
		add(0, 1, 1), add(0, 1, -1), add(4, 1, 1), cut, // a weight summed to 0
	}
	if err := checkStream(ops); err != nil {
		t.Fatal(err)
	}
	d := NewDataset()
	v := NewVector()
	for _, op := range ops {
		if op.kind == opAppendReset {
			d.Append(v)
			v.Reset()
			continue
		}
		v.Add(op.block, op.executions, op.size)
	}
	// Single-entry rows of block 0: one gap byte, then the weight code.
	for i, wantEscape := range []bool{true, true, true, false} {
		ref := d.rows[i]
		if got := d.chunks[ref.chunk][ref.off+1] == escape; got != wantEscape {
			t.Errorf("row %d (weight %v): escaped %v, want %v", i, d.Vector(i).weight[0], got, wantEscape)
		}
	}
	weights := []float64{math.NaN(), math.Copysign(0, -1), 0.5, -3, math.Inf(1), math.Inf(-1),
		math.MaxFloat64, math.SmallestNonzeroFloat64, 1 << 63, 1<<63 - 1024, 0, 1}
	d = NewDataset()
	for _, w := range weights {
		v.Reset()
		v.Add(7, 1, 1)
		v.weight[7] = w
		d.Append(v)
	}
	for i, w := range weights {
		if got := d.Vector(i).weight[7]; math.Float64bits(got) != math.Float64bits(w) {
			t.Errorf("weight %v (bits %#x) decoded as %v (bits %#x)", w, math.Float64bits(w), got, math.Float64bits(got))
		}
	}
}
