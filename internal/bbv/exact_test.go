package bbv

import (
	"fmt"
	"math"
	"slices"
	"testing"

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
// (high nibble, 0 included).
func FuzzDatasetExact(f *testing.F) {
	f.Add([]byte("\x00\x00\x00\x11\x05\x00\x00\x00"))
	f.Add([]byte("\x40\xff\xff\x31\x00\x02\x00\x01\x07\x00\x00\x00\x05\x00\x00\x00\x00\x02\x00\x01\x06\x00\x00\x00"))
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
			if data[0]&0x20 != 0 {
				op.executions <<= 40
			}
			op.size = int(data[3] >> 4)
			ops = append(ops, op)
		}
		if err := checkStream(ops); err != nil {
			t.Fatal(err)
		}
	})
}
