package sampler

import (
	"fmt"
	"math"
	"slices"
	"testing"

	"xbsim/internal/vecmath"
	"xbsim/internal/xrand"
)

// checkStratify runs stratify and the reference on the same features and
// compares every stratum: members, split dimension, and the bits of its
// weight, per-dimension SSE and total SSE.
func checkStratify(feats vecmath.Matrix, lengths []uint64, maxStrata int) error {
	got := stratify(feats, lengths, maxStrata)
	want := refStratify(feats.RowViews(), lengths, maxStrata)
	if len(got) != len(want) {
		return fmt.Errorf("maxStrata %d: %d strata, reference %d", maxStrata, len(got), len(want))
	}
	for h, s := range got {
		r := want[h]
		switch {
		case !slices.Equal(s.items, r.items):
			return fmt.Errorf("maxStrata %d, stratum %d: items %v, reference %v", maxStrata, h, s.items, r.items)
		case s.splitDim != r.splitDim:
			return fmt.Errorf("maxStrata %d, stratum %d: splitDim %d, reference %d", maxStrata, h, s.splitDim, r.splitDim)
		case math.Float64bits(s.weight) != math.Float64bits(r.weight),
			math.Float64bits(s.totalSSE) != math.Float64bits(r.totalSSE),
			!slices.EqualFunc(s.sse, r.sse, func(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }):
			return fmt.Errorf("maxStrata %d, stratum %d: weight/totalSSE/sse %v/%v/%v, reference %v/%v/%v",
				maxStrata, h, s.weight, s.totalSSE, s.sse, r.weight, r.totalSSE, r.sse)
		}
	}
	return nil
}

// featureCase draws n intervals of dims features under one of the
// shapes the split must handle exactly.
func featureCase(s *xrand.Stream, shape string, n, dims int) (vecmath.Matrix, []uint64) {
	m := vecmath.NewMatrix(n, dims)
	lengths := make([]uint64, n)
	pool := vecmath.NewMatrix(1+n/8, dims) // distinct rows for "duplicates"
	for j := range pool.Data {
		pool.Data[j] = s.NormFloat64()
	}
	for i := 0; i < n; i++ {
		row := m.Row(i)
		for d := range row {
			switch shape {
			case "ties":
				row[d] = float64(s.Intn(3)) / 4 // few levels: many ties at the median
			case "constant-dim":
				if d == 0 {
					row[d] = 0.25
				} else {
					row[d] = s.NormFloat64()
				}
			default:
				row[d] = s.NormFloat64()
			}
		}
		if shape == "duplicates" {
			copy(row, pool.Row(s.Intn(pool.Rows)))
		}
		switch shape {
		case "skewed-lengths":
			lengths[i] = 1 + uint64(s.Intn(2))*999_999
		default:
			lengths[i] = 1 + uint64(s.Intn(3000))
		}
	}
	return m, lengths
}

func TestStratifyMatchesReference(t *testing.T) {
	// The TestSplitSkewedMedian input: the weighted median is the
	// maximum, so the split tightens to strictly-below.
	skewed := matrixOf([][]float64{{0.0}, {5.0}, {5.0}, {5.0}})
	for k := 1; k <= 4; k++ {
		if err := checkStratify(skewed, []uint64{1, 1000, 1000, 1000}, k); err != nil {
			t.Fatalf("skewed median: %v", err)
		}
	}

	// Real features: a phased dataset projected as the sampler does.
	feats, err := phasedDataset(4, 5, 6, 0.05, "exact-strata").ProjectMatrix(featureDim, xrand.New("exact-strata"))
	if err != nil {
		t.Fatal(err)
	}
	lengths := make([]uint64, feats.Rows)
	for i := range lengths {
		lengths[i] = 1000 + uint64(i%7)
	}
	for k := 1; k <= 16; k++ {
		if err := checkStratify(feats, lengths, k); err != nil {
			t.Fatalf("phased dataset: %v", err)
		}
	}

	s := xrand.New("stratify-exact")
	for _, shape := range []string{"normal", "ties", "constant-dim", "duplicates", "skewed-lengths"} {
		for _, n := range []int{1, 2, 3, 17, 300, 5000} {
			dims := 1 + s.Intn(featureDim)
			m, lengths := featureCase(s, shape, n, dims)
			for k := 1; k <= 16; k++ {
				if err := checkStratify(m, lengths, k); err != nil {
					t.Fatalf("%s, %d intervals x %d dims: %v", shape, n, dims, err)
				}
			}
		}
	}
}

// FuzzStratifyExact decodes the first byte as maxStrata (1–16) and the
// second as the feature dimension (1–4), then one record per interval:
// a length byte (0 reads as 1) and one byte per feature, a signed value
// on a coarse grid so that ties are common.
func FuzzStratifyExact(f *testing.F) {
	f.Add([]byte("\x03\x01\x01\x00\xe8\x05\xe8\x05\xe8\x05"))
	f.Add([]byte("\x07\x02\x10\x01\x01\x10\x01\x02\x10\x02\x01\x10\x02\x02\x80\x7f\x7f"))
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 2 {
			return
		}
		maxStrata, dims := 1+int(data[0]%16), 1+int(data[1]%featureDim)
		data = data[2:]
		n := len(data) / (1 + dims)
		if n == 0 {
			return
		}
		m := vecmath.NewMatrix(n, dims)
		lengths := make([]uint64, n)
		for i := 0; i < n; i++ {
			rec := data[i*(1+dims):]
			lengths[i] = uint64(max(rec[0], 1))
			for d := 0; d < dims; d++ {
				m.Row(i)[d] = float64(int8(rec[1+d])) / 8
			}
		}
		if err := checkStratify(m, lengths, maxStrata); err != nil {
			t.Fatal(err)
		}
	})
}

// split allocates nothing of its own: its sort order and right side live
// in the caller's scratch, and both sides are windows of the stratum's
// items, so its only allocations are the two newStratum calls.
func TestSplitAllocations(t *testing.T) {
	feats, lengths := featureCase(xrand.New("split-allocs"), "ties", 500, featureDim)
	items := make([]int, feats.Rows)
	for i := range items {
		items[i] = i
	}
	orig := slices.Clone(items)
	s := newStratum(items, feats, lengths)
	scratch := make([]int, len(items))
	var nl int
	got := testing.AllocsPerRun(50, func() {
		copy(items, orig)
		left, _ := split(s, feats, lengths, scratch)
		nl = len(left.items)
	})
	want := testing.AllocsPerRun(50, func() {
		newStratum(items[:nl:nl], feats, lengths)
		newStratum(items[nl:], feats, lengths)
	})
	if got != want {
		t.Fatalf("split allocates %v times; its two newStratum calls allocate %v", got, want)
	}
}
