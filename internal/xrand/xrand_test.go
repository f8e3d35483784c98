package xrand

import (
	"hash/fnv"
	"math"
	"testing"
	"testing/quick"
)

func TestDeterminismSameKey(t *testing.T) {
	a := New("seed-one")
	b := New("seed-one")
	for i := 0; i < 1000; i++ {
		if got, want := a.Uint64(), b.Uint64(); got != want {
			t.Fatalf("step %d: streams diverged: %d != %d", i, got, want)
		}
	}
}

func TestDifferentKeysDiffer(t *testing.T) {
	a := New("seed-one")
	b := New("seed-two")
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("streams with different keys matched %d/100 draws", same)
	}
}

func TestSplitIndependence(t *testing.T) {
	parent := New("parent")
	// Child sequence must not depend on how far the parent has advanced.
	c1 := parent.Split("child")
	want := make([]uint64, 16)
	for i := range want {
		want[i] = c1.Uint64()
	}
	parent.Uint64() // advance parent
	parent.Uint64()
	c2 := parent.Split("child")
	for i := range want {
		if got := c2.Uint64(); got != want[i] {
			t.Fatalf("child stream changed after parent advanced (step %d)", i)
		}
	}
}

func TestSplitIndexedDistinct(t *testing.T) {
	parent := New("parent")
	seen := map[uint64]int{}
	for i := 0; i < 64; i++ {
		v := parent.SplitIndexed("worker", i).Uint64()
		if j, dup := seen[v]; dup {
			t.Fatalf("SplitIndexed %d and %d produced identical first draw", i, j)
		}
		seen[v] = i
	}
}

// The inline FNV-1a must hash exactly as hash/fnv does, or every seeded
// stream in the repository would change; SplitIndexedValue must be the
// stream SplitIndexed points to.
func TestSeedDerivationUnchanged(t *testing.T) {
	for _, key := range []string{"", "a", "simpoint/", "restart", "kmeans\x00\xff"} {
		h := fnv.New64a()
		h.Write([]byte(key))
		if got, want := fnv64a(key), h.Sum64(); got != want {
			t.Errorf("fnv64a(%q) = %#x, hash/fnv %#x", key, got, want)
		}
	}
	s := New("parent")
	for i := 0; i < 4; i++ {
		if v, p := s.SplitIndexedValue("restart", i), s.SplitIndexed("restart", i); v != *p {
			t.Errorf("index %d: SplitIndexedValue %+v, SplitIndexed %+v", i, v, *p)
		}
	}
}

func TestUint64nBounds(t *testing.T) {
	s := New("bounds")
	for _, n := range []uint64{1, 2, 3, 7, 8, 1000, 1 << 40} {
		for i := 0; i < 200; i++ {
			if v := s.Uint64n(n); v >= n {
				t.Fatalf("Uint64n(%d) = %d out of range", n, v)
			}
		}
	}
}

func TestUint64nPanicsOnZero(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Uint64n(0) did not panic")
		}
	}()
	New("x").Uint64n(0)
}

func TestIntRange(t *testing.T) {
	s := New("range")
	seen := map[int]bool{}
	for i := 0; i < 1000; i++ {
		v := s.IntRange(3, 7)
		if v < 3 || v > 7 {
			t.Fatalf("IntRange(3,7) = %d", v)
		}
		seen[v] = true
	}
	for v := 3; v <= 7; v++ {
		if !seen[v] {
			t.Errorf("IntRange(3,7) never produced %d in 1000 draws", v)
		}
	}
}

func TestFloat64Range(t *testing.T) {
	s := New("floats")
	var sum float64
	const n = 10000
	for i := 0; i < n; i++ {
		v := s.Float64()
		if v < 0 || v >= 1 {
			t.Fatalf("Float64() = %v out of [0,1)", v)
		}
		sum += v
	}
	if mean := sum / n; math.Abs(mean-0.5) > 0.02 {
		t.Errorf("Float64 mean = %v, want ~0.5", mean)
	}
}

func TestNormFloat64Moments(t *testing.T) {
	s := New("gauss")
	const n = 20000
	var sum, sumsq float64
	for i := 0; i < n; i++ {
		v := s.NormFloat64()
		sum += v
		sumsq += v * v
	}
	mean := sum / n
	variance := sumsq/n - mean*mean
	if math.Abs(mean) > 0.05 {
		t.Errorf("normal mean = %v, want ~0", mean)
	}
	if math.Abs(variance-1) > 0.1 {
		t.Errorf("normal variance = %v, want ~1", variance)
	}
}

func TestPermIsPermutation(t *testing.T) {
	s := New("perm")
	f := func(nRaw uint8) bool {
		n := int(nRaw%64) + 1
		p := s.Perm(n)
		if len(p) != n {
			return false
		}
		seen := make([]bool, n)
		for _, v := range p {
			if v < 0 || v >= n || seen[v] {
				return false
			}
			seen[v] = true
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestPickRespectsZeroWeights(t *testing.T) {
	s := New("pick")
	w := []float64{0, 1, 0, 2, 0}
	counts := make([]int, len(w))
	for i := 0; i < 3000; i++ {
		counts[s.Pick(w)]++
	}
	if counts[0] != 0 || counts[2] != 0 || counts[4] != 0 {
		t.Fatalf("picked zero-weight element: %v", counts)
	}
	if counts[3] < counts[1] {
		t.Errorf("weight-2 element picked less than weight-1: %v", counts)
	}
}

func TestPickPanicsOnAllZero(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Pick with zero total weight did not panic")
		}
	}()
	New("x").Pick([]float64{0, 0})
}

func TestBoolProbability(t *testing.T) {
	s := New("bool")
	hits := 0
	const n = 10000
	for i := 0; i < n; i++ {
		if s.Bool(0.25) {
			hits++
		}
	}
	frac := float64(hits) / n
	if math.Abs(frac-0.25) > 0.03 {
		t.Errorf("Bool(0.25) hit rate %v", frac)
	}
}

func TestMix64Bijective(t *testing.T) {
	// Spot-check injectivity on a sample; a full proof is structural
	// (each step of mix64 is invertible).
	seen := map[uint64]uint64{}
	s := New("mix")
	for i := 0; i < 10000; i++ {
		in := s.Uint64()
		out := mix64(in)
		if prev, ok := seen[out]; ok && prev != in {
			t.Fatalf("mix64 collision: mix64(%d) == mix64(%d)", in, prev)
		}
		seen[out] = in
	}
}

// Hash3 and its split form must both equal the one-expression hash every
// trip count and synthesized address in the repository was derived from.
func TestHash3SplitIdentity(t *testing.T) {
	ref := func(a, b, c uint64) uint64 {
		return mix64(mix64(a^0x9E3779B97F4A7C15) + mix64(b+0xBF58476D1CE4E5B9) + mix64(c+0x94D049BB133111EB))
	}
	s := New("hash3")
	edge := []uint64{0, 1, 1<<63 - 1, 1 << 63, ^uint64(0)}
	for i := 0; i < 20000; i++ {
		a, b, c := s.Uint64(), s.Uint64(), s.Uint64()
		if i < len(edge)*len(edge) {
			a, b, c = edge[i%len(edge)], edge[i/len(edge)], edge[(i+2)%len(edge)]
		}
		want := ref(a, b, c)
		if got := Hash3(a, b, c); got != want {
			t.Fatalf("Hash3(%#x, %#x, %#x) = %#x, want %#x", a, b, c, got, want)
		}
		if got := Hash3Finish(Hash3Prefix(a, b), c); got != want {
			t.Fatalf("Hash3Finish(Hash3Prefix(%#x, %#x), %#x) = %#x, want %#x", a, b, c, got, want)
		}
	}
}

func BenchmarkUint64(b *testing.B) {
	s := New("bench")
	var sink uint64
	for i := 0; i < b.N; i++ {
		sink += s.Uint64()
	}
	_ = sink
}
