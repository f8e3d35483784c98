package kmeans

import (
	"math"
	"reflect"
	"testing"

	"xbsim/internal/obs"
	"xbsim/internal/pool"
	"xbsim/internal/xrand"
)

// sameBits reports whether two vectors are identical bit for bit (so -0
// differs from 0 and NaN equals an identical NaN).
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

// checkExact fails unless Run and the brute-force reference agree bit for
// bit on every output and on every restart's iteration count.
func checkExact(t testing.TB, points [][]float64, weights []float64, k int, cfg Config) {
	t.Helper()
	refObs := &obs.Observer{Metrics: obs.NewRegistry()}
	want := refRun(points, weights, k, cfg, refObs)
	cfg.Obs = &obs.Observer{Metrics: obs.NewRegistry()}
	got, err := Run(mat(points), weights, k, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if got.K != want.K {
		t.Fatalf("K = %d, reference %d", got.K, want.K)
	}
	if !reflect.DeepEqual(got.Assignments, want.Assignments) {
		t.Fatalf("assignments differ:\n got %v\nwant %v", got.Assignments, want.Assignments)
	}
	for c := range want.Centroids {
		if !sameBits(got.Centroids[c], want.Centroids[c]) {
			t.Fatalf("centroid %d = %v, reference %v", c, got.Centroids[c], want.Centroids[c])
		}
	}
	if !sameBits([]float64{got.Distortion}, []float64{want.Distortion}) {
		t.Fatalf("distortion = %v, reference %v", got.Distortion, want.Distortion)
	}
	if !sameBits(got.ClusterWeights, want.ClusterWeights) {
		t.Fatalf("cluster weights = %v, reference %v", got.ClusterWeights, want.ClusterWeights)
	}
	if !reflect.DeepEqual(got.ClusterSizes, want.ClusterSizes) {
		t.Fatalf("cluster sizes = %v, reference %v", got.ClusterSizes, want.ClusterSizes)
	}
	gs, ws := cfg.Obs.Metrics.Snapshot(), refObs.Metrics.Snapshot()
	if g, w := gs.Counters["kmeans.iterations"], ws.Counters["kmeans.iterations"]; g != w {
		t.Fatalf("kmeans.iterations = %d, reference %d", g, w)
	}
	if g, w := gs.Histograms["kmeans.iterations_per_restart"], ws.Histograms["kmeans.iterations_per_restart"]; g != w {
		t.Fatalf("iterations per restart = %+v, reference %+v", g, w)
	}

	// Restart by restart, too: each must reproduce the reference's
	// clustering and iteration count, not just the winner.
	cfg = cfg.withDefaults()
	kk := min(k, len(points))
	var s scratch
	for r := 0; r < cfg.Restarts; r++ {
		ref, iters := refRunOnce(points, weights, kk, cfg, cfg.Rng.SplitIndexed("restart", r))
		rng := cfg.Rng.SplitIndexedValue("restart", r)
		out := s.lloyd(mat(points), weights, kk, cfg, &rng)
		if out.iters != iters || out.k != ref.K ||
			!reflect.DeepEqual(s.assign, ref.Assignments) ||
			math.Float64bits(out.distortion) != math.Float64bits(ref.Distortion) {
			t.Fatalf("restart %d: iters %d k %d distortion %v, reference iters %d k %d distortion %v",
				r, out.iters, out.k, out.distortion, iters, ref.K, ref.Distortion)
		}
	}
}

// grid returns every point of an n×n integer lattice: distances between
// lattice points and integer-mean centroids tie exactly all the time.
func grid(n int) [][]float64 {
	var points [][]float64
	for x := 0; x < n; x++ {
		for y := 0; y < n; y++ {
			points = append(points, []float64{float64(x), float64(y)})
		}
	}
	return points
}

func TestExactMatchesReference(t *testing.T) {
	rng := xrand.New("exact")
	centers := make([][]float64, 6)
	for c := range centers {
		centers[c] = make([]float64, 15)
		for j := range centers[c] {
			centers[c][j] = 4 * rng.NormFloat64()
		}
	}
	blobs15, _ := blobs(rng, centers, 50, 1.0)
	vli := make([]float64, len(blobs15))
	for i := range vli {
		vli[i] = float64(1 + rng.Intn(1_000_000))
	}
	dups := append(append(append([][]float64{}, grid(3)...), grid(3)...), grid(2)...)
	identical := make([][]float64, 12)
	for i := range identical {
		identical[i] = []float64{3, -1, 0.5}
	}
	ties := [][]float64{{0}, {1}, {2}, {3}, {4}, {5}, {6}, {-1}, {-2}, {10}, {12}}
	crowded := [][]float64{
		{0, 0}, {0.01, 0}, {0, 0.01}, {0.01, 0.01},
		{50, 50}, {-50, 50},
	}
	tiny := make([][]float64, len(ties))
	huge := make([][]float64, len(ties))
	for i, p := range ties {
		tiny[i] = []float64{p[0] * 1e-160, 1e-158}
		huge[i] = []float64{p[0] * 1e153, -3e152}
	}

	cases := []struct {
		name    string
		points  [][]float64
		weights []float64
		ks      []int
	}{
		{"blobs-15d", blobs15, nil, []int{1, 2, 5, 6, 10}},
		{"vli-weights", blobs15, vli, []int{1, 3, 6, 10}},
		{"duplicates", dups, nil, []int{2, 3, 4, 7, 9}},
		{"lattice-ties", grid(6), nil, []int{2, 3, 4, 5, 8}},
		{"line-ties", ties, nil, []int{2, 3, 4, 6}},
		{"all-identical", identical, nil, []int{1, 4}},
		{"k-equals-n", ties, nil, []int{len(ties), len(ties) + 3}},
		{"empty-reseed", crowded, nil, []int{3, 5, 6}},
		{"empty-reseed-weighted", crowded, []float64{5, 1, 1, 2, 7, 3}, []int{4, 6}},
		{"underflow", tiny, nil, []int{2, 4}},
		{"near-overflow", huge, nil, []int{2, 4}},
	}
	for _, c := range cases {
		for _, k := range c.ks {
			checkExact(t, c.points, c.weights, k, Config{Rng: xrand.New(c.name), Restarts: 4})
		}
	}
	// Pooled restarts finish in any order; the winner must not depend on it.
	checkExact(t, blobs15, vli, 6, Config{Rng: xrand.New("pooled"), Restarts: 8, Pool: pool.New(4)})
	// A tight iteration cap stops Lloyd mid-flight.
	checkExact(t, grid(6), nil, 5, Config{Rng: xrand.New("capped"), Restarts: 3, MaxIters: 2})
}

// FuzzKMeansExact decodes points on a coarse grid — so duplicates and
// exact distance ties are common — at a scale from underflowing to nearly
// overflowing squared distances, and requires Run to match the reference
// bit for bit. The last argument once chose the seeding method; it stays
// so the corpus still decodes.
func FuzzKMeansExact(f *testing.F) {
	f.Add([]byte{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11}, uint8(1), uint8(3), false, true)
	f.Add([]byte{1, 9, 9, 9, 9, 0, 0, 18, 18, 27, 4}, uint8(0), uint8(2), true, true)
	f.Add([]byte{4, 5, 5, 5, 5, 5, 5, 5, 5}, uint8(2), uint8(5), false, false)
	f.Fuzz(func(t *testing.T, data []byte, dimRaw, kRaw uint8, weighted, _ bool) {
		if len(data) < 2 {
			return
		}
		scale := []float64{1, 0.5, 3, 1e-160, 1e153, 1e6}[int(data[0])%6]
		data = data[1:]
		dim := 1 + int(dimRaw%4)
		n := min(len(data)/dim, 96)
		if n == 0 {
			return
		}
		points := make([][]float64, n)
		var weights []float64
		if weighted {
			weights = make([]float64, n)
		}
		for i := range points {
			points[i] = make([]float64, dim)
			for j := range points[i] {
				points[i][j] = float64(int(data[i*dim+j])%9-4) * scale
			}
			if weighted {
				weights[i] = float64(1 + int(data[i*dim])*37%1000)
			}
		}
		k := 1 + int(kRaw%12)
		checkExact(t, points, weights, k, Config{Rng: xrand.NewFromUint64(uint64(len(data))), Restarts: 3})
	})
}

// The bounds must actually prune on clustered data, and the two counters
// must add up to the brute-force scan count: points × clusters for every
// assignment step (the Lloyd iterations plus each restart's final step).
func TestDistanceCounters(t *testing.T) {
	rng := xrand.New("counters")
	points, _ := blobs(rng, [][]float64{{0, 0}, {10, 0}, {0, 10}, {10, 10}}, 100, 1.0)
	o := &obs.Observer{Metrics: obs.NewRegistry()}
	const k, restarts = 4, 3
	if _, err := Run(mat(points), nil, k, Config{Rng: xrand.New("c"), Restarts: restarts, Obs: o}); err != nil {
		t.Fatal(err)
	}
	snap := o.Metrics.Snapshot()
	computed, pruned := snap.Counters["kmeans.distances"], snap.Counters["kmeans.distances_pruned"]
	steps := snap.Counters["kmeans.iterations"] + restarts
	if want := uint64(len(points)*k) * steps; computed+pruned != want {
		t.Fatalf("distances %d + pruned %d = %d, want %d", computed, pruned, computed+pruned, want)
	}
	if pruned <= computed {
		t.Fatalf("bounds pruned only %d of %d distances", pruned, computed+pruned)
	}
}

// A warmed Run allocates only its Result and fixed bookkeeping: the count
// must not grow with the number of restarts or Lloyd iterations.
func TestRunAllocsDoNotGrowWithWork(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items at random under the race detector")
	}
	rng := xrand.New("allocs")
	pts, _ := blobs(rng, [][]float64{{0, 0, 0}, {6, 0, 1}, {0, 6, 2}, {6, 6, 3}, {3, 3, 9}}, 60, 1.5)
	points := mat(pts)
	allocs := func(restarts, maxIters int) float64 {
		cfg := Config{Rng: xrand.New("a"), Restarts: restarts, MaxIters: maxIters}
		run := func() {
			if _, err := Run(points, nil, 5, cfg); err != nil {
				t.Fatal(err)
			}
		}
		run() // warm the scratch
		return testing.AllocsPerRun(20, run)
	}
	base := allocs(1, 1)
	for _, c := range []struct{ restarts, maxIters int }{{1, 100}, {5, 100}, {20, 100}, {20, 2}} {
		if got := allocs(c.restarts, c.maxIters); got > base {
			t.Errorf("Restarts=%d MaxIters=%d: %.0f allocs per Run, want at most %.0f (Restarts=1 MaxIters=1)",
				c.restarts, c.maxIters, got, base)
		}
	}
}
