package kmeans

import (
	"math"
	"reflect"
	"testing"

	"xbsim/internal/pool"
	"xbsim/internal/xrand"
)

// Parallel restarts must reproduce the serial result bit for bit: every
// restart draws from its own indexed stream and the winner is reduced
// in restart order.
func TestParallelRestartsMatchSerial(t *testing.T) {
	rng := xrand.New("parallel-restarts")
	centers := [][]float64{{0, 0}, {8, 0}, {0, 8}, {8, 8}}
	points, _ := blobs(rng, centers, 25, 0.5)

	serial, err := Run(mat(points), nil, 4, Config{Rng: xrand.New("pr"), Restarts: 8})
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := Run(mat(points), nil, 4, Config{Rng: xrand.New("pr"), Restarts: 8, Pool: pool.New(8)})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(serial, parallel) {
		t.Fatalf("parallel result differs from serial:\nserial   %+v\nparallel %+v", serial, parallel)
	}
}

// Two clusters emptied in the same update must be re-seeded with two
// distinct points: the second pick excludes the first pick's point. The
// update must also match the reference recomputation bit for bit.
func TestEmptyClustersReseedDistinctPoints(t *testing.T) {
	points := [][]float64{{0}, {1}, {10}, {11}}
	assign := []int{0, 0, 0, 0} // clusters 1 and 2 both empty
	centroids := [][]float64{{5.5}, {100}, {100}}

	var s scratch
	s.reset(len(points), len(centroids), 1)
	copy(s.assign, assign)
	copy(s.cent, []float64{5.5, 100, 100})
	s.update(mat(points), nil, len(centroids))
	got := [][]float64{row(s.cent, 0, 1), row(s.cent, 1, 1), row(s.cent, 2, 1)}

	refRecomputeCentroids(points, nil, assign, centroids, 1, xrand.New("reseed"))
	for c := range centroids {
		if !sameBits(got[c], centroids[c]) {
			t.Fatalf("centroid %d = %v, reference %v", c, got[c], centroids[c])
		}
	}
	if mean := got[0][0]; mean != 5.5 {
		t.Fatalf("non-empty cluster mean = %v, want 5.5", mean)
	}
	if sameVec(got[1], got[2]) {
		t.Fatalf("both empty clusters re-seeded with the same point %v", got[1])
	}
	for c := 1; c <= 2; c++ {
		if !refContainsVec(points, got[c]) {
			t.Fatalf("re-seeded centroid %v is not a dataset point", got[c])
		}
	}
}

// Weighted re-seeding must also pick distinct points, and the run as a
// whole must still satisfy the basic invariants.
func TestEmptyClusterReseedEndToEnd(t *testing.T) {
	// Points crowded at the origin plus two outliers: high k forces
	// empty clusters during Lloyd iterations.
	points := [][]float64{
		{0, 0}, {0.01, 0}, {0, 0.01}, {0.01, 0.01},
		{50, 50}, {-50, 50},
	}
	res, err := Run(mat(points), nil, 6, Config{Rng: xrand.New("reseed-e2e"), Restarts: 3})
	if err != nil {
		t.Fatal(err)
	}
	for c, size := range res.ClusterSizes {
		if size == 0 {
			continue // an empty final cluster is legal, just unrepresented
		}
		if res.ClusterWeights[c] <= 0 {
			t.Fatalf("cluster %d has size %d but weight %v", c, size, res.ClusterWeights[c])
		}
	}
	if len(res.Assignments) != len(points) {
		t.Fatalf("%d assignments", len(res.Assignments))
	}
}

// initRandom must dedup by numeric vector equality: -0 equals 0, and
// true duplicates collapse, shrinking k.
func TestInitRandomDedupsExactVectors(t *testing.T) {
	negZero := math.Copysign(0, -1)
	points := [][]float64{{0, 1}, {negZero, 1}, {2, 3}, {2, 3}, {4, 5}}
	var s scratch
	s.reset(len(points), 5, 2)
	got := s.initRandom(mat(points), 5, xrand.New("dedup"))
	var centroids [][]float64
	for c := 0; c < got; c++ {
		centroids = append(centroids, row(s.cent, c, 2))
	}
	if len(centroids) != 3 {
		t.Fatalf("%d distinct centroids, want 3 (0/-0 and duplicate rows must collapse): %v",
			len(centroids), centroids)
	}
	for i := 0; i < len(centroids); i++ {
		for j := i + 1; j < len(centroids); j++ {
			if sameVec(centroids[i], centroids[j]) {
				t.Fatalf("duplicate centroids %v", centroids[i])
			}
		}
	}
}

func TestSameVec(t *testing.T) {
	negZero := math.Copysign(0, -1)
	cases := []struct {
		a, b []float64
		want bool
	}{
		{[]float64{1, 2}, []float64{1, 2}, true},
		{[]float64{0}, []float64{negZero}, true},
		{[]float64{1, 2}, []float64{1, 3}, false},
		{[]float64{1}, []float64{1, 1}, false},
	}
	for _, c := range cases {
		if got := sameVec(c.a, c.b); got != c.want {
			t.Errorf("sameVec(%v, %v) = %v, want %v", c.a, c.b, got, c.want)
		}
	}
}
