package kmeans

import (
	"reflect"
	"slices"
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
	if slices.Equal(got[1], got[2]) {
		t.Fatalf("both empty clusters re-seeded with the same point %v", got[1])
	}
	for c := 1; c <= 2; c++ {
		if !slices.ContainsFunc(points, func(p []float64) bool { return slices.Equal(p, got[c]) }) {
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
