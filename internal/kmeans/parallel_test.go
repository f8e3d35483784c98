package kmeans

import (
	"fmt"
	"reflect"
	"slices"
	"sync"
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
	labels := res.Labels(mat(points))
	cw, cs := accounting(labels, nil, res.K)
	for c, size := range cs {
		if size == 0 {
			continue // an empty final cluster is legal, just unrepresented
		}
		if cw[c] <= 0 {
			t.Fatalf("cluster %d has size %d but weight %v", c, size, cw[c])
		}
	}
	if len(labels) != len(points) {
		t.Fatalf("%d assignments", len(labels))
	}
}

// drainScratches empties the free list, failing if it holds any scratch
// twice, and returns what it held.
func drainScratches(t *testing.T) []*scratch {
	t.Helper()
	var held []*scratch
	for {
		s, ok := scratches.Get(struct{}{})
		if !ok {
			return held
		}
		if slices.Contains(held, s) {
			t.Fatal("the free list holds a scratch twice")
		}
		held = append(held, s)
	}
}

// Concurrent Runs, each with pooled restarts, share the process-wide free
// list: no scratch may be handed to two of them at once (the race
// detector sees to the buffers), and every result must equal a serial
// run's.
func TestConcurrentRunsShareScratch(t *testing.T) {
	rng := xrand.New("concurrent")
	pts, _ := blobs(rng, [][]float64{{0, 0}, {8, 0}, {0, 8}, {8, 8}}, 30, 1.0)
	points := mat(pts)
	cfg := func(k int) Config { return Config{Rng: xrand.NewFromUint64(uint64(k)), Restarts: 4} }
	want := make([]*Result, 7)
	for k := 1; k < len(want); k++ {
		res, err := Run(points, nil, k, cfg(k))
		if err != nil {
			t.Fatal(err)
		}
		want[k] = res
	}
	var wg sync.WaitGroup
	errs := make(chan error, 4)
	p := pool.New(2)
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for round := 0; round < 5; round++ {
				k := 1 + (g+round)%(len(want)-1)
				c := cfg(k)
				c.Pool = p
				res, err := Run(points, nil, k, c)
				if err == nil && !reflect.DeepEqual(res, want[k]) {
					err = fmt.Errorf("goroutine %d k=%d: result differs from the serial run", g, k)
				}
				if err != nil {
					errs <- err
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	for _, s := range drainScratches(t) {
		putScratch(s)
	}
}

// The free list keeps at most retainBytes of scratch, and a scratch
// larger than that is dropped rather than kept.
func TestScratchRetentionCapped(t *testing.T) {
	rng := xrand.New("retention")
	pts, _ := blobs(rng, [][]float64{{0, 0, 0}, {9, 9, 9}}, 200, 1.0)
	for k := 1; k <= 10; k++ {
		if _, err := Run(mat(pts), nil, k, Config{Rng: rng, Pool: pool.New(4)}); err != nil {
			t.Fatal(err)
		}
	}
	if retained, _ := scratches.Retained(struct{}{}); retained > retainBytes {
		t.Fatalf("retained %d bytes, cap %d", retained, retainBytes)
	}
	huge := new(scratch)
	huge.reset(retainBytes/16, 1, 1) // four per-point buffers: twice the cap
	if huge.bytes() <= retainBytes {
		t.Fatalf("test scratch holds only %d bytes", huge.bytes())
	}
	before, n := scratches.Retained(struct{}{})
	putScratch(huge)
	if after, m := scratches.Retained(struct{}{}); after != before || m != n {
		t.Fatalf("an oversized scratch was kept: %d bytes in %d scratches, was %d in %d", after, m, before, n)
	}
	held := drainScratches(t)
	if slices.Contains(held, huge) {
		t.Fatal("the oversized scratch is on the free list")
	}
	for _, s := range held {
		putScratch(s)
	}
}
