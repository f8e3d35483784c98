package kmeans

import (
	"math"

	"xbsim/internal/obs"
	"xbsim/internal/vecmath"
	"xbsim/internal/xrand"
)

// This file keeps the brute-force k-means the pruned implementation
// replaced, unchanged but for names, as the oracle the exactness tests
// compare against: every point scans every centroid, every restart gets
// its own Result, and the winner is reduced serially in restart order.

// refRun is the reference Run. Per-restart iteration counts go to o's
// kmeans.iterations_per_restart histogram and kmeans.iterations counter,
// as Run's do.
func refRun(points [][]float64, weights []float64, k int, cfg Config, o *obs.Observer) *Result {
	if k > len(points) {
		k = len(points)
	}
	cfg = cfg.withDefaults()
	var best *Result
	for r := 0; r < cfg.Restarts; r++ {
		res, iters := refRunOnce(points, weights, k, cfg, cfg.Rng.SplitIndexed("restart", r))
		o.Histogram("kmeans.iterations_per_restart").Observe(iters)
		o.Counter("kmeans.iterations").Add(iters)
		if best == nil || res.Distortion < best.Distortion {
			best = res
		}
	}
	return best
}

// refRunOnce performs one seeded clustering, returning the result and the
// number of Lloyd iterations it took.
func refRunOnce(points [][]float64, weights []float64, k int, cfg Config, rng *xrand.Stream) (*Result, uint64) {
	dim := len(points[0])
	centroids := refInitPlusPlus(points, weights, k, rng)
	k = len(centroids) // may shrink if fewer distinct points
	assign := make([]int, len(points))
	for i := range assign {
		assign[i] = -1
	}

	var iters uint64
	for iter := 0; iter < cfg.MaxIters; iter++ {
		iters++
		changed := refAssignAll(points, centroids, assign)
		refRecomputeCentroids(points, weights, assign, centroids, dim, rng)
		if !changed && iter > 0 {
			break
		}
	}
	// Final assignment against the final centroids.
	refAssignAll(points, centroids, assign)

	res := &Result{
		K:              k,
		Assignments:    assign,
		Centroids:      centroids,
		ClusterWeights: make([]float64, k),
		ClusterSizes:   make([]int, k),
	}
	for i, c := range assign {
		w := 1.0
		if weights != nil {
			w = weights[i]
		}
		res.ClusterWeights[c] += w
		res.ClusterSizes[c]++
		res.Distortion += w * vecmath.SquaredDistance(points[i], centroids[c])
	}
	return res, iters
}

// refAssignAll assigns each point to its nearest centroid, returning whether
// any assignment changed.
func refAssignAll(points [][]float64, centroids [][]float64, assign []int) bool {
	changed := false
	for i, p := range points {
		bestC, bestD := 0, math.Inf(1)
		for c, ctr := range centroids {
			if d := vecmath.SquaredDistance(p, ctr); d < bestD {
				bestC, bestD = c, d
			}
		}
		if assign[i] != bestC {
			assign[i] = bestC
			changed = true
		}
	}
	return changed
}

// refRecomputeCentroids sets each centroid to the weighted mean of its points.
// An empty cluster is re-seeded with the point farthest from its centroid.
func refRecomputeCentroids(points [][]float64, weights []float64, assign []int, centroids [][]float64, dim int, rng *xrand.Stream) {
	sums := make([][]float64, len(centroids))
	totals := make([]float64, len(centroids))
	for c := range sums {
		sums[c] = make([]float64, dim)
	}
	for i, c := range assign {
		w := 1.0
		if weights != nil {
			w = weights[i]
		}
		vecmath.AddScaled(sums[c], points[i], w)
		totals[c] += w
	}
	var empty []int
	for c := range centroids {
		if totals[c] > 0 {
			vecmath.Scale(sums[c], 1/totals[c])
			centroids[c] = sums[c]
		} else {
			empty = append(empty, c)
		}
	}
	// Empty clusters are re-seeded with the point farthest from its
	// assigned centroid, which splits the most spread-out cluster. The
	// re-seeding is iterative: each pick sees the centroids refreshed by
	// earlier picks and excludes already-used points, so two clusters
	// emptied in the same pass never adopt the same point.
	used := make(map[int]bool, len(empty))
	for _, c := range empty {
		farthest, farD := -1, -1.0
		for i, p := range points {
			if used[i] {
				continue
			}
			d := vecmath.SquaredDistance(p, centroids[assign[i]])
			if d > farD {
				farthest, farD = i, d
			}
		}
		if farthest < 0 {
			// More empty clusters than points left; k <= len(points)
			// makes this unreachable, but degrade gracefully anyway.
			farthest = 0
		}
		used[farthest] = true
		centroids[c] = append([]float64(nil), points[farthest]...)
	}
	_ = rng // reserved for randomized tie-breaking strategies
}

func refInitPlusPlus(points [][]float64, weights []float64, k int, rng *xrand.Stream) [][]float64 {
	n := len(points)
	centroids := make([][]float64, 0, k)
	first := rng.Intn(n)
	centroids = append(centroids, append([]float64(nil), points[first]...))

	// minDist[i] is the squared distance from point i to its nearest
	// chosen centroid so far.
	minDist := make([]float64, n)
	for i := range minDist {
		minDist[i] = vecmath.SquaredDistance(points[i], centroids[0])
	}
	probs := make([]float64, n)
	for len(centroids) < k {
		var total float64
		for i := range probs {
			w := 1.0
			if weights != nil {
				w = weights[i]
			}
			probs[i] = w * minDist[i]
			total += probs[i]
		}
		if total == 0 {
			// All remaining points coincide with chosen centers: fewer
			// distinct points than k.
			break
		}
		next := rng.Pick(probs)
		centroids = append(centroids, append([]float64(nil), points[next]...))
		for i := range minDist {
			if d := vecmath.SquaredDistance(points[i], centroids[len(centroids)-1]); d < minDist[i] {
				minDist[i] = d
			}
		}
	}
	return centroids
}
