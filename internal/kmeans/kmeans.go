// Package kmeans implements weighted k-means clustering with k-means++
// seeding, multiple restarts, and the Bayesian Information Criterion (BIC)
// score SimPoint uses to choose the number of clusters.
//
// SimPoint 3.0 clusters projected basic block vectors for a range of k and
// keeps the smallest k whose BIC is close to the best observed (Hamerly et
// al., JILP 2005). For variable length intervals each point carries a
// weight — its dynamic instruction count — and both the centroid updates
// and the BIC likelihood treat a point of weight w like w identical copies.
//
// Lloyd's assignment step is pruned with Hamerly's bounds (Hamerly, "Making
// k-means even faster", SDM 2010) under a conservative floating-point
// margin: a point skips its scan over the centroids only when the bounds
// prove its centroid strictly nearest, so every assignment, centroid and
// distortion is bit-identical to the brute-force index-order scan;
// k-means++ seeding skips distances by the same test (DESIGN §19). Each
// restart works in scratch recycled for the life of the process, so a
// warmed Run allocates its Result and a few fixed-size values however
// many restarts and iterations it runs.
package kmeans

import (
	"fmt"
	"math"
	"slices"
	"sync"

	"xbsim/internal/freelist"
	"xbsim/internal/obs"
	"xbsim/internal/pool"
	"xbsim/internal/vecmath"
	"xbsim/internal/xrand"
)

// Config controls a clustering run.
type Config struct {
	// MaxIters bounds Lloyd iterations per restart. <= 0 means 100.
	MaxIters int
	// Restarts is the number of random restarts; the lowest-distortion run
	// wins. <= 0 means 5.
	Restarts int
	// Rng supplies all randomness. Required.
	Rng *xrand.Stream
	// Obs, when non-nil, receives clustering metrics (restart, Lloyd
	// iteration and distance counters, iteration histograms). Nil records
	// nothing.
	Obs *obs.Observer
	// Pool, when non-nil, runs the restarts concurrently. Each restart
	// draws from its own SplitIndexed stream and the winner is chosen by
	// the serial rule, so the result is identical to a serial run.
	Pool *pool.Pool
}

func (c Config) withDefaults() Config {
	if c.MaxIters <= 0 {
		c.MaxIters = 100
	}
	if c.Restarts <= 0 {
		c.Restarts = 5
	}
	return c
}

// Result is a completed clustering. It keeps what choosing among
// clusterings reads; Labels gives the per-point assignment on demand.
type Result struct {
	// K is the number of clusters actually produced (== requested k unless
	// there were fewer distinct points).
	K int
	// Centroids holds the K cluster centers.
	Centroids [][]float64
	// Distortion is the weighted sum of squared distances of points to
	// their assigned centroid.
	Distortion float64
	// BIC is the clustering's Bayesian Information Criterion score, in
	// the X-means formulation (Pelleg & Moore, ICML 2000) generalized to
	// weighted points: a point of weight w contributes like w copies.
	// Higher is better. Weights are rescaled so their total equals the
	// point count, which keeps scores comparable across weighting
	// schemes.
	BIC float64
}

// Labels assigns each point to its nearest centroid, the lowest index
// among equally near ones. That index-order scan is the one every
// assignment step of Run is exact against (DESIGN §19), so for the points
// Run clustered the labels are the winning restart's final assignments.
func (r *Result) Labels(points vecmath.Matrix) []int {
	labels := make([]int, points.Rows)
	for i := range labels {
		x, best := points.Row(i), math.Inf(1)
		for c, ctr := range r.Centroids {
			if d := vecmath.SquaredDistance(x, ctr); d < best {
				labels[i], best = c, d
			}
		}
	}
	return labels
}

// Run clusters the rows of points into (at most) k clusters. weights may
// be nil for unweighted clustering; otherwise it must have one positive
// entry per point. It returns an error for invalid inputs, and the joined
// errors of restarts that failed.
func Run(points vecmath.Matrix, weights []float64, k int, cfg Config) (*Result, error) {
	n, dim := points.Rows, points.Cols
	if n <= 0 {
		return nil, fmt.Errorf("kmeans: no points")
	}
	if len(points.Data) != n*dim {
		return nil, fmt.Errorf("kmeans: %d values for %dx%d points", len(points.Data), n, dim)
	}
	if k <= 0 {
		return nil, fmt.Errorf("kmeans: k = %d", k)
	}
	if cfg.Rng == nil {
		return nil, fmt.Errorf("kmeans: Config.Rng is required")
	}
	for i, x := range points.Data {
		if math.IsNaN(x) || math.IsInf(x, 0) {
			return nil, fmt.Errorf("kmeans: point %d coordinate %d = %v must be finite", i/dim, i%dim, x)
		}
	}
	if weights != nil {
		if len(weights) != n {
			return nil, fmt.Errorf("kmeans: %d weights for %d points", len(weights), n)
		}
		for i, w := range weights {
			if w <= 0 || math.IsNaN(w) || math.IsInf(w, 0) {
				return nil, fmt.Errorf("kmeans: weight %d = %v must be positive and finite", i, w)
			}
		}
	}
	if k > n {
		k = n
	}
	cfg = cfg.withDefaults()

	// Restarts run concurrently (when a pool is configured), each in its
	// own scratch. A finished restart that beats the held winner trades
	// its assignment and centroid buffers with the holder, so only the
	// winner's are ever copied into a Result. wins orders restarts by the
	// serial loop's rule, so the winner is independent of finishing order.
	held := getScratch()
	defer putScratch(held)
	var (
		mu    sync.Mutex
		best  = outcome{restart: -1}
		total work
	)
	err := cfg.Pool.Run(cfg.Restarts, func(r int) error {
		s := getScratch()
		defer putScratch(s)
		rng := cfg.Rng.SplitIndexedValue("restart", r)
		out := s.lloyd(points, weights, k, cfg, &rng)
		out.restart = r
		cfg.Obs.Histogram("kmeans.iterations_per_restart").Observe(out.iters)

		mu.Lock()
		defer mu.Unlock()
		total.iters += out.iters
		total.distances += out.distances
		total.pruned += out.pruned
		total.seeding += out.seeding
		if out.wins(best) {
			best = out
			s.assign, held.assign = held.assign, s.assign
			s.cent, held.cent = held.cent, s.cent
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("kmeans: %w", err)
	}
	cfg.Obs.Counter("kmeans.runs").Inc()
	cfg.Obs.Counter("kmeans.restarts").Add(uint64(cfg.Restarts))
	cfg.Obs.Counter("kmeans.iterations").Add(total.iters)
	cfg.Obs.Counter("kmeans.distances").Add(total.distances)
	cfg.Obs.Counter("kmeans.distances_pruned").Add(total.pruned)
	cfg.Obs.Counter("kmeans.seeding_distances").Add(total.seeding)
	// The winner's BIC is read from its buffers before they go back for
	// reuse; they are copied no further than its centroids.
	cent := vecmath.Matrix{Rows: best.k, Cols: dim, Data: slices.Clone(held.cent[:best.k*dim])}
	return &Result{
		K:          best.k,
		Centroids:  cent.RowViews(),
		Distortion: best.distortion,
		BIC:        bic(points, weights, held.assign[:n], cent),
	}, nil
}

// work is a restart's effort: Lloyd iterations; point–centroid squared
// distances the assignment steps evaluated or skipped (together, the
// brute-force count of points × clusters per step); and the distances
// k-means++ seeding evaluated.
type work struct {
	iters, distances, pruned, seeding uint64
}

// outcome is one finished restart.
type outcome struct {
	work
	restart    int
	k          int
	distortion float64
}

// wins reports whether o displaces the held winner under the serial
// reduction's rule — keep restart 0, then take each later restart whose
// distortion is strictly lower. As a total order over (distortion,
// restart) that rule keeps restart 0 when its distortion is NaN, and
// otherwise the lowest-index restart among those with the least non-NaN
// distortion.
func (o outcome) wins(held outcome) bool {
	if held.restart < 0 {
		return true
	}
	rank := func(x outcome) int {
		switch {
		case x.restart == 0 && math.IsNaN(x.distortion):
			return 0
		case math.IsNaN(x.distortion):
			return 2
		}
		return 1
	}
	if a, b := rank(o), rank(held); a != b {
		return a < b
	}
	if o.distortion != held.distortion && rank(o) == 1 {
		return o.distortion < held.distortion
	}
	return o.restart < held.restart
}

// Hamerly's bounds are kept as Euclidean distances, rounded outward when
// they are made so each stays a true bound on the exact distance between
// the float64 vectors:
//
//   - upper[i] >= the distance from point i to its assigned centroid;
//   - lower[i] <= the distance from point i to every other centroid;
//   - half[c] <= half the distance from centroid c to its nearest other.
//
// A point keeps its centroid a without a scan when separated(upper[i],
// max(half[a], lower[i])) holds. The test's own margin makes the gap wide
// enough that the squared distances the scan would compute — each within
// a relative (dim+2)·2⁻⁵³ of exact — order a strictly before every other
// centroid, so the scan would have picked a whatever the index order. Every
// other point runs the exact index-order scan with strict <.
const (
	// relSlack is the relative part of the outward rounding and of the
	// separation margin; reset widens it for very high dimensions.
	relSlack = 1e-9
	// absSlack covers squared-distance terms that underflow to zero.
	absSlack = 1e-150
	// maxDist caps lower bounds taken from squared distances that
	// overflowed to +Inf; it is just below sqrt(math.MaxFloat64).
	maxDist = 1.3e154
	// bumpUp and bumpDown round an accumulated bound outward past the
	// rounding error of the addition that produced it.
	bumpUp   = 1 + 0x1p-50
	bumpDown = 1 - 0x1p-50
)

// scratch is one restart's reusable state. A Run takes one per running
// restart, plus one that holds the winner's buffers, from scratches and
// returns them when done, so steady-state clustering allocates nothing
// here.
type scratch struct {
	assign       []int
	cent, next   []float64 // k×dim centroids, and the update's accumulator
	totals       []float64 // per-cluster weight in the update
	upper, lower []float64 // per-point bounds
	half, drift  []float64 // per-centroid separation (seeding: skip threshold) and last movement
	probs        []float64 // k-means++ sampling weights; re-seeding distances
	empty, used  []int     // clusters emptied by an update; points re-seeded into them
	rho          float64   // relative slack for this run's dimension
	work
}

// retainBytes caps the scratch the process keeps for reuse: about 150
// restarts' worth at fine-simpoint's ~800 intervals (28 KB each). It is
// a constant on purpose; nothing sizes it.
const retainBytes = 4 << 20

// scratches is the process-wide free list every Run draws its scratch
// from. Unlike a sync.Pool it survives garbage collection, and by
// freelist's rule it holds no more than were in use at once.
var scratches = freelist.New[struct{}, *scratch](retainBytes)

func getScratch() *scratch {
	if s, ok := scratches.Get(struct{}{}); ok {
		return s
	}
	return new(scratch)
}

func putScratch(s *scratch) { scratches.Put(struct{}{}, s, s.bytes()) }

// bytes is the size of s's buffers, 8 bytes an element.
func (s *scratch) bytes() uint64 {
	n := cap(s.assign) + cap(s.cent) + cap(s.next) + cap(s.totals) + cap(s.upper) + cap(s.lower) +
		cap(s.half) + cap(s.drift) + cap(s.probs) + cap(s.empty) + cap(s.used)
	return 8 * uint64(n)
}

// grow returns s resized to n, reallocating only when it is too small.
func grow[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

func (s *scratch) up(d float64) float64   { return d*(1+s.rho) + absSlack }
func (s *scratch) down(d float64) float64 { return d*(1-s.rho) - absSlack }

// separated reports whether bounds u (on the assigned centroid's distance)
// and m (on every other centroid's) prove the assigned centroid strictly
// nearest. NaN or infinite u never passes.
func (s *scratch) separated(u, m float64) bool { return s.up(u) < s.down(m) }

// row returns centroid c of a k×dim buffer.
func row(buf []float64, c, dim int) []float64 {
	return buf[c*dim : (c+1)*dim : (c+1)*dim]
}

// reset sizes s for n points, k clusters and dim dimensions and clears
// its work counts.
func (s *scratch) reset(n, k, dim int) {
	s.assign = grow(s.assign, n)
	s.upper, s.lower = grow(s.upper, n), grow(s.lower, n)
	s.probs = grow(s.probs, n)
	s.cent, s.next = grow(s.cent, k*dim), grow(s.next, k*dim)
	s.totals, s.half, s.drift = grow(s.totals, k), grow(s.half, k), grow(s.drift, k)
	s.rho = relSlack + float64(dim)*0x1p-50
	s.work = work{}
}

// lloyd performs one seeded clustering in s, leaving the assignments in
// s.assign and the centroids in s.cent.
func (s *scratch) lloyd(points vecmath.Matrix, weights []float64, k int, cfg Config, rng *xrand.Stream) outcome {
	n := points.Rows
	s.reset(n, k, points.Cols)

	// k may shrink if there are fewer distinct points. k-means++ computes
	// every point's distance to every seed, which is exactly the first
	// assignment step's scan, so it leaves that assignment and its bounds
	// behind.
	k = s.initPlusPlus(points, weights, k, rng)
	for iter := 0; iter < cfg.MaxIters; iter++ {
		s.iters++
		changed := true // k-means++ made the first step's assignment
		if iter == 0 {
			s.pruned += uint64(n * k)
		} else {
			changed = s.assignAll(points, k)
		}
		if !changed {
			// The update is a function of the assignment alone, and this
			// one is the assignment the last update was made from, so the
			// update would rebuild the centroids bit for bit, re-seeded
			// ones included, and the final assignment would repeat this
			// one: skip both.
			s.pruned += uint64(n * k)
			return s.score(points, weights, k)
		}
		s.update(points, weights, k)
	}
	// MaxIters stopped Lloyd mid-flight: a final assignment against the
	// final centroids.
	s.assignAll(points, k)
	return s.score(points, weights, k)
}

// score returns the outcome of the clustering s holds.
func (s *scratch) score(points vecmath.Matrix, weights []float64, k int) outcome {
	var distortion float64
	for i, c := range s.assign {
		w := 1.0
		if weights != nil {
			w = weights[i]
		}
		distortion += w * vecmath.SquaredDistance(points.Row(i), row(s.cent, c, points.Cols))
	}
	return outcome{work: s.work, k: k, distortion: distortion}
}

// assignAll assigns each point to its nearest centroid — the lowest index
// among equally near ones — returning whether any assignment changed.
func (s *scratch) assignAll(points vecmath.Matrix, k int) bool {
	dim := points.Cols
	s.separations(k, dim)
	changed := false
	for i := range s.assign {
		x := points.Row(i)
		a := s.assign[i]
		m := max(s.half[a], s.lower[i])
		if s.separated(s.upper[i], m) {
			s.pruned += uint64(k)
			continue
		}
		// Tighten the upper bound to the exact distance and retry.
		da := vecmath.SquaredDistance(x, row(s.cent, a, dim))
		s.distances++
		s.upper[i] = s.up(math.Sqrt(da))
		if s.separated(s.upper[i], m) {
			s.pruned += uint64(k - 1)
			continue
		}
		bestC, bestD, second := 0, math.Inf(1), math.Inf(1)
		for c := 0; c < k; c++ {
			d := da
			if c != a {
				d = vecmath.SquaredDistance(x, row(s.cent, c, dim))
				s.distances++
			}
			if d < bestD {
				bestC, bestD, second = c, d, bestD
			} else if d < second {
				second = d
			}
		}
		s.upper[i] = s.up(math.Sqrt(bestD))
		s.lower[i] = s.down(min(math.Sqrt(second), maxDist))
		if a != bestC {
			s.assign[i] = bestC
			changed = true
		}
	}
	return changed
}

// separations sets half[c] to a lower bound on half the distance from
// centroid c to its nearest other centroid.
func (s *scratch) separations(k, dim int) {
	for c := 0; c < k; c++ {
		s.half[c] = math.Inf(1)
	}
	for c := 0; c < k; c++ {
		for o := c + 1; o < k; o++ {
			d := vecmath.SquaredDistance(row(s.cent, c, dim), row(s.cent, o, dim))
			s.half[c] = min(s.half[c], d)
			s.half[o] = min(s.half[o], d)
		}
	}
	for c := 0; c < k; c++ {
		s.half[c] = s.down(0.5 * min(math.Sqrt(s.half[c]), maxDist))
	}
}

// update sets each centroid to the weighted mean of its points. An empty
// cluster is re-seeded with the point farthest from its centroid. The
// bounds then move by how far the centroids did.
func (s *scratch) update(points vecmath.Matrix, weights []float64, k int) {
	dim := points.Cols
	next, totals := s.next[:k*dim], s.totals[:k]
	vecmath.Zero(next)
	vecmath.Zero(totals)
	for i, c := range s.assign {
		w := 1.0
		if weights != nil {
			w = weights[i]
		}
		vecmath.AddScaled(row(next, c, dim), points.Row(i), w)
		totals[c] += w
	}
	s.empty = s.empty[:0]
	for c := range totals {
		if totals[c] > 0 {
			vecmath.Scale(row(next, c, dim), 1/totals[c])
		} else {
			s.empty = append(s.empty, c)
		}
	}
	// s.next now keeps the previous centroids until the bounds have moved.
	s.cent, s.next = s.next, s.cent
	if len(s.empty) > 0 {
		s.reseed(points)
	}
	s.moveBounds(len(s.assign), k, dim)
}

// reseed fills each empty cluster with the point farthest from its
// assigned centroid, which splits the most spread-out cluster. Each pick
// excludes points already used, so two clusters emptied in the same pass
// never adopt the same point. No point is assigned to an empty cluster,
// so the distances do not change between picks and are computed once.
func (s *scratch) reseed(points vecmath.Matrix) {
	dim := points.Cols
	far := s.probs
	for i, c := range s.assign {
		far[i] = vecmath.SquaredDistance(points.Row(i), row(s.cent, c, dim))
	}
	s.used = s.used[:0]
	for _, c := range s.empty {
		farthest, farD := -1, -1.0
		for i, d := range far {
			if d > farD && !slices.Contains(s.used, i) {
				farthest, farD = i, d
			}
		}
		if farthest < 0 {
			// More empty clusters than points left; k <= len(points)
			// makes this unreachable, but degrade gracefully anyway.
			farthest = 0
		}
		s.used = append(s.used, farthest)
		copy(row(s.cent, c, dim), points.Row(farthest))
	}
}

// moveBounds widens each point's bounds by the movement of the centroids
// (the previous ones are in s.next): the assigned centroid's for the upper
// bound, the largest other one's for the lower.
func (s *scratch) moveBounds(n, k, dim int) {
	max1, max2, arg := 0.0, 0.0, -1
	for c := 0; c < k; c++ {
		d := s.up(math.Sqrt(vecmath.SquaredDistance(row(s.next, c, dim), row(s.cent, c, dim))))
		s.drift[c] = d
		switch {
		case math.IsNaN(d):
			// An unmeasurable move voids every lower bound.
			max1, max2, arg = math.Inf(1), math.Inf(1), -1
		case d > max1:
			max1, max2, arg = d, max1, c
		case d > max2:
			max2 = d
		}
	}
	for i := 0; i < n; i++ {
		a := s.assign[i]
		s.upper[i] = (s.upper[i] + s.drift[a]) * bumpUp
		md := max1
		if a == arg {
			md = max2
		}
		s.lower[i] = (s.lower[i] - md) * bumpDown
	}
}

// initPlusPlus is k-means++ seeding, returning the number of seeds chosen.
// It tracks the index-order scan's nearest seed and runner-up for each
// point, leaving the first assignment and its bounds in s.assign, s.upper
// and s.lower. The nearest seed's squared distance is also the point's
// k-means++ distance.
//
// A point skips its distance to a new seed c when skipBelow proves its
// nearest seed strictly nearer, so the scan would leave its nearest seed
// and distance as they are. It takes the threshold, which is below its
// distance to c, as its runner-up if that is lower: a looser lower bound
// is still a bound.
func (s *scratch) initPlusPlus(points vecmath.Matrix, weights []float64, k int, rng *xrand.Stream) int {
	n, dim := points.Rows, points.Cols
	probs, skip := s.probs, s.half
	for i := 0; i < n; i++ {
		// Until converted below, upper and lower hold the scan's nearest
		// and runner-up squared distances.
		s.assign[i], s.upper[i], s.lower[i] = 0, math.Inf(1), math.Inf(1)
	}
	// seed adds point p as centroid c and folds it into the distances.
	seed := func(c, p int) {
		ctr := row(s.cent, c, dim)
		copy(ctr, points.Row(p))
		for j := 0; j < c; j++ {
			skip[j] = s.skipBelow(vecmath.SquaredDistance(ctr, row(s.cent, j, dim)))
		}
		for i := 0; i < n; i++ {
			if t := skip[s.assign[i]]; c > 0 && s.upper[i] < t {
				s.lower[i] = min(s.lower[i], t)
				continue
			}
			d := vecmath.SquaredDistance(points.Row(i), ctr)
			s.seeding++
			if d < s.upper[i] {
				s.assign[i], s.upper[i], s.lower[i] = c, d, s.upper[i]
			} else if d < s.lower[i] {
				s.lower[i] = d
			}
		}
	}
	seed(0, rng.Intn(n))
	got := 1
	for got < k {
		var total float64
		for i := range probs {
			w := 1.0
			if weights != nil {
				w = weights[i]
			}
			probs[i] = w * s.upper[i]
			total += probs[i]
		}
		if total == 0 {
			// All remaining points coincide with chosen centers: fewer
			// distinct points than k.
			break
		}
		seed(got, rng.Pick(probs))
		got++
	}
	for i := 0; i < n; i++ {
		s.upper[i] = s.up(math.Sqrt(s.upper[i]))
		s.lower[i] = s.down(min(math.Sqrt(s.lower[i]), maxDist))
	}
	return got
}

// skipBelow returns the squared distance under which a point is provably
// strictly nearer a seed than to a new seed d2 (a computed squared
// distance) from it: U < skipBelow(d2) implies assignAll's test
// separated(up(√U), h) for h, the half of √d2 that separations would
// store. The square is cut by (1−ρ) to cover its own rounding, and a
// root at or below τ never skips (DESIGN §19).
func (s *scratch) skipBelow(d2 float64) float64 {
	h := s.down(0.5 * min(math.Sqrt(d2), maxDist))
	v := ((s.down(h)-absSlack)/(1+s.rho) - absSlack) / (1 + s.rho)
	if v <= absSlack {
		return 0
	}
	return v * v * (1 - s.rho)
}

// bic returns the BIC score of the clustering that assigns point i to
// row assign[i] of cent (see Result.BIC).
func bic(points vecmath.Matrix, weights []float64, assign []int, cent vecmath.Matrix) float64 {
	n := points.Rows
	if n == 0 {
		return math.Inf(-1)
	}
	d := float64(points.Cols)
	k := float64(cent.Rows)

	// Effective (rescaled) weights.
	scale := 1.0
	if weights != nil {
		var total float64
		for _, w := range weights {
			total += w
		}
		scale = float64(n) / total
	}
	eff := func(i int) float64 {
		if weights == nil {
			return 1
		}
		return weights[i] * scale
	}

	// Pooled spherical variance estimate.
	var distortion float64
	clusterW := make([]float64, cent.Rows)
	for i, c := range assign {
		w := eff(i)
		distortion += w * vecmath.SquaredDistance(points.Row(i), cent.Row(c))
		clusterW[c] += w
	}
	R := float64(n)
	denom := d * (R - k)
	if denom <= 0 {
		denom = d // degenerate: as many clusters as points
	}
	sigma2 := distortion / denom
	if sigma2 <= 0 {
		sigma2 = 1e-12 // perfect fit; avoid log(0)
	}

	var loglik float64
	for _, Ri := range clusterW {
		if Ri <= 0 {
			continue
		}
		loglik += Ri*math.Log(Ri) - Ri*math.Log(R) -
			Ri*d/2*math.Log(2*math.Pi*sigma2) - (Ri-1)*d/2
	}
	params := (k - 1) + k*d + 1
	return loglik - params/2*math.Log(R)
}
