// Package simpoint implements the SimPoint 3.0 simulation-point picker
// (Hamerly, Perelman, Lau, Calder — "SimPoint 3.0: Faster and more flexible
// program phase analysis", JILP 2005), the off-the-shelf tool the paper
// feeds with both fixed length intervals (FLIs) and the variable length
// intervals (VLIs) produced by cross-binary mappable points.
//
// Given a dataset of per-interval basic block vectors the pipeline is:
//
//  1. Normalize each BBV to L1 norm 1 and randomly project it to Dim
//     dimensions.
//  2. Run weighted k-means for every k in 1..MaxK, where an interval's
//     weight is its dynamic instruction count (this is the VLI support:
//     for FLIs all weights are equal and the weighting is a no-op).
//  3. Score each clustering with the BIC and choose the smallest k whose
//     score is within BICThreshold of the best, after min-max normalizing
//     the scores — SimPoint 3.0's "good enough, small k" rule.
//  4. In each chosen cluster, pick as the simulation point the interval
//     whose projected vector is closest to the cluster centroid, and weight
//     it by the fraction of dynamic instructions its cluster covers.
package simpoint

import (
	"context"
	"fmt"
	"math"

	"xbsim/internal/bbv"
	"xbsim/internal/fingerprint"
	"xbsim/internal/kmeans"
	"xbsim/internal/obs"
	"xbsim/internal/pool"
	"xbsim/internal/vecmath"
	"xbsim/internal/xrand"
)

// Config controls a SimPoint run.
type Config struct {
	// MaxK is the maximum number of clusters (phases). The paper's
	// evaluation uses 10. <= 0 means 10.
	MaxK int
	// Dim is the random-projection dimensionality. SimPoint 3.0 uses 15.
	// <= 0 means 15.
	Dim int
	// BICThreshold in (0, 1]: the smallest k is chosen whose min-max
	// normalized BIC score is >= this value. SimPoint's default is 0.9.
	// <= 0 means 0.9.
	BICThreshold float64
	// Restarts per k for k-means. <= 0 means 5.
	Restarts int
	// Seed names the random stream used for projection and clustering.
	// Different seeds model independently configured SimPoint runs.
	Seed string
	// EarlyTolerance, when > 0, enables early simulation points
	// (Perelman, Hamerly, Calder — PACT 2003): instead of the interval
	// closest to the centroid, each phase picks the EARLIEST interval
	// whose distance is within (1 + EarlyTolerance) of the closest.
	// Earlier points need less fast-forwarding before detailed
	// simulation starts. 0 keeps the classic closest-point rule.
	EarlyTolerance float64
	// Pool, when non-nil, runs the k = 1..MaxK sweep (and each run's
	// k-means restarts) concurrently. Every k draws from its own indexed
	// random stream and lands in an index-addressed slot, so the chosen
	// clustering is identical to a serial sweep.
	Pool *pool.Pool
}

func (c Config) withDefaults() Config {
	if c.MaxK <= 0 {
		c.MaxK = 10
	}
	if c.Dim <= 0 {
		c.Dim = 15
	}
	if c.BICThreshold <= 0 {
		c.BICThreshold = 0.9
	}
	if c.Restarts <= 0 {
		c.Restarts = 5
	}
	return c
}

// Point is one chosen simulation point.
type Point struct {
	// Interval is the index of the representative interval in the dataset.
	Interval int
	// Phase is the cluster this point represents, in [0, K).
	Phase int
	// Weight is the fraction of total dynamic instructions executed in
	// this phase; weights over all points sum to 1.
	Weight float64
	// Instructions is the representative interval's own length.
	Instructions uint64
}

// Result is a completed SimPoint analysis.
type Result struct {
	// K is the chosen number of phases.
	K int
	// Points holds one simulation point per phase, ordered by phase ID.
	Points []Point
	// PhaseOf maps every interval index to its phase.
	PhaseOf []int
	// PhaseWeights[p] is the fraction of dynamic instructions in phase p.
	PhaseWeights []float64
	// BICByK records the raw BIC score for each k examined (index k-1),
	// for diagnostics and ablation studies.
	BICByK []float64
}

// Fingerprint returns a digest of the complete analysis — chosen k,
// every point (interval, phase, weight bits, length), the per-interval
// phase labels, phase weights, and the BIC curve. Two runs are
// bit-identical exactly when their fingerprints match; the self-check
// harness uses this to pin the determinism guarantees (same result for
// any worker-pool size, any binary-list permutation).
func (r *Result) Fingerprint() string {
	h := fingerprint.New()
	h.Int(r.K)
	h.Int(len(r.Points))
	for _, p := range r.Points {
		h.Int(p.Interval)
		h.Int(p.Phase)
		h.Float64(p.Weight)
		h.Uint64(p.Instructions)
	}
	h.Ints(r.PhaseOf)
	h.Float64s(r.PhaseWeights)
	h.Float64s(r.BICByK)
	return h.Sum()
}

// PickCtx runs the SimPoint pipeline over the dataset. When the context
// carries an observer, the random projection and the per-k clustering
// sweep are recorded as "stage.projection" and "stage.clustering" spans,
// and the registry receives BIC scores per k (simpoint.bic.k<N> gauges,
// last run wins), the chosen k, and k-means iteration counters.
func PickCtx(ctx context.Context, ds *bbv.Dataset, cfg Config) (*Result, error) {
	cfg = cfg.withDefaults()
	if ds == nil || ds.Len() == 0 {
		return nil, fmt.Errorf("simpoint: empty dataset")
	}
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("simpoint: %w", err)
	}
	o := obs.From(ctx)
	rng := xrand.New("simpoint/" + cfg.Seed)
	_, pspan := obs.StartSpan(ctx, "stage.projection", cfg.Seed)
	points, err := ds.ProjectMatrix(cfg.Dim, rng.Split("projection"))
	pspan.End()
	if err != nil {
		return nil, fmt.Errorf("simpoint: %w", err)
	}
	o.Counter("simpoint.runs").Inc()
	o.Counter("simpoint.intervals_clustered").Add(uint64(ds.Len()))
	weights := ds.Weights()

	// The sweep over k is embarrassingly parallel: each k has its own
	// indexed random stream and writes into its own slot, so a pooled
	// sweep picks exactly the clustering a serial sweep would.
	//
	// Clustering needs substantially more intervals than clusters; with
	// k approaching n the spherical-Gaussian BIC degenerates (singleton
	// clusters drive the variance estimate to zero and the likelihood to
	// +inf). Cap k at half the interval count; real runs have hundreds of
	// intervals and MaxK ~ 10, so the cap only bites on tiny datasets.
	maxK := max(min(cfg.MaxK, ds.Len()/2), 1)
	runs := make([]*kmeans.Result, maxK)
	bics := make([]float64, maxK)
	_, cspan := obs.StartSpan(ctx, "stage.clustering", cfg.Seed)
	err = cfg.Pool.Run(maxK, func(i int) error {
		// The sweep is the long pole of the analysis; check for
		// cancellation once per k so an abandoned pick returns promptly
		// instead of clustering to completion.
		if err := ctx.Err(); err != nil {
			return fmt.Errorf("simpoint: %w", err)
		}
		k := i + 1
		res, err := kmeans.Run(points, weights, k, kmeans.Config{
			Restarts: cfg.Restarts,
			Rng:      rng.SplitIndexed("kmeans", k),
			Obs:      o,
			Pool:     cfg.Pool,
		})
		if err != nil {
			return fmt.Errorf("simpoint: k=%d: %w", k, err)
		}
		runs[i] = res
		bics[i] = res.BIC
		o.Gauge(fmt.Sprintf("simpoint.bic.k%02d", k)).Set(bics[i])
		return nil
	})
	cspan.End()
	if err != nil {
		return nil, err
	}

	chosen := chooseK(bics, cfg.BICThreshold)
	o.Gauge("simpoint.chosen_k").Set(float64(chosen))
	best := runs[chosen-1]
	return buildResult(ds, points, best, bics, cfg.EarlyTolerance)
}

// chooseK applies SimPoint 3.0's selection rule: min-max normalize the BIC
// scores and return the smallest k whose normalized score is >= threshold.
// Non-finite scores (NaN or ±Inf from degenerate clusterings) are excluded
// from the normalization and can never be chosen — a single poisoned score
// must not drag the min-max range and silently force the maximum k. When
// no score is finite the sweep degenerates entirely and k = 1 is the only
// defensible answer.
func chooseK(bics []float64, threshold float64) int {
	finite := func(b float64) bool { return !math.IsNaN(b) && !math.IsInf(b, 0) }
	lo, hi := math.Inf(1), math.Inf(-1)
	any := false
	for _, b := range bics {
		if !finite(b) {
			continue
		}
		any = true
		lo = math.Min(lo, b)
		hi = math.Max(hi, b)
	}
	if !any {
		return 1
	}
	for k := 1; k <= len(bics); k++ {
		b := bics[k-1]
		if !finite(b) {
			continue
		}
		if hi == lo {
			// All finite scores equal: the smallest finite k wins.
			return k
		}
		if (b-lo)/(hi-lo) >= threshold {
			return k
		}
	}
	// Unreachable: the maximum finite score normalizes to 1 >= threshold.
	return len(bics)
}

// buildResult turns the chosen clustering into phases and their
// simulation points. Its labels, the only ones the sweep computes,
// become PhaseOf.
func buildResult(ds *bbv.Dataset, projected vecmath.Matrix, clus *kmeans.Result, bics []float64, earlyTol float64) (*Result, error) {
	k := clus.K
	total := float64(ds.TotalInstructions())
	if total <= 0 {
		return nil, fmt.Errorf("simpoint: dataset has no instructions")
	}
	labels := clus.Labels(projected)

	phaseWeights := make([]float64, k)
	lengths := ds.Lengths()
	for i, p := range labels {
		phaseWeights[p] += float64(lengths[i]) / total
	}

	// Representative per phase: interval closest to the centroid, or —
	// with a positive early tolerance — the earliest interval within the
	// tolerance of the closest (early simulation points).
	repr := make([]int, k)
	best := make([]float64, k)
	for p := range repr {
		repr[p] = -1
		best[p] = math.Inf(1)
	}
	for i, p := range labels {
		d := vecmath.SquaredDistance(projected.Row(i), clus.Centroids[p])
		if d < best[p] {
			best[p], repr[p] = d, i
		}
	}
	if earlyTol > 0 {
		// Squared-distance tolerance: (1+tol)^2 on the radius.
		factor := (1 + earlyTol) * (1 + earlyTol)
		for i, p := range labels {
			if i >= repr[p] {
				continue // not earlier than the current pick
			}
			d := vecmath.SquaredDistance(projected.Row(i), clus.Centroids[p])
			if d <= best[p]*factor {
				repr[p] = i
			}
		}
	}

	var pts []Point
	for p := 0; p < k; p++ {
		if repr[p] < 0 {
			// Empty phase (possible only if k-means produced an empty
			// cluster that was never refilled); skip it.
			continue
		}
		pts = append(pts, Point{
			Interval:     repr[p],
			Phase:        p,
			Weight:       phaseWeights[p],
			Instructions: lengths[repr[p]],
		})
	}

	return &Result{
		K:            k,
		Points:       pts,
		PhaseOf:      labels,
		PhaseWeights: phaseWeights,
		BICByK:       bics,
	}, nil
}
