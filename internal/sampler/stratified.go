package sampler

import (
	"cmp"
	"context"
	"fmt"
	"math"
	"slices"

	"xbsim/internal/bbv"
	"xbsim/internal/faults"
	"xbsim/internal/obs"
	"xbsim/internal/simpoint"
	"xbsim/internal/vecmath"
	"xbsim/internal/xrand"
)

// DefaultBudget is the stratified backend's deep-simulation budget when
// Config.Budget is unset.
const DefaultBudget = 12

const (
	defaultStrata = 8
	// featureDim is the cheap-pass feature dimensionality. Stratification
	// only needs to tell coarse behavior regimes apart, not resolve fine
	// phase structure, so it projects far lower than SimPoint's 15 dims.
	featureDim = 4
)

// stratifiedSampler implements two-phase stratified sampling (Ekman):
//
// Phase 1 (stratify) computes cheap per-interval features — the L1
// normalized BBVs randomly projected to featureDim dimensions — and
// greedily splits the interval set into strata at weighted feature
// medians, always splitting the stratum with the largest weighted
// within-stratum variance.
//
// Phase 2 (allocate) spends a fixed deep-simulation budget across the
// strata Neyman-style (proportional to W_h·S_h, instruction weight times
// weighted feature standard deviation), then slices each stratum into
// that many contiguous segments and draws one representative interval per
// segment from an indexed xrand stream, weighted by interval length.
//
// Each segment becomes one phase of the returned simpoint.Result: the
// segment's representative is the phase's point, every member interval
// carries the phase label, and the phase weight is the segment's share of
// dynamic instructions. K therefore equals the (capped) budget exactly.
// The whole computation is serial arithmetic on deterministic streams —
// no pool, no map iteration — so output is bit-identical at any worker
// count.
type stratifiedSampler struct{}

func (stratifiedSampler) Name() string { return BackendStratified }

func (stratifiedSampler) Pick(ctx context.Context, ds *bbv.Dataset, cfg Config) (*simpoint.Result, error) {
	if ds == nil || ds.Len() == 0 {
		return nil, fmt.Errorf("sampler: empty dataset")
	}
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("sampler: %w", err)
	}
	total := ds.TotalInstructions()
	if total == 0 {
		return nil, fmt.Errorf("sampler: dataset has no instructions")
	}
	budget := cfg.Budget
	if budget <= 0 {
		budget = DefaultBudget
	}
	if budget > ds.Len() {
		budget = ds.Len()
	}
	maxStrata := cfg.Strata
	if maxStrata <= 0 {
		maxStrata = defaultStrata
	}
	if maxStrata > budget {
		maxStrata = budget
	}

	o := obs.From(ctx)
	rng := xrand.New("stratified/" + cfg.Seed)

	// Phase 1: cheap features + stratification.
	if err := faults.Hit(ctx, "sampler.stratify"); err != nil {
		return nil, err
	}
	_, sspan := obs.StartSpan(ctx, "stage.stratify", cfg.Seed)
	feats, err := ds.ProjectMatrix(featureDim, rng.Split("features"))
	if err != nil {
		sspan.End()
		return nil, fmt.Errorf("sampler: %w", err)
	}
	lengths := ds.Lengths()
	strata := stratify(feats, lengths, maxStrata)
	sspan.End()
	o.Counter("sampler.stratified.runs").Inc()
	o.Gauge("sampler.stratified.strata").Set(float64(len(strata)))

	// Phase 2: Neyman budget allocation + per-segment draws.
	if err := faults.Hit(ctx, "sampler.allocate"); err != nil {
		return nil, err
	}
	_, aspan := obs.StartSpan(ctx, "stage.allocate", cfg.Seed)
	alloc := allocate(strata, budget)

	phaseOf := make([]int, ds.Len())
	points := make([]simpoint.Point, 0, budget)
	phaseWeights := make([]float64, 0, budget)
	phase := 0
	for si, s := range strata {
		nh := alloc[si]
		for j := 0; j < nh; j++ {
			// Balanced contiguous segments; nh <= len(s.items) (capacity
			// cap in allocate), so every segment is nonempty.
			seg := s.items[len(s.items)*j/nh : len(s.items)*(j+1)/nh]
			var segInstr uint64
			for _, iv := range seg {
				phaseOf[iv] = phase
				segInstr += lengths[iv]
			}
			w := float64(segInstr) / float64(total)
			pick := seg[0]
			if len(seg) > 1 {
				segW := make([]float64, len(seg))
				for k, iv := range seg {
					segW[k] = float64(lengths[iv])
				}
				// Indexed by phase, not drawn from a shared sequence, so a
				// segment's draw never depends on how many precede it.
				pick = seg[rng.SplitIndexed("draw", phase).Pick(segW)]
			}
			points = append(points, simpoint.Point{
				Interval:     pick,
				Phase:        phase,
				Weight:       w,
				Instructions: lengths[pick],
			})
			phaseWeights = append(phaseWeights, w)
			phase++
		}
	}
	aspan.End()
	o.Gauge("sampler.stratified.points").Set(float64(phase))

	return &simpoint.Result{
		K:            phase,
		Points:       points,
		PhaseOf:      phaseOf,
		PhaseWeights: phaseWeights,
	}, nil
}

// stratum is one group of intervals sharing similar cheap features.
type stratum struct {
	items    []int     // member interval indices, ascending
	weight   float64   // total dynamic instructions across members
	sse      []float64 // per-dimension weighted sum of squared deviations
	totalSSE float64
	splitDim int // dimension with the largest splittable SSE, -1 when none
}

func newStratum(items []int, feats vecmath.Matrix, lengths []uint64) *stratum {
	dims := feats.Cols
	s := &stratum{items: items, sse: make([]float64, dims), splitDim: -1}
	mean := make([]float64, dims)
	minV := make([]float64, dims)
	maxV := make([]float64, dims)
	copy(minV, feats.Row(items[0]))
	copy(maxV, feats.Row(items[0]))
	for _, i := range items {
		w := float64(lengths[i])
		s.weight += w
		for d, v := range feats.Row(i) {
			mean[d] += w * v
			if v < minV[d] {
				minV[d] = v
			}
			if v > maxV[d] {
				maxV[d] = v
			}
		}
	}
	if s.weight <= 0 {
		return s // unreachable: ProjectMatrix rejects empty intervals
	}
	for d := range mean {
		mean[d] /= s.weight
	}
	for _, i := range items {
		w := float64(lengths[i])
		for d, v := range feats.Row(i) {
			dv := v - mean[d]
			s.sse[d] += w * dv * dv
		}
	}
	for d, v := range s.sse {
		s.totalSSE += v
		// Splittable needs genuinely distinct values, not merely SSE > 0:
		// identical values still yield a tiny positive SSE when the
		// weighted mean rounds, and splitting such a dimension would
		// produce an empty side.
		if minV[d] < maxV[d] && (s.splitDim < 0 || v > s.sse[s.splitDim]) {
			s.splitDim = d
		}
	}
	return s
}

// score is the Neyman allocation score W_h·S_h: instruction weight times
// weighted feature standard deviation.
func (s *stratum) score() float64 {
	if s.weight <= 0 || s.totalSSE <= 0 {
		return 0
	}
	return s.weight * math.Sqrt(s.totalSSE/s.weight)
}

// stratify greedily splits the interval set into at most maxStrata
// groups: repeatedly take the stratum with the largest weighted SSE (ties
// broken by earliest member) and split it at the weighted median of its
// highest-variance feature dimension. Splits are pure arithmetic on
// deterministic inputs, so the strata are identical on every run. Strata
// whose members have identical features (SSE 0) are unsplittable and the
// loop stops early — the all-identical-BBVs degenerate case yields a
// single stratum. The result is ordered by first member index.
//
// Every stratum's items are a window of one index array, which split
// partitions in place.
func stratify(feats vecmath.Matrix, lengths []uint64, maxStrata int) []*stratum {
	all := make([]int, feats.Rows)
	for i := range all {
		all[i] = i
	}
	scratch := make([]int, feats.Rows)
	strata := []*stratum{newStratum(all, feats, lengths)}
	for len(strata) < maxStrata {
		best := -1
		for i, s := range strata {
			if s.splitDim < 0 {
				continue
			}
			if best < 0 || s.totalSSE > strata[best].totalSSE ||
				(s.totalSSE == strata[best].totalSSE && s.items[0] < strata[best].items[0]) {
				best = i
			}
		}
		if best < 0 {
			break
		}
		left, right := split(strata[best], feats, lengths, scratch)
		strata[best] = left
		strata = append(strata, right)
	}
	slices.SortFunc(strata, func(a, b *stratum) int { return cmp.Compare(a.items[0], b.items[0]) })
	return strata
}

// split partitions the stratum at the weighted median of its splitDim
// feature: members at or below the median value go left, the rest right.
// When every member is at or below (the median equals the maximum) the
// boundary tightens to strictly-below, which splitDim's min < max
// guarantee leaves both sides nonempty. The partition is stable, so items
// stay ascending on both sides.
//
// split reorders s.items in place — s is discarded — and returns the two
// sides as windows of it: left is items[:nl:nl], right is items[nl:].
// scratch, at least len(s.items) long, holds the sort order and then the
// right side.
func split(s *stratum, feats vecmath.Matrix, lengths []uint64, scratch []int) (left, right *stratum) {
	d := s.splitDim
	feat := func(i int) float64 { return feats.Data[i*feats.Cols+d] }
	order := append(scratch[:0], s.items...)
	slices.SortFunc(order, func(a, b int) int {
		switch va, vb := feat(a), feat(b); {
		case va < vb:
			return -1
		case va > vb:
			return 1
		}
		return cmp.Compare(a, b)
	})
	median := feat(order[len(order)-1])
	var acc float64
	for _, i := range order {
		acc += float64(lengths[i])
		if acc >= s.weight/2 {
			median = feat(i)
			break
		}
	}
	items := s.items
	nl := partition(items, scratch, func(i int) bool { return feat(i) <= median })
	if nl == len(items) {
		nl = partition(items, scratch, func(i int) bool { return feat(i) < median })
	}
	return newStratum(items[:nl:nl], feats, lengths), newStratum(items[nl:], feats, lengths)
}

// partition stably moves the items for which isLeft holds to the front,
// the rest after them, using scratch for the rest, and returns how many
// went to the front.
func partition(items, scratch []int, isLeft func(int) bool) int {
	nl, nr := 0, 0
	for _, i := range items {
		if isLeft(i) {
			items[nl] = i
			nl++
		} else {
			scratch[nr] = i
			nr++
		}
	}
	copy(items[nl:], scratch[:nr])
	return nl
}

// allocate distributes the budget across strata: one point per stratum
// first (no nonempty stratum is starved below 1), then the remainder
// Neyman-proportional to each stratum's score via largest-remainder
// rounding, with per-stratum capacity caps (a stratum cannot absorb more
// points than it has members). The allocations always sum to exactly the
// budget: the caller caps the budget at the interval count, so total
// capacity suffices, and stratify caps the stratum count at the budget.
func allocate(strata []*stratum, budget int) []int {
	n := len(strata)
	alloc := make([]int, n)
	for i := range alloc {
		alloc[i] = 1
	}
	remaining := budget - n
	if remaining <= 0 {
		return alloc
	}

	scores := make([]float64, n)
	var totalScore float64
	for i, s := range strata {
		scores[i] = s.score()
		totalScore += scores[i]
	}
	if totalScore <= 0 {
		// Zero variance everywhere: fall back to instruction-weight
		// proportional allocation.
		for i, s := range strata {
			scores[i] = s.weight
			totalScore += s.weight
		}
	}

	rem := make([]float64, n)
	used := 0
	for i, s := range strata {
		quota := float64(remaining) * scores[i] / totalScore
		extra := int(quota)
		if room := len(s.items) - 1; extra > room {
			extra = room
		}
		alloc[i] += extra
		used += extra
		rem[i] = quota - float64(extra)
	}
	for used < remaining {
		best := -1
		for i, s := range strata {
			if alloc[i] >= len(s.items) {
				continue
			}
			if best < 0 || rem[i] > rem[best] {
				best = i
			}
		}
		// best >= 0 always: total capacity >= budget.
		alloc[best]++
		rem[best]--
		used++
	}
	return alloc
}
