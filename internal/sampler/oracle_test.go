package sampler

// The stratifier as it was before the in-place split and matrix features,
// unchanged but for names: the reference TestStratifyMatchesReference and
// FuzzStratifyExact compare stratify against, bit for bit.

import (
	"sort"
)

func refNewStratum(items []int, feats [][]float64, lengths []uint64) *stratum {
	dims := len(feats[items[0]])
	s := &stratum{items: items, sse: make([]float64, dims), splitDim: -1}
	mean := make([]float64, dims)
	minV := make([]float64, dims)
	maxV := make([]float64, dims)
	copy(minV, feats[items[0]])
	copy(maxV, feats[items[0]])
	for _, i := range items {
		w := float64(lengths[i])
		s.weight += w
		for d, v := range feats[i] {
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
		return s // unreachable: Project rejects empty intervals
	}
	for d := range mean {
		mean[d] /= s.weight
	}
	for _, i := range items {
		w := float64(lengths[i])
		for d, v := range feats[i] {
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

// refStratify greedily splits the interval set into at most maxStrata
// groups: repeatedly take the stratum with the largest weighted SSE (ties
// broken by earliest member) and split it at the weighted median of its
// highest-variance feature dimension. Splits are pure arithmetic on
// deterministic inputs, so the strata are identical on every run. Strata
// whose members have identical features (SSE 0) are unsplittable and the
// loop stops early — the all-identical-BBVs degenerate case yields a
// single stratum. The result is ordered by first member index.
func refStratify(feats [][]float64, lengths []uint64, maxStrata int) []*stratum {
	all := make([]int, len(feats))
	for i := range all {
		all[i] = i
	}
	strata := []*stratum{refNewStratum(all, feats, lengths)}
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
		left, right := refSplit(strata[best], feats, lengths)
		strata[best] = left
		strata = append(strata, right)
	}
	sort.Slice(strata, func(i, j int) bool { return strata[i].items[0] < strata[j].items[0] })
	return strata
}

// refSplit partitions the stratum at the weighted median of its splitDim
// feature: members at or below the median value go left, the rest right.
// When every member is at or below (the median equals the maximum) the
// boundary tightens to strictly-below, which splitDim's min < max
// guarantee leaves both sides nonempty. Membership order is preserved,
// so items stay ascending.
func refSplit(s *stratum, feats [][]float64, lengths []uint64) (left, right *stratum) {
	d := s.splitDim
	order := append([]int(nil), s.items...)
	sort.Slice(order, func(a, b int) bool {
		va, vb := feats[order[a]][d], feats[order[b]][d]
		if va != vb {
			return va < vb
		}
		return order[a] < order[b]
	})
	median := feats[order[len(order)-1]][d]
	var acc float64
	for _, i := range order {
		acc += float64(lengths[i])
		if acc >= s.weight/2 {
			median = feats[i][d]
			break
		}
	}
	var li, ri []int
	for _, i := range s.items {
		if feats[i][d] <= median {
			li = append(li, i)
		} else {
			ri = append(ri, i)
		}
	}
	if len(ri) == 0 {
		li, ri = nil, nil
		for _, i := range s.items {
			if feats[i][d] < median {
				li = append(li, i)
			} else {
				ri = append(ri, i)
			}
		}
	}
	return refNewStratum(li, feats, lengths), refNewStratum(ri, feats, lengths)
}
