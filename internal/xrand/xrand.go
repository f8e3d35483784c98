// Package xrand provides deterministic, splittable pseudo-random number
// streams for the whole repository.
//
// Everything stochastic in xbsim — synthetic program generation, trip-count
// jitter, k-means initialization, random projection — draws from an
// *xrand.Stream keyed by an explicit string seed. Two streams created with
// the same key produce the same sequence on every platform, which makes
// whole experiments bit-reproducible.
//
// The core generator is SplitMix64 (Steele, Lea, Flood; "Fast splittable
// pseudorandom number generators", OOPSLA 2014). It is tiny, fast, passes
// BigCrush when used as specified, and — unlike math/rand — is trivially
// splittable: deriving a child stream from a parent never perturbs the
// parent's sequence.
package xrand

import "math"

// Stream is a deterministic pseudo-random number stream. The zero value is
// a valid stream seeded with 0; prefer New or NewFromUint64 so the seed is
// explicit.
type Stream struct {
	// seed is the creation-time seed; Split derives children from it so a
	// child's sequence never depends on how far the parent has advanced.
	seed  uint64
	state uint64

	// gaussSpare holds a cached second Box-Muller variate.
	gaussSpare    float64
	gaussSpareSet bool
}

// New returns a stream deterministically derived from the given string key.
// The same key always yields the same stream.
func New(key string) *Stream {
	return NewFromUint64(fnv64a(key))
}

// fnv64a is the 64-bit FNV-1a hash of s, computed without the allocations
// of the hash/fnv interface.
func fnv64a(s string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	return h
}

// NewFromUint64 returns a stream seeded with the given 64-bit value.
func NewFromUint64(seed uint64) *Stream {
	return &Stream{seed: seed, state: seed}
}

// Split derives an independent child stream named by label. The parent's
// own sequence is not advanced, so adding or removing Split calls never
// changes sibling streams.
func (s *Stream) Split(label string) *Stream {
	return NewFromUint64(s.splitSeed(label))
}

// splitSeed is the seed of Split(label): the parent's creation seed (not
// its evolving position) mixed with the label.
func (s *Stream) splitSeed(label string) uint64 {
	return mix64(s.seed ^ fnv64a(label))
}

// SplitIndexed derives an independent child stream named by a label and an
// index, convenient for per-element streams in loops.
func (s *Stream) SplitIndexed(label string, i int) *Stream {
	c := s.SplitIndexedValue(label, i)
	return &c
}

// SplitIndexedValue is SplitIndexed returning the stream by value, so a
// hot loop can keep per-element streams on the stack instead of
// allocating one per element.
func (s *Stream) SplitIndexedValue(label string, i int) Stream {
	seed := mix64(s.splitSeed(label) + uint64(i)*0x9E3779B97F4A7C15)
	return Stream{seed: seed, state: seed}
}

// mix64 is the SplitMix64 finalizer: a bijective mixing function on uint64.
func mix64(z uint64) uint64 {
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// Hash3 deterministically mixes three values into 64 uniform bits. It is
// the building block for input-dependent but binary-independent quantities
// such as loop trip counts: the same (seed, id, ordinal) always hashes to
// the same value, with no stream state involved.
func Hash3(a, b, c uint64) uint64 {
	return Hash3Finish(Hash3Prefix(a, b), c)
}

// Hash3Prefix is the (a, b) half of Hash3. A caller hashing many values of
// c under one (a, b) computes it once and finishes each value with
// Hash3Finish: Hash3(a, b, c) == Hash3Finish(Hash3Prefix(a, b), c).
func Hash3Prefix(a, b uint64) uint64 {
	return mix64(a^0x9E3779B97F4A7C15) + mix64(b+0xBF58476D1CE4E5B9)
}

// Hash3Finish completes Hash3 from a Hash3Prefix value and the third input.
func Hash3Finish(prefix, c uint64) uint64 {
	return mix64(prefix + mix64(c+0x94D049BB133111EB))
}

// Uint64 returns the next 64 uniformly random bits.
func (s *Stream) Uint64() uint64 {
	s.state += 0x9E3779B97F4A7C15
	return mix64(s.state)
}

// Uint64n returns a uniform value in [0, n). It panics if n == 0.
func (s *Stream) Uint64n(n uint64) uint64 {
	if n == 0 {
		panic("xrand: Uint64n with n == 0")
	}
	// Lemire's nearly-divisionless method would be faster; a simple
	// rejection loop keeps the code obviously correct and is plenty fast
	// for our workloads.
	mask := ^uint64(0)
	if n&(n-1) == 0 { // power of two
		return s.Uint64() & (n - 1)
	}
	limit := mask - mask%n
	for {
		v := s.Uint64()
		if v < limit {
			return v % n
		}
	}
}

// Intn returns a uniform value in [0, n). It panics if n <= 0.
func (s *Stream) Intn(n int) int {
	if n <= 0 {
		panic("xrand: Intn with n <= 0")
	}
	return int(s.Uint64n(uint64(n)))
}

// IntRange returns a uniform value in [lo, hi]. It panics if hi < lo.
func (s *Stream) IntRange(lo, hi int) int {
	if hi < lo {
		panic("xrand: IntRange with hi < lo")
	}
	return lo + s.Intn(hi-lo+1)
}

// Float64 returns a uniform value in [0, 1).
func (s *Stream) Float64() float64 {
	// 53 random mantissa bits.
	return float64(s.Uint64()>>11) / float64(1<<53)
}

// NormFloat64 returns a standard normal variate (Box-Muller).
func (s *Stream) NormFloat64() float64 {
	if s.gaussSpareSet {
		s.gaussSpareSet = false
		return s.gaussSpare
	}
	for {
		u := s.Float64()
		if u == 0 {
			continue
		}
		v := s.Float64()
		r := math.Sqrt(-2 * math.Log(u))
		theta := 2 * math.Pi * v
		s.gaussSpare = r * math.Sin(theta)
		s.gaussSpareSet = true
		return r * math.Cos(theta)
	}
}

// Perm returns a random permutation of [0, n).
func (s *Stream) Perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	s.ShuffleInts(p)
	return p
}

// ShuffleInts shuffles the slice in place (Fisher–Yates).
func (s *Stream) ShuffleInts(p []int) {
	for i := len(p) - 1; i > 0; i-- {
		j := s.Intn(i + 1)
		p[i], p[j] = p[j], p[i]
	}
}

// Bool returns true with probability p.
func (s *Stream) Bool(p float64) bool {
	return s.Float64() < p
}

// Pick returns a uniformly random element index weighted by weights.
// Weights must be non-negative with a positive sum; it panics otherwise.
func (s *Stream) Pick(weights []float64) int {
	var total float64
	for _, w := range weights {
		if w < 0 || math.IsNaN(w) {
			panic("xrand: negative or NaN weight")
		}
		total += w
	}
	if total <= 0 {
		panic("xrand: Pick with non-positive weight sum")
	}
	target := s.Float64() * total
	var acc float64
	for i, w := range weights {
		acc += w
		if target < acc {
			return i
		}
	}
	return len(weights) - 1
}
