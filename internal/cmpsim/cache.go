// Package cmpsim is the repository's stand-in for CMP$im (Jaleel et al.,
// Intel TR 2006): an in-order core with a three-level non-inclusive data
// cache hierarchy, configured exactly as the paper's Table 1:
//
//	L1D  32KB  2-way   64B lines   3-cycle hit    writeback
//	L2  512KB  8-way   64B lines  14-cycle hit    writeback
//	L3 1024KB 16-way   64B lines  35-cycle hit    writeback
//	DRAM                          250-cycle access
//
// The simulator consumes the dynamic block stream from internal/exec,
// synthesizes each block's data addresses from its memory pattern
// (strided sweeps or uniform-random touches over the block's working
// set), and charges an in-order cycle model: one cycle per instruction,
// an extra cycle per floating-point instruction, the hierarchy latency
// for loads, and a quarter-latency penalty for (buffered) stores.
//
// A Simulator runs the full program; a simulation point is measured as
// the delta of its statistics over the point's region, which is what a
// simulator warming its caches while fast-forwarding to a PinPoint
// records. Simulator.ResetCaches empties the caches for points measured
// from a cold start.
package cmpsim

import (
	"fmt"

	"xbsim/internal/fingerprint"
	"xbsim/internal/xrand"
)

// Policy selects a cache level's replacement policy. The paper's
// configuration uses LRU at every level; the others support replacement-
// policy studies.
type Policy int

const (
	// LRU evicts the least recently used way.
	LRU Policy = iota
	// FIFO evicts the oldest-filled way regardless of reuse.
	FIFO
	// Random evicts a (deterministically) random way.
	Random
)

// String implements fmt.Stringer.
func (p Policy) String() string {
	switch p {
	case LRU:
		return "LRU"
	case FIFO:
		return "FIFO"
	case Random:
		return "Random"
	default:
		return fmt.Sprintf("Policy(%d)", int(p))
	}
}

// CacheConfig describes one cache level.
type CacheConfig struct {
	// Name is a display label ("L1D", "L2D", "L3D").
	Name string
	// CapacityBytes is the total capacity.
	CapacityBytes uint64
	// Associativity is the number of ways per set.
	Associativity int
	// LineSize is the cache line size in bytes.
	LineSize uint64
	// HitLatency is the access latency in cycles on a hit at this level.
	HitLatency int
	// Replacement selects the victim policy (zero value = LRU, the
	// paper's setting).
	Replacement Policy
	// NextLinePrefetch, when true, fills line N+1 into this level on a
	// miss of line N (a simple sequential prefetcher, off in the paper's
	// Table 1 configuration).
	NextLinePrefetch bool
}

// HierarchyConfig describes the full memory system.
type HierarchyConfig struct {
	// Levels is ordered nearest-first (L1 ... LLC).
	Levels []CacheConfig
	// MemoryLatency is the DRAM access latency in cycles.
	MemoryLatency int
}

// DefaultHierarchyConfig returns the paper's Table 1 configuration.
func DefaultHierarchyConfig() HierarchyConfig {
	return HierarchyConfig{
		Levels: []CacheConfig{
			{Name: "FLC(L1D)", CapacityBytes: 32 << 10, Associativity: 2, LineSize: 64, HitLatency: 3},
			{Name: "MLC(L2D)", CapacityBytes: 512 << 10, Associativity: 8, LineSize: 64, HitLatency: 14},
			{Name: "LLC(L3D)", CapacityBytes: 1024 << 10, Associativity: 16, LineSize: 64, HitLatency: 35},
		},
		MemoryLatency: 250,
	}
}

// Validate checks a single level's geometry is usable: without it the
// set math degenerates (zero sets underflows the index mask, a
// non-power-of-two set count aliases distinct sets).
func (c CacheConfig) Validate() error {
	if c.LineSize == 0 || c.LineSize&(c.LineSize-1) != 0 {
		return fmt.Errorf("cmpsim: line size %d not a power of two", c.LineSize)
	}
	if c.Associativity <= 0 {
		return fmt.Errorf("cmpsim: associativity %d", c.Associativity)
	}
	lines := c.CapacityBytes / c.LineSize
	if lines == 0 || lines%uint64(c.Associativity) != 0 {
		return fmt.Errorf("cmpsim: capacity %d not divisible into %d-way sets",
			c.CapacityBytes, c.Associativity)
	}
	sets := lines / uint64(c.Associativity)
	if sets&(sets-1) != 0 {
		return fmt.Errorf("cmpsim: set count %d not a power of two", sets)
	}
	return nil
}

// Validate checks the configuration is usable.
func (c HierarchyConfig) Validate() error {
	if len(c.Levels) == 0 {
		return fmt.Errorf("cmpsim: no cache levels")
	}
	for i, l := range c.Levels {
		if err := l.Validate(); err != nil {
			return fmt.Errorf("level %d: %w", i, err)
		}
	}
	if c.MemoryLatency <= 0 {
		return fmt.Errorf("cmpsim: memory latency %d", c.MemoryLatency)
	}
	return nil
}

// Digest returns a short deterministic digest of the full hierarchy
// configuration — every level's geometry, latency, policy, and
// prefetcher plus the memory latency. Two configurations share a digest
// exactly when a simulation under one is interchangeable with a
// simulation under the other, which makes the digest the key the state
// pool recycles hierarchy state under.
func (c HierarchyConfig) Digest() string {
	h := fingerprint.New()
	h.Int(len(c.Levels))
	for _, l := range c.Levels {
		h.String(l.Name)
		h.Uint64(l.CapacityBytes)
		h.Int(l.Associativity)
		h.Uint64(l.LineSize)
		h.Int(l.HitLatency)
		h.Int(int(l.Replacement))
		if l.NextLinePrefetch {
			h.Int(1)
		} else {
			h.Int(0)
		}
	}
	h.Int(c.MemoryLatency)
	return h.Sum()
}

// StateBytes is the cache-state footprint of one simulated hierarchy:
// every level's tag and stamp words and dirty flags, exactly the arrays
// NewHierarchy allocates for them, and so what the state pool saves
// allocating on each reuse.
func (c HierarchyConfig) StateBytes() uint64 {
	const perLine = 8 + 8 + 1 // tag + stamp + dirty
	var total uint64
	for _, l := range c.Levels {
		if l.LineSize == 0 || l.Associativity <= 0 {
			continue
		}
		total += l.CapacityBytes / l.LineSize * perLine
	}
	return total
}

// Cache is one set-associative, write-allocate cache level.
//
// Its state is flat: way w of set s is slot s*assoc + w of tags, stamp
// and dirty. stamp is the replacement clock at the line's fill (and, unless
// the policy is FIFO, at its last hit); 0 marks an invalid way. The clock
// advances before every fill, so a valid line's stamp is at least 1.
//
// The exported fields are event counters, incremented on every access,
// demand or prefetch. They are a stable interface: walk 3's
// sim.full.cache.* metric family publishes them (see
// Simulator.PublishMetrics).
type Cache struct {
	cfg       CacheConfig
	tags      []uint64
	stamp     []uint64
	dirty     []bool
	assoc     int
	setMask   uint64
	lineShift uint
	clock     uint64
	// refresh is false under FIFO, which ranks by fill time only, so a
	// hit does not restamp the line.
	refresh bool
	rng     *xrand.Stream // Random policy only

	// Hits and Misses count accesses at this level.
	Hits, Misses uint64
	// Evictions counts valid lines displaced by demand fills.
	Evictions uint64
	// Writebacks counts dirty lines displaced (by demand fills or
	// prefetches) — the write-back traffic this level generates.
	Writebacks uint64
	// PrefetchFills counts next-line prefetch insertions.
	PrefetchFills uint64
	// PrefetchEvictions counts valid lines displaced by prefetch fills.
	PrefetchEvictions uint64
}

// NewCache builds a cache from its configuration. The configuration
// must validate; degenerate geometries (capacity not divisible into
// sets, zero sets) are rejected here instead of corrupting the index
// math later.
func NewCache(cfg CacheConfig) (*Cache, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	lines := cfg.CapacityBytes / cfg.LineSize
	shift := uint(0)
	for sz := cfg.LineSize; sz > 1; sz >>= 1 {
		shift++
	}
	c := &Cache{
		cfg:       cfg,
		tags:      make([]uint64, lines),
		stamp:     make([]uint64, lines),
		dirty:     make([]bool, lines),
		assoc:     cfg.Associativity,
		setMask:   lines/uint64(cfg.Associativity) - 1,
		lineShift: shift,
		refresh:   cfg.Replacement != FIFO,
	}
	if cfg.Replacement == Random {
		c.rng = xrand.New("cmpsim/random-replacement/" + cfg.Name)
	}
	return c, nil
}

// Access looks up the address, filling the line on a miss (LRU victim).
// It returns whether the access hit. Reads only — a write goes through
// AccessRW so the filled or reused line is marked dirty for writeback
// accounting.
func (c *Cache) Access(addr uint64) bool { return c.AccessRW(addr, false) }

// AccessRW is Access with the access direction: write == true marks the
// line dirty, so its later eviction counts as a writeback. The direction
// changes only the event counters, never the fill or victim decisions,
// so hit/miss behavior is identical to Access.
func (c *Cache) AccessRW(addr uint64, write bool) bool {
	_, hit := c.access(addr, write)
	return hit
}

// access is AccessRW that also returns the slot holding the line
// afterwards: the hit way, or the way the miss filled.
func (c *Cache) access(addr uint64, write bool) (slot int, hit bool) {
	c.clock++
	tag := addr >> c.lineShift // the full line address is trivially injective per set
	j, hit := c.lookup(tag)
	if hit {
		c.hit(j, write)
		return j, true
	}
	c.Misses++
	if c.stamp[j] != 0 {
		c.Evictions++
		if c.dirty[j] {
			c.Writebacks++
		}
	}
	c.tags[j], c.stamp[j], c.dirty[j] = tag, c.clock, write
	if c.cfg.NextLinePrefetch {
		c.prefetch(addr + c.cfg.LineSize)
	}
	return j, false
}

// hit applies a hit on slot j at the current clock.
func (c *Cache) hit(j int, write bool) {
	if c.refresh {
		c.stamp[j] = c.clock
	}
	if write {
		c.dirty[j] = true
	}
	c.Hits++
}

// hitRun applies n consecutive hits on slot j, writing when write is
// set: exactly n calls of hit, each at a clock one higher. Only the last
// stamp survives, so one store does.
func (c *Cache) hitRun(j int, n uint64, write bool) {
	c.clock += n
	if c.refresh {
		c.stamp[j] = c.clock
	}
	if write {
		c.dirty[j] = true
	}
	c.Hits += n
}

// probe returns the slot holding tag as a valid line, or -1. It tries
// hint first, then scans tag's set. A valid line sits in at most one way
// (fills and prefetches happen only when it is not resident), so the
// slot found is the one lookup would report as a hit.
func (c *Cache) probe(tag uint64, hint int) int {
	if c.tags[hint] == tag && c.stamp[hint] != 0 {
		return hint
	}
	first := int(tag&c.setMask) * c.assoc
	for j := first; j < first+c.assoc; j++ {
		if c.tags[j] == tag && c.stamp[j] != 0 {
			return j
		}
	}
	return -1
}

// lookup scans tag's set once. It returns the slot holding tag and true,
// or the slot to fill and false: the first invalid way in index order,
// otherwise the first way with the smallest stamp — one minimum, since
// invalid ways carry the smallest stamp, 0 — or, under the Random policy,
// a random way of a full set.
func (c *Cache) lookup(tag uint64) (slot int, hit bool) {
	first := int(tag&c.setMask) * c.assoc
	tags := c.tags[first : first+c.assoc]
	stamps := c.stamp[first : first+len(tags)]
	v, oldest := 0, stamps[0]
	for i, t := range tags {
		s := stamps[i]
		if t == tag && s != 0 {
			return first + i, true
		}
		if s < oldest {
			v, oldest = i, s
		}
	}
	if oldest != 0 && c.rng != nil {
		v = c.rng.Intn(len(tags))
	}
	return first + v, false
}

// prefetch inserts a line without touching the demand hit/miss counters.
func (c *Cache) prefetch(addr uint64) {
	tag := addr >> c.lineShift
	j, resident := c.lookup(tag)
	// Never evict the line the triggering demand access just filled
	// (it is the only line stamped with the current clock, since clock
	// advances once per Access). In 1-way or single-set caches it is the
	// sole victim candidate, and evicting it would make every prefetch
	// undo its own demand fill — a thrash that turns sequential sweeps
	// into 100% misses.
	if resident || c.stamp[j] == c.clock {
		return
	}
	if c.stamp[j] != 0 {
		c.PrefetchEvictions++
		if c.dirty[j] {
			c.Writebacks++
		}
	}
	// Insert at LRU-adjacent priority (stamped with the clock, like a
	// demand fill; simple and adequate for a next-line prefetcher).
	// Prefetched lines arrive clean.
	c.tags[j], c.stamp[j], c.dirty[j] = tag, c.clock, false
	c.PrefetchFills++
}

// Reset clears all cache contents and statistics, returning the cache to
// its exact just-constructed state: the Random policy's replacement
// stream is re-seeded too, so a reused cache makes bit-identical victim
// choices to a fresh one — the invariant the state pool relies on.
func (c *Cache) Reset() {
	clear(c.tags)
	clear(c.stamp)
	clear(c.dirty)
	c.clock, c.Hits, c.Misses, c.PrefetchFills = 0, 0, 0, 0
	c.Evictions, c.Writebacks, c.PrefetchEvictions = 0, 0, 0
	if c.rng != nil {
		c.rng = xrand.New("cmpsim/random-replacement/" + c.cfg.Name)
	}
}

// Config returns the level's configuration.
func (c *Cache) Config() CacheConfig { return c.cfg }

// Hierarchy is the multi-level memory system.
type Hierarchy struct {
	levels []*Cache
	// latency[i] is level i's hit latency; latency[len(levels)] is DRAM's.
	latency []int
	// digest is the builder configuration's Digest() and bytes its
	// StateBytes(), recorded so the state recycler can file a returned
	// hierarchy under the right free list and count it against its cap.
	digest string
	bytes  uint64
}

// NewHierarchy builds the hierarchy; the config must validate.
func NewHierarchy(cfg HierarchyConfig) (*Hierarchy, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	h := &Hierarchy{digest: cfg.Digest(), bytes: cfg.StateBytes()}
	for i, l := range cfg.Levels {
		c, err := NewCache(l)
		if err != nil {
			return nil, fmt.Errorf("level %d: %w", i, err)
		}
		h.levels = append(h.levels, c)
		h.latency = append(h.latency, l.HitLatency)
	}
	h.latency = append(h.latency, cfg.MemoryLatency)
	return h, nil
}

// Access performs a data access and returns its latency in cycles: the hit
// latency of the nearest level that holds the line, or the DRAM latency.
// Misses allocate the line at every level on the way down (non-inclusive
// fill-on-miss).
func (h *Hierarchy) Access(addr uint64) int { return h.AccessRW(addr, false) }

// AccessRW is Access carrying the access direction for writeback
// accounting (see Cache.AccessRW); latency and fill behavior are
// identical to Access.
func (h *Hierarchy) AccessRW(addr uint64, write bool) int {
	level, _ := h.walk(addr, write)
	return h.latency[level]
}

// walk performs one access nearest level first and returns the level
// that served it (len(levels) for DRAM) and the first-level slot that
// holds the line afterwards.
func (h *Hierarchy) walk(addr uint64, write bool) (level, l1Slot int) {
	l1Slot, hit := h.levels[0].access(addr, write)
	if hit {
		return 0, l1Slot
	}
	for level = 1; level < len(h.levels); level++ {
		if _, hit := h.levels[level].access(addr, write); hit {
			break
		}
	}
	return level, l1Slot
}

// Reset clears all levels.
func (h *Hierarchy) Reset() {
	for _, c := range h.levels {
		c.Reset()
	}
}

// Random-access locality mixture: real pointer-chasing code keeps a hot
// core (node headers, free lists) that dominates accesses. A fraction
// hotFraction of random accesses land in the first hotSetBytes of the
// working set; the rest are uniform over the whole set. Without this,
// multi-megabyte random working sets would miss on essentially every
// access and produce CPIs far beyond anything the paper's machines show.
//
// The hot test reads the hash's top byte x as float64(x)/256 <
// hotFraction, which holds exactly when x <= hotTopByteMax; hotSetBytes
// is a power of two, so the hot offset is a mask.
const (
	hotSetBytes   = 16 << 10
	hotFraction   = 0.9
	hotTopByteMax = 230
)

// addressGen synthesizes the address stream for one *source* compute
// statement's memory pattern. Strided patterns sweep a cursor across the
// working set; random patterns touch hash-derived lines with a hot/cold
// locality mixture.
//
// Generators are shared per source statement (keyed by source line), not
// per static block, and the random addresses are a pure function of
// (seed, line, access ordinal): key is xrand.Hash3Prefix(seed, line).
// Because every binary of a program executes the same semantic access
// sequence, the i-th access of a statement hits the same address in every
// binary — as real data-dependent access patterns do. Without this,
// sampled regions would see independent address noise per binary, which
// breaks the cross-binary bias consistency the paper measures.
//
// l1Slot is the first-level cache slot that held the generator's last
// line, a hint the simulator verifies before it trusts (see
// Simulator.drive).
type addressGen struct {
	base    uint64
	ws      uint64
	stride  uint64
	random  bool
	cursor  uint64
	key     uint64
	counter uint64
	l1Slot  int
}

func (g *addressGen) next() uint64 {
	if g.random {
		h := xrand.Hash3Finish(g.key, g.counter)
		g.counter++
		// Top byte decides hot vs cold; the rest picks the line.
		if g.ws > hotSetBytes && h>>56 <= hotTopByteMax {
			return g.base + (h&(hotSetBytes-1))&^63
		}
		return g.base + (h%g.ws)&^63
	}
	a := g.base + g.cursor
	g.cursor += g.stride
	if g.cursor >= g.ws {
		g.cursor -= g.ws
	}
	return a
}

// run returns how many of a strided g's next accesses, at most n and at
// least 1, fall in the line of the next one before the cursor wraps:
// the next k addresses base+cursor, +stride, ... +(k-1)·stride keep
// within lineSize bytes of the line and, after the first, below ws. A
// cursor at or past ws (possible only for a degenerate working set) gives
// a run of 1, and stride 0 stays in its line for good.
func (g *addressGen) run(lineSize uint64, n int) int {
	if g.cursor >= g.ws {
		return 1
	}
	left := lineSize - (g.base+g.cursor)&(lineSize-1) // bytes left in the line
	if g.stride == 0 {
		return n
	}
	if g.stride >= left {
		return 1
	}
	k := (left-1)/g.stride + 1
	if room := g.ws - g.cursor; room < left {
		k = min(k, (room-1)/g.stride+1)
	}
	return int(min(k, uint64(n)))
}

// skip advances a strided g past m accesses that follow a next() and
// stay, with it, inside one run: the cursor moves m strides, and only
// the last step can wrap.
func (g *addressGen) skip(m uint64) {
	g.cursor += m * g.stride
	if g.cursor >= g.ws {
		g.cursor -= g.ws
	}
}
