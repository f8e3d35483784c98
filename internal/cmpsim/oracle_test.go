package cmpsim

import (
	"xbsim/internal/compiler"
	"xbsim/internal/program"
	"xbsim/internal/xrand"
)

// This file keeps the array-of-structs cache, the two level walks and the
// address generator that the flat kernel replaced, unchanged but for
// names, as the oracle the exactness tests compare against: every set is
// its own slice of 24-byte lines with a valid bit, every access scans
// from L1, and every random address hashes all three of its inputs.

// refCacheLine is one way of one set.
type refCacheLine struct {
	tag   uint64
	valid bool
	// dirty marks a line written since fill; evicting it counts as a
	// writeback (these are write-back caches).
	dirty bool
	// use is the LRU timestamp (bigger = more recent).
	use uint64
}

// refCache is the reference Cache.
type refCache struct {
	cfg       CacheConfig
	sets      [][]refCacheLine
	setMask   uint64
	lineShift uint
	clock     uint64
	rng       *xrand.Stream // Random policy only

	Hits, Misses      uint64
	Evictions         uint64
	Writebacks        uint64
	PrefetchFills     uint64
	PrefetchEvictions uint64
}

func newRefCache(cfg CacheConfig) (*refCache, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	lines := cfg.CapacityBytes / cfg.LineSize
	numSets := lines / uint64(cfg.Associativity)
	sets := make([][]refCacheLine, numSets)
	backing := make([]refCacheLine, lines)
	for i := range sets {
		sets[i] = backing[uint64(i)*uint64(cfg.Associativity) : (uint64(i)+1)*uint64(cfg.Associativity)]
	}
	shift := uint(0)
	for sz := cfg.LineSize; sz > 1; sz >>= 1 {
		shift++
	}
	c := &refCache{
		cfg:       cfg,
		sets:      sets,
		setMask:   numSets - 1,
		lineShift: shift,
	}
	if cfg.Replacement == Random {
		c.rng = xrand.New("cmpsim/random-replacement/" + cfg.Name)
	}
	return c, nil
}

func (c *refCache) AccessRW(addr uint64, write bool) bool {
	c.clock++
	lineAddr := addr >> c.lineShift
	set := c.sets[lineAddr&c.setMask]
	tag := lineAddr // the full line address is trivially injective per set
	for i := range set {
		if set[i].valid && set[i].tag == tag {
			if c.cfg.Replacement != FIFO {
				// FIFO ranks by fill time only; reuse does not refresh.
				set[i].use = c.clock
			}
			if write {
				set[i].dirty = true
			}
			c.Hits++
			return true
		}
	}
	c.Misses++
	// Fill: prefer an invalid way, otherwise the policy's victim.
	victim := -1
	for i := range set {
		if !set[i].valid {
			victim = i
			break
		}
		if victim < 0 || set[i].use < set[victim].use {
			victim = i
		}
	}
	if victim >= 0 && set[victim].valid && c.cfg.Replacement == Random {
		victim = c.rng.Intn(len(set))
	}
	if set[victim].valid {
		c.Evictions++
		if set[victim].dirty {
			c.Writebacks++
		}
	}
	set[victim] = refCacheLine{tag: tag, valid: true, dirty: write, use: c.clock}
	if c.cfg.NextLinePrefetch {
		c.prefetch(addr + c.cfg.LineSize)
	}
	return false
}

func (c *refCache) prefetch(addr uint64) {
	lineAddr := addr >> c.lineShift
	set := c.sets[lineAddr&c.setMask]
	tag := lineAddr
	for i := range set {
		if set[i].valid && set[i].tag == tag {
			return // already resident
		}
	}
	victim := -1
	for i := range set {
		if !set[i].valid {
			victim = i
			break
		}
		if victim < 0 || set[i].use < set[victim].use {
			victim = i
		}
	}
	if victim >= 0 && set[victim].valid && c.cfg.Replacement == Random {
		victim = c.rng.Intn(len(set))
	}
	if set[victim].valid && set[victim].use == c.clock {
		return
	}
	if set[victim].valid {
		c.PrefetchEvictions++
		if set[victim].dirty {
			c.Writebacks++
		}
	}
	set[victim] = refCacheLine{tag: tag, valid: true, use: c.clock}
	c.PrefetchFills++
}

func (c *refCache) Reset() {
	for _, set := range c.sets {
		for i := range set {
			set[i] = refCacheLine{}
		}
	}
	c.clock, c.Hits, c.Misses, c.PrefetchFills = 0, 0, 0, 0
	c.Evictions, c.Writebacks, c.PrefetchEvictions = 0, 0, 0
	if c.cfg.Replacement == Random {
		c.rng = xrand.New("cmpsim/random-replacement/" + c.cfg.Name)
	}
}

// counters returns the six event counters in a fixed order.
func (c *refCache) counters() [6]uint64 {
	return [6]uint64{c.Hits, c.Misses, c.Evictions, c.Writebacks, c.PrefetchFills, c.PrefetchEvictions}
}

// refHierarchy is the reference Hierarchy.
type refHierarchy struct {
	levels []*refCache
	memLat int
}

func newRefHierarchy(cfg HierarchyConfig) (*refHierarchy, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	h := &refHierarchy{memLat: cfg.MemoryLatency}
	for _, l := range cfg.Levels {
		c, err := newRefCache(l)
		if err != nil {
			return nil, err
		}
		h.levels = append(h.levels, c)
	}
	return h, nil
}

func (h *refHierarchy) AccessRW(addr uint64, write bool) int {
	for _, c := range h.levels {
		if c.AccessRW(addr, write) {
			return c.cfg.HitLatency
		}
	}
	return h.memLat
}

func (h *refHierarchy) Reset() {
	for _, c := range h.levels {
		c.Reset()
	}
}

// refAddressGen is the reference addressGen.
type refAddressGen struct {
	base    uint64
	ws      uint64
	stride  uint64
	random  bool
	cursor  uint64
	seed    uint64
	line    uint64
	counter uint64
}

func (g *refAddressGen) next() uint64 {
	if g.random {
		h := xrand.Hash3(g.seed, g.line, g.counter)
		g.counter++
		span := g.ws
		// Top byte decides hot vs cold; the rest picks the line.
		if span > hotSetBytes && float64(h>>56)/256 < hotFraction {
			span = hotSetBytes
		}
		return g.base + ((h % span) &^ 63)
	}
	a := g.base + g.cursor
	g.cursor += g.stride
	if g.cursor >= g.ws {
		g.cursor -= g.ws
	}
	return a
}

// refSimulator is the reference Simulator: generator construction,
// gating, TakeStats, OnBlock and access as they were.
type refSimulator struct {
	bin      *compiler.Binary
	hier     *refHierarchy
	gens     []*refAddressGen
	stackGen *refAddressGen
	core     CoreConfig
	enabled  bool
	warming  bool
	stats    Stats
}

func newRefSimulator(bin *compiler.Binary, cfg HierarchyConfig, core CoreConfig) (*refSimulator, error) {
	hier, err := newRefHierarchy(cfg)
	if err != nil {
		return nil, err
	}
	s := &refSimulator{
		bin:     bin,
		hier:    hier,
		gens:    make([]*refAddressGen, len(bin.Blocks)),
		core:    core,
		enabled: true,
		warming: true,
	}
	s.stats.LevelHits = make([]uint64, len(hier.levels))
	s.stats.LevelMisses = make([]uint64, len(hier.levels))
	seed := xrand.New("cmpsim/mem/" + bin.Program.Name).Uint64()
	byLine := map[int]*refAddressGen{}
	for i := range bin.Blocks {
		b := &bin.Blocks[i]
		if b.Loads+b.Stores == 0 {
			continue
		}
		if g, ok := byLine[b.SrcLine]; ok && b.SrcLine > 0 {
			s.gens[i] = g
			continue
		}
		ws := b.Mem.WorkingSet &^ 63
		if ws < 64 {
			ws = 64
		}
		g := &refAddressGen{
			base:   uint64(b.Mem.Region+1) << 36,
			ws:     ws,
			stride: b.Mem.Stride,
			random: b.Mem.Class == program.MemRandom,
			seed:   seed,
			line:   uint64(b.SrcLine),
		}
		if g.stride == 0 && !g.random {
			g.stride = 8
		}
		s.gens[i] = g
		if b.SrcLine > 0 {
			byLine[b.SrcLine] = g
		}
	}
	stack := bin.StackMem()
	s.stackGen = &refAddressGen{
		base:   uint64(stack.Region+1) << 36,
		ws:     stack.WorkingSet,
		stride: stack.Stride,
	}
	return s, nil
}

func (s *refSimulator) TakeStats() Stats {
	out := s.stats
	out.LevelHits = append([]uint64(nil), s.stats.LevelHits...)
	out.LevelMisses = append([]uint64(nil), s.stats.LevelMisses...)
	s.stats.Instructions, s.stats.Cycles = 0, 0
	s.stats.Loads, s.stats.Stores = 0, 0
	s.stats.MemoryAccesses = 0
	for i := range s.stats.LevelHits {
		s.stats.LevelHits[i] = 0
		s.stats.LevelMisses[i] = 0
	}
	return out
}

func (s *refSimulator) OnBlock(block int) {
	enabled := s.enabled
	if !enabled && !s.warming {
		return
	}
	b := &s.bin.Blocks[block]
	base := uint64(b.Instrs)
	if w := uint64(s.core.IssueWidth); w > 1 {
		base = (base + w - 1) / w
	}
	cycles := base + uint64(b.FPInstrs)*uint64(s.core.FPExtraCycles)
	if g := s.gens[block]; g != nil {
		cycles += s.drive(g, b.Loads, b.Stores, enabled)
	}
	if b.SpillLoads+b.SpillStores > 0 {
		cycles += s.drive(s.stackGen, b.SpillLoads, b.SpillStores, enabled)
	}
	if enabled {
		s.stats.Instructions += uint64(b.Instrs)
		s.stats.Cycles += cycles
		s.stats.Loads += uint64(b.Loads) + uint64(b.SpillLoads)
		s.stats.Stores += uint64(b.Stores) + uint64(b.SpillStores)
	}
}

// drive is the reference per-generator access loop: g's next loads, then
// its next stores, one hierarchy access each.
func (s *refSimulator) drive(g *refAddressGen, loads, stores int, record bool) uint64 {
	storeShare := uint64(s.core.StoreLatencyShare)
	var cycles uint64
	for i := 0; i < loads; i++ {
		lat := s.access(g.next(), false, record)
		cycles += uint64(lat - 1)
	}
	for i := 0; i < stores; i++ {
		lat := s.access(g.next(), true, record)
		// Stores retire through a store buffer; charge a fraction of
		// the miss latency.
		cycles += uint64(lat-1) / storeShare
	}
	return cycles
}

func (s *refSimulator) access(addr uint64, write, record bool) int {
	for li, c := range s.hier.levels {
		if c.AccessRW(addr, write) {
			if record {
				s.stats.LevelHits[li]++
			}
			return c.cfg.HitLatency
		}
		if record {
			s.stats.LevelMisses[li]++
		}
	}
	if record {
		s.stats.MemoryAccesses++
	}
	return s.hier.memLat
}
