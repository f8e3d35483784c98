package cmpsim

import (
	"fmt"

	"xbsim/internal/compiler"
	"xbsim/internal/obs"
	"xbsim/internal/program"
	"xbsim/internal/xrand"
)

// The paper's CMP$im core is in-order and single-issue: every instruction
// retires in one cycle, a floating-point instruction costs fpExtraCycles
// more, and a store, which retires through a store buffer, stalls for
// 1/storeLatencyShare of a load's miss latency.
const (
	fpExtraCycles     = 1
	storeLatencyShare = 4
)

// Stats accumulates a run's simulation results.
type Stats struct {
	// Instructions is the number of instructions simulated.
	Instructions uint64
	// Cycles is the number of cycles charged.
	Cycles uint64
	// Loads and Stores count simulated data accesses.
	Loads, Stores uint64
	// LevelHits[i] / LevelMisses[i] are per-cache-level access outcomes.
	LevelHits, LevelMisses []uint64
	// MemoryAccesses counts accesses that went all the way to DRAM.
	MemoryAccesses uint64
}

// CPI returns cycles per instruction, or 0 when nothing was simulated.
func (s *Stats) CPI() float64 {
	if s.Instructions == 0 {
		return 0
	}
	return float64(s.Cycles) / float64(s.Instructions)
}

// MissRate returns the miss rate at cache level i, or 0 with no accesses.
func (s *Stats) MissRate(i int) float64 {
	total := s.LevelHits[i] + s.LevelMisses[i]
	if total == 0 {
		return 0
	}
	return float64(s.LevelMisses[i]) / float64(total)
}

// Simulator is an exec.Visitor that performs timing simulation of the
// block stream. It simulates and records every block it is given; a
// region's statistics are the delta of Stats over the region's blocks.
type Simulator struct {
	bin  *compiler.Binary
	hier *Hierarchy

	// gens holds per-block address generator state (index = block ID; nil
	// for blocks without memory traffic).
	gens []*addressGen
	// stackGen is the shared spill-address generator.
	stackGen *addressGen

	// loadPenalty[i] and storePenalty[i] are the stall cycles charged to a
	// load or store served by level i (len(levels) for DRAM): the latency
	// less the one issue cycle, and a 1/storeLatencyShare fraction of that
	// for stores.
	loadPenalty, storePenalty []uint64

	stats Stats
	// pool receives the hierarchy back on Release.
	pool *statePool
}

// NewSimulator builds a simulator for the binary with the given memory
// system and the paper's core. Its cache-hierarchy
// state comes from the process-wide recycler; call Release when the walk
// is done to return it. A recycled hierarchy behaves bit-identically to
// a fresh one (see statePool), and a simulator that is never released
// simply leaves its state to the garbage collector.
func NewSimulator(bin *compiler.Binary, cfg HierarchyConfig) (*Simulator, error) {
	return newSimulator(bin, cfg, states)
}

func newSimulator(bin *compiler.Binary, cfg HierarchyConfig, pool *statePool) (*Simulator, error) {
	if bin == nil {
		return nil, fmt.Errorf("cmpsim: nil binary")
	}
	hier, err := pool.get(cfg)
	if err != nil {
		return nil, err
	}
	s := &Simulator{
		bin:  bin,
		hier: hier,
		gens: make([]*addressGen, len(bin.Blocks)),
		pool: pool,
	}
	s.stats.LevelHits = make([]uint64, len(hier.levels))
	s.stats.LevelMisses = make([]uint64, len(hier.levels))
	for _, lat := range hier.latency {
		s.loadPenalty = append(s.loadPenalty, uint64(lat-1))
		s.storePenalty = append(s.storePenalty, uint64(lat-1)/storeLatencyShare)
	}
	// The address seed is keyed by the PROGRAM, not the binary: the same
	// source statement touches the same addresses in every binary of the
	// program (see addressGen).
	seed := xrand.New("cmpsim/mem/" + bin.Program.Name).Uint64()
	// Generator state lives in one arena sized by an upper-bound count of
	// blocks with memory traffic (plus the stack generator), so building a
	// simulator costs two slice allocations instead of one per block. The
	// arena never outgrows its capacity, so the handed-out pointers stay
	// valid.
	memBlocks := 0
	for i := range bin.Blocks {
		if bin.Blocks[i].Loads+bin.Blocks[i].Stores > 0 {
			memBlocks++
		}
	}
	arena := make([]addressGen, 0, memBlocks+1)
	alloc := func(g addressGen) *addressGen {
		arena = append(arena, g)
		return &arena[len(arena)-1]
	}
	// Generators are shared across blocks lowered from the same source
	// statement (inline clones), keyed by source line.
	byLine := map[int]*addressGen{}
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
		g := alloc(addressGen{
			base:   uint64(b.Mem.Region+1) << 36,
			ws:     ws,
			stride: b.Mem.Stride,
			random: b.Mem.Class == program.MemRandom,
			key:    xrand.Hash3Prefix(seed, uint64(b.SrcLine)),
		})
		if g.stride == 0 && !g.random {
			g.stride = 8
		}
		s.gens[i] = g
		if b.SrcLine > 0 {
			byLine[b.SrcLine] = g
		}
	}
	stack := bin.StackMem()
	s.stackGen = alloc(addressGen{
		base:   uint64(stack.Region+1) << 36,
		ws:     stack.WorkingSet,
		stride: stack.Stride,
	})
	return s, nil
}

// Release returns the simulator's hierarchy state to the recycler it
// was drawn from. The simulator must not be used afterwards: its cache
// state now belongs to the recycler and may be handed to another walk.
// Release is idempotent; the accumulated Stats value remains readable,
// but level statistics (Hierarchy, event counters) are gone.
func (s *Simulator) Release() {
	if s.hier != nil {
		s.pool.put(s.hier)
	}
	s.hier = nil
}

// ResetCaches empties every cache level as at construction, so the next
// access starts from cold caches. Stats and the address generators are
// untouched; the levels' event counters restart from zero.
func (s *Simulator) ResetCaches() { s.hier.Reset() }

// Stats returns the accumulated statistics.
func (s *Simulator) Stats() *Stats { return &s.stats }

// PublishMetrics adds the accumulated statistics to the registry as
// counters under the given prefix ("sim.full" → sim.full.instructions,
// sim.full.cycles, sim.full.cache.l1.hits, ...). The pipeline publishes
// one family, "sim.full", for walk 3. Cache levels are numbered outward
// from the core: l1 is the first-level cache regardless of its display
// name. A nil registry is a no-op. The metric names are a stable
// interface (see README.md).
//
// Hits/misses come from Stats; the eviction, writeback, and prefetch
// families come from the Cache event counters. After Release only the
// Stats families are published.
func (s *Simulator) PublishMetrics(reg *obs.Registry, prefix string) {
	if reg == nil {
		return
	}
	st := &s.stats
	reg.Counter(prefix + ".instructions").Add(st.Instructions)
	reg.Counter(prefix + ".cycles").Add(st.Cycles)
	reg.Counter(prefix + ".loads").Add(st.Loads)
	reg.Counter(prefix + ".stores").Add(st.Stores)
	reg.Counter(prefix + ".dram_accesses").Add(st.MemoryAccesses)
	for i := range st.LevelHits {
		reg.Counter(fmt.Sprintf("%s.cache.l%d.hits", prefix, i+1)).Add(st.LevelHits[i])
		reg.Counter(fmt.Sprintf("%s.cache.l%d.misses", prefix, i+1)).Add(st.LevelMisses[i])
	}
	if s.hier == nil {
		return // released: the event counters went back with the hierarchy
	}
	for i, c := range s.hier.levels {
		reg.Counter(fmt.Sprintf("%s.cache.l%d.evictions", prefix, i+1)).Add(c.Evictions)
		reg.Counter(fmt.Sprintf("%s.cache.l%d.writebacks", prefix, i+1)).Add(c.Writebacks)
		reg.Counter(fmt.Sprintf("%s.cache.l%d.prefetch_fills", prefix, i+1)).Add(c.PrefetchFills)
		reg.Counter(fmt.Sprintf("%s.cache.l%d.prefetch_evictions", prefix, i+1)).Add(c.PrefetchEvictions)
	}
}

// OnBlock implements exec.Visitor: charge the block's instructions and
// simulate its data accesses.
func (s *Simulator) OnBlock(block int) {
	b := &s.bin.Blocks[block]
	cycles := uint64(b.Instrs) + uint64(b.FPInstrs)*fpExtraCycles
	if g := s.gens[block]; g != nil {
		cycles += s.drive(g, b.Loads, b.Stores)
	}
	if b.SpillLoads+b.SpillStores > 0 {
		cycles += s.drive(s.stackGen, b.SpillLoads, b.SpillStores)
	}
	s.stats.Instructions += uint64(b.Instrs)
	s.stats.Cycles += cycles
	s.stats.Loads += uint64(b.Loads) + uint64(b.SpillLoads)
	s.stats.Stores += uint64(b.Stores) + uint64(b.SpillStores)
}

// OnMarker implements exec.Visitor.
func (s *Simulator) OnMarker(int) {}

// drive performs g's next loads+stores accesses, the loads first,
// records their per-level outcomes and returns their stall cycles. A store marks the touched line dirty for writeback
// accounting; that never changes latency or fill decisions.
//
// Most accesses hit the first level, so each one first probes it inline
// (Cache.probe): the slot of the generator's last line, then the rest of
// the line's set. A slot is trusted only when it holds the line (its
// tag) and the line is valid (a nonzero stamp); then the access is
// exactly a first-level hit — no replacement draw, no prefetch — and is
// applied inline. A first-level miss takes the full walk, which reports
// the slot the line was filled into.
//
// A strided generator's accesses come in runs that stay in one line
// (addressGen.run). Only a run's first access is checked or walked:
// afterwards the line sits, valid, at g.l1Slot — a next-line prefetch
// never evicts the line stamped with the current clock, and no other
// generator runs inside one call — so each later access of the run is
// exactly a first-level hit, and they are applied together.
func (s *Simulator) drive(g *addressGen, loads, stores int) uint64 {
	l1 := s.hier.levels[0]
	n := loads + stores
	var cycles uint64
	for i := 0; i < n; {
		k := 1
		if !g.random {
			k = g.run(l1.cfg.LineSize, n-i)
		}
		write := i >= loads
		addr := g.next()
		level := 0
		if j := l1.probe(addr>>l1.lineShift, g.l1Slot); j >= 0 {
			l1.clock++
			l1.hit(j, write)
			g.l1Slot = j
			s.stats.LevelHits[0]++
		} else {
			level, g.l1Slot = s.hier.walk(addr, write)
			s.record(level)
		}
		if write {
			cycles += s.storePenalty[level]
		} else {
			cycles += s.loadPenalty[level]
		}
		i++
		if k == 1 {
			continue
		}
		// The run's other accesses, i through i+rest-1: the loads among
		// them, then the stores.
		rest := uint64(k - 1)
		nLoads := uint64(min(max(loads-i, 0), k-1))
		g.skip(rest)
		l1.hitRun(g.l1Slot, rest, nLoads < rest)
		s.stats.LevelHits[0] += rest
		cycles += nLoads*s.loadPenalty[0] + (rest-nLoads)*s.storePenalty[0]
		i += k - 1
	}
	return cycles
}

// record counts an access served by level (len(levels) for DRAM) in
// Stats: a miss at every nearer level and a hit at level.
func (s *Simulator) record(level int) {
	for i := 0; i < level; i++ {
		s.stats.LevelMisses[i]++
	}
	if level < len(s.stats.LevelHits) {
		s.stats.LevelHits[level]++
	} else {
		s.stats.MemoryAccesses++
	}
}
