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

// Stats accumulates simulation results over the enabled portion of a run.
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

// Add accumulates other into s.
func (s *Stats) Add(other *Stats) {
	s.Instructions += other.Instructions
	s.Cycles += other.Cycles
	s.Loads += other.Loads
	s.Stores += other.Stores
	s.MemoryAccesses += other.MemoryAccesses
	for i := range s.LevelHits {
		s.LevelHits[i] += other.LevelHits[i]
		s.LevelMisses[i] += other.LevelMisses[i]
	}
}

// Simulator is an exec.Visitor that performs timing simulation of the
// block stream. It can be gated: while disabled it ignores events
// entirely, modeling fast-forwarding to a simulation region.
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

	enabled bool
	warming bool
	stats   Stats
	// pool, when non-nil, receives the hierarchy back on Release.
	pool *StatePool
}

// NewSimulator builds a simulator for the binary with the given memory
// system and the paper's core. It starts enabled.
func NewSimulator(bin *compiler.Binary, cfg HierarchyConfig) (*Simulator, error) {
	return newSimulator(bin, cfg, nil)
}

// NewSimulatorPooled is NewSimulator drawing its cache-hierarchy state
// from a StatePool instead of allocating it. Call Release when the walk
// is done to return the state for reuse; a recycled hierarchy behaves
// bit-identically to a fresh one (see StatePool). A nil pool degrades to
// NewSimulator with a no-op Release.
func NewSimulatorPooled(bin *compiler.Binary, cfg HierarchyConfig, pool *StatePool) (*Simulator, error) {
	return newSimulator(bin, cfg, pool)
}

func newSimulator(bin *compiler.Binary, cfg HierarchyConfig, pool *StatePool) (*Simulator, error) {
	if bin == nil {
		return nil, fmt.Errorf("cmpsim: nil binary")
	}
	hier, err := pool.Get(cfg)
	if err != nil {
		return nil, err
	}
	s := &Simulator{
		bin:     bin,
		hier:    hier,
		gens:    make([]*addressGen, len(bin.Blocks)),
		enabled: true,
		warming: true,
		pool:    pool,
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

// Release returns the simulator's hierarchy state to the pool it was
// drawn from (a no-op for unpooled simulators). The simulator must not
// be used afterwards: its cache state now belongs to the pool and may be
// handed to another walk. Release is idempotent; the accumulated Stats
// value remains readable, but level statistics (Hierarchy, event
// counters) are gone.
func (s *Simulator) Release() {
	if s.pool != nil && s.hier != nil {
		s.pool.Put(s.hier)
	}
	s.hier = nil
	s.pool = nil
}

// SetEnabled gates statistics accumulation on or off. While disabled the
// simulator by default still performs every cache access (functional
// warming, as CMP$im does while fast-forwarding to a PinPoint) so regions
// start with realistically warm caches; only the timing statistics are
// suppressed. See SetFunctionalWarming.
func (s *Simulator) SetEnabled(v bool) { s.enabled = v }

// SetFunctionalWarming controls whether cache accesses are performed
// while statistics are gated off. It defaults to true; turning it off
// models a fast-forwarding simulator with no warming, so every region
// starts with whatever stale cache state the previous region left — the
// cold-start bias the warming ablation quantifies.
func (s *Simulator) SetFunctionalWarming(v bool) { s.warming = v }

// Enabled reports the current gate state.
func (s *Simulator) Enabled() bool { return s.enabled }

// Stats returns the accumulated statistics.
func (s *Simulator) Stats() *Stats { return &s.stats }

// TakeStats returns the accumulated statistics and resets the counters
// (cache contents are preserved). Used to collect per-region results.
func (s *Simulator) TakeStats() Stats {
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

// Hierarchy exposes the memory system (for reporting Table 1 and level
// statistics).
func (s *Simulator) Hierarchy() *Hierarchy { return s.hier }

// PublishMetrics adds the accumulated statistics to the registry as
// counters under the given prefix ("sim.full" → sim.full.instructions,
// sim.full.cycles, sim.full.cache.l1.hits, ...). The pipeline publishes
// one family per evaluation walk: "sim.full" (walk 3), "sim.fli" (walk
// 4) and "sim.vli" (walk 5). Cache levels are numbered
// outward from the core: l1 is the first-level cache regardless of its
// display name. A nil registry is a no-op. The metric names are a stable
// interface (see README.md).
//
// Hits/misses come from the gated Stats window; the eviction, writeback,
// and prefetch families come from the Cache event counters, which count
// every access including functional warming — they attribute the cache's
// real activity during the walk, which is what a cost profile needs.
// After Release only the Stats-window families are published.
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
// simulate its data accesses. While disabled, accesses still update cache
// state (warming) but nothing is charged.
func (s *Simulator) OnBlock(block int) {
	enabled := s.enabled
	if !enabled && !s.warming {
		return
	}
	b := &s.bin.Blocks[block]
	cycles := uint64(b.Instrs) + uint64(b.FPInstrs)*fpExtraCycles
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

// OnMarker implements exec.Visitor.
func (s *Simulator) OnMarker(int) {}

// drive performs g's next loads+stores accesses, the loads first, and
// returns their stall cycles, recording per-level outcomes only when
// record is set. A store marks the touched line dirty for writeback
// accounting; that never changes latency or fill decisions.
//
// Most accesses touch the line the generator touched last, so each
// generator keeps the first-level slot of that line. The hint is used
// only after checking that the slot still holds the line (its tag) and
// that the line is valid (a nonzero stamp); then the access is exactly a
// first-level hit and is applied inline. Anything else — another line, a
// line evicted or moved since — takes the full walk, which reports the
// line's new slot.
//
// A strided generator's accesses come in runs that stay in one line
// (addressGen.run). Only a run's first access is checked or walked:
// afterwards the line sits, valid, at g.l1Slot — a next-line prefetch
// never evicts the line stamped with the current clock, and no other
// generator runs inside one call — so each later access of the run is
// exactly a first-level hit, and they are applied together.
func (s *Simulator) drive(g *addressGen, loads, stores int, record bool) uint64 {
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
		if j := g.l1Slot; l1.tags[j] == addr>>l1.lineShift && l1.stamp[j] != 0 {
			l1.clock++
			l1.hit(j, write)
			if record {
				s.stats.LevelHits[0]++
			}
		} else {
			level, g.l1Slot = s.hier.walk(addr, write)
			if record {
				s.record(level)
			}
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
		if record {
			s.stats.LevelHits[0] += rest
		}
		cycles += nLoads*s.loadPenalty[0] + (rest-nLoads)*s.storePenalty[0]
		i += k - 1
	}
	return cycles
}

// record counts an access served by level (len(levels) for DRAM) in the
// statistics window: a miss at every nearer level and a hit at level.
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
