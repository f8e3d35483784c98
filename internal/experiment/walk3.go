package experiment

import (
	"fmt"

	"xbsim/internal/cmpsim"
	"xbsim/internal/obs"
	"xbsim/internal/simpoint"
)

// This file holds walk 3's per-interval statistics deltas and what
// answers walks 4/5 from them.
//
// Soundness (the full argument is DESIGN.md §15): with functional
// warming on (the default), gating only suppresses statistics recording;
// every cache access, every address-generator advance, and every cycle
// computation happens identically whether the simulator is enabled or
// not. So walk 3 (full simulation) and walks 4/5 (gated simulations) of
// the same binary replay byte-identical access streams over identical
// cache state, and a chosen region's gated measurement equals the full
// walk's per-interval statistics delta over the same boundaries, bit for
// bit. prepare keeps every interval's delta under both boundary sets, and
// pick answers walks 4/5 from them: no simulator is built and nothing
// executes. With warming disabled the property does not hold — the gated
// walk skips accesses while fast-forwarding — so pick executes the gated
// walk instead.

// intervalDeltas is walk 3's statistics delta for every interval of one
// boundary set: everything Simulator.Stats accumulates, so a gated walk
// answered from it reproduces the executed walk's metric families
// exactly. The per-level arrays are flat ([interval*nlev + level]) so
// the capture costs two allocations, not two per interval.
type intervalDeltas struct {
	nlev                               int
	instr, cycles, loads, stores, dram []uint64
	levelHits, levelMisses             []uint64
}

func newIntervalDeltas(numIntervals, nlev int) *intervalDeltas {
	return &intervalDeltas{
		nlev:        nlev,
		instr:       make([]uint64, numIntervals),
		cycles:      make([]uint64, numIntervals),
		loads:       make([]uint64, numIntervals),
		stores:      make([]uint64, numIntervals),
		dram:        make([]uint64, numIntervals),
		levelHits:   make([]uint64, numIntervals*nlev),
		levelMisses: make([]uint64, numIntervals*nlev),
	}
}

// window sums the chosen points' deltas into the gated walk's Stats
// window and returns it with each point's (instructions, cycles), in
// point order. A point interval outside the boundary set is an error.
func (d *intervalDeltas) window(points []simpoint.Point) (intervalStats, []regionStat, error) {
	win := intervalStats{levelHits: make([]uint64, d.nlev), levelMisses: make([]uint64, d.nlev)}
	regions := make([]regionStat, len(points))
	for i, p := range points {
		iv := p.Interval
		if iv < 0 || iv >= len(d.instr) {
			return win, nil, fmt.Errorf("simulation point interval %d outside walk 3's %d intervals", iv, len(d.instr))
		}
		win.instr += d.instr[iv]
		win.cycles += d.cycles[iv]
		win.loads += d.loads[iv]
		win.stores += d.stores[iv]
		win.dram += d.dram[iv]
		for li := 0; li < d.nlev; li++ {
			win.levelHits[li] += d.levelHits[iv*d.nlev+li]
			win.levelMisses[li] += d.levelMisses[iv*d.nlev+li]
		}
		regions[i] = regionStat{instr: d.instr[iv], cycles: d.cycles[iv]}
	}
	return win, regions, nil
}

// intervalStats is one synthesized gated-walk Stats window.
type intervalStats struct {
	instr, cycles, loads, stores, dram uint64
	// levelHits/levelMisses are indexed by cache level.
	levelHits, levelMisses []uint64
}

// snapshotter attributes a simulator's cumulative statistics to
// intervals as an IntervalSink: on each transition the delta since the
// previous snapshot is charged to the interval just left.
type snapshotter struct {
	sim            *cmpsim.Simulator
	cur            int
	lastI          uint64
	lastC          uint64
	lastL          uint64
	lastS          uint64
	lastD          uint64
	lastLH, lastLM []uint64
	d              *intervalDeltas
}

func newSnapshotter(sim *cmpsim.Simulator, numIntervals int) *snapshotter {
	nlev := len(sim.Stats().LevelHits)
	return &snapshotter{
		sim:    sim,
		lastLH: make([]uint64, nlev),
		lastLM: make([]uint64, nlev),
		d:      newIntervalDeltas(numIntervals, nlev),
	}
}

// Transition implements profile.IntervalSink.
func (s *snapshotter) Transition(i int) {
	if i == s.cur {
		return
	}
	s.flush()
	s.cur = i
}

func (s *snapshotter) flush() {
	st := s.sim.Stats()
	if d := s.d; s.cur < len(d.instr) {
		d.instr[s.cur] += st.Instructions - s.lastI
		d.cycles[s.cur] += st.Cycles - s.lastC
		d.loads[s.cur] += st.Loads - s.lastL
		d.stores[s.cur] += st.Stores - s.lastS
		d.dram[s.cur] += st.MemoryAccesses - s.lastD
		base := s.cur * d.nlev
		for li := 0; li < d.nlev; li++ {
			d.levelHits[base+li] += st.LevelHits[li] - s.lastLH[li]
			d.levelMisses[base+li] += st.LevelMisses[li] - s.lastLM[li]
		}
	}
	s.lastI, s.lastC = st.Instructions, st.Cycles
	s.lastL, s.lastS, s.lastD = st.Loads, st.Stores, st.MemoryAccesses
	copy(s.lastLH, st.LevelHits)
	copy(s.lastLM, st.LevelMisses)
}

// close flushes the final interval; call after the run.
func (s *snapshotter) close() { s.flush() }

// levelEvents is one cache level's full-stream event counters after a
// walk. With warming on these are identical for the full and gated walks
// of one binary (every access runs either way), so the full walk's
// counters stand in for the gated walk's.
type levelEvents struct {
	evictions, writebacks, prefetchFills, prefetchEvictions uint64
}

// captureEvents snapshots a hierarchy's per-level event counters.
func captureEvents(h *cmpsim.Hierarchy) []levelEvents {
	levels := h.Levels()
	out := make([]levelEvents, len(levels))
	for i, c := range levels {
		out[i] = levelEvents{
			evictions:         c.Evictions,
			writebacks:        c.Writebacks,
			prefetchFills:     c.PrefetchFills,
			prefetchEvictions: c.PrefetchEvictions,
		}
	}
	return out
}

// publishWindowMetrics mirrors cmpsim.Simulator.PublishMetrics for a
// gated walk answered from walk 3: win is the synthesized statistics
// window and events walk 3's full-stream cache event counters, so the
// sim.gated / sim.<walk> families come out identical to what the
// executed walk would have published.
func publishWindowMetrics(reg *obs.Registry, prefix string, win *intervalStats, events []levelEvents) {
	if reg == nil {
		return
	}
	reg.Counter(prefix + ".instructions").Add(win.instr)
	reg.Counter(prefix + ".cycles").Add(win.cycles)
	reg.Counter(prefix + ".loads").Add(win.loads)
	reg.Counter(prefix + ".stores").Add(win.stores)
	reg.Counter(prefix + ".dram_accesses").Add(win.dram)
	for i := range win.levelHits {
		reg.Counter(levelMetricName(prefix, i, "hits")).Add(win.levelHits[i])
		reg.Counter(levelMetricName(prefix, i, "misses")).Add(win.levelMisses[i])
	}
	for i, ev := range events {
		reg.Counter(levelMetricName(prefix, i, "evictions")).Add(ev.evictions)
		reg.Counter(levelMetricName(prefix, i, "writebacks")).Add(ev.writebacks)
		reg.Counter(levelMetricName(prefix, i, "prefetch_fills")).Add(ev.prefetchFills)
		reg.Counter(levelMetricName(prefix, i, "prefetch_evictions")).Add(ev.prefetchEvictions)
	}
}

// levelMetricName matches PublishMetrics' per-level naming scheme.
func levelMetricName(prefix string, level int, name string) string {
	return fmt.Sprintf("%s.cache.l%d.%s", prefix, level+1, name)
}
