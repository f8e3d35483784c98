package experiment

import (
	"context"
	"fmt"

	"xbsim/internal/cmpsim"
	"xbsim/internal/compiler"
	"xbsim/internal/exec"
	"xbsim/internal/obs"
	"xbsim/internal/profile"
	"xbsim/internal/program"
	"xbsim/internal/simpoint"
)

// This file holds the full walk with per-interval attribution
// (SimulateIntervals: walk 3 here, and the root package's sampled
// estimates), its per-interval statistics deltas, and what answers
// walks 4/5 from them.
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

// IntervalDeltas is a full walk's statistics delta for every interval of
// one boundary set: everything Simulator.Stats accumulates, so a gated
// walk answered from it reproduces the executed walk's metric families
// exactly. The per-level arrays are flat ([interval*nlev + level]) so
// the capture costs two allocations, not two per interval.
type IntervalDeltas struct {
	nlev                               int
	instr, cycles, loads, stores, dram []uint64
	levelHits, levelMisses             []uint64
}

func newIntervalDeltas(numIntervals, nlev int) *IntervalDeltas {
	return &IntervalDeltas{
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

// Interval returns interval iv's statistics delta; ok is false when iv
// lies outside the boundary set. The per-level slices alias d.
func (d *IntervalDeltas) Interval(iv int) (st cmpsim.Stats, ok bool) {
	if iv < 0 || iv >= len(d.instr) {
		return st, false
	}
	lv := iv * d.nlev
	return cmpsim.Stats{
		Instructions: d.instr[iv], Cycles: d.cycles[iv],
		Loads: d.loads[iv], Stores: d.stores[iv], MemoryAccesses: d.dram[iv],
		LevelHits:   d.levelHits[lv : lv+d.nlev : lv+d.nlev],
		LevelMisses: d.levelMisses[lv : lv+d.nlev : lv+d.nlev],
	}, true
}

// window sums the chosen points' deltas into the gated walk's Stats
// window and returns it with each point's (instructions, cycles), in
// point order. A point interval outside the boundary set is an error.
func (d *IntervalDeltas) window(points []simpoint.Point) (cmpsim.Stats, []regionStat, error) {
	win := cmpsim.Stats{LevelHits: make([]uint64, d.nlev), LevelMisses: make([]uint64, d.nlev)}
	regions := make([]regionStat, len(points))
	for i, p := range points {
		st, ok := d.Interval(p.Interval)
		if !ok {
			return win, nil, fmt.Errorf("simulation point interval %d outside walk 3's %d intervals", p.Interval, len(d.instr))
		}
		win.Add(&st)
		regions[i] = regionStat{instr: st.Instructions, cycles: st.Cycles}
	}
	return win, regions, nil
}

// Boundaries is one boundary set of a binary's intervals: FLI ends in
// instructions or, when VLI is non-nil, VLI ends in the binary's marker
// space.
type Boundaries struct {
	FLI []uint64
	VLI []profile.Boundary
}

// FullWalk is one binary's full simulation, attributed per interval.
type FullWalk struct {
	// Stats are the whole run's statistics.
	Stats cmpsim.Stats
	// Deltas[s] holds every interval's delta under the s-th boundary set.
	Deltas []*IntervalDeltas
	// events are the run's full-stream cache event counters.
	events []levelEvents
}

// SimulateIntervals runs bin to completion on a simulator of hierarchy h,
// drawing cache state from sp (nil builds fresh state), and attributes
// every interval's statistics delta under each boundary set in sets. It
// is where every sampled estimate is measured: under functional warming
// a region's gated measurement equals its delta here, bit for bit. With
// an observer on ctx the run's statistics are published as the full-run
// family "sim.full".
func SimulateIntervals(ctx context.Context, bin *compiler.Binary, in program.Input,
	h cmpsim.HierarchyConfig, sp *cmpsim.StatePool, sets ...Boundaries) (*FullWalk, error) {

	sim, err := cmpsim.NewSimulatorPooled(bin, h, sp)
	if err != nil {
		return nil, err
	}
	defer sim.Release()
	visitors := exec.Multi{sim}
	snaps := make([]*snapshotter, len(sets))
	for s, b := range sets {
		if b.VLI != nil {
			snaps[s] = newSnapshotter(sim, len(b.VLI))
			visitors = append(visitors, profile.NewVLITracker(bin, b.VLI, snaps[s]))
		} else {
			snaps[s] = newSnapshotter(sim, len(b.FLI))
			visitors = append(visitors, profile.NewFLITracker(bin, b.FLI, snaps[s]))
		}
	}
	if err := exec.RunCtx(ctx, bin, in, visitors); err != nil {
		return nil, err
	}
	fw := &FullWalk{Stats: *sim.Stats(), Deltas: make([]*IntervalDeltas, len(sets)),
		events: captureEvents(sim.Hierarchy())}
	for s, snap := range snaps {
		snap.close()
		fw.Deltas[s] = snap.d
	}
	if o := obs.From(ctx); o != nil {
		sim.PublishMetrics(o.Metrics, "sim.full")
	}
	return fw, nil
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
	d              *IntervalDeltas
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
// sim.<walk> family comes out identical to what the
// executed walk would have published.
func publishWindowMetrics(reg *obs.Registry, prefix string, win *cmpsim.Stats, events []levelEvents) {
	if reg == nil {
		return
	}
	reg.Counter(prefix + ".instructions").Add(win.Instructions)
	reg.Counter(prefix + ".cycles").Add(win.Cycles)
	reg.Counter(prefix + ".loads").Add(win.Loads)
	reg.Counter(prefix + ".stores").Add(win.Stores)
	reg.Counter(prefix + ".dram_accesses").Add(win.MemoryAccesses)
	for i := range win.LevelHits {
		reg.Counter(levelMetricName(prefix, i, "hits")).Add(win.LevelHits[i])
		reg.Counter(levelMetricName(prefix, i, "misses")).Add(win.LevelMisses[i])
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
