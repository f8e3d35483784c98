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
// Every simulation point is measured as a window of a full walk (DESIGN.md
// §15). Under functional warming (the default) a point's caches hold
// whatever everything before it left, as CMP$im's fast-forwarding
// leaves them, so its measurement is its interval's delta in walk 3:
// prepare keeps every interval's delta under both boundary sets, and
// pick answers walks 4/5 from them. Without warming a point starts from
// cold caches, as a checkpoint-driven simulator without warm-up sees
// it; that measurement is its interval's delta in a cold walk, a full
// walk that empties the caches at every interval start, one per binary
// and boundary set.

// IntervalStats is one interval's share of a full walk: the quantities
// the suite's estimates (instructions, cycles) and the facade's
// (accesses, L1 misses, DRAM accesses) read. Accesses counts every
// simulated load and store, spills included.
type IntervalStats struct {
	Instructions, Cycles             uint64
	Accesses, L1Misses, DRAMAccesses uint64
}

// IntervalDeltas is a full walk's IntervalStats for every interval of one
// boundary set, so any statistic an estimate reads at a point can be
// read from it.
type IntervalDeltas struct {
	iv []IntervalStats
}

// Interval returns interval iv's statistics delta; ok is false when iv
// lies outside the boundary set.
func (d *IntervalDeltas) Interval(iv int) (IntervalStats, bool) {
	if iv < 0 || iv >= len(d.iv) {
		return IntervalStats{}, false
	}
	return d.iv[iv], true
}

// window returns each chosen point's statistics, in point order. A point
// interval outside the boundary set is an error.
func (d *IntervalDeltas) window(points []simpoint.Point) ([]IntervalStats, error) {
	regions := make([]IntervalStats, len(points))
	for i, p := range points {
		st, ok := d.Interval(p.Interval)
		if !ok {
			return nil, fmt.Errorf("simulation point interval %d outside the walk's %d intervals", p.Interval, len(d.iv))
		}
		regions[i] = st
	}
	return regions, nil
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
}

// SimulateIntervals runs bin to completion on a simulator of hierarchy h
// and attributes every interval's statistics delta under each boundary
// set in sets. It is where every sampled estimate is measured: a
// simulation point's statistics under functional warming are its
// interval's delta here. With an observer on ctx the run's statistics
// are published as the full-run family "sim.full".
func SimulateIntervals(ctx context.Context, bin *compiler.Binary, in program.Input,
	h cmpsim.HierarchyConfig, sets ...Boundaries) (*FullWalk, error) {

	return simulateIntervals(ctx, bin, in, h, false, sets...)
}

// simulateIntervals is SimulateIntervals. With cold set it is a cold
// walk: the caches are emptied at every interval start of its one
// boundary set, so each delta is what the interval measures from cold
// caches, and it publishes no statistics.
func simulateIntervals(ctx context.Context, bin *compiler.Binary, in program.Input,
	h cmpsim.HierarchyConfig, cold bool, sets ...Boundaries) (*FullWalk, error) {

	sim, err := cmpsim.NewSimulator(bin, h)
	if err != nil {
		return nil, err
	}
	defer sim.Release()
	v := &walk3Visitor{sim: sim}
	snaps := make([]*snapshotter, len(sets))
	for s, b := range sets {
		if b.VLI != nil {
			snaps[s] = newSnapshotter(sim, len(b.VLI), cold)
			v.vli = append(v.vli, profile.NewVLITracker(bin, b.VLI, snaps[s]))
		} else {
			snaps[s] = newSnapshotter(sim, len(b.FLI), cold)
			v.fli = append(v.fli, profile.NewFLITracker(bin, b.FLI, snaps[s]))
		}
	}
	if err := exec.RunCtx(ctx, bin, in, v); err != nil {
		return nil, err
	}
	fw := &FullWalk{Stats: *sim.Stats(), Deltas: make([]*IntervalDeltas, len(sets))}
	for s, snap := range snaps {
		snap.close()
		fw.Deltas[s] = snap.d
	}
	if o := obs.From(ctx); o != nil && !cold {
		sim.PublishMetrics(o.Metrics, "sim.full")
	}
	return fw, nil
}

// walk3Visitor is the full walk's visitor: the simulator, then every
// boundary set's tracker, called directly rather than through an
// exec.Multi of interfaces. The simulator goes first, so a tracker's
// transition snapshots statistics that include the block that caused
// it; the trackers touch only their own snapshotters, so their order
// among themselves does not matter. Simulator.OnMarker and
// FLITracker.OnMarker are no-ops and are not called.
type walk3Visitor struct {
	sim *cmpsim.Simulator
	fli []*profile.FLITracker
	vli []*profile.VLITracker
}

// OnBlock implements exec.Visitor.
func (v *walk3Visitor) OnBlock(block int) {
	v.sim.OnBlock(block)
	for _, t := range v.fli {
		t.OnBlock(block)
	}
	for _, t := range v.vli {
		t.OnBlock(block)
	}
}

// OnMarker implements exec.Visitor.
func (v *walk3Visitor) OnMarker(marker int) {
	for _, t := range v.vli {
		t.OnMarker(marker)
	}
}

// snapshotter attributes a simulator's cumulative statistics to
// intervals as an IntervalSink: on each transition the delta since the
// previous snapshot is charged to the interval just left. With reset set
// it also empties the simulator's caches, so the next interval starts
// cold.
type snapshotter struct {
	sim   *cmpsim.Simulator
	reset bool
	cur   int
	last  IntervalStats
	d     *IntervalDeltas
}

func newSnapshotter(sim *cmpsim.Simulator, numIntervals int, reset bool) *snapshotter {
	return &snapshotter{sim: sim, reset: reset, d: &IntervalDeltas{iv: make([]IntervalStats, numIntervals)}}
}

// Transition implements profile.IntervalSink.
func (s *snapshotter) Transition(i int) {
	if i == s.cur {
		return
	}
	s.flush()
	s.cur = i
	if s.reset {
		s.sim.ResetCaches()
	}
}

func (s *snapshotter) flush() {
	st := s.sim.Stats()
	now := IntervalStats{
		Instructions: st.Instructions,
		Cycles:       st.Cycles,
		Accesses:     st.Loads + st.Stores,
		L1Misses:     st.LevelMisses[0],
		DRAMAccesses: st.MemoryAccesses,
	}
	if s.cur < len(s.d.iv) {
		d := &s.d.iv[s.cur]
		d.Instructions += now.Instructions - s.last.Instructions
		d.Cycles += now.Cycles - s.last.Cycles
		d.Accesses += now.Accesses - s.last.Accesses
		d.L1Misses += now.L1Misses - s.last.L1Misses
		d.DRAMAccesses += now.DRAMAccesses - s.last.DRAMAccesses
	}
	s.last = now
}

// close flushes the final interval; call after the run.
func (s *snapshotter) close() { s.flush() }
