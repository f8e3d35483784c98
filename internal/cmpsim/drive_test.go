package cmpsim

import (
	"fmt"
	"reflect"
	"testing"

	"xbsim/internal/compiler"
	"xbsim/internal/program"
	"xbsim/internal/xrand"
)

// The tests in this file drive hand-built generators through
// Simulator.drive and the reference loop (refSimulator.drive) call by
// call, so the strided-run shortcut meets every edge of its run length:
// strides that do not divide the line or exceed it, working sets that
// wrap back into the same line or are not a multiple of it, a cursor
// past the working set, and addresses at either end of the space.

// genSpec is one generator's state.
type genSpec struct {
	base, ws, stride, cursor uint64
	random                   bool
}

// driveCall is one drive call: gen 0 is the generator under test, gen 1
// a random rival over the same region that evicts its lines between
// calls.
type driveCall struct {
	gen           int
	loads, stores int
}

// driveSeed keys the random generators of both sides.
const driveSeed = 0x5EED

func (g genSpec) build(line uint64) (*addressGen, *refAddressGen) {
	return &addressGen{base: g.base, ws: g.ws, stride: g.stride, random: g.random, cursor: g.cursor,
			key: xrand.Hash3Prefix(driveSeed, line)},
		&refAddressGen{base: g.base, ws: g.ws, stride: g.stride, random: g.random, cursor: g.cursor,
			seed: driveSeed, line: line}
}

// driveBinary is a binary with no blocks: drive needs only the
// simulator's hierarchy and penalty tables.
var driveBinary = &compiler.Binary{Program: &program.Program{Name: "drive"}}

// checkDrive runs calls on a simulator and the reference built over
// levels, and after every call compares the cycles returned, the Stats,
// every level's event counters and both generators' positions.
func checkDrive(levels []CacheConfig, spec genSpec, calls []driveCall) error {
	_, err := checkDriveAgainst(levels, spec, genSpec{base: spec.base, ws: 64 << 10, random: true}, calls)
	return err
}

// checkDriveAgainst is checkDrive against the given rival. It also
// returns how many calls began with a stale hint: the generator's next
// line valid in the first level, but not at the slot the generator
// remembers — the accesses the set probe serves.
func checkDriveAgainst(levels []CacheConfig, spec, rivalSpec genSpec, calls []driveCall) (stale int, err error) {
	cfg := HierarchyConfig{Levels: levels, MemoryLatency: 250}
	sim, err := NewSimulator(driveBinary, cfg)
	if err != nil {
		return 0, err
	}
	ref, err := newRefSimulator(driveBinary, cfg)
	if err != nil {
		return 0, err
	}
	g, rg := spec.build(1)
	rival, refRival := rivalSpec.build(2)
	gens := []*addressGen{g, rival}
	refGens := []*refAddressGen{rg, refRival}
	l1 := sim.hier.levels[0]
	for i, c := range calls {
		if peek := *gens[c.gen]; c.loads+c.stores > 0 {
			if j := l1.probe(peek.next()>>l1.lineShift, peek.l1Slot); j >= 0 && j != peek.l1Slot {
				stale++
			}
		}
		got := sim.drive(gens[c.gen], c.loads, c.stores)
		want := ref.drive(refGens[c.gen], c.loads, c.stores, true)
		if got != want {
			return stale, fmt.Errorf("call %d %+v: %d cycles, reference %d", i, c, got, want)
		}
		if !reflect.DeepEqual(sim.stats, ref.stats) {
			return stale, fmt.Errorf("call %d %+v: stats %+v, reference %+v", i, c, sim.stats, ref.stats)
		}
		if got, want := levelCounters(sim.hier), refLevelCounters(ref.hier); !reflect.DeepEqual(got, want) {
			return stale, fmt.Errorf("call %d %+v: event counters %v, reference %v", i, c, got, want)
		}
		for k, g := range gens {
			if g.cursor != refGens[k].cursor || g.counter != refGens[k].counter {
				return stale, fmt.Errorf("call %d %+v: gen %d at cursor %d counter %d, reference %d %d",
					i, c, k, g.cursor, g.counter, refGens[k].cursor, refGens[k].counter)
			}
		}
	}
	return stale, nil
}

func TestDriveRunsMatchReference(t *testing.T) {
	const region = 1 << 36
	top := ^uint64(0)
	gens := map[string]genSpec{
		"stride-0":         {base: region, ws: 4 << 10},
		"stride-8":         {base: region, ws: 4 << 10, stride: 8},
		"stride-24":        {base: region, ws: 4 << 10, stride: 24},
		"stride-64":        {base: region, ws: 4 << 10, stride: 64},
		"stride-200":       {base: region, ws: 4 << 10, stride: 200},
		"ws-one-line":      {base: region, ws: 64, stride: 8},
		"ws-one-line-24":   {base: region + 40, ws: 64, stride: 24},
		"ws-odd":           {base: region, ws: 1000, stride: 24},
		"cursor-past-ws":   {base: region, ws: 100, stride: 24, cursor: 150},
		"stride-0-past-ws": {base: region, ws: 64, cursor: 100},
		"stride-past-ws":   {base: region, ws: 64, stride: 200},
		"base-0":           {base: 0, ws: 4 << 10, stride: 24},
		"base-top":         {base: top - 200, ws: 4 << 10, stride: 24},
		"base-top-8":       {base: top - 63, ws: 4 << 10, stride: 8},
		"random":           {base: region, ws: 1 << 20, random: true},
	}
	// Loads and stores split inside runs, and calls of the rival in
	// between.
	var calls []driveCall
	for rep := 0; rep < 12; rep++ {
		calls = append(calls,
			driveCall{0, 3, 2}, driveCall{0, 0, 5}, driveCall{0, 7, 0},
			driveCall{0, 1, 1}, driveCall{1, 4, 2}, driveCall{0, 16, 9},
			driveCall{0, 0, 0}, driveCall{0, 40, 23}, driveCall{1, 30, 10},
			driveCall{0, 5, 60}, driveCall{0, 1, 0}, driveCall{0, 0, 1})
	}
	l1s := map[string]CacheConfig{
		"table1":      DefaultHierarchyConfig().Levels[0],
		"line-size-1": {CapacityBytes: 64, Associativity: 4, LineSize: 1, HitLatency: 2},
		"line-128":    {CapacityBytes: 4 << 10, Associativity: 2, LineSize: 128, HitLatency: 2},
		"1-way":       {CapacityBytes: 1 << 10, Associativity: 1, LineSize: 64, HitLatency: 2},
	}
	for _, policy := range []Policy{LRU, FIFO, Random} {
		for _, prefetch := range []bool{false, true} {
			for lname, l1 := range l1s {
				l1.Name = lname
				l1.Replacement = policy
				l1.NextLinePrefetch = prefetch
				next := CacheConfig{Name: "next", CapacityBytes: 8 << 10, Associativity: 4,
					LineSize: 64, HitLatency: 9, Replacement: policy, NextLinePrefetch: prefetch}
				for gname, g := range gens {
					if err := checkDrive([]CacheConfig{l1, next}, g, calls); err != nil {
						t.Errorf("%v/prefetch=%v/%s/%s: %v", policy, prefetch, lname, gname, err)
					}
				}
			}
		}
	}
}

// TestDriveProbeStaleHint drives accesses whose hint is stale while
// their line sits valid in another way of its first-level set, so the
// set probe, not the hint or the full walk, serves them: two strided
// generators taking turns over the same two lines of one set, a strided
// generator alone over two lines of one set, and a random generator over
// a few lines. Each runs on 1-, 2- and 64-way first levels under every
// policy, with and without prefetch. Base 0 puts line 0 in play, whose
// tag matches every never-filled way, so a probe that skipped the
// validity check would hit there.
func TestDriveProbeStaleHint(t *testing.T) {
	var calls []driveCall
	for rep := 0; rep < 16; rep++ {
		calls = append(calls,
			driveCall{0, 1, 0}, driveCall{1, 1, 0}, driveCall{0, 2, 1},
			driveCall{1, 0, 1}, driveCall{0, 3, 0}, driveCall{1, 2, 2})
	}
	l1s := map[string]CacheConfig{
		"1-way":  {CapacityBytes: 1 << 10, Associativity: 1, LineSize: 64, HitLatency: 2},
		"2-way":  {CapacityBytes: 2 << 10, Associativity: 2, LineSize: 64, HitLatency: 2},
		"64-way": {CapacityBytes: 4 << 10, Associativity: 64, LineSize: 64, HitLatency: 2},
	}
	for _, policy := range []Policy{LRU, FIFO, Random} {
		for _, prefetch := range []bool{false, true} {
			for lname, l1 := range l1s {
				l1.Name = lname
				l1.Replacement = policy
				l1.NextLinePrefetch = prefetch
				next := CacheConfig{Name: "next", CapacityBytes: 8 << 10, Associativity: 4,
					LineSize: 64, HitLatency: 9, Replacement: policy, NextLinePrefetch: prefetch}
				// One set apart: consecutive strides land in the same set.
				setStride := l1.CapacityBytes / uint64(l1.Associativity)
				for _, base := range []uint64{0, 1 << 36} {
					pair := genSpec{base: base, ws: 2 * setStride, stride: setStride}
					turn := pair
					turn.cursor = setStride
					cases := []struct {
						name        string
						spec, rival genSpec
					}{
						{"two-gens-one-set", pair, turn},
						{"one-gen-one-set", pair, genSpec{base: base + 1<<20, ws: 4 << 10, stride: 8}},
						{"random-few-lines", genSpec{base: base, ws: 256, random: true},
							genSpec{base: base, ws: 256, random: true}},
					}
					for _, c := range cases {
						label := fmt.Sprintf("%v/prefetch=%v/%s/base=%#x/%s", policy, prefetch, lname, base, c.name)
						stale, err := checkDriveAgainst([]CacheConfig{l1, next}, c.spec, c.rival, calls)
						if err != nil {
							t.Errorf("%s: %v", label, err)
						}
						// A direct-mapped set has no other way to find the line in.
						if l1.Associativity > 1 && stale == 0 {
							t.Errorf("%s: no call began with a stale hint", label)
						}
					}
				}
			}
		}
	}
}

// FuzzDriveExact decodes a strided generator, an L1 geometry and policy,
// and a sequence of drive calls, and checks them against the reference
// after every call.
func FuzzDriveExact(f *testing.F) {
	f.Add(uint64(1<<36), uint64(4096), uint64(24), uint64(0), uint8(0x36), uint8(0), false,
		[]byte("\x01\x03\x02\x00\x00\x05\x03\x04\x02\x01\x28\x17"))
	f.Fuzz(func(t *testing.T, base, ws, stride, cursor uint64, geom, policy uint8, prefetch bool, data []byte) {
		// LineSize 1..128, associativity 1..8, 1..8 sets.
		lineSize := uint64(1) << (geom & 7)
		assoc := 1 << ((geom >> 3) & 3)
		sets := uint64(1) << ((geom >> 5) & 3)
		l1 := CacheConfig{Name: "fuzz", CapacityBytes: lineSize * uint64(assoc) * sets,
			Associativity: assoc, LineSize: lineSize, HitLatency: 1,
			Replacement: Policy(policy % 3), NextLinePrefetch: prefetch}
		next := CacheConfig{Name: "next", CapacityBytes: 1 << 10, Associativity: 2,
			LineSize: 64, HitLatency: 5, Replacement: l1.Replacement, NextLinePrefetch: prefetch}
		// Three bytes per call: flags (bit 1 the rival, bit 0 unused),
		// loads, stores.
		var calls []driveCall
		for ; len(data) >= 3; data = data[3:] {
			calls = append(calls, driveCall{gen: int(data[0]>>1) & 1,
				loads: int(data[1]), stores: int(data[2])})
		}
		g := genSpec{base: base, ws: ws, stride: stride, cursor: cursor}
		if err := checkDrive([]CacheConfig{l1, next}, g, calls); err != nil {
			t.Fatal(err)
		}
	})
}
