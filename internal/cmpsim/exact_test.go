package cmpsim

import (
	"fmt"
	"reflect"
	"testing"

	"xbsim/internal/compiler"
	"xbsim/internal/exec"
	"xbsim/internal/xrand"
)

// The tests in this file compare the flat kernel with the reference
// implementation in oracle_test.go access by access.

// cacheOp is one access of a test stream; reset clears both sides first.
type cacheOp struct {
	addr         uint64
	write, reset bool
}

// refLevelCounters is levelCounters for the reference hierarchy.
func refLevelCounters(h *refHierarchy) []uint64 {
	var out []uint64
	for _, c := range h.levels {
		cs := c.counters()
		out = append(out, cs[:]...)
	}
	return out
}

// cacheCounters returns a cache's six event counters in refCache.counters
// order.
func cacheCounters(c *Cache) [6]uint64 {
	return [6]uint64{c.Hits, c.Misses, c.Evictions, c.Writebacks, c.PrefetchFills, c.PrefetchEvictions}
}

// checkLockstep drives a Cache and a Hierarchy built from levels, and their
// references, through ops. After every access it compares the cache's hit
// result and counters, and the hierarchy's latency and every level's
// counters; it returns the first difference.
func checkLockstep(levels []CacheConfig, ops []cacheOp) error {
	cfg := HierarchyConfig{Levels: levels, MemoryLatency: 250}
	c, err := NewCache(levels[0])
	if err != nil {
		return err
	}
	rc, err := newRefCache(levels[0])
	if err != nil {
		return err
	}
	h, err := NewHierarchy(cfg)
	if err != nil {
		return err
	}
	rh, err := newRefHierarchy(cfg)
	if err != nil {
		return err
	}
	for i, op := range ops {
		if op.reset {
			c.Reset()
			rc.Reset()
			h.Reset()
			rh.Reset()
		}
		if got, want := c.AccessRW(op.addr, op.write), rc.AccessRW(op.addr, op.write); got != want {
			return fmt.Errorf("op %d (%+v): cache hit %v, reference %v", i, op, got, want)
		}
		if got, want := cacheCounters(c), rc.counters(); got != want {
			return fmt.Errorf("op %d (%+v): cache counters %v, reference %v", i, op, got, want)
		}
		if got, want := h.AccessRW(op.addr, op.write), rh.AccessRW(op.addr, op.write); got != want {
			return fmt.Errorf("op %d (%+v): hierarchy latency %d, reference %d", i, op, got, want)
		}
		for li, c := range h.levels {
			if got, want := cacheCounters(c), rh.levels[li].counters(); got != want {
				return fmt.Errorf("op %d (%+v): hierarchy level %d counters %v, reference %v", i, op, li, got, want)
			}
		}
	}
	return nil
}

// testStreams returns named access streams scaled to one cache geometry.
// Every stream mixes reads and writes.
func testStreams(cfg CacheConfig) map[string][]cacheOp {
	lines := cfg.CapacityBytes / cfg.LineSize
	sets := lines / uint64(cfg.Associativity)
	rng := xrand.New("cmpsim/exact/" + fmt.Sprint(cfg.CapacityBytes, cfg.Associativity, cfg.LineSize))
	n := int(3*lines) + 64
	withWrites := func(addrs []uint64) []cacheOp {
		ops := make([]cacheOp, len(addrs))
		for i, a := range addrs {
			ops[i] = cacheOp{addr: a, write: rng.Intn(3) == 0}
		}
		return ops
	}
	var strided, halfLine, hotCold, pingPong, oneLine, topOfSpace []uint64
	half := max(cfg.LineSize/2, 1)
	for i := 0; i < n; i++ {
		// Two and a half times the capacity, swept twice.
		strided = append(strided, 0x4000_0000+uint64(i)*cfg.LineSize%(5*cfg.CapacityBytes/2))
		halfLine = append(halfLine, uint64(i)*half)
		if rng.Intn(10) < 9 {
			hotCold = append(hotCold, rng.Uint64n(cfg.CapacityBytes/2+1))
		} else {
			hotCold = append(hotCold, rng.Uint64n(8*cfg.CapacityBytes))
		}
		// Line 0 of set 0 on every other access, between the assoc+1
		// conflicting lines of that set.
		k := uint64(0)
		if i%2 == 1 {
			k = 1 + uint64(i/2)%(uint64(cfg.Associativity)+1)
		}
		pingPong = append(pingPong, k*sets*cfg.LineSize)
		oneLine = append(oneLine, 0x1234*cfg.LineSize+uint64(i)%cfg.LineSize)
		// Next-line prefetches wrap past the top of the address space.
		topOfSpace = append(topOfSpace, ^uint64(0)-rng.Uint64n(4*cfg.LineSize*sets))
	}
	streams := map[string][]cacheOp{
		"strided":      withWrites(strided),
		"half-line":    withWrites(halfLine),
		"hot-cold":     withWrites(hotCold),
		"ping-pong":    withWrites(pingPong),
		"one-line":     withWrites(oneLine),
		"top-of-space": withWrites(topOfSpace),
	}
	// Line address 0 right after Reset, where every way's tag is 0.
	zero := withWrites(hotCold[:min(len(hotCold), 200)])
	zero = append(zero, cacheOp{addr: 0, reset: true}, cacheOp{addr: 0, write: true}, cacheOp{addr: cfg.LineSize - 1})
	for k := uint64(0); k <= uint64(cfg.Associativity); k++ {
		zero = append(zero, cacheOp{addr: k * sets * cfg.LineSize}, cacheOp{addr: 0})
	}
	streams["zero-after-reset"] = zero
	return streams
}

func TestCacheMatchesReference(t *testing.T) {
	geometries := map[string]CacheConfig{
		"1-way":       {CapacityBytes: 4 << 10, Associativity: 1, LineSize: 64, HitLatency: 2},
		"single-set":  {CapacityBytes: 256, Associativity: 4, LineSize: 64, HitLatency: 2},
		"64-way":      {CapacityBytes: 4 << 10, Associativity: 64, LineSize: 64, HitLatency: 2},
		"line-size-1": {CapacityBytes: 64, Associativity: 4, LineSize: 1, HitLatency: 2},
		"line-size-8": {CapacityBytes: 512, Associativity: 2, LineSize: 8, HitLatency: 2},
	}
	for _, l := range DefaultHierarchyConfig().Levels {
		geometries[l.Name] = l
	}
	for _, policy := range []Policy{LRU, FIFO, Random} {
		for _, prefetch := range []bool{false, true} {
			for gname, geom := range geometries {
				geom.Name = gname
				geom.Replacement = policy
				geom.NextLinePrefetch = prefetch
				// The hierarchy's second level shares the policy and
				// prefetcher, so fills and victims below L1 are checked too.
				next := CacheConfig{Name: "next", CapacityBytes: 8 << 10, Associativity: 4,
					LineSize: 64, HitLatency: 9, Replacement: policy, NextLinePrefetch: prefetch}
				for sname, ops := range testStreams(geom) {
					name := fmt.Sprintf("%v/prefetch=%v/%s/%s", policy, prefetch, gname, sname)
					if err := checkLockstep([]CacheConfig{geom, next}, ops); err != nil {
						t.Errorf("%s: %v", name, err)
					}
				}
			}
		}
	}
}

// lockstep drives a Simulator and its reference over one execution,
// flipping both gates every `every` blocks and comparing the statistics
// window each flip closes.
type lockstep struct {
	sim   *Simulator
	ref   *refSimulator
	every int
	n     int
	err   error
}

func (l *lockstep) OnBlock(block int) {
	l.n++
	if l.n%l.every == 0 {
		if got, want := l.sim.TakeStats(), l.ref.TakeStats(); l.err == nil && !reflect.DeepEqual(got, want) {
			l.err = fmt.Errorf("window ending at block %d: %+v, reference %+v", l.n, got, want)
		}
		l.sim.SetEnabled(!l.sim.Enabled())
		l.ref.enabled = !l.ref.enabled
	}
	l.sim.OnBlock(block)
	l.ref.OnBlock(block)
}

func (l *lockstep) OnMarker(int) {}

func TestSimulatorMatchesReference(t *testing.T) {
	randomPrefetch, fifo := DefaultHierarchyConfig(), DefaultHierarchyConfig()
	for i := range randomPrefetch.Levels {
		randomPrefetch.Levels[i].Replacement = Random
		randomPrefetch.Levels[i].NextLinePrefetch = true
		fifo.Levels[i].Replacement = FIFO
	}
	configs := []struct {
		name string
		hier HierarchyConfig
	}{
		{"table1", DefaultHierarchyConfig()},
		{"random-prefetch", randomPrefetch},
		{"fifo", fifo},
	}
	targets := []compiler.Target{{Arch: compiler.Arch32, Opt: compiler.O0}, {Arch: compiler.Arch64, Opt: compiler.O2}}
	// One pool across every run, so recycled hierarchies are checked too.
	pool := NewStatePool()
	for _, prog := range []string{"gzip", "mcf", "swim", "applu"} {
		for _, tg := range targets {
			bin := compileFor(t, prog, tg)
			for _, cfg := range configs {
				for _, warming := range []bool{true, false} {
					name := fmt.Sprintf("%s/%v/%s/warming=%v", prog, tg, cfg.name, warming)
					sim, err := newSimulator(bin, cfg.hier, pool)
					if err != nil {
						t.Fatal(err)
					}
					ref, err := newRefSimulator(bin, cfg.hier)
					if err != nil {
						t.Fatal(err)
					}
					sim.SetFunctionalWarming(warming)
					ref.warming = warming
					l := &lockstep{sim: sim, ref: ref, every: 997}
					if err := exec.Run(bin, refInput, l); err != nil {
						t.Fatal(err)
					}
					if l.err != nil {
						t.Errorf("%s: %v", name, l.err)
					}
					if got, want := *sim.Stats(), ref.stats; !reflect.DeepEqual(got, want) {
						t.Errorf("%s: final stats %+v, reference %+v", name, got, want)
					}
					if got, want := levelCounters(sim.Hierarchy()), refLevelCounters(ref.hier); !reflect.DeepEqual(got, want) {
						t.Errorf("%s: event counters %v, reference %v", name, got, want)
					}
					sim.Release()
				}
			}
		}
	}
}

// A spill stack moved to address 0 makes line 0 the first line the
// simulator touches, while every way of a fresh or reset cache holds tag
// 0: only the stamp tells those ways are invalid.
func TestSimulatorLineZeroMatchesReference(t *testing.T) {
	bin := compileFor(t, "gzip", compiler.Target{Arch: compiler.Arch32, Opt: compiler.O0})
	pool := NewStatePool()
	for run := 0; run < 2; run++ { // the second run recycles the first's hierarchy
		sim, err := newSimulator(bin, DefaultHierarchyConfig(), pool)
		if err != nil {
			t.Fatal(err)
		}
		ref, err := newRefSimulator(bin, DefaultHierarchyConfig())
		if err != nil {
			t.Fatal(err)
		}
		sim.stackGen.base, ref.stackGen.base = 0, 0
		l := &lockstep{sim: sim, ref: ref, every: 997}
		if err := exec.Run(bin, refInput, l); err != nil {
			t.Fatal(err)
		}
		if l.err != nil {
			t.Errorf("run %d: %v", run, l.err)
		}
		if got, want := levelCounters(sim.Hierarchy()), refLevelCounters(ref.hier); !reflect.DeepEqual(got, want) {
			t.Errorf("run %d: event counters %v, reference %v", run, got, want)
		}
		sim.Release()
	}
}

// FuzzCacheExact decodes a cache geometry, policy and access stream, and
// checks the flat cache and a two-level hierarchy over it against the
// reference after every access.
func FuzzCacheExact(f *testing.F) {
	f.Add([]byte("\x00\x00\x00\x01\x00\x00\x00\x00\x00"), uint8(0), uint8(0), false)
	f.Add([]byte("\x04\x10\x00\x0f\x00\x00\x01\x00\x00\x00\x10\x00"), uint8(0x48), uint8(2), true)
	f.Fuzz(func(t *testing.T, data []byte, geom, policy uint8, prefetch bool) {
		// LineSize 1..128, associativity 1..8, 1..8 sets.
		lineSize := uint64(1) << (geom & 7)
		assoc := 1 << ((geom >> 3) & 3)
		sets := uint64(1) << ((geom >> 5) & 3)
		cfg := CacheConfig{Name: "fuzz", CapacityBytes: lineSize * uint64(assoc) * sets,
			Associativity: assoc, LineSize: lineSize, HitLatency: 1,
			Replacement: Policy(policy % 3), NextLinePrefetch: prefetch}
		next := CacheConfig{Name: "next", CapacityBytes: 1 << 10, Associativity: 2,
			LineSize: 64, HitLatency: 5, Replacement: cfg.Replacement, NextLinePrefetch: prefetch}
		// Three bytes per access: flags, then a 16-bit index scaled by half
		// a line, so streams revisit lines and collide in sets.
		var ops []cacheOp
		for ; len(data) >= 3; data = data[3:] {
			flags := data[0]
			addr := (uint64(data[1]) | uint64(data[2])<<8) * max(lineSize/2, 1)
			if flags&4 != 0 {
				addr = ^addr // the top of the address space
			}
			ops = append(ops, cacheOp{addr: addr, write: flags&1 != 0, reset: flags&0xF0 == 0xF0})
		}
		if err := checkLockstep([]CacheConfig{cfg, next}, ops); err != nil {
			t.Fatal(err)
		}
	})
}

// The generator's integer hot test and mask must select exactly what the
// float comparison and the modulus did.
func TestHotTestMatchesFloat(t *testing.T) {
	for x := uint64(0); x < 256; x++ {
		if got, want := x <= hotTopByteMax, float64(x)/256 < hotFraction; got != want {
			t.Errorf("top byte %d: integer hot test %v, float %v", x, got, want)
		}
	}
	s := xrand.New("hot-mask")
	for i := 0; i < 10000; i++ {
		h := s.Uint64()
		if got, want := h&(hotSetBytes-1), h%hotSetBytes; got != want {
			t.Fatalf("%#x: mask %d, modulus %d", h, got, want)
		}
	}
}
