package cmpsim

import (
	"context"
	"math"
	"testing"
	"testing/quick"

	"xbsim/internal/compiler"
	"xbsim/internal/exec"
	"xbsim/internal/program"
	"xbsim/internal/xrand"
)

// mustCache builds a cache from a config the test knows is valid.
func mustCache(cfg CacheConfig) *Cache {
	c, err := NewCache(cfg)
	if err != nil {
		panic(err)
	}
	return c
}

func TestDefaultConfigMatchesTable1(t *testing.T) {
	cfg := DefaultHierarchyConfig()
	if err := cfg.Validate(); err != nil {
		t.Fatal(err)
	}
	if len(cfg.Levels) != 3 {
		t.Fatalf("%d levels", len(cfg.Levels))
	}
	wantCap := []uint64{32 << 10, 512 << 10, 1024 << 10}
	wantAssoc := []int{2, 8, 16}
	wantLat := []int{3, 14, 35}
	for i, l := range cfg.Levels {
		if l.CapacityBytes != wantCap[i] || l.Associativity != wantAssoc[i] ||
			l.HitLatency != wantLat[i] || l.LineSize != 64 {
			t.Fatalf("level %d = %+v", i, l)
		}
	}
	if cfg.MemoryLatency != 250 {
		t.Fatalf("DRAM latency %d", cfg.MemoryLatency)
	}
}

func TestConfigValidation(t *testing.T) {
	bad := []HierarchyConfig{
		{},
		{Levels: []CacheConfig{{CapacityBytes: 100, Associativity: 2, LineSize: 60}}, MemoryLatency: 1},
		{Levels: []CacheConfig{{CapacityBytes: 128, Associativity: 0, LineSize: 64}}, MemoryLatency: 1},
		{Levels: []CacheConfig{{CapacityBytes: 64 * 3, Associativity: 1, LineSize: 64}}, MemoryLatency: 1},
		{Levels: []CacheConfig{{CapacityBytes: 128, Associativity: 2, LineSize: 64}}, MemoryLatency: 0},
	}
	for i, cfg := range bad {
		if err := cfg.Validate(); err == nil {
			t.Errorf("config %d validated", i)
		}
	}
}

func TestCacheHitAfterFill(t *testing.T) {
	c := mustCache(CacheConfig{CapacityBytes: 1 << 10, Associativity: 2, LineSize: 64, HitLatency: 1})
	if c.Access(0x1000) {
		t.Fatal("cold access hit")
	}
	if !c.Access(0x1000) {
		t.Fatal("second access missed")
	}
	if !c.Access(0x1038) { // same 64B line
		t.Fatal("same-line access missed")
	}
	if c.Hits != 2 || c.Misses != 1 {
		t.Fatalf("hits=%d misses=%d", c.Hits, c.Misses)
	}
}

func TestCacheLRUEviction(t *testing.T) {
	// 2-way, 1 set (128B cache): lines A, B fill the set; touching A then
	// adding C must evict B.
	c := mustCache(CacheConfig{CapacityBytes: 128, Associativity: 2, LineSize: 64, HitLatency: 1})
	a, b, cc := uint64(0<<6), uint64(1<<6), uint64(2<<6)
	c.Access(a)
	c.Access(b)
	c.Access(a)  // A is MRU
	c.Access(cc) // evicts B
	if !c.Access(a) {
		t.Fatal("A evicted despite being MRU")
	}
	if c.Access(b) {
		t.Fatal("B survived despite being LRU")
	}
}

func TestCacheWorkingSetFits(t *testing.T) {
	// Sweeping a working set smaller than capacity twice: second sweep
	// must be all hits.
	c := mustCache(CacheConfig{CapacityBytes: 32 << 10, Associativity: 2, LineSize: 64, HitLatency: 3})
	for pass := 0; pass < 2; pass++ {
		for addr := uint64(0); addr < 16<<10; addr += 64 {
			c.Access(addr)
		}
	}
	if c.Misses != (16<<10)/64 {
		t.Fatalf("misses = %d, want one per line", c.Misses)
	}
}

func TestCacheWorkingSetThrashes(t *testing.T) {
	// Sweeping 2x capacity repeatedly with LRU: every access misses.
	c := mustCache(CacheConfig{CapacityBytes: 4 << 10, Associativity: 2, LineSize: 64, HitLatency: 3})
	for pass := 0; pass < 3; pass++ {
		for addr := uint64(0); addr < 8<<10; addr += 64 {
			c.Access(addr)
		}
	}
	if c.Hits != 0 {
		t.Fatalf("LRU sweep of 2x capacity produced %d hits", c.Hits)
	}
}

func TestCacheResetClears(t *testing.T) {
	c := mustCache(CacheConfig{CapacityBytes: 128, Associativity: 2, LineSize: 64, HitLatency: 1})
	c.Access(0)
	c.Reset()
	if c.Hits != 0 || c.Misses != 0 {
		t.Fatal("stats survived Reset")
	}
	if c.Access(0) {
		t.Fatal("contents survived Reset")
	}
}

func TestCacheNoPhantomHitsProperty(t *testing.T) {
	// Property: an address never accessed before cannot hit.
	c := mustCache(CacheConfig{CapacityBytes: 1 << 10, Associativity: 4, LineSize: 64, HitLatency: 1})
	seen := map[uint64]bool{}
	f := func(raw uint16) bool {
		addr := uint64(raw) << 6
		line := addr >> 6
		hit := c.Access(addr)
		if hit && !seen[line] {
			return false
		}
		seen[line] = true
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

func TestHierarchyLatencies(t *testing.T) {
	h, err := NewHierarchy(DefaultHierarchyConfig())
	if err != nil {
		t.Fatal(err)
	}
	addr := uint64(0x123440)
	if lat := h.Access(addr); lat != 250 {
		t.Fatalf("cold access latency %d, want 250", lat)
	}
	if lat := h.Access(addr); lat != 3 {
		t.Fatalf("warm access latency %d, want 3 (L1 hit)", lat)
	}
	if len(h.levels) != 3 {
		t.Fatal("level count")
	}
	h.Reset()
	if lat := h.Access(addr); lat != 250 {
		t.Fatalf("post-reset latency %d, want 250", lat)
	}
}

func TestHierarchyL2Hit(t *testing.T) {
	h, err := NewHierarchy(DefaultHierarchyConfig())
	if err != nil {
		t.Fatal(err)
	}
	// Fill L1 (32KB) with a 64KB sweep twice; early lines fall out of L1
	// but stay in L2 (512KB), so re-touching address 0 is an L2 hit.
	for addr := uint64(0); addr < 64<<10; addr += 64 {
		h.Access(addr)
	}
	if lat := h.Access(0); lat != 14 {
		t.Fatalf("expected L2 hit (14 cycles), got %d", lat)
	}
}

func compileFor(t testing.TB, name string, tg compiler.Target) *compiler.Binary {
	t.Helper()
	p, err := program.Generate(name, program.GenConfig{TargetOps: 150_000})
	if err != nil {
		t.Fatal(err)
	}
	return compiler.MustCompile(p, tg)
}

var refInput = program.Input{Name: "ref", Seed: 7}

func TestSimulatorFullRun(t *testing.T) {
	bin := compileFor(t, "gzip", compiler.Target{Arch: compiler.Arch32, Opt: compiler.O2})
	sim, err := NewSimulator(bin, DefaultHierarchyConfig())
	if err != nil {
		t.Fatal(err)
	}
	ic := exec.NewInstructionCounter(bin)
	if err := exec.RunCtx(context.Background(), bin, refInput, exec.Multi{sim, ic}); err != nil {
		t.Fatal(err)
	}
	st := sim.Stats()
	if st.Instructions != ic.Instructions {
		t.Fatalf("simulator instrs %d != counter %d", st.Instructions, ic.Instructions)
	}
	if st.Cycles < st.Instructions {
		t.Fatalf("cycles %d < instructions %d (in-order core cannot beat CPI 1)", st.Cycles, st.Instructions)
	}
	cpi := st.CPI()
	if cpi < 1.0 || cpi > 20 {
		t.Fatalf("implausible CPI %v", cpi)
	}
	if st.Loads == 0 || st.Stores == 0 {
		t.Fatal("no memory traffic simulated")
	}
}

func TestSimulatorDeterministic(t *testing.T) {
	bin := compileFor(t, "mcf", compiler.Target{Arch: compiler.Arch64, Opt: compiler.O2})
	run := func() Stats {
		sim, err := NewSimulator(bin, DefaultHierarchyConfig())
		if err != nil {
			t.Fatal(err)
		}
		if err := exec.RunCtx(context.Background(), bin, refInput, sim); err != nil {
			t.Fatal(err)
		}
		return takeStats(sim)
	}
	a, b := run(), run()
	if a.Cycles != b.Cycles || a.Instructions != b.Instructions {
		t.Fatalf("simulation not deterministic: %+v vs %+v", a, b)
	}
}

func TestMemoryBoundBenchmarkHasHigherCPI(t *testing.T) {
	// mcf (random access, multi-MB working sets) must show clearly higher
	// CPI than crafty (small working sets) — the phase-contrast the
	// paper's figures depend on.
	tg := compiler.Target{Arch: compiler.Arch32, Opt: compiler.O2}
	cpi := func(name string) float64 {
		bin := compileFor(t, name, tg)
		sim, err := NewSimulator(bin, DefaultHierarchyConfig())
		if err != nil {
			t.Fatal(err)
		}
		if err := exec.RunCtx(context.Background(), bin, refInput, sim); err != nil {
			t.Fatal(err)
		}
		return sim.Stats().CPI()
	}
	mcf, crafty := cpi("mcf"), cpi("crafty")
	if mcf < crafty*1.5 {
		t.Fatalf("mcf CPI %.2f not clearly above crafty %.2f", mcf, crafty)
	}
}

// takeStats returns s's accumulated statistics and resets its counters,
// keeping the cache contents, so a test can read one window at a time.
func takeStats(s *Simulator) Stats {
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

func TestTakeStatsResetsCounters(t *testing.T) {
	bin := compileFor(t, "art", compiler.Target{Arch: compiler.Arch32, Opt: compiler.O2})
	sim, err := NewSimulator(bin, DefaultHierarchyConfig())
	if err != nil {
		t.Fatal(err)
	}
	if err := exec.RunCtx(context.Background(), bin, refInput, sim); err != nil {
		t.Fatal(err)
	}
	first := takeStats(sim)
	if first.Instructions == 0 {
		t.Fatal("nothing simulated")
	}
	if st := sim.Stats(); st.Instructions != 0 || st.Cycles != 0 {
		t.Fatal("takeStats did not reset")
	}
}

func TestStatsAddAndRates(t *testing.T) {
	a := Stats{Instructions: 20, Cycles: 40, LevelHits: []uint64{9}, LevelMisses: []uint64{3}}
	if got := a.CPI(); got != 2.0 {
		t.Fatalf("CPI = %v", got)
	}
	if got := a.MissRate(0); math.Abs(got-0.25) > 1e-12 {
		t.Fatalf("MissRate = %v", got)
	}
	var empty Stats
	if empty.CPI() != 0 {
		t.Fatal("empty CPI should be 0")
	}
	empty.LevelHits = []uint64{0}
	empty.LevelMisses = []uint64{0}
	if empty.MissRate(0) != 0 {
		t.Fatal("empty MissRate should be 0")
	}
}

func TestNewSimulatorErrors(t *testing.T) {
	if _, err := NewSimulator(nil, DefaultHierarchyConfig()); err == nil {
		t.Fatal("nil binary accepted")
	}
	bin := compileFor(t, "art", compiler.Target{Arch: compiler.Arch32, Opt: compiler.O2})
	if _, err := NewSimulator(bin, HierarchyConfig{}); err == nil {
		t.Fatal("invalid config accepted")
	}
}

func TestAddressGenStride(t *testing.T) {
	g := &addressGen{base: 1 << 36, ws: 256, stride: 64}
	want := []uint64{1 << 36, 1<<36 + 64, 1<<36 + 128, 1<<36 + 192, 1 << 36}
	for i, w := range want {
		if got := g.next(); got != w {
			t.Fatalf("step %d: %#x want %#x", i, got, w)
		}
	}
	// Random generators, with working sets below, at and above the hot
	// set and one that is not a power of two, against the reference.
	seed := uint64(0x5EED)
	for _, ws := range []uint64{64, 4 << 10, hotSetBytes, hotSetBytes + 64, 1 << 20, 3<<20 + 192} {
		for _, line := range []uint64{0, 1, 417} {
			g := &addressGen{base: 3 << 36, ws: ws, random: true, key: xrand.Hash3Prefix(seed, line)}
			ref := &refAddressGen{base: 3 << 36, ws: ws, random: true, seed: seed, line: line}
			for i := 0; i < 20000; i++ {
				if got, want := g.next(), ref.next(); got != want {
					t.Fatalf("ws %d line %d step %d: %#x want %#x", ws, line, i, got, want)
				}
			}
		}
	}
}

// blockRecorder records the dynamic block stream of one execution.
type blockRecorder []int

func (r *blockRecorder) OnBlock(block int) { *r = append(*r, block) }
func (r *blockRecorder) OnMarker(int)      {}

// BenchmarkSimulatorFullRun times full-run simulations of a spill-heavy
// binary (gzip 32-bit O0), a random-access-heavy one (mcf 64-bit O2) and
// a strided floating-point one (swim 64-bit O2).
// The block stream is recorded once and replayed, and the hierarchy comes
// from the process-wide recycler, so an op is the simulator's own work
// rather than the block walk or the allocation of fresh cache state.
// ns/access is that time per simulated load or store, the unit of the
// benchmark's cmpsim.ns_per_access.
func BenchmarkSimulatorFullRun(b *testing.B) {
	for _, c := range []struct {
		name, prog string
		tg         compiler.Target
	}{
		{"gzip-32-O0", "gzip", compiler.Target{Arch: compiler.Arch32, Opt: compiler.O0}},
		{"mcf-64-O2", "mcf", compiler.Target{Arch: compiler.Arch64, Opt: compiler.O2}},
		{"swim-64-O2", "swim", compiler.Target{Arch: compiler.Arch64, Opt: compiler.O2}},
	} {
		b.Run(c.name, func(b *testing.B) {
			p, err := program.Generate(c.prog, program.GenConfig{TargetOps: 2_000_000})
			if err != nil {
				b.Fatal(err)
			}
			bin := compiler.MustCompile(p, c.tg)
			var blocks blockRecorder
			if err := exec.RunCtx(context.Background(), bin, refInput, &blocks); err != nil {
				b.Fatal(err)
			}
			var accesses uint64
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				sim, err := NewSimulator(bin, DefaultHierarchyConfig())
				if err != nil {
					b.Fatal(err)
				}
				for _, blk := range blocks {
					sim.OnBlock(blk)
				}
				accesses += sim.Stats().Loads + sim.Stats().Stores
				sim.Release()
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(accesses), "ns/access")
		})
	}
}
