package cmpsim

import (
	"context"
	"runtime"
	"testing"

	"xbsim/internal/compiler"
	"xbsim/internal/exec"
)

// randomHierarchy is a small hierarchy using the Random replacement
// policy — the one stateful policy whose reuse depends on Cache.Reset
// re-seeding the replacement stream.
func randomHierarchy() HierarchyConfig {
	return HierarchyConfig{
		Levels: []CacheConfig{
			{Name: "L1R", CapacityBytes: 4 << 10, Associativity: 4, LineSize: 64, HitLatency: 3, Replacement: Random},
		},
		MemoryLatency: 100,
	}
}

// levelCounters flattens a hierarchy's event counters for comparison.
func levelCounters(h *Hierarchy) []uint64 {
	var out []uint64
	for _, c := range h.levels {
		out = append(out, c.Hits, c.Misses, c.Evictions, c.Writebacks,
			c.PrefetchFills, c.PrefetchEvictions)
	}
	return out
}

func TestCacheResetReseedsRandomStream(t *testing.T) {
	c := mustCache(CacheConfig{CapacityBytes: 256, Associativity: 4, LineSize: 64,
		HitLatency: 1, Replacement: Random})
	drive := func() (hits, misses uint64) {
		// A 2x-capacity sweep repeated: hit/miss outcomes depend entirely
		// on the random victim choices.
		for pass := 0; pass < 4; pass++ {
			for addr := uint64(0); addr < 512; addr += 64 {
				c.Access(addr)
			}
		}
		return c.Hits, c.Misses
	}
	h1, m1 := drive()
	c.Reset()
	h2, m2 := drive()
	if h1 != h2 || m1 != m2 {
		t.Fatalf("Random-policy cache not bit-identical after Reset: %d/%d vs %d/%d",
			h1, m1, h2, m2)
	}
}

func TestStatePoolReuseBitIdentical(t *testing.T) {
	bin := compileFor(t, "mcf", compiler.Target{Arch: compiler.Arch32, Opt: compiler.O2})
	for _, cfg := range []HierarchyConfig{DefaultHierarchyConfig(), randomHierarchy()} {
		fresh, err := NewSimulator(bin, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if err := exec.RunCtx(context.Background(), bin, refInput, fresh); err != nil {
			t.Fatal(err)
		}
		wantStats := fresh.TakeStats()
		wantEvents := levelCounters(fresh.hier)

		pool := NewStatePool()
		// First pooled run dirties a hierarchy and returns it; the second
		// must recycle it and still match the fresh run exactly.
		for round := 0; round < 2; round++ {
			sim, err := NewSimulatorPooled(bin, cfg, pool)
			if err != nil {
				t.Fatal(err)
			}
			if err := exec.RunCtx(context.Background(), bin, refInput, sim); err != nil {
				t.Fatal(err)
			}
			got := sim.TakeStats()
			gotEvents := levelCounters(sim.hier)
			sim.Release()
			if got.Instructions != wantStats.Instructions || got.Cycles != wantStats.Cycles ||
				got.Loads != wantStats.Loads || got.Stores != wantStats.Stores ||
				got.MemoryAccesses != wantStats.MemoryAccesses {
				t.Fatalf("round %d: pooled stats %+v != fresh %+v", round, got, wantStats)
			}
			for i := range wantEvents {
				if gotEvents[i] != wantEvents[i] {
					t.Fatalf("round %d: event counter %d = %d, fresh %d",
						round, i, gotEvents[i], wantEvents[i])
				}
			}
		}
		if gets, reuses := pool.Stats(); gets != 2 || reuses != 1 {
			t.Fatalf("pool stats gets=%d reuses=%d, want 2/1", gets, reuses)
		}
	}
}

func TestStatePoolKeysByConfigDigest(t *testing.T) {
	pool := NewStatePool()
	a, err := pool.Get(DefaultHierarchyConfig())
	if err != nil {
		t.Fatal(err)
	}
	pool.Put(a)
	// A different geometry must not receive the recycled default state.
	b, err := pool.Get(randomHierarchy())
	if err != nil {
		t.Fatal(err)
	}
	if b == a {
		t.Fatal("pool recycled a hierarchy across different configs")
	}
	if _, reuses := pool.Stats(); reuses != 0 {
		t.Fatalf("reuses = %d, want 0", reuses)
	}
	// Same config does.
	c, err := pool.Get(DefaultHierarchyConfig())
	if err != nil {
		t.Fatal(err)
	}
	if c != a {
		t.Fatal("pool did not recycle matching state")
	}
}

func TestStatePoolNilSafe(t *testing.T) {
	var pool *StatePool
	h, err := pool.Get(DefaultHierarchyConfig())
	if err != nil || h == nil {
		t.Fatalf("nil pool Get: %v %v", h, err)
	}
	pool.Put(h) // must not panic
	if g, r := pool.Stats(); g != 0 || r != 0 {
		t.Fatal("nil pool reported stats")
	}
	bin := compileFor(t, "art", compiler.Target{Arch: compiler.Arch32, Opt: compiler.O2})
	sim, err := NewSimulatorPooled(bin, DefaultHierarchyConfig(), nil)
	if err != nil {
		t.Fatal(err)
	}
	sim.Release()
	sim.Release() // idempotent
}

// TestStatePoolCutsAllocs pins the reuse win: constructing a simulator
// from recycled pool state must allocate far less than building one from
// scratch, since the hierarchy's line arrays — the dominant allocation —
// are recycled rather than reallocated.
func TestStatePoolCutsAllocs(t *testing.T) {
	bin := compileFor(t, "gzip", compiler.Target{Arch: compiler.Arch32, Opt: compiler.O2})
	cfg := DefaultHierarchyConfig()
	fresh := testing.AllocsPerRun(20, func() {
		if _, err := NewSimulator(bin, cfg); err != nil {
			t.Fatal(err)
		}
	})
	pool := NewStatePool()
	warm, err := NewSimulatorPooled(bin, cfg, pool)
	if err != nil {
		t.Fatal(err)
	}
	warm.Release()
	pooled := testing.AllocsPerRun(20, func() {
		sim, err := NewSimulatorPooled(bin, cfg, pool)
		if err != nil {
			t.Fatal(err)
		}
		sim.Release()
	})
	if pooled >= fresh {
		t.Fatalf("pooled construction allocs/op %.0f not below fresh %.0f", pooled, fresh)
	}
}

// TestStateBytesMatchesAllocation pins StateBytes to what NewHierarchy
// really allocates: the bytes it adds to TotalAlloc, less a fixed
// overhead for the Hierarchy and Cache structs, the level and latency
// slices, the digest and the Random policy's stream.
func TestStateBytesMatchesAllocation(t *testing.T) {
	const overhead = 2 << 10
	for _, cfg := range []HierarchyConfig{DefaultHierarchyConfig(), randomHierarchy()} {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		h, err := NewHierarchy(cfg)
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatal(err)
		}
		runtime.KeepAlive(h)
		got, want := after.TotalAlloc-before.TotalAlloc, cfg.StateBytes()
		if got < want || got-want > overhead {
			t.Errorf("%s: NewHierarchy allocated %d bytes, StateBytes %d (+ at most %d overhead)",
				cfg.Levels[0].Name, got, want, overhead)
		}
	}
	if got := DefaultHierarchyConfig().StateBytes(); got != 25088*17 {
		t.Errorf("Table 1 StateBytes = %d, want %d (25,088 lines x 17 bytes)", got, 25088*17)
	}
}
