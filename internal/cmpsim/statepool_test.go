package cmpsim

import (
	"context"
	"fmt"
	"reflect"
	"runtime"
	"sync"
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
		pool := newStatePool(retainBytes)
		fresh, err := newSimulator(bin, cfg, pool)
		if err != nil {
			t.Fatal(err)
		}
		if err := exec.RunCtx(context.Background(), bin, refInput, fresh); err != nil {
			t.Fatal(err)
		}
		wantStats := takeStats(fresh)
		wantEvents := levelCounters(fresh.hier)
		fresh.Release()

		// The fresh run returned a dirtied hierarchy; both later runs must
		// recycle it and still match the fresh run exactly.
		for round := 0; round < 2; round++ {
			sim, err := newSimulator(bin, cfg, pool)
			if err != nil {
				t.Fatal(err)
			}
			if err := exec.RunCtx(context.Background(), bin, refInput, sim); err != nil {
				t.Fatal(err)
			}
			got := takeStats(sim)
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
		if gets, reuses := pool.list.Stats(); gets != 3 || reuses != 2 {
			t.Fatalf("pool stats gets=%d reuses=%d, want 3/2", gets, reuses)
		}
	}
}

func TestStatePoolKeysByConfigDigest(t *testing.T) {
	pool := newStatePool(retainBytes)
	a, err := pool.get(DefaultHierarchyConfig())
	if err != nil {
		t.Fatal(err)
	}
	pool.put(a)
	// A different geometry must not receive the recycled default state.
	b, err := pool.get(randomHierarchy())
	if err != nil {
		t.Fatal(err)
	}
	if b == a {
		t.Fatal("pool recycled a hierarchy across different configs")
	}
	if _, reuses := pool.list.Stats(); reuses != 0 {
		t.Fatalf("reuses = %d, want 0", reuses)
	}
	// Same config does.
	c, err := pool.get(DefaultHierarchyConfig())
	if err != nil {
		t.Fatal(err)
	}
	if c != a {
		t.Fatal("pool did not recycle matching state")
	}
}

// TestStatePoolRetentionCapped pins the bound: the free lists keep at
// most the byte cap of state, across digests, and a put beyond it drops
// the hierarchy instead of filing it.
func TestStatePoolRetentionCapped(t *testing.T) {
	table1, small := DefaultHierarchyConfig(), randomHierarchy()
	pool := newStatePool(2*table1.StateBytes() + small.StateBytes())
	var held []*Hierarchy
	for _, cfg := range []HierarchyConfig{table1, table1, table1, small, small} {
		h, err := pool.get(cfg)
		if err != nil {
			t.Fatal(err)
		}
		held = append(held, h)
	}
	for _, h := range held {
		pool.put(h)
	}
	// Two Table-1 hierarchies and one small one fit; the third Table-1
	// and the second small one are dropped.
	want := 2*table1.StateBytes() + small.StateBytes()
	retained, n := pool.list.Retained(table1.Digest())
	if retained != want {
		t.Fatalf("retained %d bytes, want %d", retained, want)
	}
	if n != 2 {
		t.Errorf("%d free Table-1 hierarchies, want 2", n)
	}
	if _, n := pool.list.Retained(small.Digest()); n != 1 {
		t.Errorf("%d free small hierarchies, want 1", n)
	}
	// Taking one out makes room for exactly one more.
	h, err := pool.get(table1)
	if err != nil {
		t.Fatal(err)
	}
	pool.put(h)
	pool.put(held[2])
	if retained, _ := pool.list.Retained(table1.Digest()); retained != want {
		t.Fatalf("after a get and two puts: retained %d bytes, want %d", retained, want)
	}
	if retainBytes < 16*table1.StateBytes() {
		t.Errorf("the process-wide cap %d keeps fewer than 16 Table-1 hierarchies", retainBytes)
	}
}

// TestStatePoolConcurrent runs simulators from many goroutines, each
// drawing state from one pool and releasing it, and checks that no
// hierarchy is ever held by two of them at once and that every
// recycled run is bit-identical to a fresh one. Run it under -race.
func TestStatePoolConcurrent(t *testing.T) {
	bin := compileFor(t, "art", compiler.Target{Arch: compiler.Arch32, Opt: compiler.O2})
	cfg := randomHierarchy()
	ref, err := newSimulator(bin, cfg, newStatePool(0))
	if err != nil {
		t.Fatal(err)
	}
	if err := exec.RunCtx(context.Background(), bin, refInput, ref); err != nil {
		t.Fatal(err)
	}
	want := takeStats(ref)

	pool := newStatePool(retainBytes)
	var mu sync.Mutex
	inUse := map[*Hierarchy]bool{}
	var wg sync.WaitGroup
	errs := make(chan error, 4)
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for round := 0; round < 3; round++ {
				sim, err := newSimulator(bin, cfg, pool)
				if err != nil {
					errs <- err
					return
				}
				h := sim.hier
				mu.Lock()
				shared := inUse[h]
				inUse[h] = true
				mu.Unlock()
				if shared {
					errs <- fmt.Errorf("one hierarchy handed to two simulators")
					return
				}
				if err := exec.RunCtx(context.Background(), bin, refInput, sim); err != nil {
					errs <- err
					return
				}
				if got := takeStats(sim); !reflect.DeepEqual(got, want) {
					errs <- fmt.Errorf("recycled run %+v, fresh %+v", got, want)
					return
				}
				mu.Lock()
				delete(inUse, h)
				mu.Unlock()
				sim.Release()
				sim.Release() // idempotent: must not file the state twice
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	gets, reuses := pool.list.Stats()
	if gets != 12 {
		t.Fatalf("gets = %d, want 12", gets)
	}
	// At most 4 were in use at once, so at most 4 were ever built, and
	// the free list holds every one of them.
	built := gets - reuses
	if _, free := pool.list.Retained(cfg.Digest()); built > 4 || uint64(free) != built {
		t.Fatalf("built %d hierarchies, %d free; want at most 4, all free", built, free)
	}
}

// TestStatePoolCutsAllocs pins the reuse win: constructing a simulator
// from recycled state must allocate far less than building one from
// scratch, since the hierarchy's line arrays — the dominant allocation —
// are recycled rather than reallocated.
func TestStatePoolCutsAllocs(t *testing.T) {
	bin := compileFor(t, "gzip", compiler.Target{Arch: compiler.Arch32, Opt: compiler.O2})
	cfg := DefaultHierarchyConfig()
	fresh := testing.AllocsPerRun(20, func() {
		if _, err := newSimulator(bin, cfg, newStatePool(retainBytes)); err != nil {
			t.Fatal(err)
		}
	})
	warm, err := NewSimulator(bin, cfg)
	if err != nil {
		t.Fatal(err)
	}
	warm.Release()
	pooled := testing.AllocsPerRun(20, func() {
		sim, err := NewSimulator(bin, cfg)
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
