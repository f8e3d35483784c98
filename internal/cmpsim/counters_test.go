package cmpsim

import (
	"context"
	"strings"
	"testing"

	"xbsim/internal/compiler"
	"xbsim/internal/exec"
	"xbsim/internal/obs"
)

// oneSet returns a 2-way single-set cache so victim selection is fully
// hand-predictable: line addresses 0, 64, 128, ... all map to set 0.
func oneSet(prefetch bool) *Cache {
	return mustCache(CacheConfig{
		Name: "1set", CapacityBytes: 128, Associativity: 2, LineSize: 64,
		HitLatency: 1, NextLinePrefetch: prefetch,
	})
}

// TestEvictionAndWritebackCounts walks a handcrafted access sequence
// through a 2-way single-set cache and pins every counter transition:
// filling invalid ways evicts nothing, displacing a clean line counts
// only an eviction, displacing a dirty line counts an eviction and a
// writeback, and a write hit dirties the resident line.
func TestEvictionAndWritebackCounts(t *testing.T) {
	c := oneSet(false)
	check := func(step string, hits, misses, evictions, writebacks uint64) {
		t.Helper()
		if c.Hits != hits || c.Misses != misses || c.Evictions != evictions || c.Writebacks != writebacks {
			t.Fatalf("%s: hits/misses/evictions/writebacks = %d/%d/%d/%d, want %d/%d/%d/%d",
				step, c.Hits, c.Misses, c.Evictions, c.Writebacks, hits, misses, evictions, writebacks)
		}
	}

	c.AccessRW(0, true) // miss, fills invalid way 0, dirty
	check("write miss into invalid way", 0, 1, 0, 0)
	c.AccessRW(64, false) // miss, fills invalid way 1, clean
	check("read miss into invalid way", 0, 2, 0, 0)
	c.AccessRW(128, false) // miss, evicts LRU line 0 (dirty)
	check("read miss displacing dirty line", 0, 3, 1, 1)
	c.AccessRW(192, false) // miss, evicts LRU line 64 (clean)
	check("read miss displacing clean line", 0, 4, 2, 1)
	c.AccessRW(128, true) // write hit marks line 128 dirty
	check("write hit", 1, 4, 2, 1)
	c.AccessRW(256, false) // miss, evicts LRU line 192 (clean)
	check("read miss displacing clean line again", 1, 5, 3, 1)
	c.AccessRW(320, false) // miss, evicts line 128 (dirtied by the write hit)
	check("read miss displacing write-hit-dirtied line", 1, 6, 4, 2)
}

// TestSingleLineEvictionCounts is the 1-way/single-set edge case: every
// conflict miss after the first fill evicts, and only written lines ever
// write back.
func TestSingleLineEvictionCounts(t *testing.T) {
	c := mustCache(CacheConfig{
		Name: "1line", CapacityBytes: 64, Associativity: 1, LineSize: 64, HitLatency: 1,
	})
	// Ping-pong reads between two conflicting lines: all misses, an
	// eviction per miss after the first, never a writeback.
	for i := 0; i < 6; i++ {
		c.AccessRW(uint64(i%2)*64, false)
	}
	if c.Hits != 0 || c.Misses != 6 || c.Evictions != 5 || c.Writebacks != 0 {
		t.Fatalf("read ping-pong: hits/misses/evictions/writebacks = %d/%d/%d/%d, want 0/6/5/0",
			c.Hits, c.Misses, c.Evictions, c.Writebacks)
	}
	c.Reset()
	// The same ping-pong with writes: every evicted line is dirty.
	for i := 0; i < 6; i++ {
		c.AccessRW(uint64(i%2)*64, true)
	}
	if c.Evictions != 5 || c.Writebacks != 5 {
		t.Fatalf("write ping-pong: evictions/writebacks = %d/%d, want 5/5",
			c.Evictions, c.Writebacks)
	}
}

// TestPrefetchCounters pins the prefetch-side event accounting in the
// single-set cache: prefetch insertions, prefetch-caused evictions, and
// the writeback when a prefetch displaces a dirty line.
func TestPrefetchCounters(t *testing.T) {
	c := oneSet(true)

	c.AccessRW(0, false) // miss fills way 0; prefetches line 64 into invalid way 1
	if c.PrefetchFills != 1 || c.PrefetchEvictions != 0 {
		t.Fatalf("after cold miss: PrefetchFills/PrefetchEvictions = %d/%d, want 1/0",
			c.PrefetchFills, c.PrefetchEvictions)
	}
	c.AccessRW(64, true) // hit the prefetched line, dirty it
	if c.Hits != 1 {
		t.Fatalf("prefetched line did not hit")
	}
	// Miss on line 128: the demand fill evicts clean line 0 (LRU), then
	// the triggered prefetch of line 192 must displace dirty line 64 —
	// a prefetch eviction that writes back.
	c.AccessRW(128, false)
	if c.Evictions != 1 || c.PrefetchEvictions != 1 {
		t.Fatalf("Evictions/PrefetchEvictions = %d/%d, want 1/1", c.Evictions, c.PrefetchEvictions)
	}
	if c.Writebacks != 1 {
		t.Fatalf("Writebacks = %d, want 1 (dirty line displaced by prefetch)", c.Writebacks)
	}
	if c.PrefetchFills != 2 {
		t.Fatalf("PrefetchFills = %d, want 2", c.PrefetchFills)
	}
	// Prefetched lines arrive clean: evicting line 192 must not write back.
	c.AccessRW(256, false) // evicts line 192 or 128 (LRU = prefetch-filled 192)
	if c.Writebacks != 1 {
		t.Fatalf("Writebacks = %d after evicting clean prefetched line, want still 1", c.Writebacks)
	}
}

// TestPrefetchSuppressedCountsNothing pins that the demand-line
// protection in prefetch (1-way caches) increments no prefetch counters
// when the insertion is suppressed.
func TestPrefetchSuppressedCountsNothing(t *testing.T) {
	c := mustCache(CacheConfig{
		Name: "1line", CapacityBytes: 64, Associativity: 1, LineSize: 64,
		HitLatency: 1, NextLinePrefetch: true,
	})
	c.AccessRW(0, true)
	if c.PrefetchFills != 0 || c.PrefetchEvictions != 0 || c.Writebacks != 0 {
		t.Fatalf("suppressed prefetch touched counters: fills/evictions/writebacks = %d/%d/%d",
			c.PrefetchFills, c.PrefetchEvictions, c.Writebacks)
	}
}

// TestAccessRWPreservesHitMissBehavior pins the determinism contract:
// the write flag changes only the event counters, never hit/miss results
// or victim choice, so a write stream and a read stream over the same
// addresses see bit-identical hit sequences.
func TestAccessRWPreservesHitMissBehavior(t *testing.T) {
	for _, p := range []Policy{LRU, FIFO, Random} {
		t.Run(p.String(), func(t *testing.T) {
			cfg := CacheConfig{
				Name: "cmp-" + p.String(), CapacityBytes: 512, Associativity: 2,
				LineSize: 64, HitLatency: 1, Replacement: p,
			}
			reads := mustCache(cfg)
			writes := mustCache(cfg)
			addrs := []uint64{0, 64, 512, 0, 1024, 64, 2048, 512, 0, 64, 4096, 0}
			for i, a := range addrs {
				rh := reads.AccessRW(a, false)
				wh := writes.AccessRW(a, true)
				if rh != wh {
					t.Fatalf("access %d (%#x): read hit=%v write hit=%v", i, a, rh, wh)
				}
			}
			if reads.Hits != writes.Hits || reads.Misses != writes.Misses ||
				reads.Evictions != writes.Evictions {
				t.Fatalf("hits/misses/evictions diverged: reads %d/%d/%d writes %d/%d/%d",
					reads.Hits, reads.Misses, reads.Evictions,
					writes.Hits, writes.Misses, writes.Evictions)
			}
			if writes.Writebacks == 0 {
				t.Error("write stream produced no writebacks")
			}
			if reads.Writebacks != 0 {
				t.Errorf("read stream wrote back %d lines", reads.Writebacks)
			}
		})
	}
}

// TestResetClearsEventCounters pins that Reset clears the new event
// counters along with the legacy hit/miss pair.
func TestResetClearsEventCounters(t *testing.T) {
	c := oneSet(true)
	for i := uint64(0); i < 8; i++ {
		c.AccessRW(i*64, true)
	}
	c.Reset()
	if c.Hits|c.Misses|c.Evictions|c.Writebacks|c.PrefetchFills|c.PrefetchEvictions != 0 {
		t.Fatalf("counters survive Reset: %+v", *c)
	}
	if c.Access(0) {
		t.Fatal("line survived Reset")
	}
}

// TestPublishMetricsEventCounters pins that the per-level event counters
// flow into the registry under the documented names.
func TestPublishMetricsEventCounters(t *testing.T) {
	bin := compileFor(t, "gzip", compiler.Target{Arch: compiler.Arch32, Opt: compiler.O2})
	sim, err := NewSimulator(bin, DefaultHierarchyConfig())
	if err != nil {
		t.Fatal(err)
	}
	// Drive enough stores through a tiny L1 to force dirty evictions.
	l1 := sim.hier.levels[0]
	for i := uint64(0); i < 4096; i++ {
		l1.AccessRW(i*64, true)
	}
	reg := obs.NewRegistry()
	sim.PublishMetrics(reg, "sim.full")
	snap := reg.Snapshot()
	for _, name := range []string{
		"sim.full.cache.l1.evictions",
		"sim.full.cache.l1.writebacks",
		"sim.full.cache.l1.prefetch_fills",
		"sim.full.cache.l1.prefetch_evictions",
	} {
		if _, ok := snap.Counters[name]; !ok {
			t.Errorf("counter %q not published", name)
		}
	}
	if snap.Counters["sim.full.cache.l1.evictions"] == 0 ||
		snap.Counters["sim.full.cache.l1.writebacks"] == 0 {
		t.Errorf("eviction/writeback counters zero after dirty sweep: %v/%v",
			snap.Counters["sim.full.cache.l1.evictions"],
			snap.Counters["sim.full.cache.l1.writebacks"])
	}
}

// Release keeps the Stats value readable, so PublishMetrics after it
// publishes the Stats-window families and skips the event families that
// went back to the recycler with the hierarchy.
func TestPublishMetricsAfterRelease(t *testing.T) {
	bin := compileFor(t, "gzip", compiler.Target{Arch: compiler.Arch32, Opt: compiler.O2})
	sim, err := NewSimulator(bin, DefaultHierarchyConfig())
	if err != nil {
		t.Fatal(err)
	}
	if err := exec.RunCtx(context.Background(), bin, refInput, sim); err != nil {
		t.Fatal(err)
	}
	before := obs.NewRegistry()
	sim.PublishMetrics(before, "sim")
	sim.Release()
	after := obs.NewRegistry()
	sim.PublishMetrics(after, "sim")
	want, got := before.Snapshot().Counters, after.Snapshot().Counters
	for name, v := range want {
		event := strings.HasSuffix(name, "evictions") || strings.HasSuffix(name, "writebacks") ||
			strings.HasSuffix(name, "prefetch_fills")
		if g, ok := got[name]; event && ok {
			t.Errorf("%s published after Release", name)
		} else if !event && (!ok || g != v) {
			t.Errorf("%s = %d (published %v) after Release, %d before", name, g, ok, v)
		}
	}
	if got["sim.instructions"] == 0 || got["sim.cache.l1.hits"] == 0 {
		t.Errorf("empty Stats window after Release: %v", got)
	}
}

// TestHierarchyConfigDigest pins the digest's contract: deterministic,
// and sensitive to every configuration field the simulation depends on.
func TestHierarchyConfigDigest(t *testing.T) {
	base := DefaultHierarchyConfig()
	d := base.Digest()
	if d == "" || d != base.Digest() {
		t.Fatalf("digest not deterministic: %q vs %q", d, base.Digest())
	}
	mutate := []struct {
		name string
		fn   func(*HierarchyConfig)
	}{
		{"capacity", func(c *HierarchyConfig) { c.Levels[0].CapacityBytes *= 2 }},
		{"associativity", func(c *HierarchyConfig) { c.Levels[1].Associativity = 4 }},
		{"line-size", func(c *HierarchyConfig) { c.Levels[0].LineSize = 128 }},
		{"hit-latency", func(c *HierarchyConfig) { c.Levels[2].HitLatency++ }},
		{"policy", func(c *HierarchyConfig) { c.Levels[0].Replacement = FIFO }},
		{"prefetch", func(c *HierarchyConfig) { c.Levels[0].NextLinePrefetch = true }},
		{"memory-latency", func(c *HierarchyConfig) { c.MemoryLatency++ }},
		{"name", func(c *HierarchyConfig) { c.Levels[0].Name = "other" }},
	}
	for _, m := range mutate {
		t.Run(m.name, func(t *testing.T) {
			cfg := DefaultHierarchyConfig()
			m.fn(&cfg)
			if cfg.Digest() == d {
				t.Errorf("digest insensitive to %s", m.name)
			}
		})
	}
	if strings.ContainsAny(d, "/ ") {
		t.Errorf("digest %q contains separator characters", d)
	}
}
