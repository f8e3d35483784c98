package cmpsim

import "testing"

func TestPolicyStrings(t *testing.T) {
	if LRU.String() != "LRU" || FIFO.String() != "FIFO" || Random.String() != "Random" {
		t.Fatal("policy strings wrong")
	}
	if Policy(9).String() == "" {
		t.Fatal("unknown policy string empty")
	}
}

// twoWaySet builds a 2-way, single-set cache with the given policy.
func twoWaySet(p Policy) *Cache {
	return mustCache(CacheConfig{
		Name: "t", CapacityBytes: 128, Associativity: 2, LineSize: 64,
		HitLatency: 1, Replacement: p,
	})
}

func TestFIFOIgnoresReuse(t *testing.T) {
	c := twoWaySet(FIFO)
	a, b, cc := uint64(0<<6), uint64(1<<6), uint64(2<<6)
	c.Access(a) // fill a (oldest)
	c.Access(b) // fill b
	c.Access(a) // touch a — FIFO must NOT refresh it
	c.Access(cc)
	// FIFO evicts a (oldest fill) despite the recent touch.
	if c.Access(b) == false {
		t.Fatal("FIFO evicted b, want a")
	}
	if c.Access(a) {
		t.Fatal("a survived FIFO eviction despite being oldest fill")
	}
}

func TestLRUHonorsReuseWhereFIFODoesNot(t *testing.T) {
	// Same access pattern as the FIFO test, under LRU: a survives.
	c := twoWaySet(LRU)
	a, b, cc := uint64(0<<6), uint64(1<<6), uint64(2<<6)
	c.Access(a)
	c.Access(b)
	c.Access(a)
	c.Access(cc)
	if !c.Access(a) {
		t.Fatal("LRU evicted the most recently used line")
	}
}

func TestRandomPolicyEventuallyEvictsEitherWay(t *testing.T) {
	// Fill a 2-way set, then repeatedly miss; both resident lines must be
	// chosen as victims at some point.
	c := twoWaySet(Random)
	c.Access(0 << 6)
	c.Access(1 << 6)
	evictedA, evictedB := false, false
	next := uint64(2)
	for i := 0; i < 64 && !(evictedA && evictedB); i++ {
		c.Access(next << 6)
		// Probe which original line is gone without disturbing much: a
		// probe is itself an access, so instead track via re-access cost.
		// Simpler: refill the set with the originals and observe misses.
		hitsBefore := c.Hits
		c.Access(0 << 6)
		if c.Hits == hitsBefore {
			evictedA = true
		}
		hitsBefore = c.Hits
		c.Access(1 << 6)
		if c.Hits == hitsBefore {
			evictedB = true
		}
		next++
	}
	if !evictedA || !evictedB {
		t.Fatalf("random policy never evicted both ways (a=%v b=%v)", evictedA, evictedB)
	}
}

func TestRandomPolicyDeterministic(t *testing.T) {
	run := func() (uint64, uint64) {
		c := mustCache(CacheConfig{
			Name: "d", CapacityBytes: 4 << 10, Associativity: 4, LineSize: 64,
			HitLatency: 1, Replacement: Random,
		})
		for i := uint64(0); i < 10_000; i++ {
			c.Access((i * 2654435761) & 0xFFFFF &^ 63)
		}
		return c.Hits, c.Misses
	}
	h1, m1 := run()
	h2, m2 := run()
	if h1 != h2 || m1 != m2 {
		t.Fatalf("random replacement not deterministic: %d/%d vs %d/%d", h1, m1, h2, m2)
	}
}

func TestPolicyAffectsMissRate(t *testing.T) {
	// A cyclic sweep slightly larger than capacity is the classic LRU
	// pathology: LRU gets zero hits, Random keeps some fraction resident.
	sweep := func(p Policy) (hits uint64) {
		c := mustCache(CacheConfig{
			Name: "s", CapacityBytes: 4 << 10, Associativity: 4, LineSize: 64,
			HitLatency: 1, Replacement: p,
		})
		for pass := 0; pass < 8; pass++ {
			for addr := uint64(0); addr < 5<<10; addr += 64 {
				c.Access(addr)
			}
		}
		return c.Hits
	}
	if lru := sweep(LRU); lru != 0 {
		t.Fatalf("LRU cyclic sweep produced %d hits, want 0", lru)
	}
	if rnd := sweep(Random); rnd == 0 {
		t.Fatal("Random cyclic sweep produced no hits; should beat LRU here")
	}
}

func TestNextLinePrefetchHalvesStridedMisses(t *testing.T) {
	sweep := func(prefetch bool) (misses, fills uint64) {
		c := mustCache(CacheConfig{
			Name: "p", CapacityBytes: 64 << 10, Associativity: 4, LineSize: 64,
			HitLatency: 1, NextLinePrefetch: prefetch,
		})
		for addr := uint64(0); addr < 32<<10; addr += 64 {
			c.Access(addr)
		}
		return c.Misses, c.PrefetchFills
	}
	base, fills0 := sweep(false)
	pref, fills1 := sweep(true)
	if fills0 != 0 {
		t.Fatal("prefetch fills without prefetcher")
	}
	if fills1 == 0 {
		t.Fatal("prefetcher never filled")
	}
	// Next-line on miss exactly halves misses of a unit-line-stride sweep.
	if pref < base/2-1 || pref > base/2+1 {
		t.Fatalf("prefetched sweep missed %d of %d baseline (want ~half)", pref, base)
	}
}

func TestPrefetchDoesNotCountAsDemand(t *testing.T) {
	c := mustCache(CacheConfig{
		Name: "p2", CapacityBytes: 1 << 10, Associativity: 2, LineSize: 64,
		HitLatency: 1, NextLinePrefetch: true,
	})
	c.Access(0) // miss; prefetches line 1
	if c.Hits != 0 || c.Misses != 1 {
		t.Fatalf("hits=%d misses=%d after one access", c.Hits, c.Misses)
	}
	if !c.Access(64) {
		t.Fatal("prefetched line did not hit")
	}
	c.Reset()
	if c.PrefetchFills != 0 {
		t.Fatal("Reset kept prefetch fills")
	}
}

func TestPrefetchIdempotentWhenResident(t *testing.T) {
	c := mustCache(CacheConfig{
		Name: "p3", CapacityBytes: 1 << 10, Associativity: 2, LineSize: 64,
		HitLatency: 1, NextLinePrefetch: true,
	})
	c.Access(64) // fill line 1 (prefetches line 2)
	before := c.PrefetchFills
	c.Access(0) // miss; next-line (line 1) already resident
	if c.PrefetchFills != before {
		t.Fatal("prefetch refilled a resident line")
	}
}
