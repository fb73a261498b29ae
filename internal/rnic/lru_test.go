package rnic

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestLRUBasicHitMiss(t *testing.T) {
	c := NewLRU(2)
	if c.Access(1) {
		t.Fatal("first access should miss")
	}
	if !c.Access(1) {
		t.Fatal("second access should hit")
	}
	if c.Hits() != 1 || c.Misses() != 1 {
		t.Fatalf("hits=%d misses=%d, want 1/1", c.Hits(), c.Misses())
	}
	if c.HitRate() != 0.5 {
		t.Fatalf("hit rate=%v, want 0.5", c.HitRate())
	}
}

func TestLRUEviction(t *testing.T) {
	c := NewLRU(2)
	c.Access(1)
	c.Access(2)
	c.Access(1) // 1 is now MRU; 2 is LRU
	c.Access(3) // evicts 2
	if !c.Contains(1) || c.Contains(2) || !c.Contains(3) {
		t.Fatalf("residency after eviction wrong: 1=%v 2=%v 3=%v",
			c.Contains(1), c.Contains(2), c.Contains(3))
	}
}

func TestLRUZeroCapacityAlwaysMisses(t *testing.T) {
	c := NewLRU(0)
	for i := 0; i < 10; i++ {
		if c.Access(7) {
			t.Fatal("zero-capacity cache must always miss")
		}
	}
	if c.Len() != 0 {
		t.Fatal("zero-capacity cache must stay empty")
	}
	if NewLRU(-5).Cap() != 0 {
		t.Fatal("negative capacity should clamp to 0")
	}
}

func TestLRUWorkingSetFits(t *testing.T) {
	c := NewLRU(64)
	// Warm up a 64-entry working set, then it must always hit.
	for pass := 0; pass < 3; pass++ {
		for k := uint64(0); k < 64; k++ {
			hit := c.Access(k)
			if pass > 0 && !hit {
				t.Fatalf("pass %d key %d missed though set fits", pass, k)
			}
		}
	}
}

func TestLRUSequentialScanLargerThanCache(t *testing.T) {
	c := NewLRU(16)
	// A circular scan over 32 keys through a 16-entry LRU always misses.
	for pass := 0; pass < 3; pass++ {
		for k := uint64(0); k < 32; k++ {
			if c.Access(k) && pass > 0 {
				t.Fatal("circular over-capacity scan should thrash")
			}
		}
	}
}

// Property: Len never exceeds capacity, and the most recently accessed key is
// always resident (capacity >= 1).
func TestLRUInvariantsProperty(t *testing.T) {
	f := func(seed int64, capRaw uint8, n uint8) bool {
		capacity := int(capRaw%32) + 1
		rng := rand.New(rand.NewSource(seed))
		c := NewLRU(capacity)
		for i := 0; i < int(n); i++ {
			k := uint64(rng.Intn(64))
			c.Access(k)
			if c.Len() > capacity {
				return false
			}
			if !c.Contains(k) {
				return false
			}
		}
		return c.Hits()+c.Misses() == int64(n)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: the cache retains exactly the `capacity` most recently used
// distinct keys.
func TestLRURetainsMostRecentProperty(t *testing.T) {
	f := func(seed int64, n uint8) bool {
		const capacity = 8
		rng := rand.New(rand.NewSource(seed))
		c := NewLRU(capacity)
		var trace []uint64
		for i := 0; i < int(n)+capacity; i++ {
			k := uint64(rng.Intn(24))
			c.Access(k)
			trace = append(trace, k)
		}
		// Compute the expected resident set from the trace.
		seen := map[uint64]bool{}
		var expect []uint64
		for i := len(trace) - 1; i >= 0 && len(expect) < capacity; i-- {
			if !seen[trace[i]] {
				seen[trace[i]] = true
				expect = append(expect, trace[i])
			}
		}
		for _, k := range expect {
			if !c.Contains(k) {
				return false
			}
		}
		return c.Len() == len(expect)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// The steady-state hot path is allocation-free: once the node pool is carved
// out at construction, neither hits nor evicting misses touch the heap.
func TestLRUSteadyStateAllocFree(t *testing.T) {
	c := NewLRU(16)
	for k := uint64(0); k < 16; k++ {
		c.Access(k) // populate: map growth may allocate here, once
	}
	allocs := testing.AllocsPerRun(100, func() {
		c.Access(3)   // hit
		c.Access(999) // evicting miss
		c.Access(999) // hit on the fresh entry
	})
	if allocs != 0 {
		t.Fatalf("steady-state Access allocates %.1f/op, want 0", allocs)
	}
}

func BenchmarkLRUAccessMix(b *testing.B) {
	c := NewLRU(64)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Access(uint64(i % 96)) // ~2/3 hits, 1/3 evicting misses
	}
}
