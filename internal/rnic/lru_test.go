package rnic

import (
	"fmt"
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
}

func TestLRUEviction(t *testing.T) {
	c := NewLRU(2)
	c.Access(1)
	c.Access(2)
	c.Access(1) // 1 is now MRU; 2 is LRU
	c.Access(3) // evicts 2
	// 1 and 3 are resident, so they hit (and keep each other); 2 was evicted.
	if hit1, hit3, hit2 := c.Access(1), c.Access(3), c.Access(2); !hit1 || !hit3 || hit2 {
		t.Fatalf("residency after eviction wrong: 1=%v 3=%v 2=%v", hit1, hit3, hit2)
	}
	if c.Hits() != 3 || c.Misses() != 4 {
		t.Fatalf("hits=%d misses=%d, want 3/4", c.Hits(), c.Misses())
	}
}

func TestLRUZeroCapacityAlwaysMisses(t *testing.T) {
	c := NewLRU(0)
	for i := 0; i < 10; i++ {
		if c.Access(7) {
			t.Fatal("zero-capacity cache must always miss")
		}
	}
	if c.size() != 0 {
		t.Fatal("zero-capacity cache must stay empty")
	}
	neg := NewLRU(-5)
	if neg.Access(7) || neg.Access(7) || neg.size() != 0 {
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

// Property: size never exceeds capacity, and the most recently accessed key is
// always resident (capacity >= 1).
func TestLRUInvariantsProperty(t *testing.T) {
	f := func(seed int64, capRaw uint8, n uint8) bool {
		capacity := int(capRaw%32) + 1
		rng := rand.New(rand.NewSource(seed))
		c := NewLRU(capacity)
		for i := 0; i < int(n); i++ {
			k := uint64(rng.Intn(64))
			c.Access(k)
			if c.size() > capacity {
				return false
			}
			if !c.Access(k) {
				return false
			}
		}
		return c.Hits()+c.Misses() == 2*int64(n)
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
		// Re-access them least recent first: each must hit, and a hit
		// evicts nothing.
		hits := c.Hits()
		for i := len(expect) - 1; i >= 0; i-- {
			if !c.Access(expect[i]) {
				return false
			}
		}
		return c.size() == len(expect) && c.Hits() == hits+int64(len(expect))
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
		c.Access(k) // populate
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

// hashTwins returns the pairs of keys below 2^18 whose mixes agree in their
// low 32 bits, the part of the hash an index slot stores, in key order.
func hashTwins() [][2]uint64 {
	seen := make(map[uint32]uint64, 1<<18)
	var pairs [][2]uint64
	for k := uint64(0); k < 1<<18; k++ {
		h := uint32(lruMix(k))
		if j, ok := seen[h]; ok {
			pairs = append(pairs, [2]uint64{j, k})
		}
		seen[h] = k
	}
	return pairs
}

// TestLRUHashCollision: two keys whose stored hashes are equal (and so whose
// home slots are too) are still two keys. Both resident, both hit; evicting
// either leaves the other hitting, and every access matches the reference
// model, including a miss that evicts the new key's twin.
func TestLRUHashCollision(t *testing.T) {
	pairs := hashTwins()
	if len(pairs) == 0 {
		t.Fatal("no two keys below 2^18 share a 32-bit hash")
	}
	t.Logf("%d hash-twin pairs below 2^18", len(pairs))
	for _, p := range pairs {
		a, b := p[0], p[1]
		for _, first := range []uint64{a, b} {
			other := a ^ b ^ first
			c := NewLRU(2)
			c.Access(a)
			c.Access(b)
			if !c.Access(a) || !c.Access(b) || !c.Access(a) {
				t.Fatalf("twins %#x and %#x: both resident, not both hitting", a, b)
			}
			// Touch other last, so first is the coldest; a fresh key
			// evicts it.
			c.Access(first)
			c.Access(other)
			if c.Access(1 << 20) {
				t.Fatal("a fresh key hit")
			}
			if !c.Access(other) {
				t.Fatalf("twins %#x and %#x: evicting %#x lost its twin", a, b, first)
			}
			if c.Access(first) {
				t.Fatalf("twins %#x and %#x: %#x still indexed after its eviction", a, b, first)
			}
		}
	}
	var twins []uint64
	for _, p := range pairs {
		twins = append(twins, p[0], p[1])
	}
	for _, capacity := range []int{1, 2, 3, 8} {
		rng := rand.New(rand.NewSource(int64(capacity)))
		keys := make([]uint64, 4000)
		for i := range keys {
			if rng.Intn(4) == 0 {
				keys[i] = uint64(rng.Intn(2*capacity + 3))
			} else {
				keys[i] = twins[rng.Intn(min(len(twins), 2*capacity+2))]
			}
		}
		checkAgainstRef(t, NewLRU(capacity), capacity, keys)
	}
}

// refLRU is the exact reference model: a slice with the most recent key at
// the front.
type refLRU struct {
	capacity int
	keys     []uint64
}

func (r *refLRU) access(key uint64) bool {
	for i, k := range r.keys {
		if k == key {
			copy(r.keys[1:i+1], r.keys[:i])
			r.keys[0] = key
			return true
		}
	}
	if r.capacity == 0 {
		return false
	}
	if len(r.keys) == r.capacity {
		r.keys = r.keys[:len(r.keys)-1]
	}
	r.keys = append(r.keys, 0)
	copy(r.keys[1:], r.keys)
	r.keys[0] = key
	return false
}

// checkAgainstRef drives c and a reference model with the same keys and
// fails on the first access whose hit/miss or resident count differs. Every
// so often it also checks that the index holds exactly the reference's keys.
func checkAgainstRef(t *testing.T, c *LRU, capacity int, keys []uint64) {
	t.Helper()
	ref := &refLRU{capacity: capacity}
	accesses := len(keys)
	for i, k := range keys {
		got, want := c.Access(k), ref.access(k)
		if got != want {
			t.Fatalf("access %d key %#x: hit=%v, reference %v", i, k, got, want)
		}
		if c.size() != len(ref.keys) {
			t.Fatalf("access %d key %#x: size=%d, reference %d", i, k, c.size(), len(ref.keys))
		}
		if i%97 == 0 || i == len(keys)-1 {
			accesses += checkIndex(t, c, ref.keys)
		}
	}
	if c.Hits()+c.Misses() != int64(accesses) {
		t.Fatalf("hits+misses=%d, want %d", c.Hits()+c.Misses(), accesses)
	}
}

// size returns the number of resident entries by walking the recency list,
// checking its back links on the way.
func (c *LRU) size() int {
	n := 0
	prev := lruNil
	for i := c.head; i != lruNil; i = c.nodes[i].next {
		if c.nodes[i].prev != prev {
			panic(fmt.Sprintf("node %d: prev=%d, want %d", i, c.nodes[i].prev, prev))
		}
		prev = i
		if n++; n > len(c.nodes) {
			panic("recency list has a cycle")
		}
	}
	if prev != c.tail {
		panic(fmt.Sprintf("list ends at %d, tail is %d", prev, c.tail))
	}
	return n
}

// checkIndex asserts that every resident key is reachable through the slot
// index and that the index holds nothing else. It re-accesses the resident
// keys, given most recent first, from the least recent on: each must hit,
// and the recency order ends as it began. It returns the accesses it made.
func checkIndex(t *testing.T, c *LRU, resident []uint64) int {
	t.Helper()
	for i := len(resident) - 1; i >= 0; i-- {
		if !c.Access(resident[i]) {
			t.Fatalf("resident key %#x not found through the index", resident[i])
		}
	}
	used := 0
	for _, s := range c.slots {
		if s.node != 0 {
			used++
			if k := c.nodes[s.node-1].key; uint32(lruMix(k)) != s.hash {
				t.Fatalf("slot hash %#x points at node holding %#x, whose hash is %#x", s.hash, k, uint32(lruMix(k)))
			}
		}
	}
	if used != len(resident) {
		t.Fatalf("index holds %d keys, want %d", used, len(resident))
	}
	return len(resident)
}

// collidingKeys brute-forces n keys whose home slot in a table of mask+1
// slots is home.
func collidingKeys(n int, mask, home uint64) []uint64 {
	var keys []uint64
	for k := uint64(1); len(keys) < n; k++ {
		if lruMix(k)&mask == home {
			keys = append(keys, k)
		}
	}
	return keys
}

// TestLRUMatchesReference: on every access the hit/miss result and the
// resident count equal the reference model's, for small integers, page
// numbers, arbitrary 64-bit keys, keys forced onto one home slot, and runs of
// one key (the most-recent-key path).
func TestLRUMatchesReference(t *testing.T) {
	const n = 6000
	for _, capacity := range []int{0, 1, 2, 3, 24, 96, 1024} {
		span := 2*capacity + 3 // enough distinct keys to hit and to evict
		mask := NewLRU(capacity).mask
		// The last slot as home makes the chains wrap around the table;
		// keys homed just before and just after it interleave with them.
		collide := collidingKeys(min(span, 64), mask, mask)
		collide = append(collide, collidingKeys(4, mask, mask-1)...)
		collide = append(collide, collidingKeys(4, mask, 0)...)
		streams := map[string]func(rng *rand.Rand) uint64{
			"small": func(rng *rand.Rand) uint64 { return uint64(rng.Intn(span)) },
			"pages": func(rng *rand.Rand) uint64 { return uint64(rng.Intn(span)) << 12 },
			"random": func(rng *rand.Rand) uint64 {
				switch rng.Intn(8) {
				case 0:
					return 0
				case 1:
					return ^uint64(0)
				case 2, 3, 4: // reuse a small pool so some accesses hit
					return uint64(rng.Intn(span)) * 0x9e3779b97f4a7c15
				}
				return rng.Uint64()
			},
			// Half the draws come from the small-integer pool, so even the
			// large caches evict colliding keys once they go cold.
			"collide": func(rng *rand.Rand) uint64 {
				if rng.Intn(2) == 0 {
					return uint64(rng.Intn(span))
				}
				return collide[rng.Intn(len(collide))]
			},
			"repeat": repeatStream(span),
		}
		for name, next := range streams {
			t.Run(fmt.Sprintf("cap%d/%s", capacity, name), func(t *testing.T) {
				rng := rand.New(rand.NewSource(int64(capacity)*31 + int64(len(name))))
				keys := make([]uint64, n)
				for i := range keys {
					keys[i] = next(rng)
				}
				checkAgainstRef(t, NewLRU(capacity), capacity, keys)
			})
		}
	}
}

// repeatStream returns runs of one key, 1 to 8 accesses long. A quarter of
// the runs use a key never drawn before, so once the cache is full the run
// opens with an evicting miss and goes on hitting the key it just inserted.
func repeatStream(span int) func(rng *rand.Rand) uint64 {
	var key, fresh uint64
	left := 0
	return func(rng *rand.Rand) uint64 {
		if left == 0 {
			left = 1 + rng.Intn(8)
			if rng.Intn(4) == 0 {
				fresh++
				key = uint64(span) + fresh
			} else {
				key = uint64(rng.Intn(span))
			}
		}
		left--
		return key
	}
}

// FuzzLRU checks any capacity up to 64 against the reference model. Each
// input byte is one key: the low seven bits pick the key and the top bit
// complements it, so 0 and ^0 are both reachable.
func FuzzLRU(f *testing.F) {
	f.Add(uint8(0), []byte{1, 1, 2})
	f.Add(uint8(1), []byte{0, 0x80, 0, 0x80, 0x80})
	f.Add(uint8(3), []byte{1, 2, 3, 4, 1, 2, 5, 1, 2, 3, 4, 5})
	f.Add(uint8(16), []byte("the quick brown fox jumps over the lazy dog"))
	f.Add(uint8(64), []byte{0x7f, 0xff, 0x00, 0x80, 0x01, 0x81})
	// Long runs of one key, each new run evicting when the cache is full.
	f.Add(uint8(2), []byte{5, 5, 5, 5, 5, 5, 6, 6, 6, 6, 7, 7, 7, 7, 7, 7, 7, 5, 5, 5, 0x85, 0x85, 0x85, 0x85, 6, 6, 6})
	f.Add(uint8(1), []byte{1, 1, 1, 1, 2, 2, 2, 1, 1, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 3})
	f.Add(uint8(0), []byte{9, 9, 9, 9, 9, 9, 9, 9})
	f.Fuzz(func(t *testing.T, capRaw uint8, data []byte) {
		capacity := int(capRaw % 65)
		keys := make([]uint64, len(data))
		for i, b := range data {
			keys[i] = uint64(b & 0x7f)
			if b&0x80 != 0 {
				keys[i] = ^keys[i]
			}
		}
		checkAgainstRef(t, NewLRU(capacity), capacity, keys)
	})
}

// accessMixKeys is BenchmarkLRUAccessMix's stream: seeded uniform draws over
// 96 keys, which a 64-entry LRU holds two thirds of at any time.
func accessMixKeys() []uint64 {
	rng := rand.New(rand.NewSource(1))
	keys := make([]uint64, 4096)
	for i := range keys {
		keys[i] = uint64(rng.Intn(96))
	}
	return keys
}

// TestLRUAccessMixHitRate pins the hit rate of the benchmark's stream, so
// the benchmark measures the hit/miss mix its comment claims.
func TestLRUAccessMixHitRate(t *testing.T) {
	keys := accessMixKeys()
	c := NewLRU(64)
	const n = 100_000
	for i := 0; i < n; i++ {
		c.Access(keys[i&(len(keys)-1)])
	}
	if rate := float64(c.Hits()) / n; rate < 0.6 || rate > 0.73 {
		t.Fatalf("access-mix hit rate %.3f, want within [0.6, 0.73]", rate)
	}
}

func BenchmarkLRUAccessMix(b *testing.B) {
	keys := accessMixKeys()
	c := NewLRU(64)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Access(keys[i&(len(keys)-1)]) // ~2/3 hits, 1/3 evicting misses
	}
}

// BenchmarkLRUHitNotHead hits resident keys that are never the most recent
// one: every access probes the index and moves its node to the front.
func BenchmarkLRUHitNotHead(b *testing.B) {
	c := NewLRU(64)
	for k := uint64(0); k < 64; k++ {
		c.Access(k << 12)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Access(uint64(i&3) << 12)
	}
}
