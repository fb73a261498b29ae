package workload

import (
	"math"
	"runtime"
	"sync"
	"testing"
	"testing/quick"
)

func TestZipfValidation(t *testing.T) {
	if _, err := NewZipfDist(0, 0.99); err == nil {
		t.Error("zero key space must fail")
	}
	if _, err := NewZipfDist(100, 0); err == nil {
		t.Error("theta=0 must fail")
	}
	if _, err := NewZipfDist(100, 1.0); err == nil {
		t.Error("theta=1 must fail")
	}
}

func mustDist(t testing.TB, n uint64, theta float64) *ZipfDist {
	t.Helper()
	d, err := NewZipfDist(n, theta)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func TestZipfBoundsAndDeterminism(t *testing.T) {
	d := mustDist(t, 10000, 0.99)
	z1, z2 := d.New(42), d.New(42)
	for i := 0; i < 10000; i++ {
		a, b := z1.Next(), z2.Next()
		if a != b {
			t.Fatal("zipf is not deterministic in seed")
		}
		if a >= 10000 {
			t.Fatalf("key %d out of range", a)
		}
	}
}

// The first draws of the two seeds the hashtable experiments use, over their
// key space, as the generator produced them when each generator summed its
// own zeta: sharing one distribution must not move a single draw.
func TestZipfDrawsPinned(t *testing.T) {
	d := mustDist(t, 1<<14, 0.99)
	want := map[int64][]uint64{
		42: {7693, 0, 8054, 12372, 0, 5687, 12958, 4684, 5687, 12417, 8139, 12372, 10702, 15381, 5070, 14719,
			2096, 1765, 12299, 13953, 15381, 15717, 7357, 11369, 16098, 0, 9160, 15381, 8365, 12372, 9699, 10130},
		1000: {3074, 6354, 7036, 15381, 15381, 0, 14378, 5030, 12522, 2357, 2863, 4111, 14378, 15381, 5687, 4348,
			13349, 2891, 10702, 11369, 1088, 0, 6053, 13826, 6058, 15381, 9989, 9047, 15381, 0, 12372, 4353},
	}
	for seed, keys := range want {
		z := d.New(seed)
		for i, k := range keys {
			if got := z.Next(); got != k {
				t.Fatalf("seed %d draw %d = %d, want %d", seed, i, got, k)
			}
		}
	}
}

// Generators of one shared distribution draw concurrently without touching
// each other: every goroutine's sequence equals the serial one.
func TestZipfSharedDistConcurrent(t *testing.T) {
	d := mustDist(t, 1<<14, 0.99)
	const workers, draws = 8, 2000
	serial := make([][]uint64, workers)
	for w := range serial {
		z := d.New(int64(1000 + w))
		for i := 0; i < draws; i++ {
			serial[w] = append(serial[w], z.Next())
		}
	}
	got := make([][]uint64, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			z := d.New(int64(1000 + w))
			for i := 0; i < draws; i++ {
				got[w] = append(got[w], z.Next())
			}
			_ = d.HotSet(64)
		}(w)
	}
	wg.Wait()
	for w := range got {
		for i := range got[w] {
			if got[w][i] != serial[w][i] {
				t.Fatalf("worker %d draw %d = %d, serial %d", w, i, got[w][i], serial[w][i])
			}
		}
	}
}

// Generators of one seed on one shared distribution replay a single
// memoized sequence: eight cursors drawing concurrently, their draws
// interleaved, each see exactly the keys a fresh distribution draws
// serially, and a cursor made after the memo has grown starts at draw 0.
func TestZipfSameSeedConcurrent(t *testing.T) {
	const workers, draws = 8, 5000
	serial := make([]uint64, draws)
	z := mustDist(t, 1<<14, 0.99).New(1000)
	for i := range serial {
		serial[i] = z.Next()
	}
	d := mustDist(t, 1<<14, 0.99)
	got := make([][]uint64, workers)
	seqs := make([]*zipfSeq, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			z := d.New(1000)
			seqs[w] = z.seq
			for i := 0; i < draws; i++ {
				got[w] = append(got[w], z.Next())
				if i%(w+1) == 0 {
					runtime.Gosched()
				}
			}
		}(w)
	}
	wg.Wait()
	for w := range got {
		for i := range got[w] {
			if got[w][i] != serial[i] {
				t.Fatalf("worker %d draw %d = %d, serial %d", w, i, got[w][i], serial[i])
			}
		}
	}
	late := d.New(1000)
	for i, want := range serial {
		if k := late.Next(); k != want {
			t.Fatalf("late cursor draw %d = %d, serial %d", i, k, want)
		}
	}
	for w, seq := range seqs {
		if seq != late.seq {
			t.Fatalf("worker %d's cursor does not replay the seed's one memoized sequence", w)
		}
	}
	if n := len(late.seq.keys); n > draws+zipfChunk {
		t.Fatalf("seed 1000 memoized %d keys for %d draws", n, draws)
	}
}

func TestZipfIsSkewed(t *testing.T) {
	z := mustDist(t, 1<<20, 0.99).New(7)
	counts := map[uint64]int{}
	const draws = 200000
	for i := 0; i < draws; i++ {
		counts[z.Next()]++
	}
	// With theta=0.99 over 1M keys, the hottest key should carry several
	// percent of the mass, and the distinct-key count should be far below
	// the draw count.
	max := 0
	for _, c := range counts {
		if c > max {
			max = c
		}
	}
	if float64(max)/draws < 0.02 {
		t.Errorf("hottest key carries %.4f of mass, want > 2%%", float64(max)/draws)
	}
	if len(counts) > draws/2 {
		t.Errorf("%d distinct keys in %d draws: not skewed", len(counts), draws)
	}
}

func TestZipfHotSetCoversMass(t *testing.T) {
	d := mustDist(t, 1<<16, 0.99)
	z := d.New(3)
	hot := map[uint64]bool{}
	for _, k := range d.HotSet(1 << 12) { // hottest 1/16 of the space
		hot[k] = true
	}
	inHot := 0
	const draws = 100000
	for i := 0; i < draws; i++ {
		if hot[z.Next()] {
			inHot++
		}
	}
	if frac := float64(inHot) / draws; frac < 0.5 {
		t.Errorf("hot set covers %.2f of accesses, want > 0.5 (skew)", frac)
	}
}

func TestZipfHotSetEdgeCases(t *testing.T) {
	d := mustDist(t, 8, 0.5)
	if got := d.HotSet(0); got != nil {
		t.Error("HotSet(0) should be nil")
	}
	if got := d.HotSet(100); len(got) != 8 {
		t.Errorf("HotSet clamps to key space, got %d", len(got))
	}
}

// The scramble is a bijection for any key space, so the full hot set is a
// permutation of [0, n); for a power of two it is the plain Fibonacci hash.
func TestZipfHotSetIsPermutation(t *testing.T) {
	for _, n := range []uint64{1, 3, 10, 1000, 12345, 1 << 14} {
		hs := mustDist(t, n, 0.99).HotSet(int(n))
		seen := make([]bool, n)
		for _, k := range hs {
			if k >= n || seen[k] {
				t.Fatalf("n=%d: key %d repeats or is out of range", n, k)
			}
			seen[k] = true
		}
		if uint64(len(hs)) != n {
			t.Fatalf("n=%d: hot set has %d keys", n, len(hs))
		}
		if n&(n-1) != 0 {
			continue
		}
		for rank, k := range hs {
			if want := (uint64(rank) * 0x9E3779B97F4A7C15) % n; k != want {
				t.Fatalf("n=%d rank %d: key %d, Fibonacci hash %d", n, rank, k, want)
			}
		}
	}
}

func TestUniform(t *testing.T) {
	if _, err := NewUniform(0, 1); err == nil {
		t.Error("zero key space must fail")
	}
	if _, err := NewUniform(1<<63, 1); err == nil {
		t.Error("key space 1<<63 must fail, not panic in Next")
	}
	if u, err := NewUniform(1<<63-1, 1); err != nil || u.Next() >= 1<<63-1 {
		t.Errorf("largest key space: err=%v", err)
	}
	u, err := NewUniform(1000, 5)
	if err != nil {
		t.Fatal(err)
	}
	counts := make([]int, 1000)
	for i := 0; i < 100000; i++ {
		k := u.Next()
		if k >= 1000 {
			t.Fatalf("key %d out of range", k)
		}
		counts[k]++
	}
	// Roughly uniform: no key should carry more than 1% of the mass.
	for k, c := range counts {
		if c > 1000 {
			t.Fatalf("key %d drawn %d times: not uniform", k, c)
		}
	}
}

// Property: FillValue/CheckValue round-trip, and corruption is detected.
func TestValuePatternProperty(t *testing.T) {
	f := func(key uint64, size uint8, flip uint8) bool {
		n := int(size%64) + 1
		buf := make([]byte, n)
		FillValue(buf, key)
		if !CheckValue(buf, key) {
			return false
		}
		buf[int(flip)%n] ^= 0xFF
		return !CheckValue(buf, key)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// checkFill holds the word-wide FillValue to CheckValue, the byte-at-a-time
// definition of the pattern.
func checkFill(t testing.TB, n int, key uint64) {
	t.Helper()
	buf := make([]byte, n)
	FillValue(buf, key)
	if !CheckValue(buf, key) {
		t.Fatalf("len %d key %#x: CheckValue rejects FillValue", n, key)
	}
	for i := range buf {
		buf[i] ^= 0x01
		if CheckValue(buf, key) {
			t.Fatalf("len %d key %#x: flip at byte %d not detected", n, key, i)
		}
		buf[i] ^= 0x01
	}
}

// The word-wide FillValue writes the byte reference's pattern at every
// length, across the 256-byte wrap of byte(i) and every tail length.
func TestFillValueMatchesByteReference(t *testing.T) {
	for _, key := range []uint64{0, 1, ^uint64(0), 0x0123456789abcdef} {
		for n := 0; n <= 130; n++ {
			checkFill(t, n, key)
		}
		checkFill(t, 4096+5, key)
	}
}

func FuzzFillValue(f *testing.F) {
	f.Add(uint64(0), uint16(0))
	f.Add(uint64(0x0123456789abcdef), uint16(130))
	f.Add(^uint64(0), uint16(4096))
	f.Fuzz(func(t *testing.T, key uint64, n uint16) {
		checkFill(t, int(n)%4097, key)
	})
}

func TestRelationDeterministic(t *testing.T) {
	a := Relation(1000, 1<<20, 9)
	b := Relation(1000, 1<<20, 9)
	c := Relation(1000, 1<<20, 10)
	if len(a) != 1000 {
		t.Fatalf("len=%d", len(a))
	}
	same := true
	diff := false
	for i := range a {
		if a[i] != b[i] {
			same = false
		}
		if a[i] != c[i] {
			diff = true
		}
		if a[i].Key >= 1<<20 {
			t.Fatalf("key out of range: %d", a[i].Key)
		}
	}
	if !same {
		t.Error("same seed must give same relation")
	}
	if !diff {
		t.Error("different seeds should differ")
	}
}

// TestStream: every record's value matches its key pattern when it is
// returned, and Next reuses one buffer instead of allocating.
func TestStream(t *testing.T) {
	u, _ := NewUniform(100, 1)
	s := NewStream(u, 64)
	for i := 0; i < 100; i++ {
		kv := s.Next()
		if len(kv.Value) != 64 {
			t.Fatalf("value size %d", len(kv.Value))
		}
		if !CheckValue(kv.Value, kv.Key) {
			t.Fatal("stream value does not match its key pattern")
		}
	}
	var kv KV
	if allocs := testing.AllocsPerRun(100, func() { kv = s.Next() }); allocs != 0 {
		t.Errorf("Next makes %.2f allocations, want 0", allocs)
	}
	if !CheckValue(kv.Value, kv.Key) {
		t.Fatal("the last record's value does not match its key pattern")
	}
}

func TestZetaSanity(t *testing.T) {
	// zeta(n, theta) is increasing in n and finite.
	z1 := zeta(10, 0.99)
	z2 := zeta(100, 0.99)
	if !(z2 > z1) || math.IsInf(z2, 0) || math.IsNaN(z2) {
		t.Fatalf("zeta behaves badly: %v %v", z1, z2)
	}
}

func BenchmarkNewZipfDist(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := NewZipfDist(1<<14, 0.99); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkZipfNew makes a generator over an already memoized seed and
// draws its first key. The seeds cycle: a distribution keeps every seed it
// has drawn, so a fresh seed per iteration would grow the memo with b.N.
func BenchmarkZipfNew(b *testing.B) {
	d := mustDist(b, 1<<14, 0.99)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		d.New(int64(i % 16)).Next()
	}
}

func BenchmarkFillValue64(b *testing.B) {
	buf := make([]byte, 64)
	b.SetBytes(int64(len(buf)))
	for i := 0; i < b.N; i++ {
		FillValue(buf, uint64(i))
	}
}
