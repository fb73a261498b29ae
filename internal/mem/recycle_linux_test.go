//go:build linux && !race

package mem

import (
	"syscall"
	"testing"
)

// pooled returns how many mappings the free list holds.
func pooled() int {
	pool.Lock()
	defer pool.Unlock()
	n := 0
	for _, l := range pool.free {
		n += len(l)
	}
	return n
}

// TestReleasedMappingIsReused: the next region of a released mapping's
// length gets that mapping back, and the next region of another length
// first unmaps every kept mapping. Every test in this package releases what
// it maps, so no finalizer changes the count meanwhile.
func TestReleasedMappingIsReused(t *testing.T) {
	const size, other = 320 << 10, 448 << 10
	s := newSpace(t)
	released := map[*byte]bool{}
	for _, n := range []int{size, size, other} {
		r, err := s.Alloc(0, n, 0)
		if err != nil {
			t.Fatal(err)
		}
		if n == size {
			released[&r.Bytes()[0]] = true
		}
	}
	s.Release()
	kept := pooled()
	if kept < 3 {
		t.Fatalf("%d mappings kept after releasing three", kept)
	}

	s2 := newSpace(t)
	defer s2.Release()
	again, err := s2.Alloc(0, size, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !released[&again.Bytes()[0]] {
		t.Errorf("a %d-byte region got a new mapping, not one just released", size)
	}
	if got := pooled(); got != kept-1 {
		t.Fatalf("a hit left %d mappings kept, want %d", got, kept-1)
	}
	if _, err := s2.Alloc(0, size+3*PageSize+17, 0); err != nil {
		t.Fatal(err)
	}
	if got := pooled(); got != 0 {
		t.Fatalf("a miss left %d mappings kept, want 0", got)
	}
}

// BenchmarkRegionCycle allocates a 640 KiB region, writes every page and
// releases it. A fresh mapping pays one minor fault per page (160); a reused
// one is cleared in place at none. It reports the process's minor faults
// per cycle.
func BenchmarkRegionCycle(b *testing.B) {
	const size = 640 << 10
	var before, after syscall.Rusage
	syscall.Getrusage(syscall.RUSAGE_SELF, &before)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s, err := NewSpace(1 << 30)
		if err != nil {
			b.Fatal(err)
		}
		r, err := s.Alloc(0, size, 0)
		if err != nil {
			b.Fatal(err)
		}
		buf := r.Bytes()
		for off := 0; off < len(buf); off += PageSize {
			buf[off] = 1
		}
		s.Release()
	}
	b.StopTimer()
	syscall.Getrusage(syscall.RUSAGE_SELF, &after)
	b.ReportMetric(float64(after.Minflt-before.Minflt)/float64(b.N), "faults/op")
}
