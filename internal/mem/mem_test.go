package mem

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"testing"
	"testing/quick"

	"rdmasem/internal/topo"
)

func newSpace(t *testing.T) *Space {
	t.Helper()
	s, err := NewSpace(1 << 30)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestNewSpaceValidation(t *testing.T) {
	if _, err := NewSpace(0); err == nil {
		t.Error("expected error for zero capacity")
	}
	if _, err := NewSpace(PageSize + 1); err == nil {
		t.Error("expected error for unaligned capacity")
	}
}

func TestAllocBasics(t *testing.T) {
	s := newSpace(t)
	r, err := s.Alloc(0, 4096, 0)
	if err != nil {
		t.Fatal(err)
	}
	if r.Size() != 4096 || r.Socket() != 0 {
		t.Fatalf("size=%d socket=%d", r.Size(), r.Socket())
	}
	if uint64(r.Addr())%PageSize != 0 {
		t.Fatalf("default alignment should be page: %#x", r.Addr())
	}
	if r.Addr() == 0 {
		t.Fatal("zero page must stay unmapped")
	}
}

func TestAllocSocketSeparation(t *testing.T) {
	s := newSpace(t)
	r0, _ := s.Alloc(0, 64, 0)
	r1, _ := s.Alloc(1, 64, 0)
	if got, _ := s.SocketOf(r0.Addr()); got != 0 {
		t.Errorf("socket of r0 = %d, want 0", got)
	}
	if got, _ := s.SocketOf(r1.Addr()); got != 1 {
		t.Errorf("socket of r1 = %d, want 1", got)
	}
	if r1.Addr() <= r0.Addr() {
		t.Error("socket 1 addresses should follow socket 0 range")
	}
}

func TestAllocErrors(t *testing.T) {
	s := newSpace(t)
	if _, err := s.Alloc(5, 64, 0); err == nil {
		t.Error("expected error for bad socket")
	}
	if _, err := s.Alloc(0, 0, 0); err == nil {
		t.Error("expected error for zero size")
	}
	if _, err := s.Alloc(0, 64, 3); err == nil {
		t.Error("expected error for non power-of-two alignment")
	}
	if _, err := s.Alloc(0, 2<<30, 0); err == nil {
		t.Error("expected out-of-memory error")
	}
}

func TestAllocExhaustion(t *testing.T) {
	s, err := NewSpace(4 * PageSize)
	if err != nil {
		t.Fatal(err)
	}
	// Zero page is reserved, so 3 pages remain.
	for i := 0; i < 3; i++ {
		if _, err := s.Alloc(0, PageSize, 0); err != nil {
			t.Fatalf("alloc %d failed: %v", i, err)
		}
	}
	if _, err := s.Alloc(0, PageSize, 0); err == nil {
		t.Fatal("expected exhaustion")
	}
}

func TestReadWriteRoundTrip(t *testing.T) {
	s := newSpace(t)
	r, _ := s.Alloc(1, 8192, 0)
	msg := []byte("remote memory semantics")
	addr := r.Addr() + 100
	if err := s.WriteAt(addr, msg); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, len(msg))
	if err := s.ReadAt(addr, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, msg) {
		t.Fatalf("got %q, want %q", got, msg)
	}
}

func TestAccessOutOfBounds(t *testing.T) {
	s := newSpace(t)
	r, _ := s.Alloc(0, 128, 0)
	if err := s.WriteAt(r.Addr()+120, make([]byte, 16)); err == nil {
		t.Error("expected overflow error")
	}
	if err := s.ReadAt(Addr(1), make([]byte, 1)); err == nil {
		t.Error("expected unmapped error for zero page")
	}
	if err := s.ReadAt(r.End()+PageSize, make([]byte, 1)); err == nil {
		t.Error("expected unmapped error past all regions")
	}
}

func TestRegionSlice(t *testing.T) {
	s := newSpace(t)
	r, _ := s.Alloc(0, 256, 0)
	b, err := r.Slice(r.Addr()+16, 8)
	if err != nil {
		t.Fatal(err)
	}
	b[0] = 0xAB
	if r.Bytes()[16] != 0xAB {
		t.Fatal("slice does not alias region storage")
	}
	if _, err := r.Slice(r.Addr()+250, 10); err != nil {
		// ok
	} else {
		t.Fatal("expected out-of-range slice error")
	}
}

func TestPageNumber(t *testing.T) {
	if Addr(0).Page() != 0 || Addr(4095).Page() != 0 || Addr(4096).Page() != 1 {
		t.Fatal("page arithmetic broken")
	}
}

// Property: allocations never overlap and each stays inside its socket range.
func TestAllocNoOverlapProperty(t *testing.T) {
	f := func(seed int64, n uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		s, err := NewSpace(1 << 24)
		if err != nil {
			return false
		}
		defer s.Release()
		var regions []*Region
		for i := 0; i < int(n%40)+1; i++ {
			sock := topo.SocketID(rng.Intn(2))
			size := rng.Intn(1<<16) + 1
			align := uint64(1) << uint(rng.Intn(13))
			r, err := s.Alloc(sock, size, align)
			if err != nil {
				continue // exhaustion is fine
			}
			if uint64(r.Addr())%align != 0 {
				return false
			}
			lo := uint64(sock) << 24
			if uint64(r.Addr()) < lo || uint64(r.End()) > lo+(1<<24) {
				return false
			}
			regions = append(regions, r)
		}
		for i := range regions {
			for j := i + 1; j < len(regions); j++ {
				a, b := regions[i], regions[j]
				if a.Addr() < b.End() && b.Addr() < a.End() {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// Property: data written at random offsets reads back intact.
func TestReadBackProperty(t *testing.T) {
	s, err := NewSpace(1 << 24)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Release()
	r, err := s.Alloc(0, 1<<16, 0)
	if err != nil {
		t.Fatal(err)
	}
	f := func(off uint16, data []byte) bool {
		if len(data) == 0 {
			return true
		}
		addr := r.Addr() + Addr(off)
		if !r.Contains(addr, len(data)) {
			return s.WriteAt(addr, data) != nil
		}
		if err := s.WriteAt(addr, data); err != nil {
			return false
		}
		got := make([]byte, len(data))
		if err := s.ReadAt(addr, got); err != nil {
			return false
		}
		return bytes.Equal(got, data)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestResolveSortedIndex: regions allocated out of address order still
// resolve, because the index stays sorted by base address.
func TestResolveSortedIndex(t *testing.T) {
	s := newSpace(t)
	var regions []*Region
	for _, sock := range []topo.SocketID{1, 0, 1, 0, 0} {
		r, err := s.Alloc(sock, 64, 0)
		if err != nil {
			t.Fatal(err)
		}
		regions = append(regions, r)
	}
	for i, r := range regions {
		for _, addr := range []Addr{r.Addr(), r.End() - 1} {
			got, err := s.Resolve(addr, 1)
			if err != nil || got != r {
				t.Fatalf("region %d: Resolve(%#x) = %p, %v; want %p", i, addr, got, err, r)
			}
		}
	}
}

func TestAllocSparse(t *testing.T) {
	s, err := NewSpace(1 << 40)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Release()
	r, err := s.AllocSparse(1, 1<<30, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	if r.Size() != 1<<30 {
		t.Fatalf("virtual size %d", r.Size())
	}
	if len(r.Bytes()) != 1<<20 {
		t.Fatalf("backing size %d", len(r.Bytes()))
	}
	// Accesses across the whole virtual span resolve and round-trip
	// within the aliased backing.
	for _, off := range []Addr{0, 1 << 10, 512 << 20, 1<<30 - 64} {
		addr := r.Addr() + off
		msg := []byte("sparse!!")
		if err := s.WriteAt(addr, msg); err != nil {
			t.Fatalf("write at +%d: %v", off, err)
		}
		got := make([]byte, len(msg))
		if err := s.ReadAt(addr, got); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, msg) {
			t.Fatalf("round trip at +%d failed", off)
		}
	}
	// Out of range still rejected.
	if err := s.WriteAt(r.End(), []byte("x")); err == nil {
		t.Fatal("write past virtual end must fail")
	}
	// Page numbers span the whole virtual extent.
	if r.End().Page()-r.Addr().Page() < (1<<30)/PageSize {
		t.Fatal("sparse region must span its full virtual page range")
	}
}

func TestAllocSparseValidation(t *testing.T) {
	s, _ := NewSpace(1 << 30)
	if _, err := s.AllocSparse(5, 1<<20, 4096); err == nil {
		t.Error("bad socket must fail")
	}
	if _, err := s.AllocSparse(0, 0, 4096); err == nil {
		t.Error("zero virtual size must fail")
	}
	if _, err := s.AllocSparse(0, 4096, 8192); err == nil {
		t.Error("backing larger than virtual must fail")
	}
	if _, err := s.AllocSparse(0, 2<<30, 4096); err == nil {
		t.Error("address-space exhaustion must fail")
	}
}

// TestDenseRegionNotSparse: a dense region's backing spans its whole extent,
// so an access at its end lands at its end rather than wrapping.
func TestDenseRegionNotSparse(t *testing.T) {
	s, _ := NewSpace(1 << 20)
	r, _ := s.Alloc(0, 4096, 0)
	if len(r.Bytes()) != r.Size() {
		t.Fatalf("dense backing %d bytes for a %d-byte region", len(r.Bytes()), r.Size())
	}
	if err := s.WriteAt(r.End()-8, []byte("dense!!!")); err != nil {
		t.Fatal(err)
	}
	if got := string(r.Bytes()[r.Size()-8:]); got != "dense!!!" {
		t.Fatalf("end of region holds %q", got)
	}
}

// TestSparseAccessBounds: an access larger than a sparse region's backing is
// an error, not a slice panic, and a rejected access reports the region's
// virtual size.
func TestSparseAccessBounds(t *testing.T) {
	for _, tc := range []struct {
		name    string
		off     Addr
		size    int
		wantErr string // "" = the access succeeds
	}{
		{"larger than backing", 4096, 2 << 20, "exceeds the 1048576-byte backing"},
		{"backing plus one", 0, 1<<20 + 1, "exceeds the 1048576-byte backing"},
		{"whole backing off base", 4096, 1 << 20, ""},
		{"whole backing at end", 7 << 20, 1 << 20, ""},
		{"past the virtual end", 8<<20 - 4, 8, "escapes region [0x1000,+8388608)"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s, err := NewSpace(1 << 30)
			if err != nil {
				t.Fatal(err)
			}
			defer s.Release()
			r, err := s.AllocSparse(0, 8<<20, 1<<20)
			if err != nil {
				t.Fatal(err)
			}
			err = s.WriteAt(r.Addr()+tc.off, make([]byte, tc.size))
			switch {
			case tc.wantErr == "" && err != nil:
				t.Fatalf("unexpected error: %v", err)
			case tc.wantErr != "" && (err == nil || !strings.Contains(err.Error(), tc.wantErr)):
				t.Fatalf("error %v, want one containing %q", err, tc.wantErr)
			}
			if err := s.ReadAt(r.Addr()+tc.off, make([]byte, tc.size)); (err == nil) != (tc.wantErr == "") {
				t.Fatalf("ReadAt disagrees with WriteAt: %v", err)
			}
		})
	}
}

// mapsMemory reports whether this build backs large regions with mappings.
func mapsMemory() bool {
	b := mapAnon(mapMin)
	if b != nil {
		freeAnon(b)
	}
	return b != nil
}

// TestBackingBySize: regions from mapMin bytes up are mapped where the build
// maps memory; smaller ones and every region of other builds are Go slices.
func TestBackingBySize(t *testing.T) {
	s := newSpace(t)
	maps := mapsMemory()
	for _, tc := range []struct {
		size   int
		mapped bool
	}{
		{mapMin - PageSize, false},
		{mapMin, maps},
		{64 << 20, maps},
	} {
		r, err := s.Alloc(0, tc.size, 0)
		if err != nil {
			t.Fatal(err)
		}
		if r.mapped != tc.mapped {
			t.Errorf("%d-byte region: mapped=%v, want %v", tc.size, r.mapped, tc.mapped)
		}
	}
	sp, err := s.AllocSparse(1, 256<<20, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	if sp.mapped != maps {
		t.Errorf("sparse backing: mapped=%v, want %v", sp.mapped, maps)
	}
	s.Release()
}

// TestLargeAllocReadsZero: a fresh region reads as zero everywhere, whichever
// backing it got.
func TestLargeAllocReadsZero(t *testing.T) {
	s := newSpace(t)
	r, err := s.Alloc(0, 16<<20, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Release()
	got := make([]byte, 64<<10)
	for off := 0; off < r.Size(); off += 4 << 20 {
		if err := s.ReadAt(r.Addr()+Addr(off), got); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, make([]byte, len(got))) {
			t.Fatalf("fresh region not zero at +%d", off)
		}
	}
	if b := r.Bytes(); b[0] != 0 || b[len(b)-1] != 0 {
		t.Fatal("fresh region not zero at its ends")
	}
}

// TestRoundTripAtRegionEnds: bytes written at both ends of a large dense
// region and of a sparse region read back intact.
func TestRoundTripAtRegionEnds(t *testing.T) {
	s, err := NewSpace(1 << 32)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Release()
	dense, err := s.Alloc(0, 4<<20, 0)
	if err != nil {
		t.Fatal(err)
	}
	sparse, err := s.AllocSparse(1, 1<<30, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range []*Region{dense, sparse} {
		for i, addr := range []Addr{r.Addr(), r.End() - 16} {
			msg := []byte(fmt.Sprintf("end %d of %#x", i, r.Addr()))[:16]
			if err := s.WriteAt(addr, msg); err != nil {
				t.Fatal(err)
			}
			got := make([]byte, len(msg))
			if err := s.ReadAt(addr, got); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, msg) {
				t.Fatalf("round trip at %#x: got %q, want %q", addr, got, msg)
			}
		}
	}
}

// TestReleaseContract: after Release, every access to every kind of region
// fails with ErrReleased and Bytes is nil; addresses still resolve, and
// releasing again, or releasing an empty space, is a no-op.
func TestReleaseContract(t *testing.T) {
	var empty Space
	empty.Release()
	s := newSpace(t)
	s.Release()
	small, _ := s.Alloc(0, 256, 0)
	large, _ := s.Alloc(0, 1<<20, 0)
	sparse, err := s.AllocSparse(1, 256<<20, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range []*Region{small, large, sparse} {
		if err := s.WriteAt(r.Addr(), []byte("live")); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 2; i++ {
		s.Release()
		for _, r := range []*Region{small, large, sparse} {
			if r.Bytes() != nil {
				t.Fatalf("release %d: %d-byte region still has bytes", i, r.Size())
			}
			if r.mapped {
				t.Fatalf("release %d: %d-byte region still mapped", i, r.Size())
			}
			if _, err := r.Slice(r.Addr(), 4); !errors.Is(err, ErrReleased) {
				t.Fatalf("release %d: Slice err = %v", i, err)
			}
			if err := s.ReadAt(r.Addr(), make([]byte, 4)); !errors.Is(err, ErrReleased) {
				t.Fatalf("release %d: ReadAt err = %v", i, err)
			}
			if err := s.WriteAt(r.Addr(), []byte("dead")); !errors.Is(err, ErrReleased) {
				t.Fatalf("release %d: WriteAt err = %v", i, err)
			}
			if got, err := s.Resolve(r.Addr(), r.Size()); err != nil || got != r {
				t.Fatalf("release %d: Resolve = %p, %v", i, got, err)
			}
		}
	}
}

// firstNonzero returns the index of b's first nonzero byte, or -1.
func firstNonzero(b []byte) int {
	for i, v := range b {
		if v != 0 {
			return i
		}
	}
	return -1
}

// dirty writes val over the first and last page of b and over one byte of
// every stride-th page in between.
func dirty(b []byte, stride int, val byte) {
	fill := func(p []byte) {
		for i := range p {
			p[i] = val
		}
	}
	fill(b[:min(len(b), PageSize)])
	fill(b[max(0, len(b)-PageSize):])
	for p := 0; p*PageSize < len(b); p += stride {
		b[p*PageSize+(p*131)%min(PageSize, len(b)-p*PageSize)] = val
	}
}

// TestRecycledRegionReadsZero: a region allocated at the length of one just
// released reads zero everywhere, dense or sparse-backed, at page multiples
// and at other lengths, however the released one was dirtied.
func TestRecycledRegionReadsZero(t *testing.T) {
	for _, tc := range []struct {
		name          string
		size, backing int // backing 0: a dense region
	}{
		{"dense at mapMin", mapMin, 0},
		{"dense pages", 256 << 10, 0},
		{"dense odd length", 256<<10 + 123, 0},
		{"sparse pages", 16 << 20, 128 << 10},
		{"sparse odd backing", 16 << 20, 96<<10 + 4001},
	} {
		t.Run(tc.name, func(t *testing.T) {
			for round := 0; round < 4; round++ {
				s := newSpace(t)
				var r *Region
				var err error
				if tc.backing == 0 {
					r, err = s.Alloc(0, tc.size, 0)
				} else {
					r, err = s.AllocSparse(1, tc.size, tc.backing)
				}
				if err != nil {
					t.Fatal(err)
				}
				b := r.Bytes()
				if i := firstNonzero(b); i >= 0 {
					t.Fatalf("round %d: byte %d of %d reads %#x", round, i, len(b), b[i])
				}
				dirty(b, 1+round*3, byte(0xA0+round))
				s.Release()
			}
		})
	}
}

// TestDoubleReleaseDoesNotAlias: releasing a space twice hands its mappings
// back once, so the next two regions of that length get distinct backings.
func TestDoubleReleaseDoesNotAlias(t *testing.T) {
	const size = 192 << 10
	s := newSpace(t)
	if _, err := s.Alloc(0, size, 0); err != nil {
		t.Fatal(err)
	}
	s.Release()
	s.Release()
	s2 := newSpace(t)
	defer s2.Release()
	a, err := s2.Alloc(0, size, 0)
	if err != nil {
		t.Fatal(err)
	}
	b, err := s2.Alloc(0, size, 0)
	if err != nil {
		t.Fatal(err)
	}
	if &a.Bytes()[0] == &b.Bytes()[0] {
		t.Fatal("two live regions share one backing")
	}
	dirty(a.Bytes(), 1, 0xEE)
	if i := firstNonzero(b.Bytes()); i >= 0 {
		t.Fatalf("writing one region changed byte %d of the other", i)
	}
}

// TestRecycleConcurrent: goroutines that allocate, dirty and release regions
// of shared lengths at once (as parallel sweep points and finalizers do)
// always get a region that reads zero and that no one else writes.
func TestRecycleConcurrent(t *testing.T) {
	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 40; i++ {
				s, err := NewSpace(1 << 30)
				if err != nil {
					errs <- err
					return
				}
				r, err := s.Alloc(0, mapMin<<((g+i)%3), 0)
				if err != nil {
					errs <- err
					return
				}
				b := r.Bytes()
				if j := firstNonzero(b); j >= 0 {
					errs <- fmt.Errorf("goroutine %d, cycle %d: byte %d of a fresh region reads %#x", g, i, j, b[j])
					return
				}
				val := byte(g + 1)
				dirty(b, 1+i%5, val)
				for _, v := range [...]byte{b[0], b[len(b)-1]} {
					if v != val {
						errs <- fmt.Errorf("goroutine %d, cycle %d: a live region changed under its owner", g, i)
						return
					}
				}
				s.Release()
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// FuzzRegionRecycle drives allocations of a few lengths, dense and sparse,
// dirtied in varied patterns and released in varied orders. Every new region
// must read zero, and every live region must keep what its owner wrote until
// its own release.
func FuzzRegionRecycle(f *testing.F) {
	f.Add([]byte{0, 1, 3, 0, 0, 2})
	f.Add([]byte{4, 7, 8, 200, 3, 1, 3, 0, 8, 9, 4, 1})
	f.Add([]byte{2, 5, 6, 17, 10, 3, 3, 2, 3, 0, 6, 255, 2, 5})
	sizes := []int{mapMin, mapMin + 1, 2*mapMin - 123, 3 * mapMin}
	type live struct {
		s    *Space
		r    *Region
		want []byte
	}
	f.Fuzz(func(t *testing.T, prog []byte) {
		var held []live
		defer func() {
			for _, l := range held {
				l.s.Release()
			}
		}()
		for i := 0; i+1 < len(prog) && i < 128; i += 2 {
			op, arg := prog[i], int(prog[i+1])
			if op&3 == 3 || len(held) == 16 {
				if len(held) == 0 {
					continue
				}
				j := arg % len(held)
				if l := held[j]; !bytes.Equal(l.r.Bytes(), l.want) {
					t.Fatalf("op %d: a live %d-byte backing lost its contents", i/2, len(l.want))
				}
				held[j].s.Release()
				held = append(held[:j], held[j+1:]...)
				continue
			}
			s, err := NewSpace(1 << 30)
			if err != nil {
				t.Fatal(err)
			}
			size := sizes[int(op>>2)%len(sizes)]
			var r *Region
			if op&3 == 2 {
				r, err = s.AllocSparse(0, 4*size, size)
			} else {
				r, err = s.Alloc(0, size, 0)
			}
			if err != nil {
				t.Fatal(err)
			}
			b := r.Bytes()
			if j := firstNonzero(b); j >= 0 {
				t.Fatalf("op %d: byte %d of a fresh %d-byte backing reads %#x", i/2, j, len(b), b[j])
			}
			dirty(b, 1+arg%16, byte(arg|1))
			held = append(held, live{s, r, bytes.Clone(b)})
		}
		for _, l := range held {
			if !bytes.Equal(l.r.Bytes(), l.want) {
				t.Fatalf("a live %d-byte backing lost its contents", len(l.want))
			}
		}
	})
}
