// Package mem implements the byte-addressable memory of one simulated
// machine. Memory is divided evenly across NUMA sockets (as on the paper's
// testbed, where "the memory is equally allocated to each socket"), and
// allocations carry their socket so the RNIC and topology models can charge
// QPI crossings.
//
// Data movement through this package is real: RDMA verbs copy actual bytes
// between Spaces, which lets the application-level tests check correctness
// of hashtable contents, shuffle output, join results and log records.
//
// A region's bytes come from one of two backings, chosen by build and size.
// On unix builds other than AIX, without the race detector, a region of at
// least 64 KiB is an anonymous private mapping: the kernel zero-fills each
// page the first time an op touches it, so host CPU and RSS follow the bytes
// a run writes, not the bytes it registers (real RNICs register memory they
// never fault in either). Every other region is a Go slice. Race builds
// always use Go slices, because the race detector watches only Go-heap and
// data addresses and would silently stop checking accesses to mapped bytes.
//
// Mapped memory is not the garbage collector's to reclaim. Space.Release
// hands every region's bytes back once nothing simulates the space any
// more, and a finalizer on each mapped region does so for spaces that are
// dropped without it. After Release every access returns ErrReleased, in
// every build. A slice from Bytes or Slice is valid only while its Region
// is reachable and unreleased.
//
// On Linux a released mapping is not unmapped but kept for the next region
// of exactly its length, in any Space of the process, and zeroed in place
// when reused (resident pages cleared, the rest dropped with
// MADV_DONTNEED). An allocation that finds no kept mapping of its length
// unmaps all of them first, so only lengths that keep coming back are held.
// Each region still starts all-zero at an address its own Space picks, so
// reuse changes host cost, never a simulated value. It does change what a
// stale slice does: a Bytes or Slice result kept past Release may alias the
// next region of that length instead of faulting.
package mem

import (
	"errors"
	"fmt"
	"runtime"
	"sort"

	"rdmasem/internal/topo"
)

// PageSize is the translation granularity used by MR registration and the
// RNIC's SRAM translation cache (standard 4 KB pages).
const PageSize = 4096

// mapMin is the smallest backing that is mapped rather than taken from the
// Go heap (where the build maps at all; see mapAnon).
const mapMin = 64 << 10

// ErrReleased is returned for any access to a region of a released Space.
var ErrReleased = errors.New("mem: region released")

// Addr is a virtual address within one machine's Space.
type Addr uint64

// Page returns the page number containing the address.
func (a Addr) Page() uint64 { return uint64(a) / PageSize }

// Region is one contiguous allocation, pinned to a socket.
//
// A sparse region (AllocSparse) spans a large virtual extent backed by a
// small physical buffer that accesses alias into. Sparse regions serve
// timing-only benchmarks that need huge registered spans (the paper's 2 GB
// Figure 6 region) and tables whose bytes are read back only within a
// bounded window (dlog's data tables), without the host memory: addresses
// and page numbers are real, the bytes wrap.
type Region struct {
	addr   Addr
	socket topo.SocketID
	size   int    // the region's extent; the virtual span when sparse
	buf    []byte // nil once released
	sparse bool
	mapped bool // buf is an anonymous mapping, unmapped by free
}

// Addr returns the region's base address.
func (r *Region) Addr() Addr { return r.addr }

// Size returns the region length in bytes (the virtual span for sparse
// regions).
func (r *Region) Size() int { return r.size }

// Socket returns the NUMA socket whose DRAM backs the region.
func (r *Region) Socket() topo.SocketID { return r.socket }

// End returns the first address past the region.
func (r *Region) End() Addr { return r.addr + Addr(r.size) }

// Bytes returns the backing storage, or nil once the region's Space is
// released. Mutating it is equivalent to local CPU stores into the region.
// The slice is valid only while the Region is reachable: hold the Region
// (or the MR that registers it) for as long as the slice is used.
func (r *Region) Bytes() []byte { return r.buf }

// Contains reports whether [addr, addr+size) lies inside the region.
func (r *Region) Contains(addr Addr, size int) bool {
	return addr >= r.addr && size >= 0 && addr+Addr(size) <= r.End()
}

// Slice returns the size bytes starting at addr, which must lie within the
// region. For sparse regions the returned bytes alias the wrapped physical
// backing, so an access may be no larger than the backing. The slice is
// valid only while the Region is reachable (see Bytes).
func (r *Region) Slice(addr Addr, size int) ([]byte, error) {
	if !r.Contains(addr, size) {
		return nil, fmt.Errorf("mem: [%#x,+%d) outside region [%#x,+%d)", addr, size, r.addr, r.size)
	}
	if r.buf == nil {
		return nil, fmt.Errorf("mem: access [%#x,+%d): %w", addr, size, ErrReleased)
	}
	off := int(addr - r.addr)
	if r.sparse {
		switch n := len(r.buf); {
		case size > n:
			return nil, fmt.Errorf("mem: access [%#x,+%d) exceeds the %d-byte backing of sparse region [%#x,+%d)", addr, size, n, r.addr, r.size)
		case size < n:
			off %= n - size
		default:
			off = 0
		}
	}
	return r.buf[off : off+size], nil
}

// back gives r n bytes of zeroed backing, mapped when n is at least mapMin
// and the build maps memory, and from the Go heap otherwise.
func (r *Region) back(n int) {
	if n >= mapMin {
		if r.buf = mapAnon(n); r.buf != nil {
			r.mapped = true
			runtime.SetFinalizer(r, (*Region).free)
			return
		}
	}
	r.buf = make([]byte, n)
}

// free returns the region's backing: hands the mapping back (and drops the
// finalizer that would) if mapped, else leaves it to the garbage collector.
// A freed region is no longer mapped, so freeing it again hands nothing
// back: a mapping is never on the free list twice.
func (r *Region) free() {
	if r.mapped {
		runtime.SetFinalizer(r, nil)
		freeAnon(r.buf)
		r.mapped = false
	}
	r.buf = nil
}

// Space is one machine's memory: a bump allocator per socket plus an index of
// live regions for address resolution.
type Space struct {
	capacity uint64 // per-socket capacity in bytes
	next     []uint64
	regions  []*Region // sorted by base address
}

// NewSpace creates a memory space of topo.Sockets sockets, each backed by
// perSocket bytes of address space. Backing storage is allocated lazily per
// region, so large address spaces are cheap.
func NewSpace(perSocket uint64) (*Space, error) {
	if perSocket == 0 || perSocket%PageSize != 0 {
		return nil, fmt.Errorf("mem: per-socket capacity must be a positive multiple of %d", PageSize)
	}
	next := make([]uint64, topo.Sockets)
	for s := range next {
		// Leave the zero page unmapped so Addr(0) is never valid.
		next[s] = uint64(s)*perSocket + PageSize
	}
	return &Space{capacity: perSocket, next: next}, nil
}

// Alloc reserves size bytes on the given socket with the given alignment
// (which must be a power of two; 0 means page alignment, matching the
// paper's posix_memalign usage).
func (s *Space) Alloc(socket topo.SocketID, size int, align uint64) (*Region, error) {
	if socket < 0 || int(socket) >= topo.Sockets {
		return nil, fmt.Errorf("mem: socket %d out of range [0,%d)", socket, topo.Sockets)
	}
	if size <= 0 {
		return nil, fmt.Errorf("mem: allocation size must be positive, got %d", size)
	}
	if align == 0 {
		align = PageSize
	}
	if align&(align-1) != 0 {
		return nil, fmt.Errorf("mem: alignment %d is not a power of two", align)
	}
	base := (s.next[int(socket)] + align - 1) &^ (align - 1)
	limit := uint64(int(socket)+1) * s.capacity
	if base+uint64(size) > limit {
		return nil, fmt.Errorf("mem: socket %d out of memory (%d bytes requested)", socket, size)
	}
	s.next[int(socket)] = base + uint64(size)
	r := &Region{addr: Addr(base), socket: socket, size: size}
	r.back(size)
	s.insert(r)
	return r, nil
}

// AllocSparse reserves a virtualSize-byte extent backed by only backing
// bytes of physical storage, starting on a page boundary. Use it for
// timing-only benchmarks over huge registered regions, or where no byte is
// read back after a bounded number of later writes; reads and writes alias
// into the backing.
//
// Sparse regions are the one exception to demand-zero backing. A dense
// mapped region pays a page fault for every page an op first touches, and
// the random-access sweeps fault in most of their span: on a 2-CPU x86-64
// VM, backing the microbenchmark pair's regions densely made fig6 at scale
// 0.25 cost 1.30 s of CPU instead of 0.56 s (system time 0.73 s instead of
// 0.07 s, nearly all page faults) and raised its peak RSS from 9.9 to
// 20.7 MB. A sparse region touches at most its backing.
func (s *Space) AllocSparse(socket topo.SocketID, virtualSize, backing int) (*Region, error) {
	if socket < 0 || int(socket) >= topo.Sockets {
		return nil, fmt.Errorf("mem: socket %d out of range [0,%d)", socket, topo.Sockets)
	}
	if virtualSize <= 0 || backing <= 0 || backing > virtualSize {
		return nil, fmt.Errorf("mem: bad sparse sizing %d/%d", virtualSize, backing)
	}
	base := (s.next[int(socket)] + PageSize - 1) &^ (PageSize - 1)
	limit := uint64(int(socket)+1) * s.capacity
	if base+uint64(virtualSize) > limit {
		return nil, fmt.Errorf("mem: socket %d out of address space for sparse %d", socket, virtualSize)
	}
	s.next[int(socket)] = base + uint64(virtualSize)
	r := &Region{addr: Addr(base), socket: socket, size: virtualSize, sparse: true}
	r.back(backing)
	s.insert(r)
	return r, nil
}

// insert places a region into the sorted index.
func (s *Space) insert(r *Region) {
	i := sort.Search(len(s.regions), func(i int) bool { return s.regions[i].addr > r.addr })
	s.regions = append(s.regions, nil)
	copy(s.regions[i+1:], s.regions[i:])
	s.regions[i] = r
}

// Release hands back the bytes of every region in the space: mapped
// backings are unmapped, or on Linux kept for reuse by a later region of
// the same length; the rest are left to the garbage collector. Call it once
// nothing simulates the space any more. Addresses still resolve, but every
// later Slice, ReadAt or WriteAt returns ErrReleased and Bytes returns nil;
// a slice taken from Bytes or Slice before Release must not be used after
// it. Releasing twice is harmless.
func (s *Space) Release() {
	for _, r := range s.regions {
		r.free()
	}
}

// Resolve returns the region containing [addr, addr+size).
func (s *Space) Resolve(addr Addr, size int) (*Region, error) {
	i := sort.Search(len(s.regions), func(i int) bool { return s.regions[i].addr > addr })
	if i == 0 {
		return nil, fmt.Errorf("mem: address %#x not mapped", addr)
	}
	r := s.regions[i-1]
	if !r.Contains(addr, size) {
		return nil, fmt.Errorf("mem: access [%#x,+%d) escapes region [%#x,+%d)", addr, size, r.addr, r.size)
	}
	return r, nil
}

// SocketOf returns the socket backing the given address.
func (s *Space) SocketOf(addr Addr) (topo.SocketID, error) {
	r, err := s.Resolve(addr, 0)
	if err != nil {
		return 0, err
	}
	return r.socket, nil
}

// ReadAt copies len(p) bytes starting at addr into p.
func (s *Space) ReadAt(addr Addr, p []byte) error {
	r, err := s.Resolve(addr, len(p))
	if err != nil {
		return err
	}
	src, err := r.Slice(addr, len(p))
	if err != nil {
		return err
	}
	copy(p, src)
	return nil
}

// WriteAt copies p into memory starting at addr.
func (s *Space) WriteAt(addr Addr, p []byte) error {
	r, err := s.Resolve(addr, len(p))
	if err != nil {
		return err
	}
	dst, err := r.Slice(addr, len(p))
	if err != nil {
		return err
	}
	copy(dst, p)
	return nil
}
