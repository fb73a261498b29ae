//go:build linux && !race

package mem

import (
	"sync"
	"syscall"
	"unsafe"
)

// pool holds released mappings for reuse, keyed by exact length. A sweep
// builds a fresh cluster per point, and its regions come back in the same
// sizes point after point, so reusing a mapping saves the kernel
// zero-filling its pages again on first touch. It holds host pages only:
// addresses are allocated per Space and every region starts all-zero, so no
// simulated value can depend on it. Finalizers and parallel sweep workers
// free regions concurrently, hence the lock.
var pool struct {
	sync.Mutex
	free map[int][][]byte
}

// hostPage is the host's page size, the unit of mincore and madvise.
var hostPage = syscall.Getpagesize()

// mapAnon returns size bytes of private anonymous memory that read as zero,
// or nil if the kernel refuses the mapping. It reuses a released mapping of
// exactly size bytes if one is free, zeroing it in place. Otherwise it first
// unmaps every pooled mapping: this flush on a miss is the pool's only
// bound, so sizes that never come back are not kept. A fresh mapping's pages
// are zero-filled on first touch and no swap is reserved for them, so an
// untouched byte costs neither CPU nor RSS.
func mapAnon(size int) []byte {
	if b := takePooled(size); b != nil {
		if rezero(b) == nil {
			return b
		}
		syscall.Munmap(b)
	}
	b, err := syscall.Mmap(-1, 0, size, syscall.PROT_READ|syscall.PROT_WRITE,
		syscall.MAP_PRIVATE|syscall.MAP_ANON|syscall.MAP_NORESERVE)
	if err != nil {
		return nil
	}
	return b
}

// freeAnon puts a mapAnon mapping on the free list for the next region of
// its length.
func freeAnon(b []byte) {
	pool.Lock()
	if pool.free == nil {
		pool.free = make(map[int][][]byte)
	}
	pool.free[len(b)] = append(pool.free[len(b)], b)
	pool.Unlock()
}

// takePooled pops a pooled mapping of exactly size bytes. On a miss it
// unmaps every pooled mapping and returns nil.
func takePooled(size int) []byte {
	pool.Lock()
	if l := pool.free[size]; len(l) > 0 {
		b := l[len(l)-1]
		l[len(l)-1] = nil
		pool.free[size] = l[:len(l)-1]
		pool.Unlock()
		return b
	}
	flushed := pool.free
	pool.free = nil
	pool.Unlock()
	for _, l := range flushed {
		for _, b := range l {
			syscall.Munmap(b)
		}
	}
	return nil
}

// rezero makes every byte of a released mapping read zero again. One
// mincore call finds the resident pages, which are cleared in place at no
// fault. Every maximal run of the other pages gets MADV_DONTNEED, which
// drops any swapped-out contents (the next touch zero-fills) and costs
// nothing on pages never touched. Either way suits any page, so the result
// is exact whatever mincore reports; mincore only picks the cheaper one.
func rezero(b []byte) error {
	pages := (len(b) + hostPage - 1) / hostPage
	vec := make([]byte, pages)
	_, _, errno := syscall.Syscall(syscall.SYS_MINCORE,
		uintptr(unsafe.Pointer(unsafe.SliceData(b))), uintptr(len(b)), uintptr(unsafe.Pointer(unsafe.SliceData(vec))))
	if errno != 0 {
		return errno
	}
	span := func(from, to int) []byte { return b[from*hostPage : min(to*hostPage, len(b))] }
	run := -1 // first page of the current non-resident run
	for p := 0; p <= pages; p++ {
		if p < pages && vec[p]&1 == 0 {
			if run < 0 {
				run = p
			}
			continue
		}
		if run >= 0 {
			if err := syscall.Madvise(span(run, p), syscall.MADV_DONTNEED); err != nil {
				return err
			}
			run = -1
		}
		if p < pages {
			clear(span(p, p+1))
		}
	}
	return nil
}
