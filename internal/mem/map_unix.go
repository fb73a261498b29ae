//go:build unix && !aix && !linux && !race

package mem

import "syscall"

// mapAnon returns size bytes of private anonymous memory, or nil if the
// kernel refuses the mapping. Pages are zero-filled on first touch and no
// swap is reserved for them, so an untouched byte costs neither CPU nor RSS.
// (AIX takes the Go-heap fallback: its syscall package has no
// MAP_NORESERVE. Linux reuses released mappings instead; other systems do
// not, because their MADV_DONTNEED need not zero a page.)
func mapAnon(size int) []byte {
	b, err := syscall.Mmap(-1, 0, size, syscall.PROT_READ|syscall.PROT_WRITE,
		syscall.MAP_PRIVATE|syscall.MAP_ANON|syscall.MAP_NORESERVE)
	if err != nil {
		return nil
	}
	return b
}

// freeAnon returns a mapAnon mapping to the kernel.
func freeAnon(b []byte) { syscall.Munmap(b) }
