//go:build !unix || aix || race

package mem

// mapAnon never maps on this build, so every region is a Go slice. Race
// builds land here because the race detector does not watch mapped memory.
func mapAnon(int) []byte { return nil }

// freeAnon is never reached: nothing is mapped.
func freeAnon([]byte) {}
