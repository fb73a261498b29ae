package main

import (
	"runtime"
	"slices"
	"syscall"
)

// refCPU0 is the reference loop's CPU time, in seconds, on the host the
// metric bounds were set on (a 2-CPU x86-64 VM, Go 1.24) in a quiet phase.
// Every time the benchmark reports is in reference-host seconds:
//
//	reported = measured × refCPU0 / (reference-loop CPU measured beside it)
//
// The host runs other tenants' jobs; for minutes at a time they slow the
// same rdmabench child by up to 2×, through memory and cache contention
// rather than clock rate. The reference loop is memory-bound like the
// simulator and slows with it, so the ratio cancels most of that drift. The
// loop is built from this package alone: no change to the simulator changes
// it.
const refCPU0 = 0.07

var refSink uint64

// refLoop is a fixed, deterministic workload that, like the simulator,
// allocates, hashes and misses in cache: 300k random updates over a
// million-key space (a map of about 260k entries, some 10 MB), then a sort
// of its contents.
func refLoop() {
	m := make(map[uint64]uint64)
	x := uint64(1)
	for i := 0; i < 300_000; i++ {
		x = x*6364136223846793005 + 1442695040888963407
		m[x%1_000_000] += x
	}
	s := make([]uint64, 0, len(m))
	for k, v := range m {
		s = append(s, k^v)
	}
	slices.Sort(s)
	refSink += s[0]
}

// refCPU runs the reference loop in this process, with nothing else
// running, and returns the CPU seconds it took.
func refCPU() float64 {
	runtime.GC()
	before := selfCPU()
	refLoop()
	return selfCPU() - before
}

func selfCPU() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic(err) // RUSAGE_SELF with a valid pointer cannot fail
	}
	return float64(ru.Utime.Nano()+ru.Stime.Nano()) / 1e9
}
