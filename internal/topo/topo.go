// Package topo describes the NUMA topology of a simulated machine and the
// cost model for *local* memory access: per-socket DRAM, QPI inter-socket
// links, and the PCIe attach point of the RNIC.
//
// The constants mirror the paper's testbed (dual-socket Xeon E5-2640 v2,
// ConnectX-3 attached to socket 1) and its measured numbers: Table II's
// 92 ns / 3.70 GB/s own-socket vs 162 ns / 2.27 GB/s cross-socket, the
// introduction's 2.92x sequential-over-random and 6.85x over inter-socket
// random write ratios, and Figure 6(c)'s local DRAM curves.
package topo

import (
	"fmt"

	"rdmasem/internal/sim"
)

// SocketID identifies a CPU socket within one machine.
type SocketID int

// AccessOp distinguishes loads from stores in the local-memory cost model.
type AccessOp int

// Local memory operation kinds.
const (
	Read AccessOp = iota
	Write
)

func (o AccessOp) String() string {
	if o == Read {
		return "read"
	}
	return "write"
}

// Pattern distinguishes sequential from random address streams.
type Pattern int

// Address stream patterns.
const (
	Seq Pattern = iota
	Rand
)

func (p Pattern) String() string {
	if p == Seq {
		return "seq"
	}
	return "rand"
}

// Local memory costs of the paper testbed.
const (
	// Local DRAM (Table II, measured with an MLC-style probe): idle
	// load-to-use latency and single-stream bytes/s, own and cross socket.
	dramLatencyOwn   sim.Duration = 92
	dramLatencyCross sim.Duration = 162
	DRAMBandwidthOwn              = 3.70e9
	DRAMBandwidthX                = 2.27e9

	// Sequential-stream engine (prefetchers + cache line reuse): per-op cost
	// floor for sequential access, and streaming bandwidths.
	seqReadOpCost    sim.Duration = 12 // ~80 MOPS small sequential reads (Fig 6c)
	seqWriteOpCost   sim.Duration = 31 // 2.92x faster than 92ns random write (Intro)
	seqReadStreamBW               = 10.0e9
	seqWriteStreamBW              = 6.0e9

	// Random write costs (RFO makes stores costlier than Table II loads).
	randWriteLatencyOwn   sim.Duration = 92
	randWriteLatencyCross sim.Duration = 215 // ~6.85x the 31ns sequential write (Intro)

	// Local atomic operations (GCC __sync builtins).
	AtomicHit    sim.Duration = 8  // uncontended, line already owned: ~125 MOPS spinlock (Fig 10a)
	AtomicBounce sim.Duration = 60 // cache line transfer from another core

	// QPIBandwidth is the inter-socket interconnect's bytes/s per
	// direction; Params.QPILatency is its per-crossing latency.
	QPIBandwidth = 12.8e9

	// Per-core memcpy, used by the SP gather and log staging.
	memcpyBandwidth              = 8.0e9
	memcpyOpCost    sim.Duration = 15 // fixed per-memcpy call overhead

	// readv/writev batching of local memory ops (Figure 4 "Local" series):
	// fixed syscall cost amortized over the batch.
	syscallCost sim.Duration = 250
)

// The machine's shape: every host of the testbed has two CPU sockets, and the
// RNIC's PCIe root port sits on socket 1.
const (
	Sockets            = 2
	NICSocket SocketID = 1
)

// Params holds what a cluster may set on a machine: the QPI latency the
// ablation experiment varies. Every other cost of the model is a constant
// above; construct with DefaultParams and override the field as needed.
type Params struct {
	QPILatency sim.Duration // per-crossing latency adder of the QPI interconnect
}

// DefaultParams returns the paper-testbed calibration.
func DefaultParams() Params {
	return Params{QPILatency: 70}
}

// Validate reports whether the parameters describe a usable machine.
func (p Params) Validate() error {
	if p.QPILatency < 0 {
		return fmt.Errorf("topo: QPILatency must be nonnegative, got %d", p.QPILatency)
	}
	return nil
}

// LocalAccessTime returns the per-operation cost of one local memory access
// of the given size, pattern and socket affinity (cross = the accessing core
// and the memory are on different sockets). This is the model behind
// Figure 6(c) and the "Local" series of Figure 4.
func (p Params) LocalAccessTime(op AccessOp, pat Pattern, size int, cross bool) sim.Duration {
	if size < 0 {
		size = 0
	}
	switch pat {
	case Seq:
		var base sim.Duration
		var bw float64
		if op == Read {
			base, bw = seqReadOpCost, seqReadStreamBW
		} else {
			base, bw = seqWriteOpCost, seqWriteStreamBW
		}
		// Both streams run below QPIBandwidth, so crossing sockets adds
		// latency only, and prefetchers hide most of the hop.
		if cross {
			base += p.QPILatency / 4
		}
		return max(base, sim.TransferTime(size, bw))
	default: // Rand
		var lat sim.Duration
		var bw float64
		switch {
		case op == Read && !cross:
			lat, bw = dramLatencyOwn, DRAMBandwidthOwn
		case op == Read && cross:
			lat, bw = dramLatencyCross, DRAMBandwidthX
		case op == Write && !cross:
			lat, bw = randWriteLatencyOwn, DRAMBandwidthOwn
		default:
			lat, bw = randWriteLatencyCross, DRAMBandwidthX
		}
		return lat + sim.TransferTime(size, bw)
	}
}

// MemcpyTime returns the CPU cost of copying size bytes, charged to the
// calling core (used by the SP gather and the log's NUMA staging copy).
func (p Params) MemcpyTime(size int, cross bool) sim.Duration {
	bw := float64(memcpyBandwidth)
	if cross {
		bw = min(memcpyBandwidth, QPIBandwidth/2)
	}
	d := memcpyOpCost + sim.TransferTime(size, bw)
	if cross {
		d += p.QPILatency
	}
	return d
}

// VectorIOTime returns the cost of a readv/writev batch of n local buffers of
// the given size each: one syscall plus n sequential accesses.
func (p Params) VectorIOTime(op AccessOp, n, size int) sim.Duration {
	if n <= 0 {
		return 0
	}
	per := p.LocalAccessTime(op, Seq, size, false)
	return syscallCost + sim.Duration(n)*per
}
