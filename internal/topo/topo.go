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

// Params holds every tunable of the machine model. Zero values are invalid;
// construct with DefaultParams and override fields as needed.
type Params struct {
	Sockets   int      // CPU sockets per machine
	NICSocket SocketID // socket whose PCIe root hosts the RNIC

	// Local DRAM (Table II, measured with an MLC-style probe).
	DRAMLatencyOwn   sim.Duration // idle load-to-use latency, own socket
	DRAMLatencyCross sim.Duration // idle load-to-use latency, cross socket
	DRAMBandwidthOwn float64      // single-stream bytes/s, own socket
	DRAMBandwidthX   float64      // single-stream bytes/s, cross socket

	// Sequential-stream engine (prefetchers + cache line reuse): per-op cost
	// floor for sequential access, and streaming bandwidths.
	SeqReadOpCost    sim.Duration
	SeqWriteOpCost   sim.Duration
	SeqReadStreamBW  float64
	SeqWriteStreamBW float64

	// Random write costs (RFO makes stores costlier than Table II loads).
	RandWriteLatencyOwn   sim.Duration
	RandWriteLatencyCross sim.Duration

	// Local atomic operations (GCC __sync builtins).
	AtomicHit    sim.Duration // uncontended, line already owned
	AtomicBounce sim.Duration // cache line transfer from another core

	// QPI interconnect between sockets.
	QPIBandwidth float64      // bytes/s per direction
	QPILatency   sim.Duration // per-crossing latency adder

	// Per-core memcpy bandwidth, used by the SP gather and log staging.
	MemcpyBandwidth float64
	MemcpyOpCost    sim.Duration // fixed per-memcpy call overhead

	// readv/writev batching of local memory ops (Figure 4 "Local" series):
	// fixed syscall cost amortized over the batch.
	SyscallCost sim.Duration
}

// DefaultParams returns the paper-testbed calibration.
func DefaultParams() Params {
	return Params{
		Sockets:   2,
		NICSocket: 1,

		DRAMLatencyOwn:   92,  // ns (Table II)
		DRAMLatencyCross: 162, // ns (Table II)
		DRAMBandwidthOwn: 3.70e9,
		DRAMBandwidthX:   2.27e9,

		SeqReadOpCost:    12, // ~80 MOPS small sequential reads (Fig 6c)
		SeqWriteOpCost:   31, // 2.92x faster than 92ns random write (Intro)
		SeqReadStreamBW:  10.0e9,
		SeqWriteStreamBW: 6.0e9,

		RandWriteLatencyOwn:   92,
		RandWriteLatencyCross: 215, // ~6.85x the 31ns sequential write (Intro)

		AtomicHit:    8,  // ~125 MOPS single-thread spinlock (Fig 10a)
		AtomicBounce: 60, // cross-core line transfer

		QPIBandwidth: 12.8e9,
		QPILatency:   70,

		MemcpyBandwidth: 8.0e9,
		MemcpyOpCost:    15,

		SyscallCost: 250,
	}
}

// Validate reports whether the parameters describe a usable machine.
func (p Params) Validate() error {
	if p.Sockets < 1 {
		return fmt.Errorf("topo: sockets must be >= 1, got %d", p.Sockets)
	}
	if p.NICSocket < 0 || int(p.NICSocket) >= p.Sockets {
		return fmt.Errorf("topo: NIC socket %d out of range [0,%d)", p.NICSocket, p.Sockets)
	}
	for _, bw := range []float64{
		p.DRAMBandwidthOwn, p.DRAMBandwidthX, p.SeqReadStreamBW,
		p.SeqWriteStreamBW, p.QPIBandwidth, p.MemcpyBandwidth,
	} {
		if bw <= 0 {
			return fmt.Errorf("topo: bandwidths must be positive")
		}
	}
	for _, f := range []struct {
		name string
		d    sim.Duration
	}{
		{"DRAMLatencyOwn", p.DRAMLatencyOwn}, {"DRAMLatencyCross", p.DRAMLatencyCross},
		{"SeqReadOpCost", p.SeqReadOpCost}, {"SeqWriteOpCost", p.SeqWriteOpCost},
		{"RandWriteLatencyOwn", p.RandWriteLatencyOwn}, {"RandWriteLatencyCross", p.RandWriteLatencyCross},
		{"AtomicHit", p.AtomicHit}, {"AtomicBounce", p.AtomicBounce}, {"QPILatency", p.QPILatency},
		{"MemcpyOpCost", p.MemcpyOpCost}, {"SyscallCost", p.SyscallCost},
	} {
		if f.d < 0 {
			return fmt.Errorf("topo: %s must be nonnegative, got %d", f.name, f.d)
		}
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
			base, bw = p.SeqReadOpCost, p.SeqReadStreamBW
		} else {
			base, bw = p.SeqWriteOpCost, p.SeqWriteStreamBW
		}
		if cross {
			bw = minf(bw, p.QPIBandwidth)
			base += p.QPILatency / 4 // prefetchers hide most of the hop
		}
		return sim.Max(base, sim.TransferTime(size, bw))
	default: // Rand
		var lat sim.Duration
		var bw float64
		switch {
		case op == Read && !cross:
			lat, bw = p.DRAMLatencyOwn, p.DRAMBandwidthOwn
		case op == Read && cross:
			lat, bw = p.DRAMLatencyCross, p.DRAMBandwidthX
		case op == Write && !cross:
			lat, bw = p.RandWriteLatencyOwn, p.DRAMBandwidthOwn
		default:
			lat, bw = p.RandWriteLatencyCross, p.DRAMBandwidthX
		}
		return lat + sim.TransferTime(size, bw)
	}
}

// MemcpyTime returns the CPU cost of copying size bytes, charged to the
// calling core (used by the SP gather and the log's NUMA staging copy).
func (p Params) MemcpyTime(size int, cross bool) sim.Duration {
	bw := p.MemcpyBandwidth
	if cross {
		bw = minf(bw, p.QPIBandwidth/2)
	}
	d := p.MemcpyOpCost + sim.TransferTime(size, bw)
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
	return p.SyscallCost + sim.Duration(n)*per
}

func minf(a, b float64) float64 {
	if a < b {
		return a
	}
	return b
}

// Topology is the realized layout of one machine.
type Topology struct {
	Params Params
}

// New validates params and returns the machine topology.
func New(p Params) (*Topology, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	return &Topology{Params: p}, nil
}

// NICSocket returns the socket hosting the RNIC's PCIe root port.
func (t *Topology) NICSocket() SocketID { return t.Params.NICSocket }

// Sockets returns the number of sockets.
func (t *Topology) Sockets() int { return t.Params.Sockets }
