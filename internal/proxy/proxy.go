// Package proxy is the per-node connection-serving layer: it multiplexes
// many logical client endpoints onto a small pool of physical queue pairs
// (Table) and optionally interposes a proxy daemon that owns the pool on the
// clients' behalf (Daemon), generalizing the per-socket proxy hop of
// internal/core/numa.go to per-node scope.
//
// The problem it addresses is Section II-B2's connection observation at
// datacenter scale (RDMAvisor): once live QP contexts overflow the RNIC's
// metadata SRAM, every operation pays context-fetch latency and execution
// unit occupancy, and aggregate throughput collapses. A per-node service
// that owns a bounded QP pool — and, in daemon form, the memory
// registrations too — keeps the working set of NIC metadata constant no
// matter how many logical connections it serves; clients pay a shared-memory
// IPC hop and a staging copy instead. The qpsweep experiment plots the
// trade.
//
// All table and daemon state lives on the local (posting) machine, and
// every pooled QP connects that machine to the table's one remote peer.
package proxy

import (
	"rdmasem/internal/sim"
	"rdmasem/internal/topo"
)

// MaxPayload bounds the payload that rides a proxy's shared-memory message
// into its bounce buffer; larger requests keep their original scatter/gather
// list and the NIC gathers them from the client's own registration.
const MaxPayload = 1024

// HopCost returns the round-trip shared-memory IPC cost of handing a
// request to a proxy process and collecting its result: one cache-line push
// and one pull, each paying the cross-core line transfer plus an
// interconnect crossing. internal/core's NUMA proxy charges the same hop
// per-socket; the Daemon charges it per-node.
func HopCost(p topo.Params) sim.Duration {
	return 2 * (topo.AtomicBounce + p.QPILatency)
}
