// Package verbs exposes an ibverbs-flavoured programming surface — contexts,
// memory regions, queue pairs, scatter/gather work requests, completion
// queues — over the simulated machines of internal/cluster.
//
// The paper restricts its study to Reliable Connection (RC) transport, the
// only mode supporting RDMA READ and atomics (Section II-A). So does this
// package: every connected QP is RC and carries every verb, UD carries
// datagrams (UDQP) for the RPC baseline, and illegal verb/transport
// combinations fail with typed errors.
//
// Data movement is real (bytes are copied between machine memory spaces);
// time is virtual (the request walks the NIC, PCIe, wire and responder
// resources of the discrete-event model).
package verbs

import (
	"errors"
	"fmt"

	"rdmasem/internal/cluster"
	"rdmasem/internal/mem"
	"rdmasem/internal/rnic"
	"rdmasem/internal/sim"
)

// Transport is the RDMA transport type of a QP.
type Transport uint8

// Transport types: RC is the only connected one, matching the paper's
// Section II-A.
const (
	RC Transport = iota // reliable connection
	UD                  // unreliable datagram (SEND only)
)

func (t Transport) String() string {
	if t == RC {
		return "RC"
	}
	return "UD"
}

// MaxInline is the largest payload that can ride inside the WQE itself
// (ConnectX-3's effective inline threshold).
const MaxInline = 188

// CQECost is the latency of generating and DMAing one completion entry.
const CQECost sim.Duration = 50

// Typed errors surfaced by the verbs layer.
var (
	ErrBadTransport = errors.New("verbs: operation not supported on this transport")
	ErrNotConnected = errors.New("verbs: queue pair is not connected")
	ErrBadSGL       = errors.New("verbs: invalid scatter/gather list")
	ErrMRBounds     = errors.New("verbs: access outside memory region")
	ErrBadRKey      = errors.New("verbs: unknown remote key")
	ErrRNR          = errors.New("verbs: receiver not ready (no posted receive)")
	ErrAtomicSize   = errors.New("verbs: atomic operations are 8 bytes")
	ErrQPError      = errors.New("verbs: queue pair is in error state")
	ErrNilWR        = errors.New("verbs: nil work request")
	ErrForeignMR    = errors.New("verbs: region is not in this context's machine memory")
	ErrQPNExhausted = errors.New("verbs: QP numbers exhausted")
)

// MaxQPN is the largest QP number: QPNs are 24 bits on the wire, and a QP
// stores its number in 32. Connect and NewUDQP fail with ErrQPNExhausted
// once a cluster's allocator passes it, rather than let two QPs share a
// number (and so a QP-context cache key).
const MaxQPN = 1<<24 - 1

// Context is an opened device on one machine: the registry of MRs and the
// factory for QPs. QP numbers come from the machine's cluster-wide
// allocator, so a Context carries no package-level state and two clusters
// simulated concurrently stay fully hermetic.
type Context struct {
	machine *cluster.Machine
	mrs     []*MR      // indexed by RKey-1
	routes  []*qpRoute // one per NIC port, shared by every QP bound to it
}

// NewContext opens the (single) RNIC of a machine.
func NewContext(m *cluster.Machine) *Context {
	c := &Context{machine: m}
	for p := 0; p < rnic.Ports; p++ {
		c.routes = append(c.routes, newRoute(c, p))
	}
	return c
}

// Machine returns the underlying host.
func (c *Context) Machine() *cluster.Machine { return c.machine }

// checkPort rejects a NIC port index the context's machine does not have.
func (c *Context) checkPort(p int) error {
	if p < 0 || p >= len(c.routes) {
		return fmt.Errorf("verbs: port %d out of range", p)
	}
	return nil
}

// MR is a registered memory region. Its RKey grants remote access.
type MR struct {
	id     uint64
	ctx    *Context
	region *mem.Region
}

// RegisterMR registers a previously allocated region for RDMA access. The
// region must belong to the context's machine memory: one-sided verbs land
// their data through the MR's region, so a region of another machine's
// Space is rejected with ErrForeignMR.
func (c *Context) RegisterMR(r *mem.Region) (*MR, error) {
	if r == nil {
		return nil, fmt.Errorf("verbs: nil region")
	}
	if got, err := c.machine.Space().Resolve(r.Addr(), r.Size()); err != nil || got != r {
		return nil, fmt.Errorf("%w: [%#x,+%d) on %s", ErrForeignMR, r.Addr(), r.Size(), c.machine.Label())
	}
	mr := &MR{id: uint64(len(c.mrs)) + 1, ctx: c, region: r}
	c.mrs = append(c.mrs, mr)
	return mr, nil
}

// MustRegisterMR is RegisterMR that panics on failure (test/benchmark setup).
func (c *Context) MustRegisterMR(r *mem.Region) *MR {
	mr, err := c.RegisterMR(r)
	if err != nil {
		panic(err)
	}
	return mr
}

// LookupMR resolves an RKey on this context. RKeys are dense per context
// (1, 2, 3, ... in registration order) and a registration is never undone,
// so the lookup is a bounds check; RKey 0 wraps past every slot.
func (c *Context) LookupMR(key RKey) (*MR, error) {
	if key-1 < RKey(len(c.mrs)) {
		return c.mrs[key-1], nil
	}
	return nil, fmt.Errorf("%w: %d", ErrBadRKey, key)
}

// RKey is the token a remote peer presents to access an MR.
type RKey uint64

// RKey returns the region's remote access key.
func (mr *MR) RKey() RKey { return RKey(mr.id) }

// Region returns the registered memory region.
func (mr *MR) Region() *mem.Region { return mr.region }

// Addr returns the region's base address (convenience).
func (mr *MR) Addr() mem.Addr { return mr.region.Addr() }

// contains validates an access range against the region.
func (mr *MR) contains(addr mem.Addr, size int) error {
	if !mr.region.Contains(addr, size) {
		return fmt.Errorf("%w: [%#x,+%d) vs MR [%#x,+%d)",
			ErrMRBounds, addr, size, mr.region.Addr(), mr.region.Size())
	}
	return nil
}
