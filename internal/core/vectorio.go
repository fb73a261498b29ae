package core

import (
	"fmt"

	"rdmasem/internal/mem"
	"rdmasem/internal/sim"
	"rdmasem/internal/verbs"
)

// Strategy selects one of the paper's three vector-IO batch mechanisms
// (Section III-A, Algorithm 1).
type Strategy int

// Batch strategies.
const (
	// SP redesigns the Software Protocol: the CPU memcpys every fragment
	// into one staging buffer and posts a single WR with one SGE. Highest
	// throughput, highest CPU cost, worst programmability (Table I).
	SP Strategy = iota
	// Doorbell posts one WR per fragment but rings a single doorbell for
	// the whole list, saving all but one MMIO. It does not reduce network
	// round trips.
	Doorbell
	// SGL posts one WR whose scatter/gather list names every fragment; the
	// NIC gathers them with scatter/gather DMA and the batch travels as one
	// network operation to one remote extent.
	SGL
)

func (s Strategy) String() string {
	switch s {
	case SP:
		return "SP"
	case Doorbell:
		return "Doorbell"
	default:
		return "SGL"
	}
}

// CPU-cost constants for work-request construction, used for the paper's
// Figure 18 style CPU accounting.
const (
	// WRBuildCost is the CPU time to construct and chain one WQE.
	WRBuildCost sim.Duration = 40
	// SGEBuildCost is the CPU time to append one SGE to a WQE.
	SGEBuildCost sim.Duration = 25
	// PostCPUCost is the CPU time of ringing one doorbell (MMIO write from
	// the core's perspective; the latency cost lives in the RNIC model).
	PostCPUCost sim.Duration = 150
)

// Fragment is one local piece of data to batch.
type Fragment struct {
	Addr   mem.Addr
	Length int
}

// BatchResult reports one batched operation.
type BatchResult struct {
	Done     sim.Time     // completion of the last constituent operation
	CPU      sim.Duration // requester CPU time consumed (gathering, WQEs, MMIOs)
	Requests int          // RDMA operations issued on the wire
}

// Batcher issues batched remote writes of scattered local fragments using a
// fixed strategy. It is bound to one QP, one local MR holding the fragments,
// and (for SP) a staging buffer within that MR's machine.
type Batcher struct {
	strategy Strategy
	qp       *verbs.QP
	localMR  *verbs.MR
	staging  *verbs.MR // SP staging buffer; nil for other strategies
	remoteMR *verbs.MR
	dbDepth  int // doorbell list cap; 0 = whole batch under one doorbell

	// Reusable work-request scratch, rebuilt in place on every WriteBatch so
	// closed-loop sweep drivers stay off the heap. The slices grow to the
	// largest batch seen and are only valid until the next call.
	wr   verbs.SendWR    // the single WR of the SP and SGL strategies
	sgl  []verbs.SGE     // SGL backing wr
	wrs  []*verbs.SendWR // doorbell list
	dbWR []verbs.SendWR  // backing store for wrs
	dbSG []verbs.SGE     // one SGE per doorbell WR
}

// NewBatcher creates a batcher. For the SP strategy, staging must be a local
// MR large enough for any batch; other strategies ignore it.
func NewBatcher(s Strategy, qp *verbs.QP, localMR *verbs.MR, staging *verbs.MR, remoteMR *verbs.MR) (*Batcher, error) {
	if qp == nil || localMR == nil || remoteMR == nil {
		return nil, fmt.Errorf("core: batcher needs qp, local MR and remote MR")
	}
	if s == SP && staging == nil {
		return nil, fmt.Errorf("core: SP strategy requires a staging buffer")
	}
	return &Batcher{strategy: s, qp: qp, localMR: localMR, staging: staging, remoteMR: remoteMR}, nil
}

// SetStrategy switches the batching mechanism mid-run; the next WriteBatch
// uses it. Switching to SP requires the staging buffer the batcher was built
// with — without one the call fails and the strategy is unchanged.
func (b *Batcher) SetStrategy(s Strategy) error {
	if s == SP && b.staging == nil {
		return fmt.Errorf("core: SP strategy requires a staging buffer")
	}
	b.strategy = s
	return nil
}

// SetDoorbellDepth caps how many WRs ride one doorbell: a Doorbell-strategy
// batch larger than depth is split into depth-sized lists, each ringing its
// own doorbell (paying one extra MMIO per split but bounding how much work a
// single posting parks in the send queue). 0 restores the unlimited default.
func (b *Batcher) SetDoorbellDepth(depth int) error {
	if depth < 0 {
		return fmt.Errorf("core: doorbell depth must be non-negative, got %d", depth)
	}
	b.dbDepth = depth
	return nil
}

// WriteBatch writes the fragments so that they land contiguously at
// remoteAddr, using the configured strategy. It returns the completion of
// the last constituent RDMA operation and the CPU cost burned by the caller.
//
// Note the semantic difference the paper highlights: SP and SGL coalesce the
// batch into ONE network operation; Doorbell issues len(frags) operations
// (and for Doorbell the fragments land at consecutive offsets computed from
// the fragment lengths, which is equivalent for our contiguous-destination
// benchmarks).
func (b *Batcher) WriteBatch(now sim.Time, frags []Fragment, remoteAddr mem.Addr) (BatchResult, error) {
	if len(frags) == 0 {
		return BatchResult{}, fmt.Errorf("core: empty batch")
	}
	switch b.strategy {
	case SP:
		return b.writeSP(now, frags, remoteAddr)
	case Doorbell:
		return b.writeDoorbell(now, frags, remoteAddr)
	default:
		return b.writeSGL(now, frags, remoteAddr)
	}
}

// writeSP gathers with the CPU into the staging buffer, then posts one WR.
func (b *Batcher) writeSP(now sim.Time, frags []Fragment, remoteAddr mem.Addr) (BatchResult, error) {
	tp := b.qp.Context().Machine().Topology()
	stage := b.staging.Region()
	dst := stage.Bytes()
	var cpu sim.Duration
	total := 0
	for _, f := range frags {
		src, err := b.localMR.Region().Slice(f.Addr, f.Length)
		if err != nil {
			return BatchResult{}, err
		}
		if total+f.Length > len(dst) {
			return BatchResult{}, fmt.Errorf("core: staging buffer overflow (%d > %d)", total+f.Length, len(dst))
		}
		copy(dst[total:], src)
		cross := b.localMR.Region().Socket() != stage.Socket()
		cpu += tp.MemcpyTime(f.Length, cross)
		total += f.Length
	}
	cpu += WRBuildCost + SGEBuildCost + PostCPUCost
	sgl := b.sglScratch(1)
	sgl[0] = verbs.SGE{Addr: stage.Addr(), Length: total, MR: b.staging}
	b.wr = verbs.SendWR{
		Opcode:     verbs.OpWrite,
		SGL:        sgl,
		RemoteAddr: remoteAddr,
		RemoteKey:  b.remoteMR.RKey(),
	}
	// The gather burns the caller's CPU before the post happens.
	comp, err := b.qp.PostSend(now+cpu, &b.wr)
	if err != nil {
		return BatchResult{}, err
	}
	return BatchResult{Done: comp.Done, CPU: cpu, Requests: 1}, nil
}

// sglScratch returns the reusable length-n SGE slice backing b.wr.
func (b *Batcher) sglScratch(n int) []verbs.SGE {
	if cap(b.sgl) < n {
		b.sgl = make([]verbs.SGE, n)
	}
	return b.sgl[:n]
}

// writeDoorbell posts one WR per fragment under a single doorbell, rebuilding
// the batcher's reusable WR list in place.
func (b *Batcher) writeDoorbell(now sim.Time, frags []Fragment, remoteAddr mem.Addr) (BatchResult, error) {
	n := len(frags)
	if cap(b.dbWR) < n {
		b.dbWR = make([]verbs.SendWR, n)
		b.dbSG = make([]verbs.SGE, n)
		b.wrs = make([]*verbs.SendWR, n)
	}
	wrs := b.wrs[:n]
	off := 0
	for i, f := range frags {
		b.dbSG[i] = verbs.SGE{Addr: f.Addr, Length: f.Length, MR: b.localMR}
		b.dbWR[i] = verbs.SendWR{
			Opcode:     verbs.OpWrite,
			SGL:        b.dbSG[i : i+1],
			RemoteAddr: remoteAddr + mem.Addr(off),
			RemoteKey:  b.remoteMR.RKey(),
		}
		wrs[i] = &b.dbWR[i]
		off += f.Length
	}
	// The list is rung in depth-sized chunks (one doorbell each); the default
	// depth 0 posts the whole batch under a single doorbell. The CPU builds
	// each chunk's WRs and rings its doorbell before moving to the next, so
	// chunk k posts at now plus the CPU time burned so far.
	depth := b.dbDepth
	if depth <= 0 || depth > n {
		depth = n
	}
	var cpu sim.Duration
	var done sim.Time
	for start := 0; start < n; start += depth {
		end := start + depth
		if end > n {
			end = n
		}
		cpu += sim.Duration(end-start)*(WRBuildCost+SGEBuildCost) + PostCPUCost
		comps, err := b.qp.PostSendList(now+cpu, wrs[start:end])
		if err != nil {
			return BatchResult{}, err
		}
		if d := comps[len(comps)-1].Done; d > done {
			done = d
		}
	}
	return BatchResult{Done: done, CPU: cpu, Requests: n}, nil
}

// writeSGL posts one WR with one SGE per fragment.
func (b *Batcher) writeSGL(now sim.Time, frags []Fragment, remoteAddr mem.Addr) (BatchResult, error) {
	sgl := b.sglScratch(len(frags))
	for i, f := range frags {
		sgl[i] = verbs.SGE{Addr: f.Addr, Length: f.Length, MR: b.localMR}
	}
	cpu := WRBuildCost + sim.Duration(len(frags))*SGEBuildCost + PostCPUCost
	b.wr = verbs.SendWR{
		Opcode:     verbs.OpWrite,
		SGL:        sgl,
		RemoteAddr: remoteAddr,
		RemoteKey:  b.remoteMR.RKey(),
	}
	comp, err := b.qp.PostSend(now+cpu, &b.wr)
	if err != nil {
		return BatchResult{}, err
	}
	return BatchResult{Done: comp.Done, CPU: cpu, Requests: 1}, nil
}
