package core

import (
	"fmt"

	"rdmasem/internal/mem"
	"rdmasem/internal/sim"
	"rdmasem/internal/topo"
	"rdmasem/internal/verbs"
)

// RemoteSequencer hands out a monotonically increasing sequence with RDMA
// fetch-and-add against a shared remote counter word (Section III-E). The
// counter value lives in real remote memory, so concurrent handles observe a
// dense, strictly increasing sequence.
type RemoteSequencer struct {
	qp      *verbs.QP
	scratch verbs.SGE
	rmr     *verbs.MR
	addr    mem.Addr

	// wr and sgl are reused across posts so reservation stays alloc-free
	// on the txn-commit and log-append hot paths.
	wr  verbs.SendWR
	sgl [1]verbs.SGE
}

// NewRemoteSequencer creates one client's handle to the shared counter at
// addr within rmr.
func NewRemoteSequencer(qp *verbs.QP, scratch verbs.SGE, rmr *verbs.MR, addr mem.Addr) (*RemoteSequencer, error) {
	if qp == nil || rmr == nil {
		return nil, fmt.Errorf("core: sequencer needs qp and remote MR")
	}
	if scratch.Length != 8 {
		return nil, fmt.Errorf("core: sequencer scratch buffer must be 8 bytes")
	}
	return &RemoteSequencer{qp: qp, scratch: scratch, rmr: rmr, addr: addr}, nil
}

// Next reserves n consecutive sequence numbers, returning the first one and
// the completion time. n=1 is the plain sequencer; the distributed log uses
// larger n to reserve record extents.
func (s *RemoteSequencer) Next(now sim.Time, n uint64) (uint64, sim.Time, error) {
	if n == 0 {
		return 0, 0, fmt.Errorf("core: must reserve at least one number")
	}
	s.sgl[0] = s.scratch
	s.wr = verbs.SendWR{
		Opcode:     verbs.OpFetchAdd,
		SGL:        s.sgl[:],
		RemoteAddr: s.addr,
		RemoteKey:  s.rmr.RKey(),
		CompareAdd: n,
	}
	comp, err := s.qp.PostSend(now, &s.wr)
	if err != nil {
		return 0, 0, err
	}
	return comp.OldValue, comp.Done, nil
}

// LocalSequencer is the GCC __sync_fetch_and_add baseline: all threads bump
// one cache line.
type LocalSequencer struct {
	line         *sim.Resource
	value        uint64
	last         int
	participants int
}

// NewLocalSequencer creates a process-local sequencer; share the returned
// value among the threads that contend on it and register each thread with
// Register so the coherence-storm cost scales with contention.
func NewLocalSequencer() *LocalSequencer {
	return &LocalSequencer{line: sim.NewResource("local-seq/line"), last: -1}
}

// Register adds one contending thread.
func (s *LocalSequencer) Register() { s.participants++ }

// Next returns the next value for the calling thread, charging a cache-line
// hit when the same thread ran last uncontended and a storm-scaled bounce
// otherwise.
func (s *LocalSequencer) Next(now sim.Time, threadID int) (uint64, sim.Time) {
	n := s.participants
	if n < 1 {
		n = 1
	}
	cost := topo.AtomicBounce * sim.Duration(n)
	if s.last == threadID && n == 1 {
		cost = topo.AtomicHit
	}
	t := s.line.Delay(now, cost)
	s.last = threadID
	v := s.value
	s.value++
	return v, t
}

// RPCSequencer is the channel-semantic baseline: the counter lives at a
// server reached over a request/response transport (RC send/recv or UD
// datagrams).
type RPCSequencer struct {
	client Caller
	value  *uint64
}

// NewRPCSequencer creates one client's handle; all handles of one sequencer
// must share the same counter cell.
func NewRPCSequencer(client Caller, counter *uint64) *RPCSequencer {
	return &RPCSequencer{client: client, value: counter}
}

// Next returns the next value and its completion time at the client.
func (s *RPCSequencer) Next(now sim.Time) (uint64, sim.Time, error) {
	v, done, err := s.client.Call(now, 8, 8, func(sim.Time) uint64 {
		out := *s.value
		*s.value++
		return out
	})
	return v, done, err
}
