// Shared receive queues: the first leg of datacenter-scale connection
// serving (RDMAvisor's observation that per-QP receive provisioning does not
// scale). An SRQ is a single FIFO of receive work requests that any number
// of queue pairs on the same machine drain from: instead of every connection
// pre-posting its own buffers, the serving process posts one shared pool and
// each arriving SEND — whichever QP it lands on — consumes the head entry.
//
// Semantics preserved from the per-QP receive queue, bit for bit:
//
//   - hand-out is deterministic FIFO in responder arrival order (the event
//     kernel dispatches every op of a run in one order — see AttachSRQ);
//   - an empty SRQ is "receiver not ready", never a drop, on RC: ErrRNR on
//     every fabric (reliability.go), exactly as when a QP's own receive
//     queue underflows. UD, which has no acknowledgements, drops the
//     datagram silently;
//   - the receive completion still lands on the *consuming* QP's receive CQ,
//     as on real hardware, so pollers learn which connection the message
//     arrived on.
//
// A QP with no SRQ attached drains its own receive queue through the same
// accessors below.
package verbs

import "fmt"

// SRQ is a shared receive queue. Create one with NewSRQ, fill it with
// PostRecv, and attach it to any number of QPs (or UDQPs) on the same
// machine with AttachSRQ.
type SRQ struct {
	ctx *Context
	q   recvQueue
}

// NewSRQ creates an empty shared receive queue on the given context.
func NewSRQ(ctx *Context) *SRQ {
	if ctx == nil {
		panic("verbs: nil context")
	}
	return &SRQ{ctx: ctx}
}

// PostRecv appends one receive buffer to the shared queue. Validation
// matches the per-QP PostRecv: the buffer must be a local MR of the SRQ's
// context and lie inside it.
func (s *SRQ) PostRecv(wr RecvWR) error {
	if wr.SGE.MR == nil || wr.SGE.MR.ctx != s.ctx {
		return fmt.Errorf("%w: receive buffer must be a local MR", ErrBadSGL)
	}
	if err := wr.SGE.MR.contains(wr.SGE.Addr, wr.SGE.Length); err != nil {
		return err
	}
	s.q.push(wr)
	return nil
}

// AttachSRQ redirects this queue pair's inbound SENDs to the shared receive
// queue: from now on arriving messages consume srq entries instead of the
// QP's own receive queue (which must be empty at attach time — mixing the
// two would make hand-out order ambiguous).
//
// The SRQ must live on the QP's machine: its receive buffers are host
// memory the QP's own NIC consumes. Every QP attached to it feeds one FIFO,
// which the kernel's single dispatch order keeps deterministic.
func (s *qpState) AttachSRQ(srq *SRQ) error {
	if srq == nil {
		return fmt.Errorf("verbs: nil SRQ")
	}
	if srq.ctx.machine != s.route.machine {
		return fmt.Errorf("verbs: SRQ on %s cannot serve a QP on %s",
			srq.ctx.machine.Label(), s.route.machine.Label())
	}
	if s.recv != nil && s.recv.q.len() != 0 {
		return fmt.Errorf("verbs: QP %d has %d posted receives; attach the SRQ first", s.id, s.recv.q.len())
	}
	s.srq = srq
	return nil
}

// recvQueue is a FIFO of receive WRs that reuses its backing array, so a
// steady post/consume cycle never allocates. Pops advance a head index; a
// push into a full array whose consumed prefix is at least half of it slides
// the live entries down instead of growing (each slide moves no more entries
// than the pops since the last one, so both stay amortized O(1)).
type recvQueue struct {
	wrs  []RecvWR
	head int // index of the oldest live entry
}

func (q *recvQueue) len() int { return len(q.wrs) - q.head }

func (q *recvQueue) push(wr RecvWR) {
	if len(q.wrs) == cap(q.wrs) && q.head > 0 && 2*q.head >= len(q.wrs) {
		n := copy(q.wrs, q.wrs[q.head:])
		q.wrs, q.head = q.wrs[:n], 0
	}
	q.wrs = append(q.wrs, wr)
}

// front returns the oldest entry; the queue must not be empty.
func (q *recvQueue) front() RecvWR { return q.wrs[q.head] }

// pop drops the oldest entry; the queue must not be empty.
func (q *recvQueue) pop() {
	q.wrs[q.head] = RecvWR{} // drop the consumed entry's MR reference
	if q.head++; q.head == len(q.wrs) {
		q.wrs, q.head = q.wrs[:0], 0
	}
}

// The receive-source indirection: every consumer of inbound SENDs (the
// RC responder and the UD datagram receiver) goes through
// these accessors, so SRQ-attached and plain QPs share one code path. None
// of them creates the QP's receive side: a QP with none has nothing posted.

// recvSource returns the queue inbound SENDs drain: the SRQ's, if attached.
// The queue must not be empty (see recvEmpty), so a QP without an SRQ has
// its receive side already.
func (s *qpState) recvSource() *recvQueue {
	if s.srq != nil {
		return &s.srq.q
	}
	return &s.recv.q
}

// recvEmpty reports whether the QP has no receive buffer available — the
// receiver-not-ready condition.
func (s *qpState) recvEmpty() bool {
	if s.srq != nil {
		return s.srq.q.len() == 0
	}
	return s.recv == nil || s.recv.q.len() == 0
}

// frontRecv returns the receive buffer the next inbound SEND would consume
// without consuming it (the size check happens between peek and pop, and a
// failed check must not eat the buffer).
func (s *qpState) frontRecv() RecvWR { return s.recvSource().front() }

// popRecv consumes the head receive buffer.
func (s *qpState) popRecv() { s.recvSource().pop() }
