package verbs

import (
	"fmt"

	"rdmasem/internal/cluster"
	"rdmasem/internal/sim"
)

// QP is one side of a connected (RC) queue pair. A QP is bound to a NIC port
// (and thereby to that port's socket) and to the socket of the core that
// posts to it; both bindings drive the NUMA charging of Section III-D. All
// timing lives in the shared op-pipeline engine (pipeline.go); this type
// only adds the connection to a peer and the validation of RC WRs.
type QP struct {
	qpState
	peer *QP
}

// Connect creates a connected QP pair between two contexts over the given
// local NIC ports. The transport must be RC, the only connected one; any
// other fails with ErrBadTransport, and a cluster past MaxQPN QP numbers
// with ErrQPNExhausted. The cores default to each port's affiliated socket;
// rebind with BindCore.
func Connect(a *Context, portA int, b *Context, portB int, t Transport) (*QP, *QP, error) {
	if a == nil || b == nil {
		return nil, nil, fmt.Errorf("verbs: nil context")
	}
	if t != RC {
		return nil, nil, fmt.Errorf("%w: only RC QPs connect", ErrBadTransport)
	}
	if err := a.checkPort(portA); err != nil {
		return nil, nil, err
	}
	if err := b.checkPort(portB); err != nil {
		return nil, nil, err
	}
	sa, err := newQPState(a, t, portA)
	if err != nil {
		return nil, nil, err
	}
	sb, err := newQPState(b, t, portB)
	if err != nil {
		return nil, nil, err
	}
	qa := &QP{qpState: sa}
	qb := &QP{qpState: sb}
	qa.peer, qb.peer = qb, qa
	return qa, qb, nil
}

// MustConnect is Connect that panics on failure (test/benchmark setup).
func MustConnect(a *Context, portA int, b *Context, portB int, t Transport) (*QP, *QP) {
	qa, qb, err := Connect(a, portA, b, portB, t)
	if err != nil {
		panic(err)
	}
	return qa, qb
}

// Peer returns the connected remote QP.
func (q *QP) Peer() *QP { return q.peer }

// Machines returns the two hosts this QP's ops touch: the local (posting)
// machine first, then the connected peer's.
func (q *QP) Machines() (local, remote *cluster.Machine) {
	return q.route.machine, q.peer.route.machine
}

// PostSend posts one work request at the given virtual time and returns its
// completion. Equivalent to a one-entry PostSendList, except that the
// completion comes back by value, so it needs no completion buffer on the
// QP. When the QP fails (the reliability layer exhausted its retries, or
// the QP was already in the error state) the error is ErrQPError and the
// returned completion carries the failure's status and time.
func (q *QP) PostSend(now sim.Time, wr *SendWR) (Completion, error) {
	if q.peer == nil {
		return Completion{}, ErrNotConnected
	}
	if err := q.validate(wr); err != nil {
		return Completion{}, err
	}
	var buf [1]Completion
	comps, _, err := postList(&q.qpState, &q.peer.qpState, now, []*SendWR{wr}, buf[:0])
	if len(comps) > 0 {
		return comps[0], err
	}
	if err == nil {
		err = fmt.Errorf("verbs: no completion returned")
	}
	return Completion{}, err
}

// PostSendList posts a doorbell list: the whole batch costs a single MMIO
// (Kalia et al.'s Doorbell mechanism, Section III-A), then each WR proceeds
// as an independent network operation.
//
// Validation failures are detected up front and leave no effects. A runtime
// failure mid-list (e.g. ErrRNR on a SEND) stops the walk at the failing WR:
// the completions of the WRs that already executed — whose data effects and
// CQEs are in place, exactly as on real hardware where earlier WRs in a
// doorbell list are not undone — are returned as a prefix alongside the
// error. len(comps) therefore identifies the failing WR: wrs[len(comps)].
//
// Reliability failures on a lossy fabric behave differently: the error is
// ErrQPError and every WR in the list has a completion — the completed
// prefix with StatusOK, the failing WR with its error status, and the
// remainder flushed with StatusFlushed. Posting to a QP already in the
// error state flushes the whole list the same way.
//
// Aliasing: the returned slice is backed by this QP's list completion
// buffer, made on its first list post, and is valid only until the next
// list post on the same QP (posts on other QPs leave it intact); callers
// that retain completions across posts must copy them.
func (q *QP) PostSendList(now sim.Time, wrs []*SendWR) ([]Completion, error) {
	if q.peer == nil {
		return nil, ErrNotConnected
	}
	if len(wrs) == 0 {
		return nil, fmt.Errorf("%w: empty doorbell list", ErrBadSGL)
	}
	for _, wr := range wrs {
		if err := q.validate(wr); err != nil {
			return nil, err
		}
	}
	snd := q.sender()
	if snd.comps == nil {
		snd.comps = new([]Completion)
	}
	comps, _, err := postList(&q.qpState, &q.peer.qpState, now, wrs, (*snd.comps)[:0])
	*snd.comps = comps[:0] // keep the (possibly grown) array for the next list
	return comps, err
}

// validate checks SGL/MR bounds before any timing or data effects happen. A
// QP is always RC, so every opcode is legal on it.
func (q *QP) validate(wr *SendWR) error {
	if wr == nil {
		return ErrNilWR
	}
	if len(wr.SGL) == 0 {
		return fmt.Errorf("%w: no SGEs", ErrBadSGL)
	}
	for _, s := range wr.SGL {
		if s.MR == nil || s.MR.ctx != q.route.ctx {
			return fmt.Errorf("%w: SGE must reference a local MR", ErrBadSGL)
		}
		if s.Length < 0 {
			return fmt.Errorf("%w: negative SGE length", ErrBadSGL)
		}
		if err := s.MR.contains(s.Addr, s.Length); err != nil {
			return err
		}
	}
	if wr.Opcode == OpCompSwap || wr.Opcode == OpFetchAdd {
		if wr.TotalLength() != 8 {
			return ErrAtomicSize
		}
	}
	if wr.Opcode.OneSided() {
		rmr, err := q.peer.route.ctx.LookupMR(wr.RemoteKey)
		if err != nil {
			return err
		}
		if err := rmr.contains(wr.RemoteAddr, remoteSpan(wr)); err != nil {
			return err
		}
	}
	return nil
}
