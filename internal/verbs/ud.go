package verbs

import (
	"fmt"

	"rdmasem/internal/sim"
)

// UDMTU is the largest payload one unreliable datagram can carry.
const UDMTU = 4096

// UDQP is an unreliable-datagram queue pair. Unlike RC queue pairs it is not
// connected: each send names its destination with an address handle, one QP
// can talk to any number of peers, and there are no acknowledgements — the
// send completes as soon as the local NIC has emitted the datagram. This is
// the transport Herd and FaSST build their RPCs on, and the one Section
// III-E's discussion credits with faster two-sided locks and sequencers.
// The stage walk itself lives in the shared op-pipeline engine (pipeline.go);
// this type only contributes datagram validation and the drop-flag surface.
type UDQP struct {
	qpState
}

// AH is an address handle: the destination of a UD send.
type AH struct {
	QP *UDQP
}

// NewUDQP creates an unconnected UD queue pair on the given port.
func NewUDQP(ctx *Context, port int) (*UDQP, error) {
	if ctx == nil {
		return nil, fmt.Errorf("verbs: nil context")
	}
	if err := ctx.checkPort(port); err != nil {
		return nil, err
	}
	q := &UDQP{qpState: newQPState(ctx, UD, port, "udqp")}
	q.register()
	return q, nil
}

// Handle returns the address handle peers use to reach this QP.
func (q *UDQP) Handle() AH { return AH{QP: q} }

// Send transmits the gathered SGL to the destination QP. It returns the
// local send completion; whether the datagram is consumed depends on the
// receiver having a posted buffer — with none, the datagram is dropped
// (unreliable!), which the returned drop flag reports for the benefit of
// tests and RPC layers.
func (q *UDQP) Send(now sim.Time, dst AH, sgl []SGE, inline bool) (Completion, bool, error) {
	if dst.QP == nil {
		return Completion{}, false, fmt.Errorf("%w: nil address handle", ErrBadSGL)
	}
	if err := q.validate(sgl, inline); err != nil {
		return Completion{}, false, err
	}
	// Build the datagram WR in the QP's scratch pool; copying the SGL keeps
	// the caller's (often literal, stack-allocated) slice from escaping.
	wr := &q.scratch.sendWR
	*wr = SendWR{Opcode: OpSend, SGL: q.scratch.sgl(len(sgl)), Inline: inline}
	copy(wr.SGL, sgl)
	q.scratch.wrList[0] = wr
	comps, drops, err := postList(&q.qpState, &dst.QP.qpState, now, q.scratch.wrList[:])
	if err != nil {
		return Completion{}, false, err
	}
	return comps[0], drops[0], nil
}

// validate checks the datagram's SGL against the UD rules (local MRs only,
// MTU, inline threshold) before any timing or data effects happen.
func (q *UDQP) validate(sgl []SGE, inline bool) error {
	if len(sgl) == 0 {
		return fmt.Errorf("%w: no SGEs", ErrBadSGL)
	}
	total := 0
	for _, s := range sgl {
		if s.MR == nil || s.MR.ctx != q.ctx {
			return fmt.Errorf("%w: SGE must reference a local MR", ErrBadSGL)
		}
		if err := s.MR.contains(s.Addr, s.Length); err != nil {
			return err
		}
		total += s.Length
	}
	if total > UDMTU {
		return fmt.Errorf("%w: datagram %d exceeds MTU %d", ErrBadSGL, total, UDMTU)
	}
	if inline && total > MaxInline {
		return fmt.Errorf("%w: inline payload %d exceeds %d", ErrBadSGL, total, MaxInline)
	}
	return nil
}
