package verbs

import (
	"fmt"

	"rdmasem/internal/sim"
)

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

	// The datagram WR Send rebuilds per send, its singleton doorbell list,
	// and the SGL copy backing it, so callers' SGLs stay on their stacks.
	wrList [1]*SendWR
	sendWR SendWR
	sges   []SGE
}

// AH is an address handle: the destination of a UD send.
type AH struct {
	QP *UDQP
}

// NewUDQP creates an unconnected UD queue pair on the given port. Past
// MaxQPN QP numbers on the cluster it fails with ErrQPNExhausted.
func NewUDQP(ctx *Context, port int) (*UDQP, error) {
	if ctx == nil {
		return nil, fmt.Errorf("verbs: nil context")
	}
	if err := ctx.checkPort(port); err != nil {
		return nil, err
	}
	s, err := newQPState(ctx, UD, port)
	if err != nil {
		return nil, err
	}
	return &UDQP{qpState: s}, nil
}

// Handle returns the address handle peers use to reach this QP.
func (q *UDQP) Handle() AH { return AH{QP: q} }

// Send transmits the SGL's bytes to the destination QP as one inline
// datagram: the payload rides in the WQE, so it may be at most MaxInline
// bytes. It returns the local send completion; whether the datagram is
// consumed depends on the receiver having a posted buffer — with none, the
// datagram is dropped (unreliable!), which the returned drop flag reports
// for the benefit of tests and RPC layers.
func (q *UDQP) Send(now sim.Time, dst AH, sgl []SGE) (Completion, bool, error) {
	if dst.QP == nil {
		return Completion{}, false, fmt.Errorf("%w: nil address handle", ErrBadSGL)
	}
	if err := q.validate(sgl); err != nil {
		return Completion{}, false, err
	}
	// Build the datagram WR in the QP's own buffers; copying the SGL keeps
	// the caller's (often literal, stack-allocated) slice from escaping.
	if cap(q.sges) < len(sgl) {
		q.sges = make([]SGE, len(sgl))
	}
	wr := &q.sendWR
	*wr = SendWR{Opcode: OpSend, SGL: q.sges[:len(sgl)]}
	copy(wr.SGL, sgl)
	q.wrList[0] = wr
	var buf [1]Completion
	comps, dropped, err := postList(&q.qpState, &dst.QP.qpState, now, q.wrList[:], buf[:0])
	if err != nil {
		return Completion{}, false, err
	}
	return comps[0], dropped, nil
}

// validate checks the datagram's SGL against the UD rules (local MRs only,
// inline threshold) before any timing or data effects happen.
func (q *UDQP) validate(sgl []SGE) error {
	if len(sgl) == 0 {
		return fmt.Errorf("%w: no SGEs", ErrBadSGL)
	}
	total := 0
	for _, s := range sgl {
		if s.MR == nil || s.MR.ctx != q.route.ctx {
			return fmt.Errorf("%w: SGE must reference a local MR", ErrBadSGL)
		}
		if err := s.MR.contains(s.Addr, s.Length); err != nil {
			return err
		}
		total += s.Length
	}
	if total > MaxInline {
		return fmt.Errorf("%w: inline payload %d exceeds %d", ErrBadSGL, total, MaxInline)
	}
	return nil
}
