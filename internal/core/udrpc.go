package core

import (
	"errors"
	"fmt"

	"rdmasem/internal/sim"
	"rdmasem/internal/verbs"
)

// Caller abstracts one request/response exchange so the RPC-based lock and
// sequencer run over either the RC (connected send/recv) or the UD
// (datagram, Herd/FaSST-style) transport.
type Caller interface {
	Call(now sim.Time, reqSize, respSize int, handler func(at sim.Time) uint64) (uint64, sim.Time, error)
}

// UDRPCServer is the datagram-RPC flavor of RPCServer: one UD queue pair
// serves every client, so the responder's QP-context working set stays
// constant no matter how many clients connect — the scalability property
// Section II-B2 attributes to UD designs.
type UDRPCServer struct {
	cpu *sim.Resource
	ctx *verbs.Context
	qp  *verbs.UDQP
	mr  *verbs.MR
}

// NewUDRPCServer creates a UD RPC server on the given port.
func NewUDRPCServer(ctx *verbs.Context, port int, mr *verbs.MR) (*UDRPCServer, error) {
	if ctx == nil || mr == nil {
		return nil, fmt.Errorf("core: ud rpc server needs a context and MR")
	}
	qp, err := verbs.NewUDQP(ctx, port)
	if err != nil {
		return nil, err
	}
	return &UDRPCServer{
		cpu: sim.NewResource("udrpc-server/cpu"),
		ctx: ctx,
		qp:  qp,
		mr:  mr,
	}, nil
}

// UDRPCClient is one client's endpoint toward a UDRPCServer.
type UDRPCClient struct {
	server *UDRPCServer
	qp     *verbs.UDQP
	mr     *verbs.MR
}

// NewUDRPCClient creates a client endpoint on the given context and port.
func (s *UDRPCServer) NewUDRPCClient(client *verbs.Context, port int, clientMR *verbs.MR) (*UDRPCClient, error) {
	qp, err := verbs.NewUDQP(client, port)
	if err != nil {
		return nil, err
	}
	return &UDRPCClient{server: s, qp: qp, mr: clientMR}, nil
}

// UDRPCTimeout is how long a UD RPC client waits for the response before it
// re-sends the request. UD has no acknowledgements, so a datagram lost on
// either leg is noticed only by this timer.
const UDRPCTimeout = 16 * sim.Microsecond

// UDRPCRetries is how many times one call re-sends its request before it
// fails with ErrUDRPCRetries.
const UDRPCRetries = 7

// ErrUDRPCRetries reports a UD RPC call whose request or response was lost
// on every attempt; Call returns it with the time the last timer expired.
var ErrUDRPCRetries = errors.New("core: ud rpc retry budget exhausted")

// Call performs one datagram request/response exchange. Both directions are
// single inline UD sends, so each payload is at most verbs.MaxInline bytes;
// the handler runs under the server CPU at RPCService. The exchange pre-posts both receive buffers, so a datagram is lost
// only to a lossy fabric. The client then re-sends the request every
// UDRPCTimeout, up to UDRPCRetries times. The server runs the handler once
// per call and answers a repeated request with the result it already has.
func (c *UDRPCClient) Call(now sim.Time, reqSize, respSize int, handler func(at sim.Time) uint64) (uint64, sim.Time, error) {
	s := c.server
	req := verbs.RecvWR{SGE: verbs.SGE{Addr: s.mr.Addr(), Length: reqSize, MR: s.mr}}
	if err := s.qp.PostRecv(req); err != nil {
		return 0, 0, err
	}
	if err := c.qp.PostRecv(verbs.RecvWR{
		SGE: verbs.SGE{Addr: c.mr.Addr(), Length: respSize, MR: c.mr},
	}); err != nil {
		return 0, 0, err
	}
	var result uint64
	handled := false
	for attempt := 0; attempt <= UDRPCRetries; attempt++ {
		// Request datagram (inline: the fast path Herd uses). A lost
		// request leaves the server's receive buffer posted.
		sent := now + sim.Duration(attempt)*UDRPCTimeout
		if _, dropped, err := c.qp.Send(sent, s.qp.Handle(),
			[]verbs.SGE{{Addr: c.mr.Addr(), Length: reqSize, MR: c.mr}}); err != nil {
			return 0, 0, err
		} else if dropped {
			continue
		}
		cqe, ok := s.qp.RecvCQ().PollOne(sim.MaxTime)
		if !ok {
			return 0, 0, fmt.Errorf("core: ud rpc request did not arrive")
		}
		t := s.cpu.Delay(cqe.Time, RPCService)
		if !handled {
			if handler != nil {
				result = handler(t)
			}
			handled = true
		}
		// Response datagram. A lost response leaves the client's receive
		// buffer posted; the server re-arms its own for the repeat request.
		if _, dropped, err := s.qp.Send(t, c.qp.Handle(),
			[]verbs.SGE{{Addr: s.mr.Addr(), Length: respSize, MR: s.mr}}); err != nil {
			return 0, 0, err
		} else if dropped {
			if err := s.qp.PostRecv(req); err != nil {
				return 0, 0, err
			}
			continue
		}
		rcqe, ok := c.qp.RecvCQ().PollOne(sim.MaxTime)
		if !ok {
			return 0, 0, fmt.Errorf("core: ud rpc response did not arrive")
		}
		return result, rcqe.Time, nil
	}
	return 0, now + sim.Duration(UDRPCRetries+1)*UDRPCTimeout, ErrUDRPCRetries
}
