package core

import (
	"fmt"

	"rdmasem/internal/mem"
	"rdmasem/internal/proxy"
	"rdmasem/internal/sim"
	"rdmasem/internal/topo"
	"rdmasem/internal/verbs"
)

// Mode selects how the Engine wires QPs across sockets (Section III-D,
// Figure 9).
type Mode int

// Engine wiring modes.
const (
	// Basic uses both ports (one QP per local socket and peer) but routes
	// without regard for where the remote memory lives, so roughly half
	// the responder-side DMAs cross QPI.
	Basic Mode = iota
	// Matched binds one QP per (socket, peer) along matched ports and
	// routes cross-socket requests through the proxy socket's shared-memory
	// queues: s x 2m QPs instead of the s^2 x 2m of an all-to-all wiring.
	Matched
)

// Engine is the NUMA-aware connection manager of one machine: it owns the
// QPs toward every peer and routes each request over the QP whose port
// matches the remote memory's socket, inserting the proxy-socket hop when
// the requesting core lives elsewhere.
type Engine struct {
	local *verbs.Context
	peers []*verbs.Context
	mode  Mode
	// qps[peer][socket]: one QP per socket along matched ports.
	qps      [][]*verbs.QP
	bounce   []*verbs.MR // per-socket proxy payload buffers (Matched only)
	proxyIPC sim.Duration

	// wr and asgl are reused across posts: PostSend never retains the WR
	// past the call, so Read/Write/FetchAdd stay allocation-free.
	wr   verbs.SendWR
	asgl [1]verbs.SGE
}

// maxProxyPayload bounds the payload that rides the proxy's shared-memory
// message; larger requests gather from their original socket across QPI.
// The per-node daemon (internal/proxy) shares the bound.
const maxProxyPayload = proxy.MaxPayload

// NewEngine connects the local context to every peer according to the mode.
func NewEngine(local *verbs.Context, peers []*verbs.Context, mode Mode) (*Engine, error) {
	if local == nil || len(peers) == 0 {
		return nil, fmt.Errorf("core: engine needs a local context and peers")
	}
	tp := local.Machine().Topology()
	e := &Engine{
		local: local,
		peers: peers,
		mode:  mode,
		qps:   make([][]*verbs.QP, len(peers)),
		// One request push and one result pull through shared-memory
		// queues: two cache-line transfers across QPI. Same hop the
		// per-node daemon charges (internal/proxy).
		proxyIPC: proxy.HopCost(tp),
	}
	if mode == Matched {
		e.bounce = make([]*verbs.MR, topo.Sockets)
		for s := 0; s < topo.Sockets; s++ {
			r, err := local.Machine().Alloc(topo.SocketID(s), 2*maxProxyPayload, 0)
			if err != nil {
				return nil, err
			}
			mr, err := local.RegisterMR(r)
			if err != nil {
				return nil, err
			}
			e.bounce[s] = mr
		}
	}
	for pi, peer := range peers {
		// One QP per socket along matched ports; the modes differ only in
		// how QP picks among them.
		e.qps[pi] = make([]*verbs.QP, topo.Sockets)
		for s := range e.qps[pi] {
			ls := topo.SocketID(s)
			qp, _, err := verbs.Connect(local, local.Machine().SocketPort(ls), peer, peer.Machine().SocketPort(ls), verbs.RC)
			if err != nil {
				return nil, err
			}
			e.qps[pi][s] = qp
		}
	}
	return e, nil
}

// route picks the QP for a request from the given core socket to remote
// memory on the given peer (see QP), returning the QP and the extra
// virtual-time cost of the proxy hop (zero for direct paths).
func (e *Engine) route(core topo.SocketID, peer int, remoteAddr mem.Addr) (*verbs.QP, sim.Duration, error) {
	if peer < 0 || peer >= len(e.qps) {
		return nil, 0, fmt.Errorf("core: unknown peer %d", peer)
	}
	rs, err := e.peers[peer].Machine().Space().SocketOf(remoteAddr)
	if err != nil {
		return nil, 0, err
	}
	qp, extra := e.QP(core, peer, rs)
	return qp, extra, nil
}

// Write performs a NUMA-routed remote write of the local SGEs to remoteAddr.
// When the request takes the proxy hop and the payload is small, it rides
// the shared-memory message into a bounce buffer on the proxy's socket so
// the NIC gather never crosses QPI.
func (e *Engine) Write(now sim.Time, core topo.SocketID, sgl []verbs.SGE, peer int, remoteAddr mem.Addr, rmr *verbs.MR) (sim.Time, error) {
	qp, extra, err := e.route(core, peer, remoteAddr)
	if err != nil {
		return 0, err
	}
	if extra > 0 {
		// Only Matched takes the proxy hop, and it has a bounce MR on
		// every socket.
		b := e.bounce[qp.PortSocket()]
		if total, ok := proxy.Stage(b, sgl); ok {
			e.asgl[0] = verbs.SGE{Addr: b.Addr(), Length: total, MR: b}
			sgl = e.asgl[:]
			extra += e.local.Machine().Topology().MemcpyTime(total, true)
		}
	}
	e.wr = verbs.SendWR{
		Opcode:     verbs.OpWrite,
		SGL:        sgl,
		RemoteAddr: remoteAddr,
		RemoteKey:  rmr.RKey(),
	}
	comp, err := qp.PostSend(now+extra, &e.wr)
	if err != nil {
		return 0, err
	}
	return comp.Done, nil
}

// Read performs a NUMA-routed remote read into the local SGEs.
func (e *Engine) Read(now sim.Time, core topo.SocketID, sgl []verbs.SGE, peer int, remoteAddr mem.Addr, rmr *verbs.MR) (sim.Time, error) {
	qp, extra, err := e.route(core, peer, remoteAddr)
	if err != nil {
		return 0, err
	}
	e.wr = verbs.SendWR{
		Opcode:     verbs.OpRead,
		SGL:        sgl,
		RemoteAddr: remoteAddr,
		RemoteKey:  rmr.RKey(),
	}
	comp, err := qp.PostSend(now+extra, &e.wr)
	if err != nil {
		return 0, err
	}
	return comp.Done, nil
}

// FetchAdd performs a NUMA-routed remote fetch-and-add, returning the old
// value and its completion time.
func (e *Engine) FetchAdd(now sim.Time, core topo.SocketID, scratch verbs.SGE, peer int, remoteAddr mem.Addr, rmr *verbs.MR, add uint64) (uint64, sim.Time, error) {
	qp, extra, err := e.route(core, peer, remoteAddr)
	if err != nil {
		return 0, 0, err
	}
	e.asgl[0] = scratch
	e.wr = verbs.SendWR{
		Opcode:     verbs.OpFetchAdd,
		SGL:        e.asgl[:],
		RemoteAddr: remoteAddr,
		RemoteKey:  rmr.RKey(),
		CompareAdd: add,
	}
	comp, err := qp.PostSend(now+extra, &e.wr)
	if err != nil {
		return 0, 0, err
	}
	return comp.OldValue, comp.Done, nil
}

// QP exposes the QP the engine uses for a (core, peer, remote socket)
// triple, and the proxy hop's extra cost (zero for direct paths) — also used
// by the applications that need to post custom WRs (batched SGL writes) over
// NUMA-routed connections.
func (e *Engine) QP(core topo.SocketID, peer int, remoteSocket topo.SocketID) (*verbs.QP, sim.Duration) {
	bySock := e.qps[peer]
	if e.mode == Basic {
		// Post from the core's own port, ignore the remote memory socket.
		return bySock[int(core)%len(bySock)], 0
	}
	qp := bySock[remoteSocket]
	if core == remoteSocket {
		return qp, 0
	}
	// Proxy socket: hand the request to the core on the remote socket via
	// the shared-memory queues; that core posts on its own matched QP.
	return qp, e.proxyIPC
}
