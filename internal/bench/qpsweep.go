package bench

import (
	"fmt"

	"rdmasem/internal/cluster"
	"rdmasem/internal/mem"
	"rdmasem/internal/proxy"
	"rdmasem/internal/rnic"
	"rdmasem/internal/sim"
	"rdmasem/internal/stats"
	"rdmasem/internal/verbs"
)

func init() {
	register("qpsweep", qpSweep)
}

// The connection-serving modes the qpsweep experiment compares. Order is the
// plotting order.
var qpsweepModes = []string{"per-conn", "srq", "pool", "proxy"}

// qpsweepPool is how many physical QPs the pool and proxy modes share.
const qpsweepPool = 64

// connPoint is one (mode, connection count) measurement.
type connPoint struct {
	mops    float64 // aggregate 32B SEND throughput
	qpHit   float64 // requester NIC QP-context cache hit rate over the run
	physQPs int     // physical QPs the mode established on the client NIC
	mrs     int     // client-side MR registrations the NIC must serve
}

// qpSweep is the datacenter-scale companion of the qpscale experiment
// (golden #29): it sweeps logical client connections from 100 to 20000
// against a datacenter-class RNIC (8192-entry metadata caches) under four serving
// strategies — one QP per connection, one QP per connection draining a
// shared receive queue, a shared pool of physical QPs behind a connection
// table, and a per-node proxy daemon that owns both the pool and the memory
// registrations. Per-connection state overflows the context caches past
// 8192 connections and aggregate throughput falls off a cliff; the pool and
// proxy modes keep the NIC's working set bounded and recover it.
func qpSweep(r *run) (*Report, error) {
	counts := []int{100, 1000, 5000, 10000, 20000}
	h := r.horizon(2 * sim.Millisecond)
	pts, err := points(r, len(qpsweepModes)*len(counts), func(r *run, i int) (connPoint, error) {
		return connSweepPoint(r, qpsweepModes[i/len(counts)], counts[i%len(counts)], h)
	})
	if err != nil {
		return nil, err
	}

	fig := stats.NewFigure("Connection scalability: aggregate 32B SEND throughput vs logical connections", "connections", "throughput (MOPS)")
	hitFig := stats.NewFigure("Requester QP-context cache hit rate vs logical connections (8192 entries)", "connections", "hit rate")
	for mi, mode := range qpsweepModes {
		for ci, conns := range counts {
			p := pts[mi*len(counts)+ci]
			fig.Line(mode).Add(float64(conns), p.mops)
			hitFig.Line(mode).Add(float64(conns), p.qpHit)
		}
	}
	top := len(counts) - 1
	tb := stats.NewTable(fmt.Sprintf("Serving %d connections: NIC metadata working set and throughput", counts[top]))
	tb.Row("mode", "phys QPs", "client MRs", "MOPS", "QP hit rate")
	for mi, mode := range qpsweepModes {
		p := pts[mi*len(counts)+top]
		tb.Row(mode,
			fmt.Sprintf("%d", p.physQPs),
			fmt.Sprintf("%d", p.mrs),
			fmt.Sprintf("%.3f", p.mops),
			fmt.Sprintf("%.3f", p.qpHit))
	}
	return &Report{
		ID:      "qpsweep",
		Figures: []*stats.Figure{fig, hitFig},
		Tables:  []*stats.Table{tb},
		Notes: []string{
			"per-conn/srq: one QP+MR per connection thrashes the 8192-entry context caches past 10k connections",
			"an SRQ pools receive buffers, not contexts: its curve tracks per-conn exactly",
			"pool/proxy: a bounded pool behind a connection table (RDMAvisor-style) keeps the working set resident at any connection count",
		},
	}, nil
}

// connSweepPoint measures one (mode, connection count) point on a fresh
// two-machine cluster with datacenter-class metadata caches.
func connSweepPoint(r *run, mode string, conns int, h sim.Duration) (connPoint, error) {
	sw, err := newConnSweep(r, mode, conns)
	if err != nil {
		return connPoint{}, err
	}
	return sw.measure(h)
}

// connSweep is one qpsweep point, built and warmed: every connection's
// state in one flat slice, and the one SEND WR all of them post through.
// The kernel dispatches one op at a time and every post is synchronous, so
// each op points the shared WR's SGE at its own payload just before it posts.
type connSweep struct {
	pt      connPoint // physQPs and mrs, known once built
	conns   []connState
	clients []*sim.Client // &conns[c].Client, in connection order
	nicA    *rnic.NIC

	mrB    *verbs.MR     // the server's receive slab
	srq    *verbs.SRQ    // srq/pool/proxy: the receives every SEND drains
	table  *proxy.Table  // pool: the connection table over the shared pool
	daemon *proxy.Daemon // proxy: the daemon that owns the table
	slab   bool          // pool: payloads are slots of one shared slab MR

	wr  verbs.SendWR
	sgl [1]verbs.SGE
}

// connState is one logical connection: its closed-loop client, the QP it
// posts on (per-conn/srq only; pool and proxy post through the table) and
// the MR its 32-byte SEND payload lies in (see sge).
type connState struct {
	sim.Client
	sw *connSweep
	c  int
	qp *verbs.QP
	mr *verbs.MR
}

// sge is the connection's 32-byte SEND payload: its own page of the
// per-connection region its MR covers, or its slot of the shared slab.
func (s *connState) sge() verbs.SGE {
	off := mem.Addr(s.c * mem.PageSize)
	if s.sw.slab {
		off = slotOf(s.c)
	}
	return verbs.SGE{Addr: s.mr.Addr() + off, Length: 32, MR: s.mr}
}

// serverQP is the QP the connection's SENDs land on at the server.
func (s *connState) serverQP() *verbs.QP {
	if s.qp != nil {
		return s.qp.Peer()
	}
	return s.sw.table.ConnQP(s.c).Peer()
}

// The server-side receive slab, shared by every mode: the interesting state
// is requester-side, so receives land in one big reusable registered span.
// Pool mode's source slab has the same span.
const slabBytes = 1 << 20

// payloadBacking is the host backing of every qpsweep payload region: the
// receive slab, pool mode's source slab and the per-connection page span.
// Nothing reads those bytes back and no access exceeds 64 B, so the regions
// are sparse (mem.AllocSparse): their addresses, MR extents and pages, and
// so every number, are those of dense regions, while a 20,000-connection
// point touches 64 KiB of host memory per region instead of up to 1 MiB.
const payloadBacking = 64 << 10

// slotOf is connection c's 64-byte slot in a slab.
func slotOf(c int) mem.Addr { return mem.Addr((c % (slabBytes / 64)) * 64) }

// op posts one receive ahead of the connection's SEND (the server keeps
// exactly one receive ahead of each), then the SEND itself, and the server
// polls the receive CQE the SEND left, as an RPC server would: no CQ keeps
// one entry per SEND for the rest of the point. The poll takes no virtual
// time.
func (s *connState) op(post sim.Time) sim.Time {
	sw := s.sw
	recv := verbs.RecvWR{SGE: verbs.SGE{Addr: sw.mrB.Addr() + slotOf(s.c), Length: 64, MR: sw.mrB}}
	var err error
	if sw.srq != nil {
		err = sw.srq.PostRecv(recv)
	} else {
		err = s.qp.Peer().PostRecv(recv)
	}
	if err != nil {
		s.Fail(err)
		return post
	}
	sw.sgl[0] = s.sge()
	var comp verbs.Completion
	switch {
	case s.qp != nil:
		comp, err = s.qp.PostSend(post, &sw.wr)
	case sw.daemon != nil:
		comp, err = sw.daemon.Post(post, s.c, &sw.wr)
	default:
		comp, err = sw.table.Post(post, s.c, &sw.wr)
	}
	if err != nil {
		s.Fail(err)
		return comp.Done
	}
	s.serverQP().RecvCQ().PollOne(sim.MaxTime)
	return comp.Done
}

// newConnSweep builds one point: the cluster, the mode's QPs and MRs, one
// client per connection, and the NICs' metadata caches warmed with the
// mode's working set.
func newConnSweep(r *run, mode string, conns int) (*connSweep, error) {
	cfg := cluster.DefaultConfig()
	cfg.Machines = 2
	cfg.NIC.QPCacheEntries = 8192
	cfg.NIC.MRCacheEntries = 8192
	cfg.NIC.TranslationEntries = 8192
	cl, err := r.newCluster(cfg)
	if err != nil {
		return nil, err
	}
	ctxA, ctxB := verbs.NewContext(cl.Machine(0)), verbs.NewContext(cl.Machine(1))
	rb, err := cl.Machine(1).Space().AllocSparse(1, slabBytes, payloadBacking)
	if err != nil {
		return nil, err
	}
	sw := &connSweep{
		conns:   make([]connState, conns),
		clients: make([]*sim.Client, conns),
		nicA:    cl.Machine(0).NIC(),
		mrB:     ctxB.MustRegisterMR(rb),
	}
	sw.wr = verbs.SendWR{Opcode: verbs.OpSend, SGL: sw.sgl[:]}
	for c := range sw.conns {
		s := &sw.conns[c]
		s.sw, s.c = sw, c
		s.PostCost, s.Window = 150, 1
		s.Op = s.op
		sw.clients[c] = &s.Client
	}

	// perConnMRs registers one MR per connection over its own page of a
	// sparse client region: distinct MR records and distinct translations,
	// the full per-connection metadata bill.
	perConnMRs := func() error {
		r, err := cl.Machine(0).Space().AllocSparse(1, conns*mem.PageSize, payloadBacking)
		if err != nil {
			return err
		}
		for c := range sw.conns {
			sw.conns[c].mr = ctxA.MustRegisterMR(r)
		}
		return nil
	}

	// The warm-up touches the working set in the order the mode's first
	// posts would: QP contexts on both NICs, then MR records, then
	// translations.
	nicB := cl.Machine(1).NIC()
	warmQP := func(qp *verbs.QP) {
		sw.nicA.TouchQP(qp.ID())
		nicB.TouchQP(qp.Peer().ID()) // the responder touches its QP context too
	}
	warmSGEs := func() {
		for c := range sw.conns {
			sge := sw.conns[c].sge()
			sw.nicA.Translate(sge.Addr, sge.Length)
		}
	}

	switch mode {
	case "per-conn", "srq":
		if mode == "srq" {
			sw.srq = verbs.NewSRQ(ctxB)
		}
		if err := perConnMRs(); err != nil {
			return nil, err
		}
		for c := range sw.conns {
			qp, peer := verbs.MustConnect(ctxA, 1, ctxB, 1, verbs.RC)
			sw.conns[c].qp = qp
			if sw.srq != nil {
				if err := peer.AttachSRQ(sw.srq); err != nil {
					return nil, err
				}
			}
		}
		for c := range sw.conns {
			warmQP(sw.conns[c].qp)
		}
		for c := range sw.conns {
			sw.nicA.TouchMR(uint64(sw.conns[c].mr.RKey()))
		}
		warmSGEs()
		sw.pt.physQPs, sw.pt.mrs = conns, conns

	case "pool", "proxy":
		p := min(qpsweepPool, conns)
		pool := make([]*verbs.QP, p)
		sw.srq = verbs.NewSRQ(ctxB)
		for i := range pool {
			qp, peer := verbs.MustConnect(ctxA, 1, ctxB, 1, verbs.RC)
			pool[i] = qp
			if err := peer.AttachSRQ(sw.srq); err != nil {
				return nil, err
			}
		}
		if sw.table, err = proxy.NewTable(pool, conns); err != nil {
			return nil, err
		}
		if mode == "pool" {
			// The table shares the pool, and the connections share one slab
			// registration: the NIC serves p QP contexts and one MR.
			la, err := cl.Machine(0).Space().AllocSparse(1, slabBytes, payloadBacking)
			if err != nil {
				return nil, err
			}
			mrA := ctxA.MustRegisterMR(la)
			sw.slab = true
			for c := range sw.conns {
				sw.conns[c].mr = mrA
			}
			for _, qp := range pool {
				warmQP(qp)
			}
			sw.nicA.TouchMR(uint64(mrA.RKey()))
			warmSGEs()
			sw.pt.physQPs, sw.pt.mrs = p, 1
		} else {
			// The daemon owns the pool and the bounce registration; the
			// connections keep their own per-page MRs, but payloads stage
			// through the daemon so the NIC never touches them.
			if sw.daemon, err = proxy.NewDaemon(sw.table); err != nil {
				return nil, err
			}
			if err := perConnMRs(); err != nil {
				return nil, err
			}
			for _, qp := range pool {
				warmQP(qp)
			}
			sw.pt.physQPs, sw.pt.mrs = p, 1 // the daemon's bounce MR is the only one the NIC serves
		}

	default:
		return nil, fmt.Errorf("bench: unknown connection mode %q", mode)
	}
	return sw, nil
}

// measure runs the point's clients to the horizon and reports its
// throughput and requester QP-context hit rate.
func (sw *connSweep) measure(h sim.Duration) (connPoint, error) {
	pt := sw.pt
	base := sw.nicA.Counters()
	res, err := sim.RunClosedLoop(sw.clients, h)
	if err != nil {
		return connPoint{}, err
	}
	pt.mops = res.MOPS()
	after := sw.nicA.Counters()
	pt.qpHit = rnic.StageCounters{
		QPHits:   after.QPHits - base.QPHits,
		QPMisses: after.QPMisses - base.QPMisses,
	}.QPHitRate()
	return pt, nil
}
