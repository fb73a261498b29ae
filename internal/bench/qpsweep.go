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
	cfg := cluster.DefaultConfig()
	cfg.Machines = 2
	cfg.NIC.QPCacheEntries = 8192
	cfg.NIC.MRCacheEntries = 8192
	cfg.NIC.TranslationEntries = 8192
	cl, err := r.newCluster(cfg)
	if err != nil {
		return connPoint{}, err
	}
	ctxA, ctxB := verbs.NewContext(cl.Machine(0)), verbs.NewContext(cl.Machine(1))
	var clients []*sim.Client

	// Server-side receive slab, shared by every mode: the interesting state
	// is requester-side, so receives land in one big reusable buffer.
	const slabBytes = 1 << 20
	slotOf := func(c int) mem.Addr { return mem.Addr((c % (slabBytes / 64)) * 64) }
	rb, err := cl.Machine(1).Alloc(1, slabBytes, 0)
	if err != nil {
		return connPoint{}, err
	}
	mrB := ctxB.MustRegisterMR(rb)
	recvOf := func(c int) verbs.RecvWR {
		return verbs.RecvWR{SGE: verbs.SGE{Addr: mrB.Addr() + slotOf(c), Length: 64, MR: mrB}}
	}

	// perConnMRs registers one MR per connection over its own page of a
	// sparse client region: distinct MR records and distinct translations,
	// the full per-connection metadata bill.
	perConnMRs := func() ([]*verbs.MR, []verbs.SGE, error) {
		span := conns * mem.PageSize
		var r *mem.Region
		if span <= 1<<20 {
			r, err = cl.Machine(0).Alloc(1, span, 0)
		} else {
			r, err = cl.Machine(0).Space().AllocSparse(1, span, 1<<20)
		}
		if err != nil {
			return nil, nil, err
		}
		mrs := make([]*verbs.MR, conns)
		sgl := make([]verbs.SGE, conns)
		for c := range mrs {
			mrs[c] = ctxA.MustRegisterMR(r)
			sgl[c] = verbs.SGE{Addr: r.Addr() + mem.Addr(c*mem.PageSize), Length: 32, MR: mrs[c]}
		}
		return mrs, sgl, nil
	}

	nicA, nicB := cl.Machine(0).NIC(), cl.Machine(1).NIC()
	warm := func(qps []*verbs.QP, mrs []*verbs.MR, sgl []verbs.SGE) {
		for _, qp := range qps {
			nicA.TouchQP(qp.ID())
			nicB.TouchQP(qp.Peer().ID()) // the responder touches its QP context too
		}
		for _, mr := range mrs {
			nicA.TouchMR(uint64(mr.RKey()))
		}
		for _, s := range sgl {
			nicA.Translate(s.Addr, s.Length)
		}
	}

	pt := connPoint{}
	switch mode {
	case "per-conn", "srq":
		var srq *verbs.SRQ
		if mode == "srq" {
			srq = verbs.NewSRQ(ctxB)
		}
		qps := make([]*verbs.QP, conns)
		mrs, sgl, err := perConnMRs()
		if err != nil {
			return connPoint{}, err
		}
		for c := 0; c < conns; c++ {
			qp, peer := verbs.MustConnect(ctxA, 1, ctxB, 1, verbs.RC)
			qps[c] = qp
			if srq != nil {
				if err := peer.AttachSRQ(srq); err != nil {
					return connPoint{}, err
				}
			}
			c := c
			wr := &verbs.SendWR{Opcode: verbs.OpSend, SGL: []verbs.SGE{sgl[c]}}
			client := &sim.Client{PostCost: 150, Window: 1}
			client.Op = func(post sim.Time) sim.Time {
				// The server keeps exactly one receive ahead of each SEND.
				var err error
				if srq != nil {
					err = srq.PostRecv(recvOf(c))
				} else {
					err = peer.PostRecv(recvOf(c))
				}
				if err != nil {
					client.Fail(err)
					return post
				}
				comp, err := qp.PostSend(post, wr)
				client.Fail(err)
				return comp.Done
			}
			clients = append(clients, client)
		}
		warm(qps, mrs, sgl)
		pt.physQPs, pt.mrs = conns, conns

	case "pool", "proxy":
		p := min(qpsweepPool, conns)
		pool := make([]*verbs.QP, p)
		srq := verbs.NewSRQ(ctxB)
		for i := range pool {
			qp, peer := verbs.MustConnect(ctxA, 1, ctxB, 1, verbs.RC)
			pool[i] = qp
			if err := peer.AttachSRQ(srq); err != nil {
				return connPoint{}, err
			}
		}
		table, err := proxy.NewTable(pool, conns)
		if err != nil {
			return connPoint{}, err
		}
		if mode == "pool" {
			// The table shares the pool, and the connections share one slab
			// registration: the NIC serves p QP contexts and one MR.
			la, err := cl.Machine(0).Alloc(1, slabBytes, 0)
			if err != nil {
				return connPoint{}, err
			}
			mrA := ctxA.MustRegisterMR(la)
			sgl := make([]verbs.SGE, conns)
			for c := range sgl {
				sgl[c] = verbs.SGE{Addr: mrA.Addr() + slotOf(c), Length: 32, MR: mrA}
			}
			for c := 0; c < conns; c++ {
				c := c
				wr := &verbs.SendWR{Opcode: verbs.OpSend, SGL: []verbs.SGE{sgl[c]}}
				client := &sim.Client{PostCost: 150, Window: 1}
				client.Op = func(post sim.Time) sim.Time {
					if err := srq.PostRecv(recvOf(c)); err != nil {
						client.Fail(err)
						return post
					}
					comp, err := table.Post(post, c, wr)
					client.Fail(err)
					return comp.Done
				}
				clients = append(clients, client)
			}
			warm(pool, []*verbs.MR{mrA}, sgl)
			pt.physQPs, pt.mrs = p, 1
		} else {
			// The daemon owns the pool and the bounce registration; the
			// connections keep their own per-page MRs, but payloads stage
			// through the daemon so the NIC never touches them.
			d, err := proxy.NewDaemon(table)
			if err != nil {
				return connPoint{}, err
			}
			_, sgl, err := perConnMRs()
			if err != nil {
				return connPoint{}, err
			}
			for c := 0; c < conns; c++ {
				c := c
				wr := &verbs.SendWR{Opcode: verbs.OpSend, SGL: []verbs.SGE{sgl[c]}}
				client := &sim.Client{PostCost: 150, Window: 1}
				client.Op = func(post sim.Time) sim.Time {
					if err := srq.PostRecv(recvOf(c)); err != nil {
						client.Fail(err)
						return post
					}
					comp, err := d.Post(post, c, wr)
					client.Fail(err)
					return comp.Done
				}
				clients = append(clients, client)
			}
			warm(pool, nil, nil)
			pt.physQPs, pt.mrs = p, 1 // the daemon's bounce MR is the only one the NIC serves
		}

	default:
		return connPoint{}, fmt.Errorf("bench: unknown connection mode %q", mode)
	}

	base := nicA.Counters()
	res, err := sim.RunClosedLoop(clients, h)
	if err != nil {
		return connPoint{}, err
	}
	pt.mops = res.MOPS()
	after := nicA.Counters()
	pt.qpHit = rnic.StageCounters{
		QPHits:   after.QPHits - base.QPHits,
		QPMisses: after.QPMisses - base.QPMisses,
	}.QPHitRate()
	return pt, nil
}
