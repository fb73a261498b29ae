package bench

import (
	"fmt"
	"math/rand"

	"rdmasem/internal/cluster"
	"rdmasem/internal/mem"
	"rdmasem/internal/sim"
	"rdmasem/internal/stats"
	"rdmasem/internal/topo"
	"rdmasem/internal/verbs"
)

// newDetRand returns a deterministic PRNG for benchmark address streams.
func newDetRand(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed)) }

// topoSock converts an int to a socket id.
func topoSock(s int) topo.SocketID { return topo.SocketID(s) }

func init() {
	register("mrscale", mrScale)
	register("qpscale", qpScale)
	register("ablation-xlate", ablationTranslationCache)
	register("ablation-mmio", ablationMMIOCost)
	register("ablation-qpi", ablationQPILatency)
}

// mrScale reproduces Section II-B2's MR observation: with 10x the memory
// regions the 32 B access latency degrades on the order of 60% because the
// MR records no longer fit the metadata SRAM.
func mrScale(r *run) (*Report, error) {
	tb := stats.NewTable("MR scalability: 32B write latency vs registered MR count")
	tb.Row("MRs", "latency (us)", "vs 16 MRs")
	nMRs := []int{16, 64, 160, 512}
	lats, err := points(r, len(nMRs), func(r *run, pi int) (float64, error) {
		nMR := nMRs[pi]
		env, err := r.newPair(1<<22, 1<<20)
		if err != nil {
			return 0, err
		}
		mrs := make([]*verbs.MR, nMR)
		for i := range mrs {
			r, err := env.cl.Machine(1).Alloc(1, 4096, 0)
			if err != nil {
				return 0, err
			}
			mrs[i] = env.ctxB.MustRegisterMR(r)
		}
		// Round-robin over all MRs so the MR cache keeps churning, then
		// measure the average latency.
		var sum sim.Duration
		const probes = 256
		now := sim.Time(0)
		for i := 0; i < probes; i++ {
			target := mrs[i%nMR]
			c, err := env.qpA.PostSend(now, &verbs.SendWR{
				Opcode:     verbs.OpWrite,
				SGL:        []verbs.SGE{{Addr: env.mrA.Addr(), Length: 32, MR: env.mrA}},
				RemoteAddr: target.Addr(),
				RemoteKey:  target.RKey(),
			})
			if err != nil {
				return 0, err
			}
			if i >= probes/2 { // skip warmup
				sum += c.Done - now
			}
			now = c.Done + sim.Microsecond
		}
		return float64(sum) / float64(probes/2) / 1e3, nil
	})
	if err != nil {
		return nil, err
	}
	base := lats[0]
	for i, nMR := range nMRs {
		lat := lats[i]
		tb.Row(fmt.Sprintf("%d", nMR), fmt.Sprintf("%.2f", lat), fmt.Sprintf("%+.0f%%", (lat/base-1)*100))
	}
	return &Report{
		ID:     "mrscale",
		Tables: []*stats.Table{tb},
		Notes:  []string{"paper II-B2: 10x MRs degrades 32B access latency by about 60%"},
	}, nil
}

// qpScale reproduces Section II-B2's connection observation (after Chen et
// al.): throughput degrades roughly 50% when the client count grows ~3x past
// the QP-context cache.
func qpScale(r *run) (*Report, error) {
	fig := stats.NewFigure("QP scalability: aggregate 32B write throughput vs client count", "clients", "throughput (MOPS)")
	h := r.horizon(5 * sim.Millisecond)
	counts := []int{40, 80, 120, 160, 240}
	ms, err := points(r, len(counts), func(r *run, i int) (float64, error) {
		clients := counts[i]
		env, err := r.newPair(1<<22, 1<<20)
		if err != nil {
			return 0, err
		}
		var loop []*sim.Client
		for c := 0; c < clients; c++ {
			qp, _ := verbs.MustConnect(env.ctxA, 1, env.ctxB, 1, verbs.RC)
			wr := &verbs.SendWR{
				Opcode:     verbs.OpWrite,
				SGL:        []verbs.SGE{{Addr: env.mrA.Addr() + mem.Addr(c*64), Length: 32, MR: env.mrA}},
				RemoteAddr: env.mrB.Addr() + mem.Addr(c*64),
				RemoteKey:  env.mrB.RKey(),
			}
			client := &sim.Client{PostCost: 150, Window: 2}
			client.Op = func(post sim.Time) sim.Time {
				comp, err := qp.PostSend(post, wr)
				client.Fail(err)
				return comp.Done
			}
			loop = append(loop, client)
		}
		res, err := sim.RunClosedLoop(loop, h)
		return res.MOPS(), err
	})
	if err != nil {
		return nil, err
	}
	for i, clients := range counts {
		fig.Line("aggregate").Add(float64(clients), ms[i])
	}
	return &Report{
		ID:      "qpscale",
		Figures: []*stats.Figure{fig},
		Notes:   []string{"paper II-B2 (after Chen et al.): ~50% throughput loss when clients grow from 40 to 120 (QP contexts spill from SRAM)"},
	}, nil
}

// ablationTranslationCache sweeps the SRAM translation-cache capacity and
// shows the random-access throughput tracking it (the design knob behind
// Figures 6a/b/d).
func ablationTranslationCache(r *run) (*Report, error) {
	fig := stats.NewFigure("Ablation: translation cache entries vs 32B random write throughput (64MB region)", "entries", "throughput (MOPS)")
	h := r.horizon(5 * sim.Millisecond)
	entriesList := []int{0, 256, 1024, 4096, 16384}
	ms, err := points(r, len(entriesList), func(r *run, i int) (float64, error) {
		cfg := cluster.DefaultConfig()
		cfg.Machines = 2
		cfg.NIC.TranslationEntries = entriesList[i]
		return customPairThroughput(r, cfg, 64<<20, h)
	})
	if err != nil {
		return nil, err
	}
	for i, entries := range entriesList {
		fig.Line("rand-rand").Add(float64(entries), ms[i])
	}
	return &Report{
		ID:      "ablation-xlate",
		Figures: []*stats.Figure{fig},
		Notes:   []string{"16384 entries cover the whole 64MB region: random matches sequential; 0 disables the cache entirely"},
	}, nil
}

// ablationMMIOCost sweeps the doorbell MMIO cost, the constant whose
// amortization is Doorbell batching's whole value proposition.
func ablationMMIOCost(r *run) (*Report, error) {
	fig := stats.NewFigure("Ablation: MMIO cost vs small-write latency", "mmio(ns)", "latency (us)")
	mmios := []int{100, 250, 500, 1000}
	lats, err := points(r, len(mmios), func(r *run, i int) (float64, error) {
		cfg := cluster.DefaultConfig()
		cfg.Machines = 2
		cfg.NIC.MMIOCost = sim.Duration(mmios[i])
		return customPlacementLatency(r, cfg, false)
	})
	if err != nil {
		return nil, err
	}
	for i, mmio := range mmios {
		fig.Line("32B write").Add(float64(mmio), lats[i])
	}
	return &Report{
		ID:      "ablation-mmio",
		Figures: []*stats.Figure{fig},
	}, nil
}

// ablationQPILatency sweeps the inter-socket hop cost and reports the
// worst-vs-best placement latency gap of Table III.
func ablationQPILatency(r *run) (*Report, error) {
	fig := stats.NewFigure("Ablation: QPI hop latency vs placement penalty", "qpi(ns)", "worst/best latency ratio")
	qpis := []int{35, 70, 140, 280}
	ratios, err := points(r, len(qpis), func(r *run, i int) (float64, error) {
		cfg := cluster.DefaultConfig()
		cfg.Machines = 2
		cfg.Topo.QPILatency = sim.Duration(qpis[i])
		best, err := customPlacementLatency(r, cfg, false)
		if err != nil {
			return 0, err
		}
		r.settle()
		worst, err := customPlacementLatency(r, cfg, true)
		if err != nil {
			return 0, err
		}
		return worst / best, nil
	})
	if err != nil {
		return nil, err
	}
	for i, qpi := range qpis {
		fig.Line("write").Add(float64(qpi), ratios[i])
	}
	return &Report{
		ID:      "ablation-qpi",
		Figures: []*stats.Figure{fig},
		Notes:   []string{"the paper's ~55% worst-case latency penalty scales directly with the interconnect hop cost"},
	}, nil
}

// customPairThroughput builds a pair on a custom cluster config and measures
// random 32B write throughput over the given remote region.
func customPairThroughput(r *run, cfg cluster.Config, region int, h sim.Duration) (float64, error) {
	cl, err := r.newCluster(cfg)
	if err != nil {
		return 0, err
	}
	ctxA, ctxB := verbs.NewContext(cl.Machine(0)), verbs.NewContext(cl.Machine(1))
	qp, _, err := verbs.Connect(ctxA, 1, ctxB, 1, verbs.RC)
	if err != nil {
		return 0, err
	}
	la, err := cl.Machine(0).Alloc(1, 1<<20, 0)
	if err != nil {
		return 0, err
	}
	ra, err := cl.Machine(1).Space().AllocSparse(1, region, 1<<20)
	if err != nil {
		return 0, err
	}
	mrA, mrB := ctxA.MustRegisterMR(la), ctxB.MustRegisterMR(ra)
	// Pre-warm the responder's translation cache over the whole region so
	// the sweep measures steady-state residency, not cold misses.
	for pg := 0; pg < region/mem.PageSize; pg++ {
		cl.Machine(1).NIC().Translate(mrB.Addr()+mem.Addr(pg*mem.PageSize), 8)
	}
	rng := newDetRand(3)
	client := &sim.Client{PostCost: 150, Window: 16}
	client.Op = func(t sim.Time) sim.Time {
		off := rng.Intn(region-64) &^ 7
		c, err := qp.PostSend(t, &verbs.SendWR{
			Opcode:     verbs.OpWrite,
			SGL:        []verbs.SGE{{Addr: mrA.Addr(), Length: 32, MR: mrA}},
			RemoteAddr: mrB.Addr() + mem.Addr(off),
			RemoteKey:  mrB.RKey(),
		})
		client.Fail(err)
		return c.Done
	}
	res, err := measure(client, h)
	return res.MOPS(), err
}

// customPlacementLatency measures the warm 32B write latency on a custom
// config, with the best (local core and memory) or worst placement.
func customPlacementLatency(r *run, cfg cluster.Config, worst bool) (float64, error) {
	cl, err := r.newCluster(cfg)
	if err != nil {
		return 0, err
	}
	ctxA, ctxB := verbs.NewContext(cl.Machine(0)), verbs.NewContext(cl.Machine(1))
	qp, _, err := verbs.Connect(ctxA, 1, ctxB, 1, verbs.RC)
	if err != nil {
		return 0, err
	}
	lSock, rSock := 1, 1
	if worst {
		qp.BindCore(0)
		lSock, rSock = 0, 0
	}
	la, err := cl.Machine(0).Alloc(topoSock(lSock), 1<<16, 0)
	if err != nil {
		return 0, err
	}
	ra, err := cl.Machine(1).Alloc(topoSock(rSock), 1<<16, 0)
	if err != nil {
		return 0, err
	}
	mrA, mrB := ctxA.MustRegisterMR(la), ctxB.MustRegisterMR(ra)
	wr := &verbs.SendWR{
		Opcode:     verbs.OpWrite,
		SGL:        []verbs.SGE{{Addr: mrA.Addr(), Length: 32, MR: mrA}},
		RemoteAddr: mrB.Addr(),
		RemoteKey:  mrB.RKey(),
	}
	if _, err := qp.PostSend(0, wr); err != nil {
		return 0, err
	}
	c, err := qp.PostSend(sim.Millisecond, wr)
	if err != nil {
		return 0, err
	}
	return (c.Done - sim.Millisecond).Micros(), nil
}
