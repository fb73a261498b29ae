package bench

import (
	"rdmasem/internal/cluster"
	"rdmasem/internal/mem"
	"rdmasem/internal/sim"
	"rdmasem/internal/stats"
	"rdmasem/internal/verbs"
)

func init() { register("engine", engineDisjointPairs) }

// pairTrafficMOPS measures aggregate 64 B RC WRITE throughput over `pairs`
// disjoint machine pairs in one cluster. Pair p connects machine 2p to
// machine 2p+1 and never touches any other machine. Every pair's client
// dispatches from the run's one heap, and since the pairs share no state the
// aggregate is the exact sum of independent closed loops.
func pairTrafficMOPS(r *run, pairs int, h sim.Duration) (float64, error) {
	cfg := cluster.DefaultConfig()
	cfg.Machines = 2 * pairs
	cl, err := r.newCluster(cfg)
	if err != nil {
		return 0, err
	}
	var clients []*sim.Client
	for p := 0; p < pairs; p++ {
		ma, mb := cl.Machine(2*p), cl.Machine(2*p+1)
		ctxA, ctxB := verbs.NewContext(ma), verbs.NewContext(mb)
		qp, _, err := verbs.Connect(ctxA, 1, ctxB, 1, verbs.RC)
		if err != nil {
			return 0, err
		}
		la, err := ma.Alloc(1, 1<<20, 0)
		if err != nil {
			return 0, err
		}
		ra, err := mb.Alloc(1, 1<<20, 0)
		if err != nil {
			return 0, err
		}
		mrA, mrB := ctxA.MustRegisterMR(la), ctxB.MustRegisterMR(ra)
		wr := &verbs.SendWR{
			Opcode:     verbs.OpWrite,
			SGL:        []verbs.SGE{{Addr: mrA.Addr() + mem.Addr(p*64), Length: 64, MR: mrA}},
			RemoteAddr: mrB.Addr() + mem.Addr(p*64),
			RemoteKey:  mrB.RKey(),
		}
		client := &sim.Client{PostCost: 150, Window: 4}
		client.Op = func(post sim.Time) sim.Time {
			comp, err := qp.PostSend(post, wr)
			client.Fail(err)
			return comp.Done
		}
		clients = append(clients, client)
	}
	res, err := sim.RunClosedLoop(clients, h)
	return res.MOPS(), err
}

// engineDisjointPairs is the disjoint-pair scaling experiment: aggregate
// 64 B RC WRITE throughput over 1-8 disjoint machine pairs. Simulated
// throughput scales exactly linearly with the pair count (the pairs share
// nothing); unlike every paper figure, no home machine funnels the traffic.
func engineDisjointPairs(r *run) (*Report, error) {
	fig := stats.NewFigure("Engine: aggregate 64B RC WRITE throughput over disjoint machine pairs", "pairs", "throughput (MOPS)")
	h := r.horizon(5 * sim.Millisecond)
	pairCounts := []int{1, 2, 4, 8}
	ms, err := points(r, len(pairCounts), func(r *run, i int) (float64, error) {
		return pairTrafficMOPS(r, pairCounts[i], h)
	})
	if err != nil {
		return nil, err
	}
	for i, pairs := range pairCounts {
		fig.Line("aggregate").Add(float64(pairs), ms[i])
		fig.Line("per-pair").Add(float64(pairs), ms[i]/float64(pairs))
	}
	return &Report{
		ID:      "engine",
		Figures: []*stats.Figure{fig},
		Notes: []string{
			"all pairs dispatch from one event heap; the pairs share no state, so the aggregate is the exact sum of the per-pair closed loops",
			"per-pair throughput is flat by construction (pairs share no machine, NIC or fabric port)",
		},
	}, nil
}
