package bench

import (
	"fmt"

	"rdmasem/internal/cluster"
	"rdmasem/internal/sim"
	"rdmasem/internal/stats"
	"rdmasem/internal/telemetry"
	"rdmasem/internal/topo"
	"rdmasem/internal/verbs"
)

func init() { register("breakdown", breakdown) }

// breakdown regenerates Section III-D's end-to-end latency decomposition
// T(RNIC->Socket) + T(Network) + T(Socket->Memory) for a 64 B WRITE under
// each placement. The measured op's stages are what its post adds to the
// requester's WRITE stage histograms.
func breakdown(r *run) (*Report, error) {
	tb := stats.NewTable("III-D latency decomposition of a warm 64B WRITE (ns)")
	tb.Row("placement", "RNIC->Socket", "Network", "Socket->Memory", "CQE", "total")
	placements := []struct {
		label        string
		core         topo.SocketID
		lSock, rSock topo.SocketID
	}{
		{"own core, own mem, matched remote", 1, 1, 1},
		{"own core, alt local buffer", 1, 0, 1},
		{"alt core, own mem", 0, 1, 1},
		{"alt everything", 0, 0, 0},
	}
	type row struct{ rnic, net, s2m, cqe, total int64 }
	rows, err := points(r, len(placements), func(r *run, i int) (row, error) {
		p := placements[i]
		cfg := cluster.DefaultConfig()
		cfg.Machines = 2
		// A private registry, which the run's replaces under -metrics: the
		// stage histograms are read either way, and the run reports them only
		// when asked.
		cfg.Telemetry = telemetry.NewRegistry()
		env, err := r.newPairOn(cfg, 1<<22, 1<<20)
		if err != nil {
			return row{}, err
		}
		qp, _, err := verbs.Connect(env.ctxA, 1, env.ctxB, 1, verbs.RC)
		if err != nil {
			return row{}, err
		}
		qp.BindCore(p.core)
		lbuf := env.ctxA.MustRegisterMR(env.cl.Machine(0).MustAlloc(p.lSock, 4096, 0))
		rbuf := env.ctxB.MustRegisterMR(env.cl.Machine(1).MustAlloc(p.rSock, 4096, 0))
		wr := &verbs.SendWR{
			Opcode:     verbs.OpWrite,
			SGL:        []verbs.SGE{{Addr: lbuf.Addr(), Length: 64, MR: lbuf}},
			RemoteAddr: rbuf.Addr(),
			RemoteKey:  rbuf.RKey(),
		}
		if _, err := qp.PostSend(0, wr); err != nil { // warm metadata caches
			return row{}, err
		}
		m0 := env.cl.Machine(0)
		before, e2eBefore := writeStages(m0)
		if _, err := qp.PostSend(100*sim.Microsecond, wr); err != nil {
			return row{}, err
		}
		after, e2eAfter := writeStages(m0)
		var b verbs.Breakdown
		for st := range after {
			b.Add(verbs.Stage(st), after[st]-before[st])
		}
		return row{int64(b.RNICToSocket), int64(b.Network), int64(b.SocketToMemory), int64(b.Completion), int64(e2eAfter - e2eBefore)}, nil
	})
	if err != nil {
		return nil, err
	}
	for i, p := range placements {
		r := rows[i]
		tb.Row(p.label,
			fmt.Sprintf("%d", r.rnic),
			fmt.Sprintf("%d", r.net),
			fmt.Sprintf("%d", r.s2m),
			fmt.Sprintf("%d", r.cqe),
			fmt.Sprintf("%d", r.total))
	}
	return &Report{
		ID:     "breakdown",
		Tables: []*stats.Table{tb},
		Notes: []string{
			"paper III-D: for each remote memory access, end-to-end latency decomposes as T(RNIC->Socket) + T(Socket->Memory) + T(Network);",
			"placements off the NIC socket inflate exactly the term the paper attributes them to",
		},
	}, nil
}

// writeStages returns the sums of machine m's WRITE stage histograms, one per
// stage, and of its WRITE end-to-end histogram.
func writeStages(m *cluster.Machine) (stages [verbs.StageCompleted + 1]sim.Duration, e2e sim.Duration) {
	reg, label := m.Telemetry(), m.Label()
	for st := range stages {
		_, stages[st], _, _ = reg.Hist(label, "verbs/WRITE", verbs.Stage(st).String()).Stats()
	}
	_, e2e, _, _ = reg.Hist(label, "verbs/WRITE", "e2e").Stats()
	return stages, e2e
}
