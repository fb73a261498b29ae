package bench

import (
	"rdmasem/internal/apps/dlog"
	"rdmasem/internal/cluster"
	"rdmasem/internal/sim"
	"rdmasem/internal/stats"
	"rdmasem/internal/topo"
)

func init() { register("fig19", fig19DistributedLog) }

// dlogMOPS measures aggregate appended records per second.
func dlogMOPS(r *run, engines, batch int, numa bool, h sim.Duration) (float64, error) {
	cl, err := r.newCluster(cluster.DefaultConfig())
	if err != nil {
		return 0, err
	}
	cfg := dlog.DefaultConfig()
	cfg.Batch = batch
	cfg.NUMA = numa
	// 64MB holds the deepest sweep's records (~46 MOPS x 5ms x 64B x 2).
	cfg.LogBytes = 64 << 20
	l, err := dlog.NewLog(cl.Machine(0), cfg)
	if err != nil {
		return 0, err
	}
	var clients []*sim.Client
	for i := 0; i < engines; i++ {
		e, err := dlog.NewEngine(i, cl.Machine(1+i%7), topo.SocketID((i/7)%2), l)
		if err != nil {
			return 0, err
		}
		client := &sim.Client{PostCost: 150, Window: 2}
		client.Op = func(post sim.Time) sim.Time {
			_, done, err := e.AppendBatch(post)
			client.Fail(err)
			return done
		}
		clients = append(clients, client)
	}
	res, err := sim.RunClosedLoop(clients, h)
	return float64(res.Completed) * float64(batch) / h.Seconds() / 1e6, err
}

// fig19DistributedLog reproduces Figure 19: appended records per second over
// the batch size for 4/7/14 transaction engines, with and without NUMA
// awareness.
func fig19DistributedLog(r *run) (*Report, error) {
	fig := stats.NewFigure("Fig 19: distributed log throughput", "batch", "throughput (MOPS, records)")
	h := r.horizon(5 * sim.Millisecond)
	type cell struct {
		engines int
		numa    bool
		batch   int
	}
	var cells []cell
	for _, engines := range []int{4, 7, 14} {
		for _, numa := range []bool{false, true} {
			for _, batch := range []int{1, 2, 4, 8, 16, 32} {
				cells = append(cells, cell{engines, numa, batch})
			}
		}
	}
	ms, err := points(r, len(cells), func(r *run, i int) (float64, error) {
		c := cells[i]
		return dlogMOPS(r, c.engines, c.batch, c.numa, h)
	})
	if err != nil {
		return nil, err
	}
	for i, c := range cells {
		fig.Line(label19(c.engines, c.numa)).Add(float64(c.batch), ms[i])
	}
	return &Report{
		ID:      "fig19",
		Figures: []*stats.Figure{fig},
		Notes: []string{
			"paper: 9.1x gain from batch 32 vs no batching at 7 engines; NUMA awareness lifts 14 engines from 15.5 to 17.7 MOPS (~14%)",
		},
	}, nil
}

func label19(engines int, numa bool) string {
	s := ""
	switch engines {
	case 4:
		s = "4 TX engines"
	case 7:
		s = "7 TX engines"
	default:
		s = "14 TX engines"
	}
	if !numa {
		s += " (*)"
	}
	return s
}
