package bench

import (
	"rdmasem/internal/apps/shuffle"
	"rdmasem/internal/cluster"
	"rdmasem/internal/core"
	"rdmasem/internal/sim"
	"rdmasem/internal/stats"
	"rdmasem/internal/workload"
)

func init() { register("fig15", fig15Shuffle) }

// shuffleMOPS measures aggregate entries/s of a shuffle deployment.
func shuffleMOPS(r *run, executors, batch int, strategy core.Strategy, numa bool, h sim.Duration) (float64, error) {
	cl, err := r.newCluster(cluster.DefaultConfig())
	if err != nil {
		return 0, err
	}
	cfg := shuffle.DefaultConfig()
	cfg.Executors = executors
	cfg.Batch = batch
	cfg.Strategy = strategy
	cfg.NUMA = numa
	s, err := shuffle.New(cl, cfg)
	if err != nil {
		return 0, err
	}
	var clients []*sim.Client
	for _, ex := range s.Executors() {
		ex := ex
		u, err := workload.NewUniform(1<<30, int64(ex.ID()*7+1))
		if err != nil {
			return 0, err
		}
		st := workload.NewStream(u, cfg.ValueSize)
		client := &sim.Client{PostCost: 50, Window: 4}
		client.Op = func(post sim.Time) sim.Time {
			d, err := ex.Process(post, st.Next())
			client.Fail(err)
			return d
		}
		clients = append(clients, client)
	}
	res, err := sim.RunClosedLoop(clients, h)
	return res.MOPS(), err
}

// fig15Shuffle reproduces Figure 15: shuffle throughput over executor count
// for the basic path and the SGL/SP batched variants.
func fig15Shuffle(r *run) (*Report, error) {
	fig := stats.NewFigure("Fig 15: distributed shuffle throughput", "executors", "throughput (MOPS, entries)")
	h := r.horizon(2 * sim.Millisecond)
	type cell struct {
		label    string
		n, batch int
		strategy core.Strategy
	}
	var cells []cell
	for n := 2; n <= 16; n += 2 {
		cells = append(cells, cell{"Basic Shuffle", n, 1, core.SGL})
		for _, batch := range []int{4, 16} {
			cells = append(cells, cell{sglLabel("SGL", batch), n, batch, core.SGL})
			cells = append(cells, cell{sglLabel("SP", batch), n, batch, core.SP})
		}
	}
	ms, err := points(r, len(cells), func(r *run, i int) (float64, error) {
		c := cells[i]
		return shuffleMOPS(r, c.n, c.batch, c.strategy, true, h)
	})
	if err != nil {
		return nil, err
	}
	for i, c := range cells {
		fig.Line(c.label).Add(float64(c.n), ms[i])
	}
	return &Report{
		ID:      "fig15",
		Figures: []*stats.Figure{fig},
		Notes: []string{
			"paper: at 16 executors and batch 16, SGL/SP reach 4.8x/5.8x the basic shuffle",
		},
	}, nil
}

func sglLabel(prefix string, batch int) string {
	if batch == 4 {
		return "+" + prefix + "(Batch=4)"
	}
	return "+" + prefix + "(Batch=16)"
}
