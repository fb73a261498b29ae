package bench

import (
	"fmt"
	"math/rand"
	"slices"

	"rdmasem/internal/apps/hashtable"
	"rdmasem/internal/cluster"
	"rdmasem/internal/sim"
	"rdmasem/internal/stats"
	"rdmasem/internal/topo"
	"rdmasem/internal/workload"
)

func init() {
	register("fig12", fig12HashtableBreakdown)
	register("fig13", fig13HashtableConsolidation)
}

// hashtableKeySpace is the key space of every hashtable experiment; the
// experiments build their zipf(0.99) distribution over it once, with
// hashtableDist, and share it across their points: its key streams are
// memoized per seed, so a front-end seed is drawn once per experiment.
const hashtableKeySpace = 1 << 14

func hashtableDist() (*workload.ZipfDist, error) {
	return workload.NewZipfDist(hashtableKeySpace, 0.99)
}

// hashtableHotSet returns dist's hottest hotFrac of the key space, sorted.
// An experiment computes it once per hot fraction and shares it read-only
// across its points, so no point re-derives or re-sorts it.
func hashtableHotSet(dist *workload.ZipfDist, hotFrac float64) []uint64 {
	hot := dist.HotSet(int(float64(hashtableKeySpace) * hotFrac))
	slices.Sort(hot)
	return hot
}

// hashtableMOPS runs the disaggregated hashtable under a zipf(0.99)
// workload drawn from dist with the given number of front-ends (spread over
// 7 client machines x 2 sockets, as on the paper's 8-machine testbed), hot
// the hot set from hashtableHotSet. readPct of the ops are Gets, the rest
// Puts; the paper's figures use 0.
func hashtableMOPS(r *run, dist *workload.ZipfDist, level hashtable.Level, theta, frontEnds int, hot []uint64, readPct int, h sim.Duration) (float64, error) {
	cl, err := r.newCluster(cluster.DefaultConfig())
	if err != nil {
		return 0, err
	}
	cfg := hashtable.Config{
		Level:     level,
		KeySpace:  hashtableKeySpace,
		ValueSize: 64,
		Theta:     theta,
		HotKeys:   hot,
	}
	backend, err := hashtable.NewBackend(cl.Machine(0), cfg)
	if err != nil {
		return 0, err
	}
	val := make([]byte, 64)
	var clients []*sim.Client
	for i := 0; i < frontEnds; i++ {
		// Alternate sockets first so both ports carry traffic from two
		// front-ends onward, then spread over the seven client machines.
		m := cl.Machine(1 + (i/2)%7)
		socket := topo.SocketID(i % 2)
		fe, err := hashtable.NewFrontEnd(i, m, socket, backend)
		if err != nil {
			return 0, err
		}
		keys := dist.New(int64(1000 + i))
		var rng *rand.Rand // drawn from only when some ops are Gets
		if readPct > 0 {
			rng = rand.New(rand.NewSource(int64(50 + i)))
		}
		out := make([]byte, 64)
		client := &sim.Client{PostCost: 200, Window: 4}
		client.Op = func(post sim.Time) sim.Time {
			k := keys.Next()
			var d sim.Time
			var err error
			if readPct > 0 && rng.Intn(100) < readPct {
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

// fig12HashtableBreakdown reproduces Figure 12: throughput over front-end
// count for the cumulative optimization levels.
func fig12HashtableBreakdown(r *run) (*Report, error) {
	fig := stats.NewFigure("Fig 12: disaggregated hashtable optimization breakdown", "front-ends", "throughput (MOPS)")
	h := r.horizon(5 * sim.Millisecond)
	const hotFrac = 1.0 / 8
	const maxFE = 14
	dist, err := hashtableDist()
	if err != nil {
		return nil, err
	}
	hot := hashtableHotSet(dist, hotFrac)
	levels := []struct {
		label string
		level hashtable.Level
		theta int
	}{
		{"Basic HashTable", hashtable.Basic, 4},
		{"+Numa-OPT", hashtable.NUMA, 4},
		{"+Reorder-OPT (th=4)", hashtable.Reorder, 4},
		{"+Reorder-OPT (th=16)", hashtable.Reorder, 16},
	}
	ms, err := points(r, maxFE*len(levels), func(r *run, i int) (float64, error) {
		l := levels[i%len(levels)]
		return hashtableMOPS(r, dist, l.level, l.theta, i/len(levels)+1, hot, 0, h)
	})
	if err != nil {
		return nil, err
	}
	for n := 1; n <= maxFE; n++ {
		for li, l := range levels {
			fig.Line(l.label).Add(float64(n), ms[(n-1)*len(levels)+li])
		}
	}
	return &Report{
		ID:      "fig12",
		Figures: []*stats.Figure{fig},
		Notes: []string{
			"paper: NUMA adds ~14%; reorder peaks 1.85-2.70x over basic/NUMA (24.4 MOPS at 6 front-ends)",
		},
	}, nil
}

// fig13HashtableConsolidation reproduces Figure 13: throughput over the hot
// key proportion (a) and the consolidation batch size (b).
func fig13HashtableConsolidation(r *run) (*Report, error) {
	h := r.horizon(5 * sim.Millisecond)
	const frontEnds = 6
	figA := stats.NewFigure("Fig 13a: throughput vs hot key proportion (theta=16)", "1/proportion", "throughput (MOPS)")
	figB := stats.NewFigure("Fig 13b: throughput vs batch size (hot=1/8)", "theta", "throughput (MOPS)")
	denoms := []int{4, 8, 16, 32}
	thetas := []int{1, 2, 4, 8, 16}
	dist, err := hashtableDist()
	if err != nil {
		return nil, err
	}
	hots := make([][]uint64, len(denoms))
	for i, denom := range denoms {
		hots[i] = hashtableHotSet(dist, 1.0/float64(denom))
	}
	hot8 := hots[slices.Index(denoms, 8)] // fig 13b's hot fraction
	ms, err := points(r, len(denoms)+len(thetas), func(r *run, i int) (float64, error) {
		if i < len(denoms) {
			return hashtableMOPS(r, dist, hashtable.Reorder, 16, frontEnds, hots[i], 0, h)
		}
		return hashtableMOPS(r, dist, hashtable.Reorder, thetas[i-len(denoms)], frontEnds, hot8, 0, h)
	})
	if err != nil {
		return nil, err
	}
	for i, denom := range denoms {
		figA.Line("Consolidation-OPT").Add(float64(denom), ms[i])
	}
	for i, theta := range thetas {
		figB.Line("Consolidation-OPT").Add(float64(theta), ms[len(denoms)+i])
	}
	return &Report{
		ID:      "fig13",
		Figures: []*stats.Figure{figA, figB},
		Notes: []string{
			fmt.Sprintf("paper: only ~6 MOPS drop from 1/4 to 1/32 hot proportion; batch-size gains are sublinear"),
		},
	}, nil
}
