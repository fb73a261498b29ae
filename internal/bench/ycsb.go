package bench

import (
	"rdmasem/internal/apps/hashtable"
	"rdmasem/internal/sim"
	"rdmasem/internal/stats"
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
	hot := hashtableHotSet(dist, 1.0/8)
	ms, err := points(r, len(levels)*len(readPcts), func(r *run, i int) (float64, error) {
		return hashtableMOPS(r, dist, levels[i/len(readPcts)], 16, 8, hot, readPcts[i%len(readPcts)], h)
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
