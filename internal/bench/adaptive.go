package bench

import (
	"fmt"

	"rdmasem/internal/adaptive"
	"rdmasem/internal/core"
	"rdmasem/internal/mem"
	"rdmasem/internal/sim"
	"rdmasem/internal/stats"
)

func init() { register("adaptive", adaptiveRuntime) }

// adaptiveTheta is every cell's consolidation threshold, printed in the
// decisions table's "final theta" column: the runtime does not tune it.
const adaptiveTheta = 16

// adaptiveParams is the runtime's tuner configuration for one cell: an
// epoch of h/96, at least 500ns, so the probe burn-in stays a fixed
// fraction of the horizon at every scale.
func adaptiveParams(h sim.Duration, shadow bool) adaptive.Params {
	return adaptive.Params{Epoch: max(h/96, 500), Shadow: shadow}
}

// adaptiveCfg is one sweep line: a pinned static plan (a shadow runtime,
// measuring and applying nothing) or the live adaptive runtime.
type adaptiveCfg struct {
	name     string
	strategy core.Strategy
	useCons  bool
	live     bool
}

// The workload phases of the adaptive experiment. Steady workloads run one
// pattern for the whole horizon; the phase-changing workload switches at
// 0.40h and 0.75h.
const (
	awSmallBatch = iota // 16 x 64B scattered fragments per batch
	awLargeSeq          // 16 x 2KB sequential-block fragments per batch
	awHotWrite          // 32B writes cycling through one hot 1KB block
	awPhases            // smallbatch -> largeseq -> hot mixed with batches
)

var adaptiveWorkloads = []string{"smallbatch", "largeseq", "hotwrite", "phases"}

// adaptiveRuntime compares the online per-QP runtime against every static
// plan on three steady workloads and one phase-changing workload (ROADMAP
// item 4). Statics run the identical Runtime in shadow mode — its tuners
// measure but never touch a knob — so this experiment also pins the hook's
// passivity.
func adaptiveRuntime(r *run) (*Report, error) {
	h := r.horizon(10 * sim.Millisecond)
	// The runtime needs enough epochs to amortize its probe burn-in;
	// below ~2ms the phase-change win drowns in probe overhead at every
	// sweep scale, so this experiment floors its horizon there.
	if h < 2*sim.Millisecond {
		h = 2 * sim.Millisecond
	}
	configs := []adaptiveCfg{
		{name: "adaptive", strategy: core.SGL, live: true},
		{name: "static-sp", strategy: core.SP},
		{name: "static-doorbell", strategy: core.Doorbell},
		{name: "static-sgl", strategy: core.SGL},
		{name: "static-cons", strategy: core.SGL, useCons: true},
	}

	type cellOut struct {
		mops      float64
		decisions int
		final     adaptive.Record
	}
	n := len(adaptiveWorkloads) * len(configs)
	cells, err := points(r, n, func(r *run, i int) (cellOut, error) {
		w, cfg := i/len(configs), configs[i%len(configs)]
		env, err := r.newPair(1<<22, 1<<20)
		if err != nil {
			return cellOut{}, err
		}
		rt, err := adaptive.NewRuntime(adaptive.Config{
			QP: env.qpA, LocalMR: env.mrA, Staging: env.staging,
			RemoteMR: env.mrB, RemoteBase: env.mrB.Addr(),
			BlockSize: 1024, Theta: adaptiveTheta, MaxBlocks: 8,
			Params:   adaptiveParams(h, !cfg.live),
			Strategy: cfg.strategy, UseCons: cfg.useCons,
		})
		if err != nil {
			return cellOut{}, err
		}
		client := &sim.Client{PostCost: 30, Window: 1}
		client.Op = adaptiveOp(client, rt, env, w, h)
		res, err := measure(client, h)
		if err != nil {
			return cellOut{}, err
		}
		return cellOut{
			mops:      res.MOPS(),
			decisions: len(rt.Records()) + rt.DroppedRecords(),
			final:     rt.Decision(),
		}, nil
	})
	if err != nil {
		return nil, err
	}

	fig := stats.NewFigure(
		"Adaptive IO runtime vs static plans (throughput per workload)",
		"workload", "throughput (MOPS)")
	for ci, cfg := range configs {
		line := fig.Line(cfg.name)
		for w := range adaptiveWorkloads {
			line.Add(float64(w), cells[w*len(configs)+ci].mops)
		}
	}

	tbl := stats.NewTable("Controller decisions (adaptive line)")
	tbl.Row("workload", "changes", "final batch", "final depth", "final small path", "final theta")
	for w, name := range adaptiveWorkloads {
		c := cells[w*len(configs)] // config 0 is the adaptive line
		small := "native"
		if c.final.Cons {
			small = "consolidate"
		}
		tbl.Row(name, fmt.Sprintf("%d", c.decisions), c.final.Batch.String(),
			fmt.Sprintf("%d", c.final.Depth), small, fmt.Sprintf("%d", adaptiveTheta))
	}

	return &Report{
		ID:      "adaptive",
		Figures: []*stats.Figure{fig},
		Tables:  []*stats.Table{tbl},
		Notes: []string{
			"x: 0=smallbatch (16x64B frags), 1=largeseq (16x2KB frags), 2=hotwrite (32B writes, one hot block), 3=phases (smallbatch 40%, largeseq 35%, hot+batch mix 25%)",
			"statics run the same runtime with a shadow controller (observes, applies nothing): identical timings to the bare static pipeline",
			"the adaptive line probes each candidate briefly, locks the measured best, and re-probes only when the workload fingerprint drifts",
		},
	}, nil
}

// adaptiveOp builds client's closed-loop op body for one workload cell. One
// op is one iteration: a batch write, a small write, or (phase-changing hot
// phase) one batch plus four small writes — the RDMAbox-style block-IO-plus-
// metadata mix that separates an adaptive runtime from every static pin.
func adaptiveOp(client *sim.Client, rt *adaptive.Runtime, env *pairEnv, w int, h sim.Duration) sim.Op {
	smallFr := adaptiveFrags(env, 16, 64)
	largeFr := adaptiveFrags(env, 16, 2048)
	data := make([]byte, 32)
	for i := range data {
		data[i] = byte('a' + i%16)
	}
	dst := env.mrB.Addr() + mem.Addr(1<<20)
	iter := 0
	batch := func(t sim.Time, fr []core.Fragment) (sim.Time, error) {
		r, err := rt.WriteBatch(t, fr, dst)
		return r.Done, err
	}
	small := func(t sim.Time) (sim.Time, error) {
		return rt.SmallWrite(t, (iter%32)*32, data)
	}
	step := func(t sim.Time) (sim.Time, error) {
		iter++
		switch w {
		case awSmallBatch:
			return batch(t, smallFr)
		case awLargeSeq:
			return batch(t, largeFr)
		case awHotWrite:
			return small(t)
		default: // awPhases: switch pattern on virtual time
			switch {
			case t < sim.Time(h*2/5):
				return batch(t, smallFr)
			case t < sim.Time(h*3/4):
				return batch(t, largeFr)
			default:
				d, err := batch(t, smallFr)
				for k := 0; k < 4 && err == nil; k++ {
					iter++
					d, err = small(d)
				}
				return d, err
			}
		}
	}
	return func(t sim.Time) sim.Time {
		d, err := step(t)
		client.Fail(err)
		return d
	}
}

// adaptiveFrags lays out n discontiguous size-byte fragments in the local
// MR above the consolidator shadow region.
func adaptiveFrags(env *pairEnv, n, size int) []core.Fragment {
	const base = 1 << 16 // leave [0, 64KB) to the shadow and staging slots
	b := env.mrA.Region().Bytes()
	out := make([]core.Fragment, n)
	for i := 0; i < n; i++ {
		off := base + i*2*size
		for j := 0; j < size; j++ {
			b[off+j] = byte('A' + i%26)
		}
		out[i] = core.Fragment{Addr: env.mrA.Addr() + mem.Addr(off), Length: size}
	}
	return out
}
