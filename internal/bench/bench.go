// Package bench contains one driver per table and figure of the paper's
// evaluation. Each driver rebuilds the experiment on fresh simulated clusters
// and returns the series/rows the paper plots, so
//
//	rdmabench -exp fig3
//
// regenerates Figure 3 as an aligned text table.
//
// Every run takes a scale in (0, 1]: 1 reproduces the full sweep, smaller
// values shrink horizons and input sizes proportionally (used by the test
// suite and the testing.B wrappers to stay fast). An Options value carries
// the rest of a run's configuration, and the Report that Run returns carries
// the run's own counters. The package keeps no mutable state, so runs may
// proceed concurrently.
package bench

import (
	"fmt"
	"io"
	"sort"

	"rdmasem/internal/cluster"
	"rdmasem/internal/mem"
	"rdmasem/internal/sim"
	"rdmasem/internal/stats"
	"rdmasem/internal/telemetry"
	"rdmasem/internal/verbs"
)

// Report is the output of one experiment run.
type Report struct {
	ID      string
	Figures []*stats.Figure
	Tables  []*stats.Table
	Notes   []string

	// Metrics holds the counters of every cluster the experiment built —
	// NIC stage counters, the fabric's fault tallies ("fabric") and the
	// NICs' reliability tallies ("nic/rel") — plus, with Options.Metrics,
	// the stage histograms. The render methods print none of it.
	Metrics telemetry.Snapshot
}

// Render prints all figures and tables of the report as aligned text.
func (r *Report) Render(w io.Writer) { r.RenderFormat(w, "text") }

// RenderFormat prints the report in the given format: "text" (aligned
// columns), "csv", or "chart" (ASCII scatter for a quick shape check).
func (r *Report) RenderFormat(w io.Writer, format string) {
	fmt.Fprintf(w, "== %s ==\n", r.ID)
	for _, f := range r.Figures {
		switch format {
		case "csv":
			f.RenderCSV(w)
		case "chart":
			f.RenderChart(w, 12)
		default:
			f.Render(w)
		}
		fmt.Fprintln(w)
	}
	for _, t := range r.Tables {
		if format == "csv" {
			t.RenderCSV(w)
		} else {
			t.Render(w)
		}
		fmt.Fprintln(w)
	}
	if format != "csv" {
		for _, n := range r.Notes {
			fmt.Fprintf(w, "note: %s\n", n)
		}
	}
}

// driver runs one experiment.
type driver func(r *run) (*Report, error)

// registry maps experiment ids to drivers; only init functions write it.
var registry = map[string]driver{}

// register adds a driver under its experiment id.
func register(id string, d driver) {
	registry[id] = d
}

// Run executes the named experiment at the given scale, in (0, 1], and
// returns its report with the counters of every cluster the run built.
func Run(id string, scale float64, opts Options) (*Report, error) {
	d, ok := registry[id]
	if !ok {
		return nil, fmt.Errorf("bench: unknown experiment %q (see List)", id)
	}
	if !(scale > 0 && scale <= 1) {
		return nil, fmt.Errorf("bench: scale must be in (0,1], got %v", scale)
	}
	r, err := opts.resolve()
	if err != nil {
		return nil, err
	}
	r.scale = scale
	r.reg.SetExperiment(id)
	return r.report(d)
}

// report runs d and returns its report with the run's counters. Every
// cluster the run built is settled, and so released, by the time it
// returns, whether d succeeded or not.
func (r *run) report(d driver) (*Report, error) {
	rep, err := d(r)
	r.settle()
	if err != nil {
		return nil, err
	}
	rep.Metrics = r.reg.Snapshot()
	return rep, nil
}

// List returns the registered experiment ids in order.
func List() []string {
	out := make([]string, 0, len(registry))
	for id := range registry {
		out = append(out, id)
	}
	sort.Strings(out)
	return out
}

// pairEnv is the one-to-one microbenchmark environment (Figures 1, 3-6, 8):
// two machines, an RC QP between the NIC-socket ports, and large MRs.
type pairEnv struct {
	cl       *cluster.Cluster
	workers  int // sharded-kernel workers of engine()
	ctxA     *verbs.Context
	ctxB     *verbs.Context
	qpA      *verbs.QP
	mrA, mrB *verbs.MR
	staging  *verbs.MR
}

// newPair builds the environment with the given registered-region size on
// the remote side.
func (r *run) newPair(remoteBytes int) (*pairEnv, error) {
	cfg := cluster.DefaultConfig()
	cfg.Machines = 2
	cl, err := r.newCluster(cfg)
	if err != nil {
		return nil, err
	}
	ctxA := verbs.NewContext(cl.Machine(0))
	ctxB := verbs.NewContext(cl.Machine(1))
	qpA, _, err := verbs.Connect(ctxA, 1, ctxB, 1, verbs.RC)
	if err != nil {
		return nil, err
	}
	// Spans beyond 1 MB use sparse backing: the full virtual extent drives
	// the translation cache, the bytes alias a 1 MB physical buffer. The
	// pair's workloads only time their accesses, and a dense pair would
	// fault in every page its random sweeps touch (see mem.AllocSparse).
	alloc := func(m int, size int) (*mem.Region, error) {
		if size > 1<<20 {
			return cl.Machine(m).Space().AllocSparse(1, size, 1<<20)
		}
		return cl.Machine(m).Alloc(1, size, 0)
	}
	localBytes := 1 << 22
	if remoteBytes > localBytes {
		localBytes = remoteBytes
	}
	ra, err := alloc(0, localBytes)
	if err != nil {
		return nil, err
	}
	rb, err := alloc(1, remoteBytes)
	if err != nil {
		return nil, err
	}
	st, err := cl.Machine(0).Alloc(1, 1<<20, 0)
	if err != nil {
		return nil, err
	}
	return &pairEnv{
		cl:      cl,
		workers: r.workers,
		ctxA:    ctxA,
		ctxB:    ctxB,
		qpA:     qpA,
		mrA:     ctxA.MustRegisterMR(ra),
		mrB:     ctxB.MustRegisterMR(rb),
		staging: ctxA.MustRegisterMR(st),
	}, nil
}

// measure runs a one-client closed loop over the op and returns the result.
// One client is one shard, so this stays on the plain single-shard path.
func measure(op sim.Op, window int, postCost sim.Duration, h sim.Duration) sim.Result {
	client := &sim.Client{Op: op, PostCost: postCost, Window: window}
	return sim.RunClosedLoop([]*sim.Client{client}, h)
}

// engine builds the pair environment's sharded engine; clients added to it
// run with the machine-0/machine-1 footprint of the one-to-one
// microbenchmarks.
func (env *pairEnv) engine() (*cluster.Engine, *cluster.Machine, *cluster.Machine) {
	return env.cl.NewEngine(env.workers), env.cl.Machine(0), env.cl.Machine(1)
}
