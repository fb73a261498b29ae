package bench

import (
	"fmt"
	"runtime"
	"slices"

	"rdmasem/internal/adaptive"
	"rdmasem/internal/cluster"
	"rdmasem/internal/fabric"
	"rdmasem/internal/sim"
	"rdmasem/internal/telemetry"
)

// Options configures one Run. The zero value is a plain run: a lossless
// fabric, no telemetry, GOMAXPROCS sweep workers, a serial engine and every
// experiment's default sweep. The string fields take the same specs as the
// rdmabench flags of the same name.
type Options struct {
	Faults   *fabric.FaultPlan   // lossy-fabric plan for every cluster; nil = lossless
	Metrics  bool                // also record stage histograms into Report.Metrics
	Timeline *telemetry.Timeline // record every op's stage walk; nil = off

	// Parallel is how many sweep points run at once (0 = GOMAXPROCS). A
	// Timeline forces 1: its process groups are numbered in
	// cluster-construction order. EngineWorkers is the sharded-kernel worker
	// count inside each point (0 = 1, serial). Neither changes any output,
	// and neither may be negative.
	Parallel      int
	EngineWorkers int

	ConnModes     []string // qpsweep serving modes (per-conn, srq, pool, proxy); empty = all
	QPPool        int      // physical QPs of qpsweep's pool and proxy modes; 0 = 64
	RecoveryModes []string // availability recovery modes (none, reconnect, reconnect+remap); empty = all
	FaultFlap     string   // availability flap sweep, down/period in ns: "2000/25000,12000/25000"
	Adaptive      string   // adaptive controller override: "epoch=20000,confirm=2,dwell=2,depth=16"
	TxnConflicts  string   // txn conflict shares, ascending percentages: "0,50,100"
}

// Validate reports the first malformed option without running anything.
func (o Options) Validate() error {
	_, err := o.resolve()
	return err
}

// OptionError reports a numeric option outside its allowed range.
type OptionError struct {
	Option string // the option, as the CLI flag help names it
	Rule   string // the allowed range
	Value  int
}

func (e *OptionError) Error() string {
	return fmt.Sprintf("bench: %s must be %s, got %d", e.Option, e.Rule, e.Value)
}

// run is one experiment execution: the resolved options, the registry that
// holds the counters of the clusters already settled, and the clusters built
// since. Each sweep point runs on its own copy (see points), which shares
// everything but the list of unsettled clusters and the registry, a fork of
// the run's.
type run struct {
	scale    float64
	parallel int // sweep points run at once
	workers  int // sharded-kernel workers per engine
	faults   *fabric.FaultPlan
	reg      *telemetry.Registry // the run's counters; a point's own fork
	metrics  bool                // Options.Metrics: attach reg to every cluster
	tl       *telemetry.Timeline

	connModes     []string
	qpPool        int
	recoveryModes []string
	flaps         []flapPoint
	adaptive      *adaptive.Params // nil = scale-derived
	conflicts     []int

	clusters []*cluster.Cluster // built by this run or point, not yet settled
}

// resolve checks the options and turns them into a run.
func (o Options) resolve() (*run, error) {
	if err := o.Faults.Validate(); err != nil {
		return nil, err
	}
	if o.Parallel < 0 {
		return nil, &OptionError{"parallel", ">= 0 (0 = GOMAXPROCS)", o.Parallel}
	}
	if o.EngineWorkers < 0 {
		return nil, &OptionError{"engine workers", ">= 0 (0 = serial)", o.EngineWorkers}
	}
	if o.QPPool < 0 {
		return nil, &OptionError{"QP pool", ">= 0 (0 = 64)", o.QPPool}
	}
	r := &run{
		parallel: o.Parallel,
		workers:  max(o.EngineWorkers, 1),
		faults:   o.Faults,
		reg:      telemetry.NewRegistry(),
		metrics:  o.Metrics,
		tl:       o.Timeline,
		qpPool:   64,
	}
	switch {
	case r.tl != nil:
		r.parallel = 1
	case r.parallel == 0:
		r.parallel = runtime.GOMAXPROCS(0)
	}
	if o.QPPool > 0 {
		r.qpPool = o.QPPool
	}
	var err error
	if r.connModes, err = pickModes("connection", qpsweepModes, o.ConnModes); err != nil {
		return nil, err
	}
	if r.recoveryModes, err = pickModes("recovery", availModes, o.RecoveryModes); err != nil {
		return nil, err
	}
	if r.flaps, err = parseFaultFlap(o.FaultFlap); err != nil {
		return nil, err
	}
	if r.adaptive, err = parseAdaptive(o.Adaptive); err != nil {
		return nil, err
	}
	if r.conflicts, err = parseTxnConflicts(o.TxnConflicts); err != nil {
		return nil, err
	}
	return r, nil
}

// pickModes returns the modes of known that want names, in known's plotting
// order; an empty want selects them all.
func pickModes(kind string, known, want []string) ([]string, error) {
	if len(want) == 0 {
		return known, nil
	}
	for _, m := range want {
		if !slices.Contains(known, m) {
			return nil, fmt.Errorf("bench: unknown %s mode %q (have %v)", kind, m, known)
		}
	}
	var out []string
	for _, m := range known {
		if slices.Contains(want, m) {
			out = append(out, m)
		}
	}
	return out, nil
}

// horizon scales the full measurement window by the run's scale, flooring it
// at 100us.
func (r *run) horizon(full sim.Duration) sim.Duration {
	return max(sim.Duration(float64(full)*r.scale), 100*sim.Microsecond)
}

// newCluster builds an experiment cluster under the run's fault plan.
func (r *run) newCluster(cfg cluster.Config) (*cluster.Cluster, error) {
	cfg.Faults = r.faults
	return r.build(cfg)
}

// build builds a cluster with the caller's fault plan and the run's telemetry
// sinks, and keeps it until the next settle. Drivers build every cluster
// through newCluster or build, so the run's counters cover them all.
func (r *run) build(cfg cluster.Config) (*cluster.Cluster, error) {
	if r.metrics {
		cfg.Telemetry = r.reg
	}
	cfg.Timeline = r.tl
	cl, err := cluster.New(cfg)
	if err == nil {
		r.clusters = append(r.clusters, cl)
	}
	return cl, err
}

// settle folds the counters of the clusters r built into the run's registry
// and releases the clusters' memory. Call it once nothing simulates them any
// more: points does so when a point returns, and a point that measures on
// several clusters in turn calls it between them, so only one is ever live.
func (r *run) settle() {
	for _, cl := range r.clusters {
		cl.FoldTelemetry(r.reg)
		cl.Release()
	}
	r.clusters = nil
}
