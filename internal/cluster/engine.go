// Engine: the cluster-level face of the sharded event kernel. The cluster
// owns the machine-to-shard mapping contract — a client's footprint is the
// set of Machines its ops touch.
package cluster

import (
	"fmt"

	"rdmasem/internal/sim"
)

// Engine drives closed-loop clients over the cluster on the sharded event
// kernel. Register each client with the machines its Op closure touches
// (home machine first); the engine unions overlapping footprints into
// shards — machine groups that only ever interact through each other's
// fabric endpoints — and runs independent shards on up to the configured
// number of host workers. Results, telemetry snapshots and reliability
// counters are byte-identical at any worker count; only wall-clock time
// changes.
type Engine struct {
	cl *Cluster
	k  *sim.Kernel
}

// NewEngine returns an engine running shards on up to workers host threads
// (values below 1 clamp to 1, fully serial). A cluster with a Timeline
// attached pins the engine to one worker: trace spans carry a global record
// sequence used as a sort tiebreak, so span files are only reproducible
// under single-threaded dispatch. Metrics registries need no such pin —
// counter and histogram updates commute.
func (c *Cluster) NewEngine(workers int) *Engine {
	if c.cfg.Timeline != nil {
		workers = 1
	}
	return &Engine{cl: c, k: sim.NewKernel(workers)}
}

// Add registers a client with its machine footprint, home machine first.
// Every machine must belong to this engine's cluster. A client registered
// with no machines may touch anything and collapses the run into a single
// shard (the conservative default, equivalent to sim.RunClosedLoop).
func (e *Engine) Add(c *sim.Client, on ...*Machine) {
	ids := make([]int, len(on))
	for i, m := range on {
		if m == nil {
			panic("cluster: nil machine in client footprint")
		}
		if m.id < 0 || m.id >= len(e.cl.machines) || e.cl.machines[m.id] != m {
			panic(fmt.Sprintf("cluster: machine %d is not part of this engine's cluster", m.id))
		}
		ids[i] = m.id
	}
	e.k.Add(c, ids...)
}

// Workers reports the effective worker count (after any Timeline pin).
func (e *Engine) Workers() int { return e.k.Workers() }

// Run drives all registered clients to the horizon. Semantics are exactly
// sim.RunClosedLoop's, failed ops included; see sim.Kernel for the shard
// partition.
func (e *Engine) Run(horizon sim.Time) (sim.Result, error) { return e.k.Run(horizon) }
