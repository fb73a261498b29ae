package main

import (
	"fmt"
	"strconv"
)

// invocation is one child rdmabench run: one experiment at one scale,
// optionally under the workload's seeded fault plan.
type invocation struct {
	exp    string
	scale  float64
	faulty bool
}

// workload is a named list of invocations. One pass runs every invocation
// once, one child at a time. README.md says why each workload exists.
type workload struct {
	name string
	// metrics puts -metrics on the timed passes; the untimed warm-up pass
	// always runs with the opposite setting, so every workload checks that
	// telemetry is passive and yields the -metrics counters.
	metrics bool
	list    []invocation
}

// faultPlan is the lossy workload's plan; the seed comes from -seed.
const faultPlan = "seed=%d,drop=0.01,corrupt=0.001,delayp=0.05,delay=2000"

// goldenScale is the scale internal/bench renders its goldens at.
const goldenScale = 0.02

// The scales keep each pass at a few CPU-seconds on a 2-CPU host, so a
// 20-second run measures at least three passes. fig10b is not in lossy: it
// panics under any lossy plan ("core: ud rpc request dropped").
var microList = []invocation{
	{"fig1", 0.25, false}, {"fig3", 0.25, false}, {"fig4", 0.25, false},
	{"fig6", 0.25, false}, {"fig6d", 0.25, false}, {"fig8", 0.25, false},
	{"table1", 0.25, false}, {"table3", 0.25, false}, {"fig10a", 0.25, false},
	{"fig10b", 0.25, false}, {"qpscale", 0.25, false},
}

var workloads = []workload{
	{name: "micro", list: microList},
	{name: "micro-metrics", metrics: true, list: microList},
	{
		name: "apps",
		list: []invocation{
			{"fig12", 0.1, false}, {"fig15", 0.1, false}, {"fig16", 0.004, false},
			{"fig19", 0.15, false}, {"ycsb", 0.5, false}, {"txn", 1, false},
		},
	},
	{
		name: "lossy",
		list: []invocation{
			{"fig1", 0.5, true}, {"fig3", 0.5, true}, {"table1", 0.5, true},
			{"table3", 0.5, true}, {"fig8", 0.5, true}, {"ycsb", 0.5, true},
			{"fig19", 0.25, true},
			{"availability", 1, false}, {"qpsweep", 0.3, false}, {"txn", 1, false},
		},
	},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// experiments returns the distinct experiment ids of the given workloads in
// first-use order.
func experiments(ws []workload) []string {
	var ids []string
	seen := map[string]bool{}
	for _, w := range ws {
		for _, inv := range w.list {
			if !seen[inv.exp] {
				seen[inv.exp] = true
				ids = append(ids, inv.exp)
			}
		}
	}
	return ids
}

// childArgs returns the rdmabench arguments of one invocation. Every child
// runs serially (-parallel 1 -engine-workers 1), so the load is one thread
// of simulation at a time.
func childArgs(inv invocation, seed int64, metrics bool) []string {
	args := []string{"-exp", inv.exp, "-scale", strconv.FormatFloat(inv.scale, 'g', -1, 64),
		"-parallel", "1", "-engine-workers", "1"}
	if inv.faulty {
		args = append(args, "-faults", fmt.Sprintf(faultPlan, seed))
	}
	if metrics {
		args = append(args, "-metrics")
	}
	return args
}
