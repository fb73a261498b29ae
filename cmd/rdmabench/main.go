// Command rdmabench regenerates the paper's tables and figures on the
// simulated cluster and prints them as aligned text.
//
// Usage:
//
//	rdmabench -list
//	rdmabench -exp fig3
//	rdmabench -exp all -scale 0.25
//	rdmabench -exp all -parallel 4
//
// Scale 1.0 runs the full sweeps (minutes for the join figures); smaller
// scales shrink horizons and input sizes proportionally. -parallel runs
// each experiment's independent sweep points on a worker pool; results
// (and rendered reports) are identical at any width.
//
// -engine-workers N runs the sharded event kernel inside each simulated
// experiment on up to N host threads: clients whose machine footprints are
// disjoint form independent shards that dispatch concurrently (see the
// 'engine' experiment for a workload built of such shards). Output is
// byte-identical at any worker count; only wall-clock time changes. The two
// parallelism axes compose: -parallel spreads sweep points over cores,
// -engine-workers spreads the machines of one big cluster. -timeline forces
// both serial (trace spans carry a global record sequence, so span files are
// only reproducible under single-threaded dispatch).
//
// -faults attaches a seeded lossy-fabric model to every experiment cluster:
//
//	rdmabench -exp fig01 -faults seed=1,drop=0.01
//
// The plan is a comma-separated key=value list (seed, drop, corrupt, delayp,
// delay, flapdown, flapperiod, crash); the same plan and seed always
// reproduce the same run. flapdown/flapperiod take every link down for the
// first flapdown ns of each flapperiod ns window (per-link phase from the
// seed), and crash=M@AT+DUR takes machine M down entirely from AT for DUR ns
// (semicolon-separated for several events). After each experiment a
// fault/reliability summary line reports segments offered, drops (including
// flap and crash drops), corruptions, retransmissions, timeouts, NAKs and QP
// reconnects.
//
// -metrics attaches the deterministic telemetry registry to every experiment
// cluster and prints a per-experiment summary (stage-latency histograms with
// p50/p90/p99/max, NIC/fabric counters, queue occupancy) after each report.
// -timeline out.json additionally records every operation's stage walk and
// writes a Chrome trace_event file loadable in chrome://tracing or Perfetto:
//
//	rdmabench -exp breakdown -metrics
//	rdmabench -exp breakdown -scale 0.05 -timeline trace.json
//
// Both are observers: with neither flag the simulation takes the exact same
// code path and produces byte-identical output.
//
// -conn-modes and -qp-pool parameterize the qpsweep connection-serving
// comparison: which serving strategies to sweep (per-conn, srq, pool,
// proxy) and how many physical QPs the pool/proxy modes share.
//
// -fault-flap and -recovery-modes parameterize the availability chaos
// sweep: the link-flap intensities to sweep (comma-separated down/period
// pairs in nanoseconds, e.g. 2000/25000,12000/25000) and which recovery
// strategies to compare (none, reconnect, reconnect+remap).
//
// -txn-conflicts parameterizes the transactional-KV conflict sweep: the
// swept share of transactions aimed at the hot key set, as strictly
// ascending percentages (e.g. 0,50,100).
package main

import (
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"strings"
	"time"

	"rdmasem/internal/bench"
	"rdmasem/internal/fabric"
	"rdmasem/internal/telemetry"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the whole CLI behind an injectable argv and output streams, so the
// smoke tests can drive it in-process. The return value is the exit code.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("rdmabench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	exp := fs.String("exp", "", "experiment id (see -list), or 'all'")
	scale := fs.Float64("scale", 1.0, "sweep scale in (0,1]")
	format := fs.String("format", "text", "output format: text, csv, chart")
	parallel := fs.Int("parallel", 0, "sweep-point workers per experiment (0 = GOMAXPROCS)")
	engineWorkers := fs.Int("engine-workers", 1, "sharded-kernel workers inside each experiment (0 = 1, serial)")
	faults := fs.String("faults", "", "lossy-fabric plan, e.g. seed=1,drop=0.01 (empty = lossless)")
	connModes := fs.String("conn-modes", "", "comma-separated qpsweep serving modes (per-conn,srq,pool,proxy); empty = all")
	qpPool := fs.Int("qp-pool", 0, "physical-QP pool width of qpsweep's pool/proxy modes (0 = default 64)")
	faultFlap := fs.String("fault-flap", "", "availability flap sweep: comma-separated down/period pairs in ns (empty = default sweep)")
	recoveryModes := fs.String("recovery-modes", "", "comma-separated availability recovery modes (none,reconnect,reconnect+remap); empty = all")
	adaptive := fs.String("adaptive", "", "adaptive controller spec, e.g. epoch=20000,confirm=2,dwell=2,depth=16 (empty = scale-derived)")
	txnConflicts := fs.String("txn-conflicts", "", "txn conflict sweep: ascending percentages in [0,100], e.g. 0,50,100 (empty = default sweep)")
	metrics := fs.Bool("metrics", false, "print per-experiment telemetry (stage histograms, counters)")
	timeline := fs.String("timeline", "", "write a Chrome trace_event JSON of every op's stage walk to this file")
	list := fs.Bool("list", false, "list experiment ids")
	if err := fs.Parse(args); err != nil {
		return 2
	}

	// Validate up front: a bad flag must fail loudly before any experiment
	// runs, not silently produce a misleading sweep.
	if !(*scale > 0 && *scale <= 1) || math.IsNaN(*scale) {
		fmt.Fprintf(stderr, "rdmabench: -scale must be in (0,1], got %v\n", *scale)
		return 2
	}
	switch *format {
	case "text", "csv", "chart":
	default:
		fmt.Fprintf(stderr, "rdmabench: unknown -format %q (want text, csv or chart)\n", *format)
		return 2
	}

	opts := bench.Options{
		Metrics:       *metrics,
		Parallel:      *parallel,
		EngineWorkers: *engineWorkers,
		QPPool:        *qpPool,
		FaultFlap:     *faultFlap,
		Adaptive:      *adaptive,
		TxnConflicts:  *txnConflicts,
	}
	if *connModes != "" {
		opts.ConnModes = strings.Split(*connModes, ",")
	}
	if *recoveryModes != "" {
		opts.RecoveryModes = strings.Split(*recoveryModes, ",")
	}
	if *faults != "" {
		plan, err := fabric.ParseFaultPlan(*faults)
		if err != nil {
			fmt.Fprintf(stderr, "rdmabench: %v\n", err)
			return 2
		}
		opts.Faults = plan
	}
	if *timeline != "" {
		opts.Timeline = telemetry.NewTimeline(0)
	}
	if err := opts.Validate(); err != nil {
		fmt.Fprintf(stderr, "rdmabench: %v\n", err)
		return 2
	}

	if *list || *exp == "" {
		fmt.Fprintln(stdout, "experiments:")
		for _, id := range bench.List() {
			fmt.Fprintln(stdout, "  "+id)
		}
		if *exp == "" && !*list {
			return 2
		}
		return 0
	}

	ids := []string{*exp}
	if *exp == "all" {
		ids = bench.List()
	}
	for _, id := range ids {
		start := time.Now()
		report, err := bench.Run(id, *scale, opts)
		if err != nil {
			fmt.Fprintf(stderr, "rdmabench: %v\n", err)
			return 1
		}
		report.RenderFormat(stdout, *format)
		if opts.Faults != nil {
			printFaultSummary(stdout, report.Metrics)
		}
		if *metrics {
			report.Metrics.Render(stdout)
		}
		fmt.Fprintf(stdout, "(%s completed in %v)\n\n", id, time.Since(start).Round(time.Millisecond))
	}

	if tl := opts.Timeline; tl != nil {
		f, err := os.Create(*timeline)
		if err != nil {
			fmt.Fprintf(stderr, "rdmabench: %v\n", err)
			return 1
		}
		werr := tl.WriteJSON(f)
		if cerr := f.Close(); werr == nil {
			werr = cerr
		}
		if werr != nil {
			fmt.Fprintf(stderr, "rdmabench: writing %s: %v\n", *timeline, werr)
			return 1
		}
		fmt.Fprintf(stdout, "timeline: %d spans written to %s (%d dropped past the recording limit)\n",
			tl.Len(), *timeline, tl.Dropped())
	}
	return 0
}

// printFaultSummary prints the -faults summary lines from a run's folded
// counters: the fabric's fault tallies and the NICs' reliability tallies,
// each summed over every machine and cluster of the run.
func printFaultSummary(w io.Writer, m telemetry.Snapshot) {
	sum := map[string]int64{}
	for _, c := range m.Counters {
		sum[c.Component+" "+c.Stage] += c.Value
	}
	fmt.Fprintf(w, "faults: segments=%d drops=%d corrupts=%d delays=%d flap_drops=%d crash_drops=%d\n",
		sum["fabric segments"], sum["fabric drops"], sum["fabric corrupts"], sum["fabric delays"],
		sum["fabric flap-drops"], sum["fabric crash-drops"])
	fmt.Fprintf(w, "reliability: segments=%d retransmits=%d timeouts=%d naks=%d rnr_naks=%d retries_exhausted=%d silent_drops=%d reconnects=%d\n",
		sum["nic/rel segments"], sum["nic/rel retransmits"], sum["nic/rel ack-timeouts"], sum["nic/rel naks"],
		sum["nic/rel rnr-naks"], sum["nic/rel retries-exhausted"], sum["nic/rel silent-drops"], sum["nic/rel reconnects"])
}
