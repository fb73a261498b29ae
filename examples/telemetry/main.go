// telemetry demonstrates the deterministic metrics subsystem: it attaches a
// registry and a timeline to a two-machine cluster, runs a small mixed
// READ/WRITE workload, prints the stage-latency histograms and NIC counters,
// and writes the per-op stage walks as a Chrome trace_event file loadable in
// chrome://tracing or Perfetto.
//
//	go run ./examples/telemetry            # summary to stdout, trace to telemetry-trace.json
//	go run ./examples/telemetry -out x.json
package main

import (
	"flag"
	"fmt"
	"io"
	"log"
	"os"

	"rdmasem/internal/cluster"
	"rdmasem/internal/sim"
	"rdmasem/internal/telemetry"
	"rdmasem/internal/verbs"
)

func main() {
	out := flag.String("out", "telemetry-trace.json", "Chrome trace output file")
	flag.Parse()
	f, err := os.Create(*out)
	if err != nil {
		log.Fatal(err)
	}
	if err := run(os.Stdout, f); err != nil {
		log.Fatal(err)
	}
	if err := f.Close(); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("trace written to %s — open it in chrome://tracing or https://ui.perfetto.dev\n", *out)
}

// run builds a telemetry-enabled cluster, drives a mixed workload, renders
// the metrics snapshot to w and the Chrome trace to trace.
func run(w, trace io.Writer) error {
	reg := telemetry.NewRegistry()
	reg.SetExperiment("telemetry-demo")
	tl := telemetry.NewTimeline(0)

	cfg := cluster.DefaultConfig()
	cfg.Machines = 2
	cfg.Telemetry = reg
	cfg.Timeline = tl
	cl, err := cluster.New(cfg)
	if err != nil {
		return err
	}
	ctxA := verbs.NewContext(cl.Machine(0))
	ctxB := verbs.NewContext(cl.Machine(1))
	qp, _, err := verbs.Connect(ctxA, 1, ctxB, 1, verbs.RC)
	if err != nil {
		return err
	}
	lbuf := ctxA.MustRegisterMR(cl.Machine(0).MustAlloc(1, 1<<20, 0))
	rbuf := ctxB.MustRegisterMR(cl.Machine(1).MustAlloc(1, 1<<20, 0))

	// A closed loop of WRITEs chased by READs of growing size: enough
	// variety that the histograms show real spread and the trace shows the
	// stage mix per opcode.
	now := sim.Time(0)
	for i := 0; i < 64; i++ {
		size := 64 << (i % 5) // 64 B .. 1 KB
		wr := &verbs.SendWR{
			Opcode:     verbs.OpWrite,
			SGL:        []verbs.SGE{{Addr: lbuf.Addr(), Length: size, MR: lbuf}},
			RemoteAddr: rbuf.Addr(),
			RemoteKey:  rbuf.RKey(),
		}
		c, err := qp.PostSend(now, wr)
		if err != nil {
			return err
		}
		rd := &verbs.SendWR{
			Opcode:     verbs.OpRead,
			SGL:        []verbs.SGE{{Addr: lbuf.Addr(), Length: size, MR: lbuf}},
			RemoteAddr: rbuf.Addr(),
			RemoteKey:  rbuf.RKey(),
		}
		c, err = qp.PostSend(c.Done, rd)
		if err != nil {
			return err
		}
		now = c.Done
	}

	cl.FoldTelemetry(reg)
	reg.Snapshot().Render(w)
	fmt.Fprintf(w, "\ntimeline: %d spans recorded over %v of virtual time\n", tl.Len(), sim.Duration(now))
	return tl.WriteJSON(trace)
}
