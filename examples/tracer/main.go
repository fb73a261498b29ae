// tracer demonstrates per-operation stage tracing: it posts the same 64 B
// write under every NUMA placement and prints each one's stage timeline, as
// the cluster's timeline recorded it, and the paper's Section III-D latency
// decomposition T(RNIC->Socket) + T(Network) + T(Socket->Memory).
//
//	go run ./examples/tracer
package main

import (
	"fmt"
	"io"
	"log"
	"os"

	"rdmasem/internal/cluster"
	"rdmasem/internal/sim"
	"rdmasem/internal/telemetry"
	"rdmasem/internal/topo"
	"rdmasem/internal/verbs"
)

func main() {
	if err := run(os.Stdout); err != nil {
		log.Fatal(err)
	}
}

func run(w io.Writer) error {
	cfg := cluster.DefaultConfig()
	cfg.Machines = 2
	cfg.Timeline = telemetry.NewTimeline(0)
	cl, err := cluster.New(cfg)
	if err != nil {
		return err
	}
	ctxA := verbs.NewContext(cl.Machine(0))
	ctxB := verbs.NewContext(cl.Machine(1))

	fmt.Fprintln(w, "64B WRITE under the four placements of Table III:")
	fmt.Fprintln(w)
	for _, p := range []struct {
		label        string
		core         topo.SocketID
		lSock, rSock topo.SocketID
	}{
		{"own core, own mem, matched remote", 1, 1, 1},
		{"own core, ALT local buffer", 1, 0, 1},
		{"ALT core, own mem", 0, 1, 1},
		{"ALT everything", 0, 0, 0},
	} {
		qp, _, err := verbs.Connect(ctxA, 1, ctxB, 1, verbs.RC)
		if err != nil {
			return err
		}
		qp.BindCore(p.core)
		lbuf := ctxA.MustRegisterMR(cl.Machine(0).MustAlloc(p.lSock, 4096, 0))
		rbuf := ctxB.MustRegisterMR(cl.Machine(1).MustAlloc(p.rSock, 4096, 0))
		wr := &verbs.SendWR{
			Opcode:     verbs.OpWrite,
			SGL:        []verbs.SGE{{Addr: lbuf.Addr(), Length: 64, MR: lbuf}},
			RemoteAddr: rbuf.Addr(),
			RemoteKey:  rbuf.RKey(),
		}
		// Warm the metadata caches, then trace a steady-state operation.
		if _, err := qp.PostSend(0, wr); err != nil {
			return err
		}
		const start = 100 * sim.Microsecond
		comp, err := qp.PostSend(start, wr)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "--- %s ---\n", p.label)
		fmt.Fprintf(w, "%s trace (total %v)\n", wr.Opcode, comp.Done-start)
		var b verbs.Breakdown
		for _, sp := range cfg.Timeline.Spans() {
			if sp.TID != int64(qp.ID()) || sp.Op != 2 { // op 1 was the warm-up
				continue
			}
			fmt.Fprintf(w, "  %-13s +%-8v @%v\n", sp.Name, sp.Dur, sp.Start+sp.Dur)
			b.Add(stageNamed(sp.Name), sp.Dur)
		}
		fmt.Fprintf(w, "  III-D decomposition: RNIC->Socket %v | Network %v | Socket->Memory %v\n\n",
			b.RNICToSocket, b.Network, b.SocketToMemory)
	}
	return nil
}

// stageNamed maps a timeline span's name back to its stage.
func stageNamed(name string) verbs.Stage {
	st := verbs.StagePosted
	for st < verbs.StageCompleted && st.String() != name {
		st++
	}
	return st
}
