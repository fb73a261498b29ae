// translog runs the distributed log case study: transaction engines reserve
// space in a global remote log with RDMA fetch-and-add and append their
// records with single SGL writes, sweeping the batch size the way Figure 19
// does, then verifies every record landed intact and in a private extent.
//
//	go run ./examples/translog
package main

import (
	"fmt"
	"io"
	"log"
	"os"

	"rdmasem/internal/apps/dlog"
	"rdmasem/internal/cluster"
	"rdmasem/internal/sim"
	"rdmasem/internal/topo"
	"rdmasem/internal/workload"
)

func main() {
	if err := run(os.Stdout, 2*sim.Millisecond); err != nil {
		log.Fatal(err)
	}
}

func run(w io.Writer, horizon sim.Duration) error {
	const engines = 7
	fmt.Fprintf(w, "distributed log, %d transaction engines\n\n", engines)
	fmt.Fprintf(w, "%-8s %14s\n", "batch", "records MOPS")

	var first float64
	for _, batch := range []int{1, 4, 16, 32} {
		cl, err := cluster.New(cluster.DefaultConfig())
		if err != nil {
			return err
		}
		cfg := dlog.DefaultConfig()
		cfg.Batch = batch
		cfg.LogBytes = 256 << 20
		l, err := dlog.NewLog(cl.Machine(0), cfg)
		if err != nil {
			return err
		}
		var clients []*sim.Client
		for i := 0; i < engines; i++ {
			e, err := dlog.NewEngine(i, cl.Machine(1+i%7), topo.SocketID(i%2), l)
			if err != nil {
				return err
			}
			client := &sim.Client{PostCost: 150, Window: 2}
			client.Op = func(post sim.Time) sim.Time {
				_, done, err := e.AppendBatch(post)
				client.Fail(err)
				return done
			}
			clients = append(clients, client)
		}
		res, err := sim.RunClosedLoop(clients, horizon)
		if err != nil {
			return err
		}
		mops := float64(res.Completed) * float64(batch) / horizon.Seconds() / 1e6
		if first == 0 {
			first = mops
		}
		fmt.Fprintf(w, "%-8d %11.2f  (%.1fx)\n", batch, mops, mops/first)

		// Verify the head of the log: dense sequence, intact records.
		head, err := l.Head()
		if err != nil {
			return err
		}
		for seq := uint64(0); seq < head && seq < 1024; seq++ {
			rec, err := l.Record(seq)
			if err != nil {
				return err
			}
			if !workload.CheckValue(rec, seq) {
				return fmt.Errorf("record %d corrupt", seq)
			}
		}
	}
	fmt.Fprintln(w, "\npaper (Fig 19): batch 32 delivers 9.1x the unbatched throughput at 7 engines")
	return nil
}
