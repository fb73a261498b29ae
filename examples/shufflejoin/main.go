// shufflejoin runs the distributed join pipeline end to end: the partition
// phase shuffles both relations across the cluster with SGL-batched RDMA
// writes, the build-probe phase joins the partitions locally, and the result
// is checked against a nested-loop reference.
//
//	go run ./examples/shufflejoin
package main

import (
	"fmt"
	"io"
	"log"
	"os"

	"rdmasem/internal/apps/join"
	"rdmasem/internal/cluster"
	"rdmasem/internal/workload"
)

func main() {
	if err := run(os.Stdout, 1<<16); err != nil {
		log.Fatal(err)
	}
}

func run(w io.Writer, tuples int) error {
	inner := workload.Relation(tuples, uint64(tuples/2), 7)
	outer := workload.Relation(tuples, uint64(tuples/2), 9)

	// Reference result.
	counts := map[uint64]int64{}
	for _, t := range inner {
		counts[t.Key]++
	}
	var want int64
	for _, t := range outer {
		want += counts[t.Key]
	}

	fmt.Fprintf(w, "joining two relations of %d tuples (%d matches expected)\n\n", tuples, want)
	fmt.Fprintf(w, "%-28s %12s %12s %10s\n", "configuration", "partition", "total", "speedup")

	var baseline float64
	for _, cfg := range []struct {
		label string
		c     join.Config
	}{
		{"single machine", join.Config{Executors: 1, Batch: 1}},
		{"4 executors, no batching", mk(4, 1, false)},
		{"4 executors, batch 16", mk(4, 16, true)},
		{"16 executors, batch 16", mk(16, 16, true)},
	} {
		cl, err := cluster.New(cluster.DefaultConfig())
		if err != nil {
			return err
		}
		res, err := join.Run(cl, cfg.c, inner, outer)
		if err != nil {
			return err
		}
		if res.Matches != want {
			return fmt.Errorf("%s: wrong result %d != %d", cfg.label, res.Matches, want)
		}
		if baseline == 0 {
			baseline = res.Elapsed.Seconds()
		}
		fmt.Fprintf(w, "%-28s %12v %12v %9.1fx\n",
			cfg.label, res.Partition, res.Elapsed, baseline/res.Elapsed.Seconds())
	}
	fmt.Fprintln(w, "\npaper (Fig 17): all optimizations give 5.3x over the single machine")
	return nil
}

func mk(execs, batch int, numa bool) join.Config {
	c := join.DefaultConfig()
	c.Executors = execs
	c.Batch = batch
	c.NUMA = numa
	return c
}
