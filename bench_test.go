// Package rdmasem_test wires one testing.B benchmark to every registered
// experiment, so
//
//	go test -bench=. -benchmem
//
// regenerates the whole evaluation at reduced scale and reports each
// experiment's wall-clock cost as BenchmarkExperiments/<id>. Use
// cmd/rdmabench for full-scale sweeps and readable output.
package rdmasem_test

import (
	"io"
	"testing"

	"rdmasem/internal/bench"
)

// benchScale keeps every experiment comfortably inside testing.B budgets.
// It measures host cost, not results: the stateful experiments (fig12,
// ycsb, fig6d, fig13, fig19 and others) still read cold caches and filling
// consolidators at this scale, so their numbers differ from scale 1.
const benchScale = 0.05

func BenchmarkExperiments(b *testing.B) {
	for _, id := range bench.List() {
		b.Run(id, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				report, err := bench.Run(id, benchScale, bench.Options{})
				if err != nil {
					b.Fatal(err)
				}
				report.RenderFormat(io.Discard, "text")
			}
		})
	}
}
