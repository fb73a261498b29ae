package bench

import (
	"strings"
	"testing"

	"rdmasem/internal/cluster"
)

// TestCustomLatencyAllocFailure: a config whose sockets cannot hold the
// helper's 64 KiB buffers makes it return the allocation error, not panic
// on an unregistered region.
func TestCustomLatencyAllocFailure(t *testing.T) {
	cfg := cluster.DefaultConfig()
	cfg.Machines = 2
	cfg.PerSocketMem = 32 << 10
	cases := map[string]func(*run) (float64, error){
		"placement best":  func(r *run) (float64, error) { return customPlacementLatency(r, cfg, false) },
		"placement worst": func(r *run) (float64, error) { return customPlacementLatency(r, cfg, true) },
	}
	for name, measure := range cases {
		r := testRun(t, 1)
		_, err := measure(r)
		r.settle()
		if err == nil || !strings.Contains(err.Error(), "out of memory") {
			t.Errorf("%s: err = %v, want an out-of-memory allocation error", name, err)
		}
	}
}
