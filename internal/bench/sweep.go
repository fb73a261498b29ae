package bench

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
)

// points runs fn for every index in [0, n) and returns the results in index
// order. Up to r.parallel points run at once, each on its own copy of r that
// settles as soon as the point returns, so a finished point's clusters hand
// their memory back at once. Each copy records its telemetry into its own
// fork of the run's registry, absorbed after the point settles, so no two
// points ever write one histogram. Points must be independent: each builds its
// own clusters through the run it is handed and writes only its own result.
// Clusters are hermetic (no package-level state anywhere under internal/sim,
// internal/cluster or internal/verbs), so points race only on wall-clock and
// results are bit-identical at any width. Workers claim indices in ascending
// order and claim none once a point has failed, so every index below a
// failure has run: the error reported is the first in index order, whichever
// worker hit it first, wrapped as "point <i>: <err>".
func points[T any](r *run, n int, fn func(r *run, i int) (T, error)) ([]T, error) {
	out := make([]T, n)
	errs := make([]error, n)
	point := func(i int) {
		p := *r
		p.clusters, p.reg = nil, r.reg.Fork()
		defer r.reg.Absorb(p.reg)
		defer p.settle()
		out[i], errs[i] = fn(&p, i)
	}
	built := len(r.clusters)
	var next atomic.Int64
	var failed atomic.Bool
	var wg sync.WaitGroup
	for w := 0; w < min(r.parallel, n); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !failed.Load() {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				if point(i); errs[i] != nil {
					failed.Store(true)
				}
			}
		}()
	}
	wg.Wait()
	if len(r.clusters) != built {
		return nil, errors.New("bench: a sweep point built a cluster on its parent run")
	}
	for i, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("point %d: %w", i, err)
		}
	}
	return out, nil
}
