package bench

import (
	"bytes"
	"errors"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"rdmasem/internal/cluster"
	"rdmasem/internal/mem"
	"rdmasem/internal/sim"
)

// testRun resolves the default options at the given sweep width.
func testRun(t *testing.T, width int) *run {
	t.Helper()
	r, err := Options{Parallel: width}.resolve()
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func TestSweepRunsAllPoints(t *testing.T) {
	for _, width := range []int{1, 4} {
		var ran atomic.Int64
		res, err := points(testRun(t, width), 100, func(_ *run, i int) (int, error) {
			ran.Add(1)
			return i * i, nil
		})
		if err != nil {
			t.Fatal(err)
		}
		if ran.Load() != 100 {
			t.Fatalf("width %d: ran %d points", width, ran.Load())
		}
		for i, v := range res {
			if v != i*i {
				t.Fatalf("width %d: point %d = %d (slot scrambled)", width, i, v)
			}
		}
	}
}

func TestSweepFirstErrorByRegistrationOrder(t *testing.T) {
	// Points 3 and 7 fail; regardless of pool width or worker scheduling,
	// the reported error must be point 3's.
	for _, width := range []int{1, 4} {
		_, err := points(testRun(t, width), 10, func(_ *run, i int) (int, error) {
			if i == 3 || i == 7 {
				return 0, fmt.Errorf("point %d failed", i)
			}
			return i, nil
		})
		if err == nil || err.Error() != "point 3: point 3 failed" {
			t.Fatalf("width %d: err = %v, want point 3's", width, err)
		}
	}
}

// TestSweepStopsAfterFailure: once a point fails, no worker claims another
// index, so a pool does not simulate the rest of a failed sweep, and the
// error reported is still the lowest index's.
func TestSweepStopsAfterFailure(t *testing.T) {
	const n = 1000
	var ran atomic.Int64
	_, err := points(testRun(t, 4), n, func(_ *run, i int) (int, error) {
		ran.Add(1)
		if i == 0 {
			return 0, errors.New("point 0 failed")
		}
		time.Sleep(100 * time.Microsecond)
		return i, nil
	})
	if err == nil || err.Error() != "point 0: point 0 failed" {
		t.Fatalf("err = %v, want point 0's", err)
	}
	if got := ran.Load(); got >= n/2 {
		t.Fatalf("%d of %d points ran after point 0 failed", got, n)
	}
}

// TestSweepReturnsFailedOps: an op that fails stops its kernel run, and the
// sweep returns the failure naming the point, the client and the virtual
// time of the failed post, still wrapping the op's own error.
func TestSweepReturnsFailedOps(t *testing.T) {
	errPost := errors.New("post failed")
	for _, width := range []int{1, 4} {
		_, err := points(testRun(t, width), 4, func(_ *run, i int) (int, error) {
			client := &sim.Client{PostCost: 100, Window: 1}
			client.Op = func(post sim.Time) sim.Time {
				if i == 2 && post == 500 {
					client.Fail(errPost)
				}
				return post + 50
			}
			_, err := sim.RunClosedLoop([]*sim.Client{client}, sim.Microsecond)
			return i, err
		})
		const want = "point 2: sim: client 0 at 500ns: post failed"
		if err == nil || err.Error() != want || !errors.Is(err, errPost) {
			t.Fatalf("width %d: err = %v, want %q wrapping the op's error", width, err, want)
		}
	}
}

// TestSweepEmptyAndReuse: an empty sweep succeeds, and sweeps on one run are
// independent — a failed sweep leaves nothing behind for the next.
func TestSweepEmptyAndReuse(t *testing.T) {
	r := testRun(t, 4)
	if res, err := points(r, 0, func(*run, int) (int, error) { return 0, nil }); err != nil || len(res) != 0 {
		t.Fatalf("empty sweep: %v, %v", res, err)
	}
	if _, err := points(r, 3, func(*run, int) (int, error) { return 0, errors.New("boom") }); err == nil {
		t.Fatal("error swallowed")
	}
	res, err := points(r, 3, func(_ *run, i int) (int, error) { return i, nil })
	if err != nil || !slices.Equal(res, []int{0, 1, 2}) {
		t.Fatalf("reused run replayed the failed sweep: %v, %v", res, err)
	}
}

// TestSweepPointsOwnTheirClusters: a point builds on the run it is handed and
// settles when it returns; a cluster built on the parent run from inside a
// point is an error, whatever the width.
func TestSweepPointsOwnTheirClusters(t *testing.T) {
	cfg := cluster.DefaultConfig()
	cfg.Machines = 1
	for _, width := range []int{1, 4} {
		r := testRun(t, width)
		if _, err := points(r, 4, func(p *run, _ int) (int, error) {
			_, err := p.newCluster(cfg)
			return len(p.clusters), err
		}); err != nil {
			t.Fatalf("width %d: %v", width, err)
		}
		if len(r.clusters) != 0 {
			t.Fatalf("width %d: points left %d clusters on the parent run", width, len(r.clusters))
		}
		_, err := points(r, 1, func(*run, int) (int, error) {
			_, err := r.newCluster(cfg)
			return 0, err
		})
		if err == nil {
			t.Fatalf("width %d: a point building on its parent run went unnoticed", width)
		}
		r.clusters = nil
	}
}

// TestRunReleasesEveryCluster: by the time a run returns, every cluster it
// built, in a sweep point or on the run itself, has released its memory: no
// region keeps its bytes or its mapping.
func TestRunReleasesEveryCluster(t *testing.T) {
	for _, width := range []int{1, 4} {
		var mu sync.Mutex
		var regions []*mem.Region
		keep := func(env *pairEnv) {
			mu.Lock()
			defer mu.Unlock()
			regions = append(regions, env.mrA.Region(), env.mrB.Region(), env.staging.Region())
		}
		_, err := testRun(t, width).report(func(r *run) (*Report, error) {
			env, err := r.newPair(1<<20, 1<<20)
			if err != nil {
				return nil, err
			}
			keep(env)
			_, err = points(r, 4, func(p *run, i int) (int, error) {
				env, err := p.newPair(1<<22, 1<<20)
				if err == nil {
					keep(env)
				}
				return i, err
			})
			return &Report{}, err
		})
		if err != nil {
			t.Fatalf("width %d: %v", width, err)
		}
		if len(regions) != 15 {
			t.Fatalf("width %d: kept %d regions, want 15", width, len(regions))
		}
		for _, rg := range regions {
			if rg.Bytes() != nil {
				t.Fatalf("width %d: %d-byte region at %#x not released", width, rg.Size(), rg.Addr())
			}
			if _, err := rg.Slice(rg.Addr(), 8); !errors.Is(err, mem.ErrReleased) {
				t.Fatalf("width %d: access after release: %v", width, err)
			}
		}
	}
}

// TestReportIgnoresRecycledMemory: released host mappings are reused by any
// later region of their length in the process (internal/mem), so a run may
// start on pages an earlier run wrote. They must reach it all-zero: fig12
// renders the same bytes on a warm free list, right after a fig12 run
// released its mappings, as on a cold one.
func TestReportIgnoresRecycledMemory(t *testing.T) {
	if testing.Short() {
		t.Skip("runs fig12 three times")
	}
	render := func() string {
		report, err := Run("fig12", 0.02, Options{Parallel: 1})
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		report.RenderFormat(&buf, "text")
		return buf.String()
	}
	render()
	warm := render()
	// A mapped region of a length no experiment uses finds no kept mapping,
	// and that miss unmaps every kept one.
	s, err := mem.NewSpace(1 << 30)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Alloc(0, 1<<20+3*mem.PageSize+17, 0); err != nil {
		t.Fatal(err)
	}
	s.Release()
	if cold := render(); cold != warm {
		t.Fatal("fig12 renders differently on a warm free list and a cold one")
	}
}

// TestHarnessDeterminism is the harness-level determinism property: the
// same experiments rendered twice sequentially and once on a 4-wide pool
// must produce byte-identical reports.
func TestHarnessDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("runs two full experiments three times")
	}
	render := func(id string, width int) string {
		report, err := Run(id, 0.02, Options{Parallel: width})
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		report.RenderFormat(&buf, "text")
		return buf.String()
	}
	for _, id := range []string{"fig3", "fig12"} {
		first := render(id, 1)
		second := render(id, 1)
		if first != second {
			t.Fatalf("%s: two sequential runs differ", id)
		}
		parallel := render(id, 4)
		if parallel != first {
			t.Fatalf("%s: parallel run differs from sequential", id)
		}
	}
}
