package bench

import (
	"runtime"
	"testing"

	"rdmasem/internal/sim"
)

// maxConnSetupBytes is the ceiling on the heap a per-conn qpsweep point
// allocates per connection while it is built: a QP pair's two headers, the
// connection's state slot, client pointer and op, and its MR. The sweep
// builds 20,000 of them, and what they leave behind sets the experiment's
// peak RSS.
const maxConnSetupBytes = 360

// TestQPSweepSetupHeap pins a per-conn qpsweep point's setup heap per
// connection: the bytes allocated building a point at 2,000 connections,
// less those of a point at 1,000 (which cancels the cluster, its metadata
// caches and the memory regions, whose cost does not grow with the count),
// per added connection. TotalAlloc counts every byte allocated, so the
// figure does not depend on when the collector runs. The test is not
// parallel, so no other test allocates while it reads the counter.
func TestQPSweepSetupHeap(t *testing.T) {
	setup := func(conns int) uint64 {
		r, err := Options{}.resolve()
		if err != nil {
			t.Fatal(err)
		}
		defer r.settle()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		if _, err := newConnSweep(r, "per-conn", conns); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		return after.TotalAlloc - before.TotalAlloc
	}
	small, large := setup(1000), setup(2000)
	if large <= small {
		t.Fatalf("setup allocated %d B at 2,000 connections, %d B at 1,000", large, small)
	}
	perConn := (large - small) / 1000
	t.Logf("per-conn setup: %d B per connection (%d B at 1,000, %d B at 2,000)", perConn, small, large)
	if perConn > maxConnSetupBytes {
		t.Errorf("a per-conn qpsweep connection allocates %d B at setup, want at most %d", perConn, maxConnSetupBytes)
	}
}

// maxConnRunBytes is the ceiling, per mode, on the heap a qpsweep point
// allocates per connection while it runs: a QP's send side and receive side
// made on first use, the pipeline's busy intervals, and the receive queues
// and CQs the SENDs pass through.
var maxConnRunBytes = map[string]uint64{
	"per-conn": 272,
	"srq":      240,
	"pool":     128,
	"proxy":    128,
}

// qpsweepRunHorizon is the run-phase test's measurement window: qpsweep's
// at every scale up to 0.05, the horizon's 100 us floor.
const qpsweepRunHorizon = 100 * sim.Microsecond

// TestQPSweepRunHeap pins each mode's run-phase heap per connection: the
// bytes measure allocates at 2,000 connections, less those at 1,000, per
// added connection. Like TestQPSweepSetupHeap it reads TotalAlloc and is not
// parallel.
func TestQPSweepRunHeap(t *testing.T) {
	for _, mode := range qpsweepModes {
		t.Run(mode, func(t *testing.T) {
			run := func(conns int) uint64 {
				r, err := Options{}.resolve()
				if err != nil {
					t.Fatal(err)
				}
				defer r.settle()
				sw, err := newConnSweep(r, mode, conns)
				if err != nil {
					t.Fatal(err)
				}
				var before, after runtime.MemStats
				runtime.ReadMemStats(&before)
				if _, err := sw.measure(qpsweepRunHorizon); err != nil {
					t.Fatal(err)
				}
				runtime.ReadMemStats(&after)
				return after.TotalAlloc - before.TotalAlloc
			}
			small, large := run(1000), run(2000)
			if large <= small {
				t.Fatalf("the run allocated %d B at 2,000 connections, %d B at 1,000", large, small)
			}
			perConn := (large - small) / 1000
			t.Logf("%s run: %d B per connection (%d B at 1,000, %d B at 2,000)", mode, perConn, small, large)
			if perConn > maxConnRunBytes[mode] {
				t.Errorf("a %s qpsweep connection allocates %d B while it runs, want at most %d", mode, perConn, maxConnRunBytes[mode])
			}
		})
	}
}

// TestQPSweepDrainsServerCQs: the server polls every receive CQE a SEND
// leaves, so after a point of any mode each receiving QP's CQ is empty,
// whether the connection owns the QP or shares a pooled one.
func TestQPSweepDrainsServerCQs(t *testing.T) {
	for _, mode := range qpsweepModes {
		t.Run(mode, func(t *testing.T) {
			r, err := Options{}.resolve()
			if err != nil {
				t.Fatal(err)
			}
			defer r.settle()
			sw, err := newConnSweep(r, mode, 200)
			if err != nil {
				t.Fatal(err)
			}
			pt, err := sw.measure(qpsweepRunHorizon)
			if err != nil {
				t.Fatal(err)
			}
			if pt.mops == 0 {
				t.Fatal("the point completed no SEND")
			}
			for c := range sw.conns {
				if cqe, ok := sw.conns[c].serverQP().RecvCQ().PollOne(sim.MaxTime); ok {
					t.Fatalf("connection %d's receiving QP holds CQE %+v after the point", c, cqe)
				}
			}
		})
	}
}
