package bench

import (
	"runtime"
	"testing"
)

// maxConnSetupBytes is the ceiling on the heap a per-conn qpsweep point
// allocates per connection while it is built: a QP pair's two headers, the
// connection's state slot, client pointer and op, and its MR. The sweep
// builds 20,000 of them, and what they leave behind sets the experiment's
// peak RSS.
const maxConnSetupBytes = 520

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
