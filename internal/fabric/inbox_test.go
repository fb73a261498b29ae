package fabric

import (
	"testing"

	"rdmasem/internal/sim"
)

// TestInboxMergeWitness: every landed segment advances the destination's
// delivery count and folds into the order hash; identical traffic yields an
// identical hash, reordered traffic does not.
func TestInboxMergeWitness(t *testing.T) {
	run := func(swap bool) (uint64, uint64) {
		f := newFabric(t)
		a, b, c := f.Register("a"), f.Register("b"), f.Register("c")
		if swap {
			f.Send(0, c, b, 64)
			f.Send(0, a, b, 64)
		} else {
			f.Send(0, a, b, 64)
			f.Send(0, c, b, 64)
		}
		f.Send(sim.Microsecond, a, b, 1024)
		return b.Deliveries(), b.MergeHash()
	}
	n1, h1 := run(false)
	n2, h2 := run(false)
	if n1 != 3 {
		t.Fatalf("deliveries=%d, want 3", n1)
	}
	if h1 == 0 {
		t.Fatal("merge hash should be nonzero after traffic")
	}
	if n1 != n2 || h1 != h2 {
		t.Fatalf("identical traffic produced different witnesses: (%d,%#x) vs (%d,%#x)", n1, h1, n2, h2)
	}
	// Same segments merged in a different source order must be visible.
	if _, h3 := run(true); h3 == h1 {
		t.Fatal("reordered merges produced the same hash")
	}
}

// TestInboxLoopback: loopback deliveries merge like any other.
func TestInboxLoopback(t *testing.T) {
	f := newFabric(t)
	a := f.Register("a")
	f.Send(0, a, a, 64)
	if a.Deliveries() != 1 || a.MergeHash() == 0 {
		t.Fatalf("loopback did not merge: n=%d hash=%#x", a.Deliveries(), a.MergeHash())
	}
}

// TestInboxSkipsDrops: a dropped segment never lands, so it must not advance
// the destination inbox; delivered and corrupted segments must.
func TestInboxSkipsDrops(t *testing.T) {
	p := DefaultParams()
	p.Faults = &FaultPlan{Seed: 11, Drop: 0.5}
	f, err := New(p)
	if err != nil {
		t.Fatal(err)
	}
	a, b := f.Register("a"), f.Register("b")
	const segs = 200
	now := sim.Time(0)
	var landed uint64
	for i := 0; i < segs; i++ {
		at, verdict := f.Deliver(now, a, b, 64)
		if verdict != Dropped {
			landed++
		}
		now = at + sim.Microsecond
	}
	st := f.FaultStats()
	if st.Drops == 0 || st.Drops == segs {
		t.Fatalf("drop plan produced %d/%d drops; want a mix", st.Drops, segs)
	}
	if got := b.Deliveries(); got != landed {
		t.Fatalf("inbox merged %d segments, want %d (drops must not merge)", got, landed)
	}
}

// TestPerEndpointFaultTallies: fault tallies accumulate on the sending
// endpoint and Fabric.FaultStats is exactly their sum.
func TestPerEndpointFaultTallies(t *testing.T) {
	p := DefaultParams()
	p.Faults = &FaultPlan{Seed: 3, Drop: 0.2, Corrupt: 0.2, DelayP: 0.2, Delay: 500}
	f, err := New(p)
	if err != nil {
		t.Fatal(err)
	}
	a, b, c := f.Register("a"), f.Register("b"), f.Register("c")
	for i := 0; i < 100; i++ {
		f.Deliver(sim.Time(i)*sim.Microsecond, a, c, 64)
	}
	for i := 0; i < 50; i++ {
		f.Deliver(sim.Time(i)*sim.Microsecond, b, c, 64)
	}
	sa, sb, sc := a.FaultStats(), b.FaultStats(), c.FaultStats()
	if sa.Segments != 100 || sb.Segments != 50 {
		t.Fatalf("sender tallies %d/%d, want 100/50", sa.Segments, sb.Segments)
	}
	if sc != (FaultStats{}) {
		t.Fatalf("receiver accumulated tallies %+v; faults are charged to senders", sc)
	}
	sum := f.FaultStats()
	want := FaultStats{
		Segments: sa.Segments + sb.Segments,
		Drops:    sa.Drops + sb.Drops,
		Corrupts: sa.Corrupts + sb.Corrupts,
		Delays:   sa.Delays + sb.Delays,
	}
	if sum != want {
		t.Fatalf("fabric sum %+v != endpoint sum %+v", sum, want)
	}
}
