package core

import (
	"testing"

	"rdmasem/internal/sim"
)

// consTest builds a consolidator with the given θ and lease on a fresh env.
func consTest(t *testing.T, theta int, lease sim.Duration) (*env, *Consolidator) {
	t.Helper()
	e := newEnv(t)
	c, err := NewConsolidator(ConsolidatorConfig{
		QP: e.qpA, LocalMR: e.staging, RemoteMR: e.mrB, RemoteBase: e.mrB.Addr(),
		BlockSize: 1024, Theta: theta, Lease: lease, MaxBlocks: 8,
	})
	if err != nil {
		t.Fatal(err)
	}
	return e, c
}

var retuneData = []byte("0123456789abcdef0123456789abcdef") // 32B

func TestConsolidatorRetuneDownFlushesOnWriteTouch(t *testing.T) {
	_, c := consTest(t, 8, 0)
	now := sim.Time(0)
	for i := 0; i < 5; i++ {
		d, err := c.Write(now, i*32, retuneData)
		if err != nil {
			t.Fatal(err)
		}
		now = d
	}
	if _, fl := c.Stats(); fl != 0 {
		t.Fatal("no flush expected below theta")
	}
	// θ drops to 4: the block already holds 5 > 4 mods and must flush on the
	// very next touch, not linger (there is no lease to save it).
	if err := c.Retune(now, 4, 0); err != nil {
		t.Fatal(err)
	}
	if got := c.Theta(); got != 4 {
		t.Fatalf("Theta()=%d after retune, want 4", got)
	}
	d, err := c.Write(now, 5*32, retuneData)
	if err != nil {
		t.Fatal(err)
	}
	if _, fl := c.Stats(); fl != 1 {
		t.Fatalf("flushes=%d after post-retune write touch, want 1", fl)
	}
	if d-now < 900 {
		t.Fatalf("touch should pay the flush RTT, took %v", d-now)
	}
	th, le, ev, fo := c.FlushBreakdown()
	if th != 1 || le != 0 || ev != 0 || fo != 0 {
		t.Fatalf("breakdown theta=%d lease=%d evict=%d forced=%d, want 1/0/0/0", th, le, ev, fo)
	}
}

func TestConsolidatorRetuneDownFlushesOnReadTouch(t *testing.T) {
	_, c := consTest(t, 8, 0)
	now := sim.Time(0)
	for i := 0; i < 5; i++ {
		d, err := c.Write(now, i*32, retuneData)
		if err != nil {
			t.Fatal(err)
		}
		now = d
	}
	if err := c.Retune(now, 4, 0); err != nil {
		t.Fatal(err)
	}
	// A read-only touch must trigger the overdue flush too — the Write-path
	// θ check alone would leave a read-hot block pending forever at Lease 0.
	out := make([]byte, 32)
	d, err := c.Read(now, 0, 32, out)
	if err != nil {
		t.Fatal(err)
	}
	if string(out) != string(retuneData) {
		t.Fatal("read-your-writes broken across the retune flush")
	}
	if _, fl := c.Stats(); fl != 1 {
		t.Fatalf("flushes=%d after post-retune read touch, want 1", fl)
	}
	if d-now < 900 {
		t.Fatalf("read touch should pay the flush RTT, took %v", d-now)
	}
}

func TestConsolidatorRetuneUpKeepsAbsorbing(t *testing.T) {
	_, c := consTest(t, 2, 0)
	now := sim.Time(0)
	d, err := c.Write(now, 0, retuneData)
	if err != nil {
		t.Fatal(err)
	}
	now = d
	// θ grows before the second write: the block keeps absorbing to the new,
	// larger threshold instead of flushing at the old one.
	if err := c.Retune(now, 8, 0); err != nil {
		t.Fatal(err)
	}
	for i := 1; i < 7; i++ {
		d, err := c.Write(now, i*32, retuneData)
		if err != nil {
			t.Fatal(err)
		}
		now = d
	}
	if w, fl := c.Stats(); w != 7 || fl != 0 {
		t.Fatalf("writes=%d flushes=%d before new theta, want 7/0", w, fl)
	}
	if _, err := c.Write(now, 7*32, retuneData); err != nil {
		t.Fatal(err)
	}
	if _, fl := c.Stats(); fl != 1 {
		t.Fatal("8th write must flush at the retuned theta")
	}
}

func TestConsolidatorRetuneLeaseDownClampsDeadlines(t *testing.T) {
	_, c := consTest(t, 16, 10*sim.Microsecond)
	if _, err := c.Write(0, 0, retuneData); err != nil {
		t.Fatal(err)
	}
	// Lease shrinks at t=1us: the pending deadline (10us) clamps to 3us.
	if err := c.Retune(1*sim.Microsecond, 16, 2*sim.Microsecond); err != nil {
		t.Fatal(err)
	}
	if got := c.Lease(); got != 2*sim.Microsecond {
		t.Fatalf("Lease()=%v, want 2us", got)
	}
	if _, err := c.Tick(2 * sim.Microsecond); err != nil {
		t.Fatal(err)
	}
	if _, fl := c.Stats(); fl != 0 {
		t.Fatal("flush before the clamped deadline")
	}
	if _, err := c.Tick(3 * sim.Microsecond); err != nil {
		t.Fatal(err)
	}
	if _, fl := c.Stats(); fl != 1 {
		t.Fatal("clamped deadline must flush at 3us")
	}
	_, le, _, _ := c.FlushBreakdown()
	if le != 1 {
		t.Fatalf("lease flush count=%d, want 1", le)
	}
}

func TestConsolidatorRetuneLeaseUpKeepsOldDeadlines(t *testing.T) {
	_, c := consTest(t, 16, 2*sim.Microsecond)
	if _, err := c.Write(0, 0, retuneData); err != nil {
		t.Fatal(err)
	}
	// A longer lease must not push out the deadline older writes were
	// absorbed under.
	if err := c.Retune(1*sim.Microsecond, 16, 20*sim.Microsecond); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Tick(2 * sim.Microsecond); err != nil {
		t.Fatal(err)
	}
	if _, fl := c.Stats(); fl != 1 {
		t.Fatal("original 2us deadline must still flush")
	}
}

func TestConsolidatorRetuneLeaseZeroKeepsFIFOEviction(t *testing.T) {
	e := newEnv(t)
	c, err := NewConsolidator(ConsolidatorConfig{
		QP: e.qpA, LocalMR: e.staging, RemoteMR: e.mrB, RemoteBase: e.mrB.Addr(),
		BlockSize: 1024, Theta: 16, Lease: 0, MaxBlocks: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	now := sim.Time(0)
	// Touch blocks 5 then 3; a retune that keeps Lease 0 must not disturb
	// the creation-order tie-break, so filling a third block evicts 5 (the
	// oldest), not 3 (the lowest index).
	for _, blk := range []int{5, 3} {
		d, err := c.Write(now, blk*1024, retuneData)
		if err != nil {
			t.Fatal(err)
		}
		now = d
	}
	if err := c.Retune(now, 8, 0); err != nil {
		t.Fatal(err)
	}
	if d, err := c.Tick(now); err != nil || d != now {
		t.Fatalf("Tick at Lease 0 must stay a no-op (d=%v err=%v)", d, err)
	}
	if _, err := c.Write(now, 7*1024, retuneData); err != nil {
		t.Fatal(err)
	}
	_, _, ev, _ := c.FlushBreakdown()
	if ev != 1 {
		t.Fatalf("evictions=%d, want 1", ev)
	}
	// Block 5's payload must be on the remote (it was evicted); block 3's
	// must not be.
	remote := e.mrB.Region().Bytes()
	if string(remote[5*1024:5*1024+32]) != string(retuneData) {
		t.Fatal("FIFO eviction should have flushed block 5 first")
	}
	if string(remote[3*1024:3*1024+32]) == string(retuneData) {
		t.Fatal("block 3 flushed out of order")
	}
}

func TestConsolidatorRetuneValidation(t *testing.T) {
	_, c := consTest(t, 4, 0)
	if err := c.Retune(0, 0, 0); err == nil {
		t.Error("theta=0 must be rejected")
	}
	if err := c.Retune(0, -1, 0); err == nil {
		t.Error("negative theta must be rejected")
	}
	if err := c.Retune(0, 4, -1); err == nil {
		t.Error("negative lease must be rejected")
	}
	if got := c.Theta(); got != 4 {
		t.Fatalf("failed retunes must not change theta, got %d", got)
	}
}
