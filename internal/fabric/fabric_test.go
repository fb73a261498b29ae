package fabric

import (
	"testing"
	"testing/quick"

	"rdmasem/internal/sim"
)

// occupancy attaches an observer to p and returns the service time it
// sums over every later transfer: the link's busy time.
func occupancy(p *sim.Pipe) *sim.Duration {
	busy := new(sim.Duration)
	p.Observe(func(_, start, end sim.Time) { *busy += end - start })
	return busy
}

func newFabric(t *testing.T) *Fabric {
	t.Helper()
	f, err := New(DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	return f
}

// TestValidate: the zero Params is the lossless testbed fabric.
func TestValidate(t *testing.T) {
	if DefaultParams() != (Params{}) {
		t.Fatalf("DefaultParams() = %+v, want the zero Params", DefaultParams())
	}
	if _, err := New(Params{}); err != nil {
		t.Fatalf("New(Params{}) = %v, want a lossless fabric", err)
	}
}

func TestSendLatencyComposition(t *testing.T) {
	f := newFabric(t)
	a, b := f.RegisterAt("a", -1), f.RegisterAt("b", -1)
	end := f.Send(0, a, b, 0)
	want := sim.TransferTime(frameOverhead, linkBandwidth) + propagation + switchLatency
	if end != want {
		t.Fatalf("empty payload: got %v, want %v", end, want)
	}
	big := f.Send(1_000_000, a, b, 8192)
	small := f.Send(2_000_000, a, b, 64)
	if big-1_000_000 <= small-2_000_000 {
		t.Fatal("larger payloads must take longer")
	}
}

func TestSendSerializesOnTx(t *testing.T) {
	f := newFabric(t)
	a, b := f.RegisterAt("a", -1), f.RegisterAt("b", -1)
	t1 := f.Send(0, a, b, 4096)
	t2 := f.Send(0, a, b, 4096)
	if t2 <= t1 {
		t.Fatal("second message must queue behind the first on tx")
	}
}

func TestIncastContention(t *testing.T) {
	f := newFabric(t)
	dst := f.RegisterAt("dst", -1)
	var last sim.Time
	// Eight senders converge on one receiver at t=0; rx link serializes.
	for i := 0; i < 8; i++ {
		src := f.RegisterAt("src", -1)
		end := f.Send(0, src, dst, 4096)
		if end <= last {
			t.Fatal("incast completions must be strictly ordered by rx serialization")
		}
		last = end
	}
	// Total must be at least 8 * serialization of one frame.
	minTotal := sim.TransferTime(8*(4096+frameOverhead), linkBandwidth)
	if last < minTotal {
		t.Fatalf("incast total %v below rx serialization floor %v", last, minTotal)
	}
}

func TestLoopback(t *testing.T) {
	f := newFabric(t)
	a := f.RegisterAt("a", -1)
	tx, rx := occupancy(a.Tx()), occupancy(a.Rx())
	end := f.Send(100, a, a, 1<<20)
	serialize := sim.TransferTime(1<<20+frameOverhead, linkBandwidth)
	want := sim.Time(100) + switchLatency + serialize
	if end != want {
		t.Fatalf("loopback = %v, want switch latency + rx serialization %v", end-100, want-100)
	}
	if *rx != serialize {
		t.Fatalf("loopback occupied rx for %v, want %v", *rx, serialize)
	}
	if *tx != 0 {
		t.Fatal("loopback must not charge the tx pipe")
	}
	// Self-sends serialize behind each other and behind genuine inbound
	// traffic on the same rx pipe.
	second := f.Send(100, a, a, 1<<20)
	if second <= end {
		t.Fatal("second loopback must queue behind the first on rx")
	}
	b := f.RegisterAt("b", -1)
	inbound := f.Send(100, b, a, 1<<20)
	if inbound <= second {
		t.Fatal("inbound traffic must contend with loopback on rx")
	}
}

func TestSendPanics(t *testing.T) {
	f := newFabric(t)
	a := f.RegisterAt("a", -1)
	for _, fn := range []func(){
		func() { f.Send(0, nil, a, 1) },
		func() { f.Send(0, a, a, -1) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected panic")
				}
			}()
			fn()
		}()
	}
}

func TestLinkUtilization(t *testing.T) {
	f := newFabric(t)
	a, b := f.RegisterAt("a", -1), f.RegisterAt("b", -1)
	aTx, aRx, bTx, bRx := occupancy(a.Tx()), occupancy(a.Rx()), occupancy(b.Tx()), occupancy(b.Rx())
	f.Send(0, a, b, 1<<20)
	want := sim.TransferTime(1<<20+frameOverhead, linkBandwidth)
	if *aTx != want || *bRx != want {
		t.Fatalf("link occupancy tx=%v rx=%v, want %v on each", *aTx, *bRx, want)
	}
	if *aRx != 0 || *bTx != 0 {
		t.Fatalf("a one-way send charged the reverse links: a/rx=%v b/tx=%v", *aRx, *bTx)
	}
	if len(f.endpoints) != 2 || a.id != 0 || b.id != 1 {
		t.Fatal("both endpoints should be registered in order")
	}
}

// Property: delivery time is monotone in payload size and never earlier than
// propagation + switch latency.
func TestSendMonotoneProperty(t *testing.T) {
	// Each send runs on a fresh fabric, so neither queues behind the other.
	send := func(size int) sim.Time {
		fab, err := New(DefaultParams())
		if err != nil {
			t.Fatal(err)
		}
		a, b := fab.RegisterAt("a", -1), fab.RegisterAt("b", -1)
		return fab.Send(0, a, b, size)
	}
	f := func(s1, s2 uint16) bool {
		lo, hi := int(s1), int(s2)
		if lo > hi {
			lo, hi = hi, lo
		}
		e1, e2 := send(lo), send(hi)
		return e1 <= e2 && e1 >= propagation+switchLatency
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
