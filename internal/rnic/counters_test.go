package rnic

import (
	"reflect"
	"testing"

	"rdmasem/internal/mem"
	"rdmasem/internal/sim"
)

// occupancy attaches an observer to p and returns the service time it sums
// over every later transfer.
func occupancy(p *sim.Pipe) *sim.Duration {
	busy := new(sim.Duration)
	p.Observe(func(_, start, end sim.Time) { *busy += end - start })
	return busy
}

// TestScatterDMA: a scatter tallies Scatter* counters (never Gather*), rides
// the PCIe-up channel only, and pays the interconnect hop exactly when a
// buffer lives across QPI and a QPI pipe is supplied.
func TestScatterDMA(t *testing.T) {
	n := newNIC(t)
	up, down := occupancy(n.PCIeUp()), occupancy(n.PCIeDown())
	const frags, bytes = 2, 64 + 128
	plain := n.ScatterDMA(0, frags, bytes, 0, nil, 0)
	want := sim.Time(2*sgeFetch) + pcieOverhead + sim.TransferTime(192, pcieBandwidth)
	if plain != want {
		t.Fatalf("scatter completes at %v, want %v (SGE fetches + one PCIe transfer)", plain, want)
	}
	c := n.Counters()
	if c.ScatterOps != 1 || c.ScatterFrags != 2 || c.ScatterBytes != 192 {
		t.Fatalf("scatter counters %+v", c)
	}
	if c.GatherOps != 0 || c.GatherFrags != 0 || c.GatherBytes != 0 {
		t.Fatalf("a scatter bumped gather counters: %+v", c)
	}
	if want := pcieOverhead + sim.TransferTime(192, pcieBandwidth); *up != want || *down != 0 {
		t.Fatalf("scatter occupied PCIe up for %v and down for %v; want %v up only", *up, *down, want)
	}

	// Two buffers across QPI: one interconnect transfer of the whole payload
	// plus one hop latency per crossing buffer, after the PCIe leg.
	const hop = 70
	qpi := sim.NewPipe("qpi", 12.8e9, 0)
	qpiBusy := occupancy(qpi)
	crossed := newNIC(t).ScatterDMA(0, frags, bytes, 2, qpi, hop)
	if got := crossed - plain; got != sim.TransferTime(192, 12.8e9)+2*hop {
		t.Fatalf("QPI hop added %v, want transfer + 2 hops", got)
	}
	if want := sim.TransferTime(192, 12.8e9); *qpiBusy != want {
		t.Fatalf("QPI pipe busy for %v, want %v (one 192-byte transfer)", *qpiBusy, want)
	}
	// A crossing count without a QPI pipe has no hop to charge.
	if got := newNIC(t).ScatterDMA(0, frags, bytes, 2, nil, hop); got != plain {
		t.Fatalf("nil QPI pipe charged a hop: %v vs %v", got, plain)
	}
}

// TestCountersSnapshot: Counters folds the three caches' hit and miss
// tallies into the stage counters and returns a copy, so a caller's edits
// never reach the device.
func TestCountersSnapshot(t *testing.T) {
	n := newNIC(t)
	n.Doorbell(0, 4, 0)
	n.FetchWQEs(0, 4)
	n.GatherDMA(0, 1, 32, 0, nil, 0)
	n.Translate(mem.Addr(0), 32) // miss
	n.Translate(mem.Addr(0), 32) // hit
	n.TouchQP(7)                 // miss
	n.TouchQP(7)                 // hit
	n.TouchQP(7)                 // hit
	n.TouchMR(3)                 // miss
	n.AddQP(&RelCounters{Retransmits: 2})
	n.AddQP(&RelCounters{Retransmits: 3})

	c := n.Counters()
	want := StageCounters{
		Doorbells: 1, DoorbellWQEs: 4, WQEFetches: 4,
		GatherOps: 1, GatherFrags: 1, GatherBytes: 32,
		TranslationHits: 1, TranslationMisses: 1,
		QPHits: 2, QPMisses: 1,
		MRHits: 0, MRMisses: 1,
		Rel: RelCounters{Retransmits: 5},
	}
	if c != want {
		t.Fatalf("snapshot\n got %+v\nwant %+v", c, want)
	}
	c.Doorbells = 99
	c.Rel.Retransmits = 99
	if again := n.Counters(); again != want {
		t.Fatalf("editing a snapshot changed the device: %+v", again)
	}
}

func TestQPHitRate(t *testing.T) {
	if got := (StageCounters{}).QPHitRate(); got != 1 {
		t.Fatalf("untouched cache hit rate %v, want 1", got)
	}
	if got := (StageCounters{QPHits: 3, QPMisses: 1}).QPHitRate(); got != 0.75 {
		t.Fatalf("3 hits / 1 miss rate %v, want 0.75", got)
	}
	if got := (StageCounters{QPMisses: 4}).QPHitRate(); got != 0 {
		t.Fatalf("all-miss rate %v, want 0", got)
	}
	n := newNIC(t)
	n.TouchQP(1)
	n.TouchQP(1)
	if got := n.Counters().QPHitRate(); got != 0.5 {
		t.Fatalf("device hit rate %v, want 0.5", got)
	}
}

// TestCountersSumQPTallies fills every field of two QP tallies, so a
// counter added to RelCounters but not to the sum in Counters fails here.
// The tallies stay the QPs': a later bump shows in the next snapshot.
func TestCountersSumQPTallies(t *testing.T) {
	n := newNIC(t)
	var a, b RelCounters
	va, vb := reflect.ValueOf(&a).Elem(), reflect.ValueOf(&b).Elem()
	for i := 0; i < va.NumField(); i++ {
		va.Field(i).SetUint(uint64(i + 1))
		vb.Field(i).SetUint(uint64(10 * (i + 1)))
	}
	n.AddQP(&a)
	n.AddQP(&b)
	got := n.Counters().Rel
	vg := reflect.ValueOf(got)
	for i := 0; i < vg.NumField(); i++ {
		if g, want := vg.Field(i).Uint(), uint64(11*(i+1)); g != want {
			t.Errorf("%s = %d, want %d", vg.Type().Field(i).Name, g, want)
		}
	}
	a.Reconnects++
	if again := n.Counters().Rel.Reconnects; again != got.Reconnects+1 {
		t.Errorf("Reconnects = %d after a QP bump, want %d", again, got.Reconnects+1)
	}
}

func TestParamsValidateErrors(t *testing.T) {
	if err := DefaultParams().Validate(); err != nil {
		t.Fatalf("default params invalid: %v", err)
	}
	cases := []struct {
		mutate func(*Params)
		want   string
	}{
		{func(p *Params) { p.MMIOCost = -1 }, "rnic: MMIOCost must be nonnegative"},
		{func(p *Params) { p.TranslationEntries = -1 }, "rnic: cache capacities must be nonnegative"},
		{func(p *Params) { p.QPCacheEntries = -1 }, "rnic: cache capacities must be nonnegative"},
		{func(p *Params) { p.MRCacheEntries = -1 }, "rnic: cache capacities must be nonnegative"},
	}
	for _, c := range cases {
		p := DefaultParams()
		c.mutate(&p)
		err := p.Validate()
		if err == nil || err.Error() != c.want {
			t.Errorf("Validate() = %v, want %q", err, c.want)
		}
	}
}
