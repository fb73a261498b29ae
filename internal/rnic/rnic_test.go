package rnic

import (
	"testing"

	"rdmasem/internal/mem"
	"rdmasem/internal/sim"
)

func newNIC(t *testing.T) *NIC {
	t.Helper()
	n, err := New("nic0", DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	return n
}

func TestNewValidates(t *testing.T) {
	p := DefaultParams()
	p.TranslationEntries = -1
	if _, err := New("bad", p); err == nil {
		t.Fatal("expected error for negative cache capacity")
	}
}

func TestPortAccess(t *testing.T) {
	n := newNIC(t)
	if n.Port(0) == n.Port(1) {
		t.Fatal("ports must be distinct")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for out-of-range port")
		}
	}()
	n.Port(2)
}

func TestDoorbellCost(t *testing.T) {
	n := newNIC(t)
	mmio := DefaultParams().MMIOCost
	one := n.Doorbell(0, 1, 0)
	if one != sim.Time(mmio) {
		t.Fatalf("doorbell=%v, want %v", one, mmio)
	}
	// A doorbell list costs the same single MMIO regardless of list length.
	many := n.Doorbell(0, 16, 0)
	if many != one {
		t.Fatalf("doorbell list=%v, want single MMIO %v", many, one)
	}
	inline := n.Doorbell(0, 1, 32)
	if inline != one+32*sim.Time(inlinePerByte) {
		t.Fatalf("inline doorbell=%v", inline)
	}
}

func TestFetchWQEsScalesWithList(t *testing.T) {
	n := newNIC(t)
	one := n.FetchWQEs(0, 1)
	four := n.FetchWQEs(one, 4) - one
	if four <= one {
		t.Fatalf("4-WQE fetch (%v) should cost more than 1-WQE (%v)", four, one)
	}
	// But far less than 4x: the point of doorbell batching.
	if four >= 4*one {
		t.Fatalf("4-WQE fetch (%v) should amortize vs 4x single (%v)", four, 4*one)
	}
}

func TestGatherDMA(t *testing.T) {
	n := newNIC(t)
	base := n.GatherDMA(0, 1, 64, 0, nil, 0)
	multi := n.GatherDMA(base, 4, 256, 0, nil, 0) - base
	if multi <= base {
		t.Fatal("4-SGE gather should cost more than 1-SGE")
	}
	qpi := sim.NewPipe("qpi", 12.8e9, 0)
	crossed := n.GatherDMA(0, 1, 64, 1, qpi, 70)
	plain := n.GatherDMA(crossed, 1, 64, 0, qpi, 70) - crossed
	if crossed <= plain {
		t.Fatal("QPI crossing must add cost")
	}
}

func TestTranslateHitsAndMisses(t *testing.T) {
	n := newNIC(t)
	mc := n.Translate(mem.Addr(0), 32)
	if mc.Misses != 1 || mc.Latency != translationMissLat {
		t.Fatalf("cold access: %+v", mc)
	}
	mc = n.Translate(mem.Addr(0), 32)
	if mc.Misses != 0 || mc.Latency != 0 || mc.Service != 0 {
		t.Fatalf("warm access should be free: %+v", mc)
	}
	// A straddling access touches two pages.
	mc = n.Translate(mem.Addr(mem.PageSize-16), 32)
	if mc.Misses != 1 { // page 0 is warm, page 1 cold
		t.Fatalf("straddle should miss exactly once: %+v", mc)
	}
	// Zero/negative sizes still touch one page.
	mc = n.Translate(mem.Addr(10*mem.PageSize), 0)
	if mc.Misses != 1 {
		t.Fatalf("zero-size touch: %+v", mc)
	}
}

func TestTranslateThrashing(t *testing.T) {
	p := DefaultParams()
	p.TranslationEntries = 4
	n, err := New("tiny", p)
	if err != nil {
		t.Fatal(err)
	}
	// Working set of 8 pages round-robin through a 4-entry cache: all miss.
	for pass := 0; pass < 2; pass++ {
		for pg := 0; pg < 8; pg++ {
			mc := n.Translate(mem.Addr(pg*mem.PageSize), 8)
			if pass > 0 && mc.Misses == 0 {
				t.Fatal("expected thrashing misses")
			}
		}
	}
}

func TestTouchQPAndMR(t *testing.T) {
	n := newNIC(t)
	if mc := n.TouchQP(7); mc.Misses != 1 {
		t.Fatalf("cold QP: %+v", mc)
	}
	if mc := n.TouchQP(7); mc.Misses != 0 {
		t.Fatalf("warm QP: %+v", mc)
	}
	if mc := n.TouchMR(3); mc.Misses != 1 || mc.Latency != mrMissLat {
		t.Fatalf("cold MR: %+v", mc)
	}
	if mc := n.TouchMR(3); mc.Misses != 0 {
		t.Fatalf("warm MR: %+v", mc)
	}
}

func TestMetaCostAdd(t *testing.T) {
	a := MetaCost{Latency: 10, Service: 20, Misses: 1}
	b := MetaCost{Latency: 1, Service: 2, Misses: 3}
	c := a.Add(b)
	if c.Latency != 11 || c.Service != 22 || c.Misses != 4 {
		t.Fatalf("add: %+v", c)
	}
}

func TestExecuteSerializes(t *testing.T) {
	n := newNIC(t)
	port := n.Port(0)
	t1 := port.Execute(0, ExecWrite, 0)
	t2 := port.Execute(0, ExecWrite, 0)
	if t2 != t1+sim.Time(ExecWrite) {
		t.Fatalf("execution unit must serialize: %v then %v", t1, t2)
	}
	// Ports are independent.
	t3 := n.Port(1).Execute(0, ExecWrite, 0)
	if t3 != sim.Time(ExecWrite) {
		t.Fatalf("other port should be idle: %v", t3)
	}
}

func TestAtomicUnitRate(t *testing.T) {
	n := newNIC(t)
	port := n.Port(0)
	var last sim.Time
	const ops = 1000
	for i := 0; i < ops; i++ {
		last = port.ExecuteAtomic(0)
	}
	rate := float64(ops) / last.Seconds() / 1e6
	if rate < 2.2 || rate > 2.6 {
		t.Fatalf("atomic unit rate %.2f MOPS, want 2.2-2.5 (paper III-E)", rate)
	}
}

func TestDoorbellPanicsOnZeroWQEs(t *testing.T) {
	n := newNIC(t)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	n.Doorbell(0, 0, 0)
}

func TestFetchWQEsPanicsOnZero(t *testing.T) {
	n := newNIC(t)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	n.FetchWQEs(0, 0)
}
