package topo

import (
	"testing"
	"testing/quick"

	"rdmasem/internal/sim"
)

func TestDefaultParamsValid(t *testing.T) {
	if err := DefaultParams().Validate(); err != nil {
		t.Fatal(err)
	}
}

// TestValidateRejectsNegativeTiming: the QPI latency, the one timing
// field, must be nonnegative.
func TestValidateRejectsNegativeTiming(t *testing.T) {
	p := DefaultParams()
	p.QPILatency = -5
	want := "topo: QPILatency must be nonnegative, got -5"
	if err := p.Validate(); err == nil || err.Error() != want {
		t.Errorf("QPILatency = -5: Validate() = %v, want %q", err, want)
	}
	p.QPILatency = 0
	if err := p.Validate(); err != nil {
		t.Errorf("QPILatency = 0: Validate() = %v, want nil", err)
	}
}

// The introduction claims local sequential write is ~2.92x faster than random
// write and ~6.85x faster than inter-socket random write.
func TestSequentialRandomWriteRatios(t *testing.T) {
	p := DefaultParams()
	seq := p.LocalAccessTime(Write, Seq, 8, false)
	rnd := p.LocalAccessTime(Write, Rand, 8, false)
	xrnd := p.LocalAccessTime(Write, Rand, 8, true)
	r1 := float64(rnd) / float64(seq)
	r2 := float64(xrnd) / float64(seq)
	if r1 < 2.5 || r1 > 3.4 {
		t.Errorf("seq/rand write ratio = %.2f, want ~2.92", r1)
	}
	if r2 < 6.0 || r2 > 7.7 {
		t.Errorf("seq/cross-rand write ratio = %.2f, want ~6.85", r2)
	}
}

// Table II: cross-socket latency ~162ns vs 92ns, bandwidth 2.27 vs 3.70 GB/s.
func TestTableIINumbers(t *testing.T) {
	p := DefaultParams()
	if dramLatencyOwn != 92 || dramLatencyCross != 162 {
		t.Errorf("latencies %d/%d, want 92/162", dramLatencyOwn, dramLatencyCross)
	}
	own := p.LocalAccessTime(Read, Rand, 0, false)
	cross := p.LocalAccessTime(Read, Rand, 0, true)
	if own != 92 || cross != 162 {
		t.Errorf("rand read latencies %v/%v, want 92/162", own, cross)
	}
}

func TestSequentialIsBandwidthBoundAtLargeSizes(t *testing.T) {
	p := DefaultParams()
	small := p.LocalAccessTime(Read, Seq, 8, false)
	large := p.LocalAccessTime(Read, Seq, 8192, false)
	if large <= small {
		t.Errorf("8KB seq read (%v) should cost more than 8B (%v)", large, small)
	}
	want := sim.TransferTime(8192, seqReadStreamBW)
	if large != want {
		t.Errorf("8KB seq read = %v, want bandwidth-bound %v", large, want)
	}
}

// LocalAccessTime charges no QPI transfer to a cross-socket stream, which is
// exact only while both streams run below QPIBandwidth.
func TestCrossSocketSequentialCapsAtQPI(t *testing.T) {
	if seqReadStreamBW >= QPIBandwidth || seqWriteStreamBW >= QPIBandwidth {
		t.Fatalf("sequential streams %.3g/%.3g B/s reach QPI's %.3g B/s", seqReadStreamBW, seqWriteStreamBW, QPIBandwidth)
	}
	p := DefaultParams()
	for _, op := range []AccessOp{Read, Write} {
		cross := p.LocalAccessTime(op, Seq, 1<<20, true)
		if floor := sim.TransferTime(1<<20, QPIBandwidth); cross <= floor {
			t.Errorf("cross seq %v = %v, faster than QPI's %v", op, cross, floor)
		}
	}
}

func TestNegativeSizeTreatedAsZero(t *testing.T) {
	p := DefaultParams()
	if got := p.LocalAccessTime(Read, Rand, -5, false); got != dramLatencyOwn {
		t.Errorf("negative size: got %v, want %v", got, dramLatencyOwn)
	}
}

func TestMemcpyTime(t *testing.T) {
	p := DefaultParams()
	same := p.MemcpyTime(4096, false)
	cross := p.MemcpyTime(4096, true)
	if cross <= same {
		t.Errorf("cross-socket memcpy (%v) should exceed same-socket (%v)", cross, same)
	}
	if got := p.MemcpyTime(0, false); got != memcpyOpCost {
		t.Errorf("zero-byte memcpy = %v, want op cost %v", got, memcpyOpCost)
	}
}

func TestVectorIOAmortizesSyscall(t *testing.T) {
	p := DefaultParams()
	one := p.VectorIOTime(Write, 1, 64)
	batch := p.VectorIOTime(Write, 16, 64)
	perOpOne := float64(one)
	perOpBatch := float64(batch) / 16
	if perOpBatch >= perOpOne {
		t.Errorf("batched per-op cost %.1f should beat unbatched %.1f", perOpBatch, perOpOne)
	}
	if got := p.VectorIOTime(Write, 0, 64); got != 0 {
		t.Errorf("empty vector should be free, got %v", got)
	}
}

// TestTopologyHelpers pins the testbed's shape: two sockets, the RNIC on
// socket 1 (PAPER.md III-D).
func TestTopologyHelpers(t *testing.T) {
	if Sockets != 2 || NICSocket != 1 {
		t.Fatalf("sockets=%d nic=%d, want 2/1", Sockets, NICSocket)
	}
}

// Property: access cost is monotone nondecreasing in size for every
// op/pattern/cross combination.
func TestAccessCostMonotoneInSize(t *testing.T) {
	p := DefaultParams()
	f := func(a, b uint16, opBit, patBit, cross bool) bool {
		s1, s2 := int(a), int(b)
		if s1 > s2 {
			s1, s2 = s2, s1
		}
		op := Read
		if opBit {
			op = Write
		}
		pat := Seq
		if patBit {
			pat = Rand
		}
		return p.LocalAccessTime(op, pat, s1, cross) <= p.LocalAccessTime(op, pat, s2, cross)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// Property: crossing the socket boundary never makes access cheaper.
func TestCrossNeverCheaper(t *testing.T) {
	p := DefaultParams()
	f := func(size uint16, opBit, patBit bool) bool {
		op := Read
		if opBit {
			op = Write
		}
		pat := Seq
		if patBit {
			pat = Rand
		}
		return p.LocalAccessTime(op, pat, int(size), true) >= p.LocalAccessTime(op, pat, int(size), false)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestStringers(t *testing.T) {
	if Read.String() != "read" || Write.String() != "write" {
		t.Error("AccessOp.String broken")
	}
	if Seq.String() != "seq" || Rand.String() != "rand" {
		t.Error("Pattern.String broken")
	}
}
