package sim

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestResourceIdleStart(t *testing.T) {
	r := NewResource("r")
	start, end := r.Acquire(100, 50)
	if start != 100 || end != 150 {
		t.Fatalf("got [%d,%d], want [100,150]", start, end)
	}
}

func TestResourceQueues(t *testing.T) {
	r := NewResource("r")
	r.Acquire(0, 100)
	start, end := r.Acquire(10, 20) // arrives while busy, waits
	if start != 100 || end != 120 {
		t.Fatalf("got [%d,%d], want [100,120]", start, end)
	}
	start, end = r.Acquire(500, 20) // arrives after idle
	if start != 500 || end != 520 {
		t.Fatalf("got [%d,%d], want [500,520]", start, end)
	}
}

func TestResourceZeroService(t *testing.T) {
	r := NewResource("r")
	r.Acquire(0, 100)
	start, end := r.Acquire(0, 0)
	if start != 100 || end != 100 {
		t.Fatalf("zero service should pass through queue: got [%d,%d]", start, end)
	}
}

func TestResourceNegativeServicePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on negative service")
		}
	}()
	NewResource("r").Acquire(0, -1)
}

func TestResourceAccounting(t *testing.T) {
	r := NewResource("r")
	r.Acquire(0, 100)
	r.Acquire(0, 300)
	if r.Busy() != 400 {
		t.Fatalf("busy=%d, want 400", r.Busy())
	}
	if r.Served() != 2 {
		t.Fatalf("served=%d, want 2", r.Served())
	}
	if u := r.Utilization(800); u != 0.5 {
		t.Fatalf("utilization=%v, want 0.5", u)
	}
	if u := r.Utilization(100); u != 1 {
		t.Fatalf("utilization should clamp to 1, got %v", u)
	}
}

// Property: service windows returned by a resource never overlap and are
// emitted in nondecreasing start order when arrivals are nondecreasing.
func TestResourceNoOverlapProperty(t *testing.T) {
	f := func(seed int64, n uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		r := NewResource("p")
		var arrival Time
		var prevEnd Time
		for i := 0; i < int(n); i++ {
			arrival += Time(rng.Intn(200))
			service := Duration(rng.Intn(100))
			start, end := r.Acquire(arrival, service)
			if start < arrival || end != start+service {
				return false
			}
			if start < prevEnd { // overlap with previous service window
				return false
			}
			prevEnd = end
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: total busy time equals the sum of requested services.
func TestResourceBusyConservation(t *testing.T) {
	f := func(services []uint16) bool {
		r := NewResource("p")
		var want Duration
		for _, s := range services {
			r.Acquire(0, Duration(s))
			want += Duration(s)
		}
		return r.Busy() == want
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestPipeTransferTime(t *testing.T) {
	p := NewPipe("wire", 1e9, 0) // 1 GB/s => 1ns per byte
	start, end := p.Transfer(0, 1000)
	if start != 0 || end != 1000 {
		t.Fatalf("got [%d,%d], want [0,1000]", start, end)
	}
	if p.Bytes() != 1000 {
		t.Fatalf("bytes=%d, want 1000", p.Bytes())
	}
}

func TestPipeOverheadAndQueueing(t *testing.T) {
	p := NewPipe("wire", 1e9, 50)
	end := p.Delay(0, 100) // 50 + 100
	if end != 150 {
		t.Fatalf("end=%d, want 150", end)
	}
	end = p.Delay(0, 100) // queued behind first
	if end != 300 {
		t.Fatalf("end=%d, want 300", end)
	}
}

func TestPipeZeroBandwidthPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewPipe("bad", 0, 0)
}

func TestTransferTime(t *testing.T) {
	if d := TransferTime(5_000_000_000, 5e9); d != Second {
		t.Fatalf("got %v, want 1s", d)
	}
	if d := TransferTime(0, 5e9); d != 0 {
		t.Fatalf("zero size should be free, got %v", d)
	}
	if d := TransferTime(-5, 5e9); d != 0 {
		t.Fatalf("negative size should be free, got %v", d)
	}
}

func TestTimeString(t *testing.T) {
	cases := []struct {
		in   Time
		want string
	}{
		{1160, "1160ns"},
		{25 * Microsecond, "25.00us"},
		{15 * Millisecond, "15.000ms"},
		{25 * Second, "25.000s"},
	}
	for _, c := range cases {
		if got := c.in.String(); got != c.want {
			t.Errorf("%d.String()=%q, want %q", int64(c.in), got, c.want)
		}
	}
}

func TestMax(t *testing.T) {
	if Max(1, 2) != 2 || Max(2, 1) != 2 || Max(3, 3) != 3 {
		t.Fatal("Max broken")
	}
}

func TestResourceGapFillingExactFit(t *testing.T) {
	r := NewResource("r")
	r.Acquire(0, 100)
	r.Acquire(150, 100) // gap [100,150)
	start, end := r.Acquire(0, 50)
	if start != 100 || end != 150 {
		t.Fatalf("exact-fit gap: got [%d,%d], want [100,150]", start, end)
	}
	// Everything merged into one solid interval [0,250).
	if r.NextFree() != 250 {
		t.Fatalf("NextFree=%d, want 250", r.NextFree())
	}
	start, _ = r.Acquire(0, 10)
	if start != 250 {
		t.Fatalf("merged span should force start at 250, got %d", start)
	}
}

func TestResourceCompaction(t *testing.T) {
	r := NewResource("r")
	// Create far more disjoint intervals than maxIntervals.
	for i := 0; i < 4*maxIntervals; i++ {
		r.Acquire(Time(i*1000), 10)
	}
	if len(r.intervals) > maxIntervals {
		t.Fatalf("interval list grew to %d, cap is %d", len(r.intervals), maxIntervals)
	}
	if r.Served() != int64(4*maxIntervals) {
		t.Fatalf("served=%d", r.Served())
	}
}

// Property: gap-filling placement agrees with a brute-force reference that
// scans all gaps, for arbitrary (possibly out-of-order) arrivals.
func TestGapFillingAgainstReference(t *testing.T) {
	type iv struct{ start, end Time }
	place := func(busy []iv, arrival Time, service Duration) Time {
		// Reference: earliest feasible start >= arrival, skipping busy spans.
		start := arrival
		for {
			moved := false
			for _, b := range busy {
				if start < b.end && b.start < start+Time(service) {
					start = b.end
					moved = true
				}
				// Zero-service ops may not start strictly inside a span.
				if service == 0 && start >= b.start && start < b.end {
					start = b.end
					moved = true
				}
			}
			if !moved {
				return start
			}
		}
	}
	f := func(seed int64, n uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		r := NewResource("ref")
		var busy []iv
		for i := 0; i < int(n%50)+1; i++ {
			arrival := Time(rng.Intn(2000))
			service := Duration(rng.Intn(50))
			want := place(busy, arrival, service)
			start, end := r.Acquire(arrival, service)
			if start != want {
				return false
			}
			if service > 0 {
				busy = append(busy, iv{start, end})
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}
