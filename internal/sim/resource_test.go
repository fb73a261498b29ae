package sim

import (
	"math/rand"
	"slices"
	"sort"
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

// refResource is the plain gap-filling placement that Resource must match:
// any arrival before the tail binary-searches all spans, and every
// placement, the tail included, is recorded by insertAt.
type refResource struct {
	intervals []interval
}

func (r *refResource) place(arrival Time, service Duration) Time {
	n := len(r.intervals)
	if n == 0 || arrival >= r.intervals[n-1].end {
		r.insertAt(n, arrival, service)
		return arrival
	}
	i := sort.Search(n, func(k int) bool { return r.intervals[k].end > arrival })
	for ; i <= n; i++ {
		gapStart := arrival
		if i > 0 && r.intervals[i-1].end > gapStart {
			gapStart = r.intervals[i-1].end
		}
		gapEnd := MaxTime
		if i < n {
			gapEnd = r.intervals[i].start
		}
		if gapEnd-gapStart > service || (gapEnd == MaxTime && gapEnd-gapStart >= service) {
			r.insertAt(i, gapStart, service)
			return gapStart
		}
		if service > 0 && gapEnd-gapStart == service {
			r.insertAt(i, gapStart, service)
			return gapStart
		}
	}
	panic("unreachable")
}

func (r *refResource) insertAt(i int, start Time, service Duration) {
	if service == 0 {
		return
	}
	end := start + service
	mergePrev := i > 0 && r.intervals[i-1].end == start
	mergeNext := i < len(r.intervals) && r.intervals[i].start == end
	switch {
	case mergePrev && mergeNext:
		r.intervals[i-1].end = r.intervals[i].end
		r.intervals = append(r.intervals[:i], r.intervals[i+1:]...)
	case mergePrev:
		r.intervals[i-1].end = end
	case mergeNext:
		r.intervals[i].start = start
	default:
		r.intervals = append(r.intervals, interval{})
		copy(r.intervals[i+1:], r.intervals[i:])
		r.intervals[i] = interval{start, end}
	}
	if len(r.intervals) > maxIntervals {
		half := len(r.intervals) / 2
		solid := interval{r.intervals[0].start, r.intervals[half-1].end}
		rest := r.intervals[half-1:]
		rest[0] = solid
		r.intervals = append(r.intervals[:0], rest...)
	}
}

// TestResourceMatchesReferenceAcrossFolds: thousands of seeded acquires,
// enough to fold the interval list many times, place exactly where the
// reference does and leave an identical interval list after every call. The
// arrivals mix the four placement cases: past the tail (adjacent or with a
// gap), inside the last span, deep out of order, and zero-length.
func TestResourceMatchesReferenceAcrossFolds(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		rng := rand.New(rand.NewSource(seed))
		r := NewResource("r")
		ref := &refResource{}
		folds, tails := 0, 0
		for i := 0; i < 6000; i++ {
			service := Duration(1 + rng.Intn(40))
			var arrival Time
			n := len(ref.intervals)
			switch c := rng.Intn(20); {
			case n == 0 || c < 8: // past the tail: adjacent or after a gap
				arrival = r.NextFree() + Time(rng.Intn(3)*rng.Intn(30))
				tails++
			case c < 12: // inside the last span
				last := ref.intervals[n-1]
				arrival = last.start + Time(rng.Int63n(int64(last.end-last.start)))
			case c < 17: // deep out of order, possibly before every span
				first := ref.intervals[0].start
				arrival = first - 50 + Time(rng.Int63n(int64(r.NextFree()-first)+50))
				if arrival < 0 {
					arrival = 0
				}
			default: // zero-length, anywhere up to just past the tail
				service = 0
				arrival = Time(rng.Int63n(int64(r.NextFree()) + 10))
			}
			wantStart := ref.place(arrival, service)
			start, end := r.Acquire(arrival, service)
			if start != wantStart || end != wantStart+service {
				t.Fatalf("seed %d acquire %d (%d,+%d): got [%d,%d), reference [%d,%d)",
					seed, i, arrival, service, start, end, wantStart, wantStart+service)
			}
			if !slices.Equal(r.intervals, ref.intervals) {
				t.Fatalf("seed %d acquire %d (%d,+%d): intervals diverge from the reference", seed, i, arrival, service)
			}
			if len(ref.intervals) < n-1 { // a gap fill drops one span, a fold many
				folds++
			}
		}
		if folds < 5 || tails < 1000 {
			t.Fatalf("seed %d: %d folds and %d tail placements; the stream no longer crosses the fold boundary", seed, folds, tails)
		}
	}
}
