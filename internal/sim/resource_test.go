package sim

import (
	"math/rand"
	"slices"
	"sort"
	"testing"
	"testing/quick"
	"unsafe"
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

// Property: services that all arrive at once pack back to back, so the busy
// spans cover exactly the sum of requested services from time zero.
func TestResourceBusyConservation(t *testing.T) {
	f := func(services []uint16) bool {
		r := NewResource("p")
		var want Duration
		for _, s := range services {
			r.Acquire(0, Duration(s))
			want += Duration(s)
		}
		var busy Duration
		for _, iv := range r.intervals {
			busy += iv.end - iv.start
		}
		return busy == want && nextFree(r) == want
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

func TestResourceGapFillingExactFit(t *testing.T) {
	r := NewResource("r")
	r.Acquire(0, 100)
	r.Acquire(150, 100) // gap [100,150)
	start, end := r.Acquire(0, 50)
	if start != 100 || end != 150 {
		t.Fatalf("exact-fit gap: got [%d,%d], want [100,150]", start, end)
	}
	// Everything merged into one solid interval [0,250).
	if got := nextFree(r); got != 250 {
		t.Fatalf("next free instant %d, want 250", got)
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
}

// nextFree reports the end of r's last busy span (0 when idle).
func nextFree(r *Resource) Time {
	if len(r.intervals) == 0 {
		return 0
	}
	return r.intervals[len(r.intervals)-1].end
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
				arrival = nextFree(r) + Time(rng.Intn(3)*rng.Intn(30))
				tails++
			case c < 12: // inside the last span
				last := ref.intervals[n-1]
				arrival = last.start + Time(rng.Int63n(int64(last.end-last.start)))
			case c < 17: // deep out of order, possibly before every span
				first := ref.intervals[0].start
				arrival = first - 50 + Time(rng.Int63n(int64(nextFree(r)-first)+50))
				if arrival < 0 {
					arrival = 0
				}
			default: // zero-length, anywhere up to just past the tail
				service = 0
				arrival = Time(rng.Int63n(int64(nextFree(r)) + 10))
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

// mixedArrival draws the next acquire of a stream that mixes the four
// placement cases of TestResourceMatchesReferenceAcrossFolds from two
// bytes: kind picks the case (low two bits) and the service (the rest), and
// pos places the arrival within that case's range.
func mixedArrival(r *Resource, kind, pos byte) (Time, Duration) {
	service := Duration(1 + kind>>2)
	frac := func(span Time) Time { return span * Time(pos) / 256 }
	n := len(r.intervals)
	switch {
	case n == 0 || kind%4 == 0: // past the tail: adjacent or after a gap
		return nextFree(r) + Time(pos%4)*Time(pos), service
	case kind%4 == 1: // inside the last span
		last := r.intervals[n-1]
		return last.start + frac(last.end-last.start), service
	case kind%4 == 2: // deep out of order, possibly before every span
		first := r.intervals[0].start
		return max(first-50+frac(nextFree(r)-first+50), 0), service
	default: // zero-length, anywhere up to just past the tail
		return frac(nextFree(r) + 10), 0
	}
}

// FuzzResourceMatchesReference decodes up to 64 byte pairs into a cyclic
// stream of acquires of the four placement kinds and runs it, with one wide
// gapped tail placement per pass so the list always grows, until it has
// folded at least three times. After every call the start, the end and the whole
// interval list must equal refResource's, and the list's capacity must stay
// within maxIntervals+1. A Pipe built from the same bytes then checks that
// every Transfer's service is overhead+TransferTime(size), over a size
// stream that cycles the bytes as signed sizes (zero and negative included).
func FuzzResourceMatchesReference(f *testing.F) {
	f.Add([]byte{0, 10, 1, 200, 2, 77, 3, 5})
	f.Add([]byte{2, 0, 6, 255, 10, 128, 0, 0})
	f.Add([]byte{1, 1, 1, 1, 3, 3, 255, 255})
	f.Add([]byte{4, 0, 9, 3, 130, 250, 7, 128, 2})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 2 {
			return
		}
		ops := data[:min(len(data), 128)&^1]
		pass := len(ops)/2 + 1 // the decoded acquires and the separator
		r := NewResource("r")
		ref := &refResource{}
		folds := 0
		for i := 0; folds < 3; i++ {
			if i > 4*(maxIntervals+1)*pass { // each pass adds a span
				t.Fatalf("%d acquires and only %d folds", i, folds)
			}
			var arrival Time
			var service Duration
			if j := 2 * (i % pass); j == len(ops) {
				// The pass's separator: a tail placement after a gap eight
				// times the pass's most service (64 acquires of at most 64
				// ns), so the decoded acquires close at most one such gap
				// every eight passes and the list keeps growing.
				arrival, service = nextFree(r)+1<<15, 3
			} else {
				arrival, service = mixedArrival(r, ops[j], ops[j+1])
			}
			n := len(ref.intervals)
			wantStart := ref.place(arrival, service)
			start, end := r.Acquire(arrival, service)
			if start != wantStart || end != wantStart+service {
				t.Fatalf("acquire %d (%d,+%d): got [%d,%d), reference [%d,%d)",
					i, arrival, service, start, end, wantStart, wantStart+service)
			}
			if !slices.Equal(r.intervals, ref.intervals) {
				t.Fatalf("acquire %d (%d,+%d): intervals diverge from the reference", i, arrival, service)
			}
			if c := cap(r.intervals); c > maxIntervals+1 {
				t.Fatalf("acquire %d: interval capacity %d exceeds %d", i, c, maxIntervals+1)
			}
			if len(ref.intervals) < n-1 {
				folds++
			}
		}

		bw := float64(1+int(data[0])) * 1e8
		p := NewPipe("p", bw, Duration(data[1]))
		for i := 0; i < 4*len(data); i++ {
			size := int(int8(data[i%len(data)])) * (1 + i%3)
			start, end := p.Transfer(Time(i), size)
			if want := Duration(data[1]) + TransferTime(size, bw); end-start != want {
				t.Fatalf("transfer %d of %d bytes: service %d, want %d", i, size, end-start, want)
			}
		}
	})
}

// TestPipeServiceMemo: a pipe's memoized service time equals
// overhead+TransferTime(size) for every transfer of a stream that
// alternates four sizes, zero and a negative one among them, in patterns
// that hit the first memo slot, hit the second and miss both.
func TestPipeServiceMemo(t *testing.T) {
	const bw, overhead = 3.7e9, 45
	p := NewPipe("p", bw, overhead)
	sizes := []int{64, 64, 0, 64, 0, -8, 0, 4096, -8, 64, 4096, 0, -8, -8, 4096, 64}
	for i, size := range sizes {
		start, end := p.Transfer(0, size)
		if want := overhead + TransferTime(size, bw); end-start != want {
			t.Fatalf("transfer %d of %d bytes: service %d, want %d", i, size, end-start, want)
		}
	}
}

// burstTransfer draws the next transfer of a burst-heavy stream from two
// bytes: kind picks the case (low two bits) and, for gathers and strays, the
// size (the rest); pos gives a requester's size, a gather's delay or a
// stray's place. Half the cases are requesters arriving together at the
// pass's burst instant with mixed sizes, the pattern that breaks a shared
// pipe's free time into gaps too small for later requesters.
func burstTransfer(r *Resource, burst, last Time, kind, pos byte) (Time, int) {
	switch {
	case kind%4 < 2: // one more requester at the burst instant
		return burst, int(pos % 64)
	case kind%4 == 2: // a gather, some time after the previous transfer ends
		return last + Time(pos%128), int(kind >> 2)
	case len(r.intervals) == 0:
		return burst, int(kind >> 2)
	default: // a stray arrival anywhere from the first span to the tail
		first := r.intervals[0].start
		return first + (nextFree(r)-first)*Time(pos)/256, int(kind >> 2)
	}
}

// FuzzPipeMatchesReference decodes up to 64 byte pairs into a cyclic stream
// of burst transfers on one Pipe, with one wide gapped tail transfer per
// pass that also sets the next pass's burst instant, so the span list grows
// until it has folded at least three times. The Pipe skips gaps its walk
// memo already ruled out; refResource walks every gap from the arrival.
// After every transfer the start, the end, the whole span list and the
// (arrival, start, end) the Pipe's observer saw must equal the reference's.
func FuzzPipeMatchesReference(f *testing.F) {
	f.Add([]byte{7, 20, 0, 64, 130, 120, 0, 64, 130, 120, 1, 48, 130, 120, 0, 16, 130, 120})
	f.Add([]byte{3, 5, 0, 40, 0, 8, 2, 3, 1, 60, 66, 100, 3, 128, 0, 20, 130, 7})
	f.Add([]byte{0, 0, 0, 0, 1, 63, 2, 127, 7, 255, 0, 1, 0, 62})
	f.Add([]byte{5, 31, 1, 10, 254, 9, 0, 50, 0, 12, 2, 0, 3, 77, 1, 33, 98, 4})
	// 1 B/ns, no overhead: a 20 ns gap, a 60 ns requester that walks past
	// it, then a 10 ns one that must still take it.
	f.Add([]byte{8, 32, 34, 20, 0, 60, 34, 0, 0, 10})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 2 {
			return
		}
		ops := data[:min(len(data), 128)&^1]
		pass := len(ops)/2 + 1 // the decoded transfers and the separator
		bw, overhead := float64(1+data[0]%8)*1e9, Duration(data[1]%32)
		p := NewPipe("p", bw, overhead)
		var seen [3]Time
		p.Observe(func(arrival, start, end Time) { seen = [3]Time{arrival, start, end} })
		ref := &refResource{}
		var burst, last Time
		folds := 0
		for i := 0; folds < 3; i++ {
			if i > 4*(maxIntervals+1)*pass { // each pass adds a span
				t.Fatalf("%d transfers and only %d folds", i, folds)
			}
			var arrival Time
			var size int
			j := 2 * (i % pass)
			if j == len(ops) {
				// The pass's separator: a tail transfer after a gap ten
				// times the pass's most occupancy (64 transfers of at most
				// 94 ns, each up to 127 ns after the last), so the list
				// keeps growing. The next pass bursts at its start.
				arrival, size = nextFree(&p.res)+1<<16, 8
			} else {
				arrival, size = burstTransfer(&p.res, burst, last, ops[j], ops[j+1])
			}
			n := len(ref.intervals)
			service := overhead + TransferTime(size, bw)
			want := ref.place(arrival, service)
			seen = [3]Time{-1, -1, -1}
			start, end := p.Transfer(arrival, size)
			if start != want || end != want+service {
				t.Fatalf("transfer %d (%d,%d B): got [%d,%d), reference [%d,%d)",
					i, arrival, size, start, end, want, want+service)
			}
			if !slices.Equal(p.res.intervals, ref.intervals) {
				t.Fatalf("transfer %d (%d,%d B): intervals diverge from the reference", i, arrival, size)
			}
			if seen != [3]Time{arrival, start, end} {
				t.Fatalf("transfer %d: observer saw %v, want [%d %d %d]", i, seen, arrival, start, end)
			}
			if j == len(ops) {
				burst = start
			}
			last = end
			if len(ref.intervals) < n-1 {
				folds++
			}
		}
	})
}

// TestPipeNegativeOverheadPanics: a Pipe's walk memo relies on every
// service being nonnegative, so NewPipe refuses a negative overhead as it
// refuses a nonpositive bandwidth.
func TestPipeNegativeOverheadPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on negative overhead")
		}
	}()
	NewPipe("bad", 1e9, -1)
}

// TestResourceAcquireSteadyStateAllocFree: once a resource's interval list
// has folded, a mixed stream of 10,000 acquires spanning at least three
// more folds allocates nothing, and the list's capacity never exceeds
// maxIntervals+1.
func TestResourceAcquireSteadyStateAllocFree(t *testing.T) {
	r := NewResource("r")
	rng := rand.New(rand.NewSource(5))
	fewest := -1 // the fewest folds any one stream made
	mixed := func() {
		folds := 0
		for i := 0; i < 10_000; i++ {
			n := len(r.intervals)
			r.Acquire(mixedArrival(r, byte(rng.Intn(256)), byte(rng.Intn(256))))
			if len(r.intervals) < n-1 {
				folds++
			}
			if c := cap(r.intervals); c > maxIntervals+1 {
				t.Fatalf("interval capacity %d exceeds %d", c, maxIntervals+1)
			}
		}
		if fewest < 0 || folds < fewest {
			fewest = folds
		}
	}
	mixed() // warm-up: grow the list to its ceiling
	if allocs := testing.AllocsPerRun(1, mixed); allocs != 0 {
		t.Fatalf("steady-state acquires allocated %v times", allocs)
	}
	if fewest < 3 {
		t.Fatalf("a stream of 10,000 acquires folded only %d times; want at least 3", fewest)
	}
}

// TestResourceFootprint pins the host size of the two queueing primitives.
// Every QP's send side holds a Resource by value, so a per-placement tally
// added there is paid once per simulated connection; the telemetry queue
// hooks already count placements and service time for the runs that report
// them. A Pipe (a link direction, a PCIe channel, a QPI hop) exists per
// machine, never per connection, so the walk memo lives there.
func TestResourceFootprint(t *testing.T) {
	if n := unsafe.Sizeof(Resource{}); n > 48 {
		t.Errorf("Resource is %d bytes, want at most 48", n)
	}
	if n := unsafe.Sizeof(Pipe{}); n > 136 {
		t.Errorf("Pipe is %d bytes, want at most 136", n)
	}
}
