package sim

import "fmt"

// maxIntervals bounds the busy-interval bookkeeping of a Resource. When the
// list grows past this, the oldest half is folded into one solid span, which
// conservatively closes any remaining gaps there.
const maxIntervals = 256

// interval is one contiguous busy span [start, end).
type interval struct {
	start Time
	end   Time
}

// Resource models a single server: one request is serviced at a time.
// Requests are placed at the earliest free gap at or after their arrival
// time, so the service discipline approximates FCFS in *arrival* order even
// when Acquire calls arrive out of order — which happens whenever a
// multi-round-trip operation is simulated atomically and a later-dispatched
// operation has an earlier arrival at a shared stage.
//
// Resource is not safe for concurrent use; the event kernel is single
// threaded over virtual time by design.
type Resource struct {
	name      string
	intervals []interval // sorted, non-overlapping, non-adjacent
	onAcquire AcquireFunc
}

// AcquireFunc observes one service placement on a Resource or Pipe: the
// request arrived at arrival, started service at start (start - arrival is
// the queueing wait) and completes at end. Observers are passive — they see
// the same placement the caller receives and must not touch simulation
// state, so attaching one never changes timing.
type AcquireFunc func(arrival, start, end Time)

// Observe attaches fn as the resource's acquire observer (nil detaches).
func (r *Resource) Observe(fn AcquireFunc) { r.onAcquire = fn }

// NewResource returns an idle gap-filling resource with the given diagnostic
// name.
func NewResource(name string) *Resource {
	return &Resource{name: name}
}

// Acquire requests service of the given duration starting no earlier than
// arrival, placing it at the earliest gap that fits. It returns the start
// and end of the service window.
func (r *Resource) Acquire(arrival Time, service Duration) (start, end Time) {
	if service < 0 {
		panic(fmt.Sprintf("sim: negative service time %d on %s", service, r.name))
	}
	start = r.place(arrival, service)
	end = start + service
	if r.onAcquire != nil {
		r.onAcquire(arrival, start, end)
	}
	return start, end
}

// place finds the earliest gap at or after arrival that fits the service and
// records it. A zero-length service passes through the queue: it lands at
// the first idle instant at or after arrival.
func (r *Resource) place(arrival Time, service Duration) Time {
	n := len(r.intervals)
	if n == 0 || arrival >= r.intervals[n-1].end {
		// Direct tail path, the common case: at or after the last busy
		// span there is nothing to search and nothing to shift, so extend
		// that span or append one here rather than in insertAt.
		if service == 0 {
			return arrival
		}
		if n > 0 && r.intervals[n-1].end == arrival {
			r.intervals[n-1].end = arrival + service
		} else {
			r.grow()
			r.intervals = append(r.intervals, interval{arrival, arrival + service})
		}
		r.fold()
		return arrival
	}
	for i := r.search(arrival); i <= n; i++ {
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
	panic("sim: unreachable: tail gap always fits")
}

// search returns the first interval ending after arrival, which must precede
// the tail's end. An out-of-order arrival nearly always lands a span or two
// behind the tail, so the search gallops back from it by 1, 2, 4, ... spans
// and bisects only the last step: a few probes where a binary search over
// the whole list takes eight.
func (r *Resource) search(arrival Time) int {
	// Invariant: intervals[hi].end > arrival, and lo < 0 or
	// intervals[lo].end <= arrival; ends ascend, so the answer is in (lo, hi].
	hi, lo := len(r.intervals)-1, -1
	for step := 1; hi-step >= 0; step *= 2 {
		k := hi - step
		if r.intervals[k].end <= arrival {
			lo = k
			break
		}
		hi = k
	}
	for lo+1 < hi {
		m := int(uint(lo+hi) >> 1)
		if r.intervals[m].end > arrival {
			hi = m
		} else {
			lo = m
		}
	}
	return hi
}

// grow makes room for one more interval. The list holds at most
// maxIntervals+1 entries (fold trims it right after it passes maxIntervals),
// so where append would double past that, grow allocates exactly that cap.
func (r *Resource) grow() {
	if n := len(r.intervals); n == cap(r.intervals) && 2*n >= maxIntervals {
		s := make([]interval, n, maxIntervals+1)
		copy(s, r.intervals)
		r.intervals = s
	}
}

// insertAt records [start, start+service) as busy, inserting before index i
// and merging with adjacent intervals. Zero-length services record nothing.
func (r *Resource) insertAt(i int, start Time, service Duration) {
	if service == 0 {
		return
	}
	end := start + service
	// Merge with predecessor?
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
		r.grow()
		r.intervals = append(r.intervals, interval{})
		copy(r.intervals[i+1:], r.intervals[i:])
		r.intervals[i] = interval{start, end}
	}
	r.fold()
}

// fold bounds the interval list: past maxIntervals, the oldest half becomes
// one solid span. That is conservative (gaps there become busy) and keeps
// memory bounded.
func (r *Resource) fold() {
	if len(r.intervals) <= maxIntervals {
		return
	}
	half := len(r.intervals) / 2
	solid := interval{r.intervals[0].start, r.intervals[half-1].end}
	rest := r.intervals[half-1:]
	rest[0] = solid
	r.intervals = append(r.intervals[:0], rest...)
}

// Delay is a convenience wrapper that returns only the completion time.
func (r *Resource) Delay(arrival Time, service Duration) Time {
	_, end := r.Acquire(arrival, service)
	return end
}

// Pipe models a bandwidth-limited channel (a wire, a PCIe lane bundle, a
// memory channel): transfers serialize, and each transfer of n bytes occupies
// the pipe for n/bandwidth plus a fixed per-transfer overhead.
type Pipe struct {
	res            Resource
	bytesPerSecond float64
	overhead       Duration
	memo           [2]serviceMemo // most recent first
	walk           walkMemo
}

// serviceMemo is one remembered (size, service time) pair of a Pipe. A pipe
// sees the same few transfer sizes over and over, and its bandwidth and
// overhead never change after NewPipe, so the last two answers spare nearly
// every float divide in TransferTime.
type serviceMemo struct {
	size    int
	service Duration
	ok      bool // set once the pair holds a real answer
}

// walkMemo is the last early placement of a Pipe: a transfer of service svc
// arriving at from, before the last busy span, started at to. So no start in
// [from, to) fits svc. Placement only ever adds busy time (tail appends,
// gap fills, merges and fold), so that stays true, and a longer service fits
// no better: a later early arrival in [from, to] with at least svc of
// service lands where a walk from to lands, and leaves the same span list.
type walkMemo struct {
	from, to Time
	svc      Duration
}

// NewPipe returns a pipe with the given bandwidth in bytes per second and a
// fixed per-transfer overhead (header/arbitration cost).
func NewPipe(name string, bytesPerSecond float64, overhead Duration) *Pipe {
	if bytesPerSecond <= 0 {
		panic("sim: pipe bandwidth must be positive: " + name)
	}
	if overhead < 0 {
		panic("sim: pipe overhead must be nonnegative: " + name)
	}
	return &Pipe{res: Resource{name: name}, bytesPerSecond: bytesPerSecond, overhead: overhead}
}

// Transfer schedules a transfer of size bytes arriving at the given time and
// returns the start and completion of the transfer. An arrival before the
// last busy span starts its walk past the gaps the walk memo already ruled
// out; the observer still sees the real arrival. The service is never
// negative (NewPipe rejects a negative overhead), so Acquire's check is not
// repeated here.
func (p *Pipe) Transfer(arrival Time, size int) (start, end Time) {
	svc := p.service(size)
	r := &p.res
	if n := len(r.intervals); n == 0 || arrival >= r.intervals[n-1].end {
		start = r.place(arrival, svc)
	} else {
		from := arrival
		if w := p.walk; svc >= w.svc && w.from <= arrival && arrival <= w.to {
			from = w.to
		}
		start = r.place(from, svc)
		if svc > 0 {
			p.walk = walkMemo{arrival, start, svc}
		}
	}
	end = start + svc
	if r.onAcquire != nil {
		r.onAcquire(arrival, start, end)
	}
	return start, end
}

// service returns overhead+TransferTime(size), from the memo when one of the
// last two sizes repeats.
func (p *Pipe) service(size int) Duration {
	if m := p.memo[0]; m.ok && m.size == size {
		return m.service
	}
	if m := p.memo[1]; m.ok && m.size == size {
		p.memo[0], p.memo[1] = m, p.memo[0]
		return m.service
	}
	d := p.overhead + TransferTime(size, p.bytesPerSecond)
	p.memo[1], p.memo[0] = p.memo[0], serviceMemo{size, d, true}
	return d
}

// Delay is a convenience wrapper around Transfer returning only completion.
func (p *Pipe) Delay(arrival Time, size int) Time {
	_, end := p.Transfer(arrival, size)
	return end
}

// Observe attaches fn as the pipe's transfer observer (nil detaches); each
// Transfer reports its arrival, service start and completion. Like
// Resource.Observe, attachment never changes timing.
func (p *Pipe) Observe(fn AcquireFunc) { p.res.Observe(fn) }
