package sim

// Typed scheduler queues for the event kernel: each client's window of
// completion times, and the run's one heap of clients. Both are
// hand-rolled and typed, because the generic container/heap funnels every
// Push and Pop through interface{}, which boxes each completion Time onto the
// heap — one allocation per posted operation. The sim.kernel_dispatch_*
// probes of `bash cmd/rdmaperf/run.sh --workload micro --trace 1` measure
// them.

// window is a client's outstanding-operation window: its completion times,
// kept sorted in s[head:]. Completions mostly arrive in order (a QP's send
// completions are clamped in post order), so push nearly always appends;
// an out-of-order push shifts the later entries, at most Window-1 of them.
// pop advances head. The zero value is an empty window.
type window struct {
	s    []Time
	head int
}

// len reports the number of outstanding completions.
func (w *window) len() int { return len(w.s) - w.head }

// min returns the earliest completion; the window must not be empty.
func (w *window) min() Time { return w.s[w.head] }

// reset empties the window and gives it room for 2n entries, keeping its
// storage when that is big enough. A window that holds at most n entries
// then never allocates: push slides the live entries down before it would
// append past 2n.
func (w *window) reset(n int) {
	if cap(w.s) < 2*n {
		w.s = make([]Time, 0, 2*n)
	}
	w.s, w.head = w.s[:0], 0
}

// push adds a completion time.
func (w *window) push(t Time) {
	// Reclaim the popped prefix once it is half the buffer, so a window
	// that never drains stays bounded and the copy amortizes to O(1).
	if len(w.s) == cap(w.s) && 2*w.head >= len(w.s) {
		w.s = w.s[:copy(w.s, w.s[w.head:])]
		w.head = 0
	}
	w.s = append(w.s, t)
	i := len(w.s) - 1
	for ; i > w.head && w.s[i-1] > t; i-- {
		w.s[i] = w.s[i-1]
	}
	w.s[i] = t
}

// pop removes the earliest completion.
func (w *window) pop() {
	if w.head++; w.head == len(w.s) {
		w.s, w.head = w.s[:0], 0
	}
}

// dispatchEntry is one heap slot: a client's cached next-action time and
// its registration index.
type dispatchEntry struct {
	at  Time
	idx int
}

// before orders dispatch entries by (virtual time, registration index).
// Indices are unique, so the order is total; the goldens pin it.
func (a dispatchEntry) before(b dispatchEntry) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.idx < b.idx
}

// dispatchHeap is a run's dispatch queue: a typed binary min-heap of
// (nextAction, registration index) entries over clients, which stays in
// registration order. Kernel.Run loads every client once; run only ever
// reorders the root (after a dispatch) or evicts it (horizon or MaxOps
// reached), so there is no push.
//
// Each client's nextAction is cached in its entry, because only the root's
// key changes per step: a dispatch moves the root's nextPost and window, and
// no Op may change another client's dispatch inputs (see Client). fixTop
// refreshes the root's key, so a compare reads two cached times instead of
// chasing two clients' outstanding windows. Entries hold no pointers, so a
// sift moves plain words.
type dispatchHeap struct {
	clients []*Client // registration order, never reordered
	h       []dispatchEntry
}

// down sifts the entry at i toward the leaves until no child precedes it.
func (s *dispatchHeap) down(i int) {
	h := s.h
	n := len(h)
	e := h[i]
	for {
		m := 2*i + 1
		if m >= n {
			break
		}
		if r := m + 1; r < n && h[r].before(h[m]) {
			m = r
		}
		if !h[m].before(e) {
			break
		}
		h[i] = h[m]
		i = m
	}
	h[i] = e
}

// init caches every client's key and establishes the heap order.
func (s *dispatchHeap) init() {
	s.h = make([]dispatchEntry, len(s.clients))
	for i, c := range s.clients {
		s.h[i] = dispatchEntry{c.nextAction(), i}
	}
	for i := len(s.h)/2 - 1; i >= 0; i-- {
		s.down(i)
	}
}

// fixTop restores heap order after the root's next action advanced.
func (s *dispatchHeap) fixTop() {
	s.h[0].at = s.clients[s.h[0].idx].nextAction()
	s.down(0)
}

// popTop evicts the root.
func (s *dispatchHeap) popTop() {
	last := len(s.h) - 1
	s.h[0] = s.h[last]
	s.h = s.h[:last]
	if last > 0 {
		s.down(0)
	}
}
