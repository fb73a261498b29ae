package sim

// Typed scheduler queues for the sharded event kernel: each client's window
// of completion times, and each shard's one heap of clients. Both are
// hand-rolled binary heaps, because the generic container/heap funnels every
// Push and Pop through interface{}, which boxes each completion Time onto the
// heap — one allocation per posted operation. The sim.kernel_dispatch_*
// probes of `bash cmd/rdmaperf/run.sh --workload micro --trace 1` measure
// them.

// timeHeap is a typed min-heap of completion times: one per client, holding
// the client's outstanding-operation window. Zero value is an empty heap.
// push and pop never allocate beyond amortized slice growth, which the
// kernel retains across runs via reset.
type timeHeap []Time

// push adds a completion time.
func (h *timeHeap) push(t Time) {
	s := append(*h, t)
	i := len(s) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if s[parent] <= s[i] {
			break
		}
		s[parent], s[i] = s[i], s[parent]
		i = parent
	}
	*h = s
}

// pop removes and returns the earliest completion time.
func (h *timeHeap) pop() Time {
	s := *h
	top := s[0]
	n := len(s) - 1
	s[0] = s[n]
	s = s[:n]
	i := 0
	for {
		l := 2*i + 1
		if l >= n {
			break
		}
		m := l
		if r := l + 1; r < n && s[r] < s[l] {
			m = r
		}
		if s[i] <= s[m] {
			break
		}
		s[i], s[m] = s[m], s[i]
		i = m
	}
	*h = s
	return top
}

// keyLess orders dispatch keys: (virtual time, registration index). Indices
// are unique, so the order is total; the goldens pin it.
func keyLess(t1 Time, i1 int, t2 Time, i2 int) bool {
	if t1 != t2 {
		return t1 < t2
	}
	return i1 < i2
}

// shard is one footprint-connected group of clients and its dispatch queue:
// a typed min-heap ordered by (nextAction, registration index). partition
// loads the clients once; runShard only ever reorders the root (after a
// dispatch) or evicts it (horizon or MaxOps reached), so there is no push.
//
// Each client's nextAction is cached in keys, because only the root's key
// changes per step: a dispatch moves the root's nextPost and window, and no
// Op may change another client's dispatch inputs (see Client). fixTop
// refreshes the root's key, so a compare reads two cached times instead of
// chasing two clients' outstanding heaps.
type shard struct {
	clients []*Client
	idx     []int  // registration indices, parallel to clients
	keys    []Time // cached nextAction of each client, parallel to clients
	err     error  // the failure that stopped the shard, if any
}

func (s *shard) less(i, j int) bool {
	return keyLess(s.keys[i], s.idx[i], s.keys[j], s.idx[j])
}

func (s *shard) swap(i, j int) {
	s.clients[i], s.clients[j] = s.clients[j], s.clients[i]
	s.idx[i], s.idx[j] = s.idx[j], s.idx[i]
	s.keys[i], s.keys[j] = s.keys[j], s.keys[i]
}

func (s *shard) down(i int) {
	n := len(s.clients)
	for {
		l := 2*i + 1
		if l >= n {
			return
		}
		m := l
		if r := l + 1; r < n && s.less(r, l) {
			m = r
		}
		if !s.less(m, i) {
			return
		}
		s.swap(i, m)
		i = m
	}
}

// init caches every client's key and establishes the heap order.
func (s *shard) init() {
	s.keys = make([]Time, len(s.clients))
	for i, c := range s.clients {
		s.keys[i] = c.nextAction()
	}
	for i := len(s.clients)/2 - 1; i >= 0; i-- {
		s.down(i)
	}
}

// fixTop restores heap order after the root's next action advanced.
func (s *shard) fixTop() {
	s.keys[0] = s.clients[0].nextAction()
	s.down(0)
}

// popTop evicts the root.
func (s *shard) popTop() {
	last := len(s.clients) - 1
	s.swap(0, last)
	s.clients = s.clients[:last]
	s.idx = s.idx[:last]
	s.keys = s.keys[:last]
	if last > 0 {
		s.down(0)
	}
}
