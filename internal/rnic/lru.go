package rnic

// LRU is a fixed-capacity least-recently-used set of uint64 keys. It models
// the RNIC's on-device SRAM metadata caches (address-translation entries, QP
// context, MR records): Access touches a key, reporting whether it was
// already resident, and evicts the coldest entry on insertion when full.
//
// The recency order is an intrusive doubly-linked list over a preallocated
// node slice (indices, not pointers), so steady-state Access never allocates:
// a miss either reuses the evicted node or takes one from the free list that
// was carved out up front.
//
// LRU is not safe for concurrent use; the simulation kernel is single
// threaded over virtual time.
type LRU struct {
	capacity int
	entries  map[uint64]int32 // key -> node index
	nodes    []lruNode
	head     int32 // most recent, or lruNil
	tail     int32 // least recent, or lruNil
	free     int32 // next unused node, chained through next
	hits     int64
	misses   int64
}

type lruNode struct {
	key        uint64
	prev, next int32
}

const lruNil = int32(-1)

// NewLRU returns an empty cache with the given capacity. Capacity 0 yields a
// cache that always misses (useful for ablations).
func NewLRU(capacity int) *LRU {
	if capacity < 0 {
		capacity = 0
	}
	c := &LRU{
		capacity: capacity,
		entries:  make(map[uint64]int32, capacity),
		nodes:    make([]lruNode, capacity),
		head:     lruNil,
		tail:     lruNil,
		free:     lruNil,
	}
	for i := len(c.nodes) - 1; i >= 0; i-- { // every node starts on the free list
		c.nodes[i].next = c.free
		c.free = int32(i)
	}
	return c
}

// Access touches key, returning true on a hit. On a miss the key is inserted
// (evicting the LRU entry if the cache is full).
func (c *LRU) Access(key uint64) bool {
	if i, ok := c.entries[key]; ok {
		c.moveToFront(i)
		c.hits++
		return true
	}
	c.misses++
	if c.capacity == 0 {
		return false
	}
	var i int32
	if c.free != lruNil {
		i = c.free
		c.free = c.nodes[i].next
	} else {
		// Full: reuse the coldest node in place.
		i = c.tail
		delete(c.entries, c.nodes[i].key)
		c.unlink(i)
	}
	c.nodes[i].key = key
	c.pushFront(i)
	c.entries[key] = i
	return false
}

// unlink removes node i from the recency list.
func (c *LRU) unlink(i int32) {
	n := c.nodes[i]
	if n.prev != lruNil {
		c.nodes[n.prev].next = n.next
	} else {
		c.head = n.next
	}
	if n.next != lruNil {
		c.nodes[n.next].prev = n.prev
	} else {
		c.tail = n.prev
	}
}

// pushFront links node i at the head of the recency list.
func (c *LRU) pushFront(i int32) {
	c.nodes[i].prev = lruNil
	c.nodes[i].next = c.head
	if c.head != lruNil {
		c.nodes[c.head].prev = i
	}
	c.head = i
	if c.tail == lruNil {
		c.tail = i
	}
}

// moveToFront makes node i the most recent.
func (c *LRU) moveToFront(i int32) {
	if c.head == i {
		return
	}
	c.unlink(i)
	c.pushFront(i)
}

// Contains reports residency without touching recency or statistics.
func (c *LRU) Contains(key uint64) bool {
	_, ok := c.entries[key]
	return ok
}

// Len returns the number of resident entries.
func (c *LRU) Len() int { return len(c.entries) }

// Cap returns the configured capacity.
func (c *LRU) Cap() int { return c.capacity }

// Hits returns the number of Access calls that hit.
func (c *LRU) Hits() int64 { return c.hits }

// Misses returns the number of Access calls that missed.
func (c *LRU) Misses() int64 { return c.misses }

// HitRate returns hits/(hits+misses), or 0 before any access.
func (c *LRU) HitRate() float64 {
	total := c.hits + c.misses
	if total == 0 {
		return 0
	}
	return float64(c.hits) / float64(total)
}
