package rnic

// LRU is a fixed-capacity least-recently-used set of uint64 keys. It models
// the RNIC's on-device SRAM metadata caches (address-translation entries, QP
// context, MR records): Access touches a key, reporting whether it was
// already resident, and evicts the coldest entry on insertion when full.
//
// The recency order is an intrusive doubly-linked list over a preallocated
// node slice (indices, not pointers), so steady-state Access never allocates:
// a miss either reuses the evicted node or takes one from the free list that
// was carved out up front. Keys are found through an open-addressed index
// owned by the cache: a power-of-two slot table of at least twice the
// capacity, probed linearly from a fixed mixer and kept tombstone-free by
// backward-shift deletion. A slot is 8 bytes, the low 32 bits of the key's
// mix and its node: a probe confirms a hash match against the node's key,
// and the deletion reads each entry's home slot from its stored hash. Which
// keys hit depends only on the recency list, never on where the index
// happens to place them or on which keys share a hash.
//
// LRU is not safe for concurrent use; the simulation kernel is single
// threaded over virtual time.
type LRU struct {
	capacity int
	slots    []lruSlot // open-addressed key index, len is a power of two
	mask     uint64    // len(slots) - 1
	nodes    []lruNode
	head     int32 // most recent, or lruNil
	tail     int32 // least recent, or lruNil
	free     int32 // next unused node, chained through next
	hits     int64
	misses   int64
}

// lruSlot is one index entry: hash is the low 32 bits of lruMix of the
// node's key (a table has at most 2^32 slots, so it holds the home slot),
// and node is the node index + 1, so the zero slot is empty.
type lruSlot struct {
	hash uint32
	node int32
}

type lruNode struct {
	key        uint64
	prev, next int32
}

const lruNil = int32(-1)

// lruMix is the murmur3 fmix64 finalizer: every key bit reaches the low
// bits the index masks, so page numbers (k<<12) spread like small integers.
func lruMix(k uint64) uint64 {
	k ^= k >> 33
	k *= 0xff51afd7ed558ccd
	k ^= k >> 33
	k *= 0xc4ceb9fe1a85ec53
	k ^= k >> 33
	return k
}

// NewLRU returns an empty cache with the given capacity. Capacity 0 yields a
// cache that always misses (useful for ablations).
func NewLRU(capacity int) *LRU {
	if capacity < 0 {
		capacity = 0
	}
	// At least 2x capacity, and always an empty slot to end a chain even
	// while an evicting miss briefly indexes capacity+1 keys.
	size := 1
	for size < 2*capacity || size <= capacity+1 {
		size <<= 1
	}
	c := &LRU{
		capacity: capacity,
		slots:    make([]lruSlot, size),
		mask:     uint64(size - 1),
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
//
// A key that is already the most recent one hits without a probe: moving the
// head to the front changes nothing, and a NIC's QP-context and MR caches
// see the same key op after op.
func (c *LRU) Access(key uint64) bool {
	if h := c.head; h != lruNil && c.nodes[h].key == key {
		c.hits++
		return true
	}
	mix := lruMix(key)
	s := c.probe(key, mix)
	if v := c.slots[s].node; v != 0 {
		c.moveToFront(v - 1)
		c.hits++
		return true
	}
	c.misses++
	if c.capacity == 0 {
		return false
	}
	evict := c.free == lruNil
	var i int32
	var hole uint64
	if evict {
		// Full: reuse the coldest node in place. Its slot is found while
		// the node still holds its key and no other slot points at it.
		i = c.tail
		c.unlink(i)
		old := c.nodes[i].key
		hole = c.probe(old, lruMix(old))
	} else {
		i = c.free
		c.free = c.nodes[i].next
	}
	// Index the new key in the empty slot the probe ended on before the
	// eviction: the table always has room for capacity+1 keys, filling an
	// empty slot moves no other entry, and the backward shift keeps every
	// remaining chain, the new one included, intact.
	c.slots[s] = lruSlot{hash: uint32(mix), node: i + 1}
	if evict {
		c.removeAt(hole)
	}
	c.nodes[i].key = key
	c.pushFront(i)
	return false
}

// probe returns the slot holding key, whose mix is h, or the empty slot that
// ends its chain. A slot whose hash matches holds key only if its node does.
func (c *LRU) probe(key, h uint64) uint64 {
	s := h & c.mask
	for {
		sl := c.slots[s]
		if sl.node == 0 || sl.hash == uint32(h) && c.nodes[sl.node-1].key == key {
			return s
		}
		s = (s + 1) & c.mask
	}
}

// removeAt empties slot hole by backward shift: each later entry of the
// chain whose home lies at or before the hole moves into it, so no
// tombstone is left behind.
func (c *LRU) removeAt(hole uint64) {
	for s := (hole + 1) & c.mask; c.slots[s].node != 0; s = (s + 1) & c.mask {
		home := uint64(c.slots[s].hash) & c.mask
		if (s-home)&c.mask >= (s-hole)&c.mask {
			c.slots[hole] = c.slots[s]
			hole = s
		}
	}
	c.slots[hole] = lruSlot{}
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

// Hits returns the number of Access calls that hit.
func (c *LRU) Hits() int64 { return c.hits }

// Misses returns the number of Access calls that missed.
func (c *LRU) Misses() int64 { return c.misses }
