package core

import (
	"fmt"

	"rdmasem/internal/mem"
	"rdmasem/internal/sim"
	"rdmasem/internal/verbs"
)

// Consolidator is the remote burst buffer of Section III-C: writes smaller
// than the aligned block size are absorbed into a local shadow of the block
// and posted to the RNIC only when (1) θ writes have accumulated for that
// block, or (2) the shadow is full and the block is the oldest one in it.
// θ writes then cost one network round trip instead of θ. The paper's
// timeout flush is not modelled: no experiment sets one.
//
// The shadow also answers reads (read-your-writes), which the paper's hot
// entry area relies on.
type Consolidator struct {
	qp         *verbs.QP
	localMR    *verbs.MR // shadow storage, one blockSize slot per live block
	remoteMR   *verbs.MR
	remoteBase mem.Addr
	blockSize  int
	theta      int

	blocks     map[int]*pendingBlock
	nextSeq    int64 // creation-order stamp for pending blocks
	slots      []int // free shadow slot indices
	scratchOff int   // shadow offset of the read-miss scratch slot
	preFlush   func(now sim.Time, block int) (sim.Time, error)
	postFlush  func(now sim.Time, block int) (sim.Time, error)

	writes  int64 // logical writes absorbed
	flushes int64 // network writes issued
}

type pendingBlock struct {
	index int   // block index within the remote region
	slot  int   // shadow slot
	seq   int64 // creation order: eviction retires the lowest
	mods  int
}

// ConsolidatorConfig configures a Consolidator.
type ConsolidatorConfig struct {
	QP         *verbs.QP
	LocalMR    *verbs.MR // must hold (MaxBlocks+1) * BlockSize bytes
	RemoteMR   *verbs.MR
	RemoteBase mem.Addr
	BlockSize  int // aligned block granularity (e.g. 1 KB or a 4 KB page)
	Theta      int // modifications per block before flushing
	MaxBlocks  int // live (unflushed) blocks the shadow can hold

	// PreFlush/PostFlush run around each block flush (the hashtable uses
	// them to take and drop the block's remote spinlock). Each receives the
	// current virtual time and the block index and returns the time its
	// work finished.
	PreFlush  func(now sim.Time, block int) (sim.Time, error)
	PostFlush func(now sim.Time, block int) (sim.Time, error)
}

// NewConsolidator validates the configuration and builds the burst buffer.
func NewConsolidator(cfg ConsolidatorConfig) (*Consolidator, error) {
	if cfg.QP == nil || cfg.LocalMR == nil || cfg.RemoteMR == nil {
		return nil, fmt.Errorf("core: consolidator needs qp and MRs")
	}
	if cfg.BlockSize <= 0 || cfg.Theta <= 0 || cfg.MaxBlocks <= 0 {
		return nil, fmt.Errorf("core: block size, theta and max blocks must be positive")
	}
	// One extra slot serves as the read-miss scratch buffer.
	if cfg.LocalMR.Region().Size() < cfg.BlockSize*(cfg.MaxBlocks+1) {
		return nil, fmt.Errorf("core: shadow MR too small: %d < %d",
			cfg.LocalMR.Region().Size(), cfg.BlockSize*(cfg.MaxBlocks+1))
	}
	c := &Consolidator{
		qp:         cfg.QP,
		localMR:    cfg.LocalMR,
		remoteMR:   cfg.RemoteMR,
		remoteBase: cfg.RemoteBase,
		blockSize:  cfg.BlockSize,
		theta:      cfg.Theta,
		blocks:     make(map[int]*pendingBlock),
		scratchOff: cfg.BlockSize * cfg.MaxBlocks,
		preFlush:   cfg.PreFlush,
		postFlush:  cfg.PostFlush,
	}
	for i := cfg.MaxBlocks - 1; i >= 0; i-- {
		c.slots = append(c.slots, i)
	}
	return c, nil
}

// Write absorbs one small write destined for remoteBase+off. It returns the
// virtual time at which the write is durable from the caller's perspective:
// immediately (absorbed into the shadow, CPU-cost only) or, when the write
// triggers a flush, the completion of the flush's single RDMA write.
func (c *Consolidator) Write(now sim.Time, off int, data []byte) (sim.Time, error) {
	if off < 0 || len(data) == 0 || off%c.blockSize+len(data) > c.blockSize {
		return 0, fmt.Errorf("core: write [%d,+%d) not within one %d-byte block", off, len(data), c.blockSize)
	}
	blk := off / c.blockSize
	pb := c.blocks[blk]
	if pb == nil {
		img, err := c.remoteMR.Region().Slice(c.remoteBase+mem.Addr(blk*c.blockSize), c.blockSize)
		if err != nil {
			return 0, err
		}
		if len(c.slots) == 0 {
			// Evict the oldest block to make room. The write that
			// forces the eviction pays for the flush, exactly as the θ-th
			// modification pays for a threshold flush — hiding it here would
			// make a thrashing shadow look cheaper than the native path.
			victim := c.oldest()
			d, err := c.flushBlock(now, victim)
			if err != nil {
				return 0, err
			}
			now = d
		}
		slot := c.slots[len(c.slots)-1]
		c.slots = c.slots[:len(c.slots)-1]
		pb = &pendingBlock{index: blk, slot: slot, seq: c.nextSeq}
		c.nextSeq++
		c.blocks[blk] = pb
		// The slot starts as the block's remote image, so a flush writes
		// back only what was written over it, never a previous occupant's
		// bytes. The load costs no virtual time: it stands for the block
		// being buffered already (the hashtable's front-ends buffer their
		// whole hot area), not for a READ on the critical path.
		copy(c.shadow(pb), img)
	}
	shadow := c.shadow(pb)
	copy(shadow[off%c.blockSize:], data)
	pb.mods++
	c.writes++
	// CPU copy into the shadow is the only cost of an absorbed write.
	tp := c.qp.Context().Machine().Topology()
	done := now + tp.MemcpyTime(len(data), false)
	if pb.mods >= c.theta {
		return c.flushBlock(done, pb)
	}
	return done, nil
}

// Read returns size bytes at off, honoring unflushed shadow contents.
func (c *Consolidator) Read(now sim.Time, off, size int, out []byte) (sim.Time, error) {
	if off < 0 || size <= 0 || off%c.blockSize+size > c.blockSize || len(out) < size {
		return 0, fmt.Errorf("core: read [%d,+%d) not within one block", off, size)
	}
	blk := off / c.blockSize
	if pb := c.blocks[blk]; pb != nil {
		copy(out[:size], c.shadow(pb)[off%c.blockSize:])
		tp := c.qp.Context().Machine().Topology()
		return now + tp.MemcpyTime(size, false), nil
	}
	// Miss: one RDMA read of the requested extent into the scratch slot.
	scratchAddr := c.localMR.Addr() + mem.Addr(c.scratchOff)
	comp, err := c.qp.PostSend(now, &verbs.SendWR{
		Opcode:     verbs.OpRead,
		SGL:        []verbs.SGE{{Addr: scratchAddr, Length: size, MR: c.localMR}},
		RemoteAddr: c.remoteBase + mem.Addr(off),
		RemoteKey:  c.remoteMR.RKey(),
	})
	if err != nil {
		return 0, err
	}
	copy(out[:size], c.localMR.Region().Bytes()[c.scratchOff:c.scratchOff+size])
	// The caller's bytes live in out, not the scratch slot: the CPU copy out
	// of the landing buffer costs the same memcpy a shadow hit pays.
	tp := c.qp.Context().Machine().Topology()
	return comp.Done + tp.MemcpyTime(size, false), nil
}

// Flush force-flushes every pending block.
func (c *Consolidator) Flush(now sim.Time) (sim.Time, error) {
	done := now
	for _, pb := range c.snapshot() {
		d, err := c.flushBlock(now, pb)
		if err != nil {
			return 0, err
		}
		if d > done {
			done = d
		}
	}
	return done, nil
}

// Stats reports absorbed writes vs issued network flushes; the ratio is the
// consolidation factor Figure 8 sweeps.
func (c *Consolidator) Stats() (writes, flushes int64) {
	return c.writes, c.flushes
}

func (c *Consolidator) snapshot() []*pendingBlock {
	out := make([]*pendingBlock, 0, len(c.blocks))
	for _, pb := range c.blocks {
		out = append(out, pb)
	}
	// Deterministic order.
	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && out[j-1].index > out[j].index; j-- {
			out[j-1], out[j] = out[j], out[j-1]
		}
	}
	return out
}

// oldest picks the eviction victim: the block created first (FIFO in
// insertion order, not lowest block index first).
func (c *Consolidator) oldest() *pendingBlock {
	var victim *pendingBlock
	for _, pb := range c.blocks {
		if victim == nil || pb.seq < victim.seq {
			victim = pb
		}
	}
	return victim
}

func (c *Consolidator) shadow(pb *pendingBlock) []byte {
	base := pb.slot * c.blockSize
	return c.localMR.Region().Bytes()[base : base+c.blockSize]
}

// flushBlock posts the single RDMA write covering the whole block and
// retires it from the pending set.
func (c *Consolidator) flushBlock(now sim.Time, pb *pendingBlock) (sim.Time, error) {
	if c.preFlush != nil {
		t, err := c.preFlush(now, pb.index)
		if err != nil {
			return 0, err
		}
		now = t
	}
	slotAddr := c.localMR.Addr() + mem.Addr(pb.slot*c.blockSize)
	comp, err := c.qp.PostSend(now, &verbs.SendWR{
		Opcode:     verbs.OpWrite,
		SGL:        []verbs.SGE{{Addr: slotAddr, Length: c.blockSize, MR: c.localMR}},
		RemoteAddr: c.remoteBase + mem.Addr(pb.index*c.blockSize),
		RemoteKey:  c.remoteMR.RKey(),
	})
	if err != nil {
		return 0, err
	}
	c.flushes++
	delete(c.blocks, pb.index)
	c.slots = append(c.slots, pb.slot)
	done := comp.Done
	if c.postFlush != nil {
		t, err := c.postFlush(done, pb.index)
		if err != nil {
			return 0, err
		}
		done = t
	}
	return done, nil
}
