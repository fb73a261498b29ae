package adaptive

import (
	"errors"
	"fmt"

	"rdmasem/internal/core"
	"rdmasem/internal/mem"
	"rdmasem/internal/sim"
	"rdmasem/internal/verbs"
)

// ErrBadConfig reports a Config the runtime cannot run.
var ErrBadConfig = errors.New("adaptive: bad configuration")

// Config builds a Runtime: one QP's worth of adaptive IO machinery.
type Config struct {
	QP *verbs.QP
	// LocalMR backs the consolidator shadow, its read scratch, and the
	// native path's staging slot: it must hold (MaxBlocks+2)*BlockSize
	// bytes.
	LocalMR    *verbs.MR
	Staging    *verbs.MR // the SP gather buffer
	RemoteMR   *verbs.MR
	RemoteBase mem.Addr
	BlockSize  int
	Theta      int // consolidation threshold
	MaxBlocks  int // consolidator shadow capacity

	// Params configures the tuners. Params.Shadow pins the runtime to the
	// static Strategy/UseCons below with the tuners observing only — the
	// baseline configuration of the adaptive experiment.
	Params Params

	Strategy core.Strategy // initial (shadow: permanent) batch strategy
	UseCons  bool          // shadow: permanent small-write path
}

// Runtime routes one client's batched and small writes through live knobs
// that it retunes at every epoch close: batch strategy and doorbell depth
// for WriteBatch, native-vs-consolidated for SmallWrite. It issues every
// post on its QP, so its own op path is the only measurement hook. In
// shadow mode it is exactly the static pipeline with the tuners measuring
// alongside. It allocates only at construction.
type Runtime struct {
	cfg     Config
	batcher *core.Batcher
	cons    *core.Consolidator

	directOff int // LocalMR offset of the native path's staging slot
	wr        verbs.SendWR
	sge       [1]verbs.SGE

	started  bool
	warmed   bool // first closed epoch is discarded (QP cold-start costs)
	epochEnd sim.Time
	epochIdx int64

	// Per-epoch tallies, reset at every epoch close.
	batchOps, batchFrags, batchBytes, batchLat int64
	smallOps, smallBytes, smallLat             int64
	smallSwitch                                int64 // block-to-block transitions
	directOps                                  int64 // small writes posted natively

	smallLastBlk int // last small-write block (locality tracking)

	// Baselines for delta readings at epoch close.
	lastFlushes int64
	lastBad     uint64

	batch tuner
	small tuner

	depth      int // live doorbell list depth
	depthClean int // consecutive trouble-free epochs since the last halving

	needDrain bool // cons->direct switch: flush pending blocks at next op

	recs    []Record
	dropped int
}

// NewRuntime validates the configuration and builds the batcher and the
// consolidator. Unless cfg.Params.Shadow is set, it applies the first probe
// candidate so the first epoch measures it.
func NewRuntime(cfg Config) (*Runtime, error) {
	if cfg.QP == nil || cfg.LocalMR == nil || cfg.Staging == nil || cfg.RemoteMR == nil {
		return nil, fmt.Errorf("%w: runtime needs qp, local, staging and remote MRs", ErrBadConfig)
	}
	if cfg.BlockSize <= 0 || cfg.Theta <= 0 || cfg.MaxBlocks <= 0 || cfg.Params.Epoch <= 0 {
		return nil, fmt.Errorf("%w: block size, theta, max blocks and epoch must be positive", ErrBadConfig)
	}
	need := cfg.BlockSize * (cfg.MaxBlocks + 2)
	if cfg.LocalMR.Region().Size() < need {
		return nil, fmt.Errorf("%w: local MR too small: %d < %d",
			ErrBadConfig, cfg.LocalMR.Region().Size(), need)
	}
	b, err := core.NewBatcher(cfg.Strategy, cfg.QP, cfg.LocalMR, cfg.Staging, cfg.RemoteMR)
	if err != nil {
		return nil, err
	}
	cons, err := core.NewConsolidator(core.ConsolidatorConfig{
		QP:         cfg.QP,
		LocalMR:    cfg.LocalMR,
		RemoteMR:   cfg.RemoteMR,
		RemoteBase: cfg.RemoteBase,
		BlockSize:  cfg.BlockSize,
		Theta:      cfg.Theta,
		MaxBlocks:  cfg.MaxBlocks,
	})
	if err != nil {
		return nil, err
	}
	r := &Runtime{
		cfg:          cfg,
		batcher:      b,
		cons:         cons,
		directOff:    cfg.BlockSize * (cfg.MaxBlocks + 1),
		batch:        tuner{n: 3}, // SP, Doorbell, SGL
		small:        tuner{n: 2}, // direct, consolidate
		depth:        DefaultMaxDepth,
		smallLastBlk: -1,
		recs:         make([]Record, 0, maxRecords),
	}
	if !cfg.Params.Shadow {
		_ = b.SetStrategy(core.Strategy(r.batch.cand))
		_ = b.SetDoorbellDepth(r.depth)
	}
	return r, nil
}

// Records returns the decision log: one entry per epoch that changed any
// knob. The slice aliases the runtime's preallocated buffer.
func (r *Runtime) Records() []Record { return r.recs }

// DroppedRecords reports decision changes beyond the log's fixed capacity.
func (r *Runtime) DroppedRecords() int { return r.dropped }

// Decision returns the current knob tuple.
func (r *Runtime) Decision() Record {
	return Record{
		Epoch: r.epochIdx,
		Batch: core.Strategy(r.batch.cand),
		Depth: r.depth,
		Cons:  r.small.cand == candCons,
	}
}

// WriteBatch writes the fragments contiguously at remoteAddr with whatever
// strategy and doorbell depth the runtime currently holds.
func (r *Runtime) WriteBatch(now sim.Time, frags []core.Fragment, remoteAddr mem.Addr) (core.BatchResult, error) {
	now, err := r.advance(now)
	if err != nil {
		return core.BatchResult{}, err
	}
	res, err := r.batcher.WriteBatch(now, frags, remoteAddr)
	if err != nil {
		return res, err
	}
	r.batchOps++
	r.batchFrags += int64(len(frags))
	for _, f := range frags {
		r.batchBytes += int64(f.Length)
	}
	r.batchLat += int64(res.Done - now)
	return res, nil
}

// SmallWrite lands one sub-block write at remoteBase+off, through the
// consolidator when the small-write tuner has it switched in and as a single
// native RDMA write otherwise. Either path takes only a non-empty write
// within one block; any other write is rejected before the tuners see it.
func (r *Runtime) SmallWrite(now sim.Time, off int, data []byte) (sim.Time, error) {
	bs := r.cfg.BlockSize
	if off < 0 || len(data) == 0 || off%bs+len(data) > bs {
		return 0, fmt.Errorf("adaptive: small write [%d,+%d) not within one %d-byte block", off, len(data), bs)
	}
	now, err := r.advance(now)
	if err != nil {
		return 0, err
	}
	var done sim.Time
	if r.useCons() {
		done, err = r.cons.Write(now, off, data)
	} else {
		r.directOps++
		done, err = r.directWrite(now, off, data)
	}
	if err != nil {
		return 0, err
	}
	r.smallOps++
	r.smallBytes += int64(len(data))
	r.smallLat += int64(done - now)
	if blk := off / bs; blk != r.smallLastBlk {
		r.smallSwitch++
		r.smallLastBlk = blk
	}
	return done, nil
}

// useCons picks the small-write path: the static pin in shadow mode, the
// small-write tuner's live decision otherwise.
func (r *Runtime) useCons() bool {
	if r.cfg.Params.Shadow {
		return r.cfg.UseCons
	}
	return r.small.cand == candCons
}

// directWrite is the native path fig8 calls "x=0": stage the payload, post
// one RDMA write. Its costs mirror the consolidator's absorb path (the same
// CPU memcpy) plus the per-write network round trip consolidation saves.
func (r *Runtime) directWrite(now sim.Time, off int, data []byte) (sim.Time, error) {
	slot := r.cfg.LocalMR.Region().Bytes()[r.directOff : r.directOff+len(data)]
	copy(slot, data)
	tp := r.cfg.QP.Context().Machine().Topology()
	now += tp.MemcpyTime(len(data), false)
	r.sge[0] = verbs.SGE{
		Addr:   r.cfg.LocalMR.Addr() + mem.Addr(r.directOff),
		Length: len(data),
		MR:     r.cfg.LocalMR,
	}
	r.wr = verbs.SendWR{
		Opcode:     verbs.OpWrite,
		SGL:        r.sge[:],
		RemoteAddr: r.cfg.RemoteBase + mem.Addr(off),
		RemoteKey:  r.cfg.RemoteMR.RKey(),
	}
	comp, err := r.cfg.QP.PostSend(now, &r.wr)
	if err != nil {
		return 0, err
	}
	return comp.Done, nil
}

// advance moves the runtime to virtual time now, closing every epoch
// boundary crossed since the last op, and returns the (possibly later) time
// the caller's op may start: switching the small path off the consolidator
// drains pending blocks, and that flush burns real virtual time. A failed
// drain fails the op and stays armed, so no native write lands while a
// block it may overlap is still pending.
func (r *Runtime) advance(now sim.Time) (sim.Time, error) {
	if !r.started {
		r.started = true
		r.epochEnd = now + r.cfg.Params.Epoch
		r.refreshBaselines()
		return now, nil
	}
	for now >= r.epochEnd {
		r.closeEpoch(r.epochEnd)
		r.epochEnd += r.cfg.Params.Epoch
		r.epochIdx++
	}
	if r.needDrain {
		done, err := r.cons.Flush(now)
		if err != nil {
			return 0, err
		}
		r.needDrain = false
		now = max(now, done)
	}
	return now, nil
}

// closeEpoch runs every tuner against the closing epoch's tallies and resets
// them. Knob applications are keyed off the tuners' change flags, so each
// knob moves at most once per epoch.
func (r *Runtime) closeEpoch(at sim.Time) {
	// The first epoch absorbs one-time cold-start costs (first-touch stage
	// latencies on a fresh QP) that would contaminate whichever candidate
	// happens to be probed first. Discard it: refresh baselines, score
	// nothing.
	if !r.warmed {
		r.warmed = true
		r.refreshBaselines()
		r.resetTallies()
		return
	}
	changed := false
	live := !r.cfg.Params.Shadow

	// Batch strategy: fingerprint is the shape of the batches themselves.
	var bFpA, bFpB int
	if r.batchOps > 0 {
		bFpA = lg(r.batchBytes / r.batchOps)
		bFpB = lg(r.batchFrags / r.batchOps)
	}
	if act, ch := r.batch.close(r.batchOps, r.batchLat, bFpA, bFpB); ch {
		changed = true
		if live {
			_ = r.batcher.SetStrategy(core.Strategy(act))
		}
	}

	// Small-write path. The fingerprint pairs write size with block
	// locality (transitions per op), so a hot set collapsing into scatter —
	// or re-condensing — reads as drift even at a constant write size.
	// Leaving the consolidator arms a drain of its pending blocks at the
	// next op (advance charges the flush).
	var sFpA, sFpB int
	if r.smallOps > 0 {
		sFpA = lg(r.smallBytes / r.smallOps)
		sFpB = lg(1 + 16*r.smallSwitch/r.smallOps)
	}
	if act, ch := r.small.close(r.smallOps, r.smallLat, sFpA, sFpB); ch {
		changed = true
		if live && act == candDirect {
			r.needDrain = true
		}
	}

	// Doorbell depth: reliability trouble (retransmits, timeouts, NAKs)
	// during an epoch that actually posted halves the list depth;
	// DefaultConfirm consecutive calm epochs double it back toward the ceiling.
	if r.posted() {
		bad := badEvents(r.cfg.QP.Stats())
		delta := bad - r.lastBad
		r.lastBad = bad
		newDepth := r.depth
		if delta > 0 {
			newDepth = max(r.depth/2, 1)
			r.depthClean = 0
		} else if r.depth < DefaultMaxDepth {
			r.depthClean++
			if r.depthClean >= DefaultConfirm {
				r.depthClean = 0
				newDepth = min(r.depth*2, DefaultMaxDepth)
			}
		}
		if newDepth != r.depth {
			r.depth = newDepth
			changed = true
			if live {
				_ = r.batcher.SetDoorbellDepth(newDepth)
			}
		}
	}

	if changed {
		r.record(at)
	}

	r.refreshBaselines()
	r.resetTallies()
}

// posted reports whether the closing epoch put anything on the QP: a batch,
// a native small write, or a consolidator flush.
func (r *Runtime) posted() bool {
	_, f := r.cons.Stats()
	return r.batchOps > 0 || r.directOps > 0 || f > r.lastFlushes
}

// refreshBaselines re-reads every cumulative counter the epoch close takes
// deltas against.
func (r *Runtime) refreshBaselines() {
	r.lastBad = badEvents(r.cfg.QP.Stats())
	_, r.lastFlushes = r.cons.Stats()
}

// resetTallies clears the per-epoch accumulators.
func (r *Runtime) resetTallies() {
	r.batchOps, r.batchFrags, r.batchBytes, r.batchLat = 0, 0, 0, 0
	r.smallOps, r.smallBytes, r.smallLat, r.smallSwitch = 0, 0, 0, 0
	r.directOps = 0
}

// record appends the current knob tuple to the bounded decision log.
func (r *Runtime) record(at sim.Time) {
	if len(r.recs) == cap(r.recs) {
		r.dropped++
		return
	}
	rec := r.Decision()
	rec.At = at
	r.recs = append(r.recs, rec)
}
