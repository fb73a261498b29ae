// Package adaptive applies the paper's Table I guidance online: per-QP
// controllers that retune the paper's optimizations — batching strategy,
// consolidation θ, doorbell list depth — from measured behavior instead of a
// hand-written workload description (RDMAbox's adaptive IO merging is the
// model).
//
// The controller divides virtual time into fixed epochs. Every runtime
// operation first advances the controller to the current epoch; an epoch
// that closes feeds its tallies (op latencies, payload/fragment shapes,
// doorbell-list occupancy from the verbs post hook, consolidator flush
// breakdown, reliability-event deltas) into two probe-and-lock tuners:
//
//   - the batch tuner scores SP, Doorbell and SGL one epoch each and locks
//     the strategy with the lowest measured mean latency;
//   - the small-write tuner scores the native one-write-per-request path
//     against the consolidator the same way.
//
// A locked tuner watches a workload fingerprint — log2 of mean payload
// bytes per op, plus fragments per op on the batch path and a
// block-locality term (log2 of the scaled block-switch rate) on the
// small-write path; only after Confirm consecutive drifted epochs does it
// re-probe, and never during the Dwell cooldown that follows a lock. The
// small-write tuner has one extra transition: a consolidator whose flushes
// dominate its absorbs for Confirm consecutive epochs is demoted straight
// to the native path without a probe, because the drain that precedes a
// probe would hand the consolidator an empty shadow and a free-slot
// honeymoon win. Decisions therefore change at most once per epoch per
// knob, which is the hysteresis contract the tests pin.
//
// Everything is a pure function of the virtual-time operation sequence: no
// wall clock, no randomness, no goroutines. Two runs that see the same ops
// at the same virtual times make identical decisions — at any engine worker
// count, because every input is shard-local to the QP's machine pair.
package adaptive

import (
	"math/bits"

	"rdmasem/internal/core"
	"rdmasem/internal/sim"
	"rdmasem/internal/verbs"
)

// Params tunes the adaptive IO controllers. Zero values select the
// defaults below.
type Params struct {
	Epoch    sim.Duration // decision interval in virtual time (0 = DefaultEpoch)
	Confirm  int          // consecutive drifted epochs before re-probing (0 = DefaultConfirm)
	Dwell    int          // cooldown epochs after a switch before re-probing (0 = DefaultDwell)
	MaxDepth int          // doorbell list depth ceiling (0 = DefaultMaxDepth)
	Shadow   bool         // observe and decide but never retune (passive mode)
}

// Defaults for zero-valued Params fields.
const (
	DefaultEpoch    = 20 * sim.Microsecond
	DefaultConfirm  = 2
	DefaultDwell    = 2
	DefaultMaxDepth = 16
)

// maxRecords bounds the decision log so the hot path never grows it; changes
// beyond the cap are counted, not stored.
const maxRecords = 256

// Record is one decision change: the epoch it was made in, the virtual time
// of the epoch boundary, and the complete knob tuple after the change. In
// shadow mode records log what the controller would have applied.
type Record struct {
	Epoch int64
	At    sim.Time
	Batch core.Strategy
	Depth int
	Cons  bool
	Theta int
}

// Tuner states: probing scores each candidate for one epoch; locked runs the
// winner until the workload fingerprint drifts.
const (
	stProbe = iota
	stLocked
)

// Small-write path candidates.
const (
	candDirect = iota
	candCons
)

// tuner is one probe-and-lock state machine over at most three candidates.
type tuner struct {
	n      int // live candidates
	state  int
	cand   int // active candidate (== the locked winner in stLocked)
	scores [3]int64
	scored [3]bool
	fpA    int // locked workload fingerprint (log2 mean bytes/op)
	fpB    int // locked workload fingerprint (log2 mean frags/op)
	drift  int // consecutive drifted epochs while locked
	dwell  int // cooldown epochs left before drift checks resume
}

// close feeds one epoch's measurements into the state machine and returns
// the candidate to run next plus whether that is a change. Epochs with no
// ops on the tuner's path freeze it entirely.
func (t *tuner) close(ops, lat int64, fpA, fpB int, confirm, dwell int) (int, bool) {
	if ops == 0 {
		return t.cand, false
	}
	score := lat / ops // mean ns per op; closed-loop throughput is its inverse
	switch t.state {
	case stProbe:
		t.scores[t.cand] = score
		t.scored[t.cand] = true
		for i := 0; i < t.n; i++ {
			if !t.scored[i] {
				changed := i != t.cand
				t.cand = i
				return i, changed
			}
		}
		// Every candidate has a fresh score: lock the cheapest (first wins
		// ties, keeping the probe order the deterministic tie-break).
		best := 0
		for i := 1; i < t.n; i++ {
			if t.scores[i] < t.scores[best] {
				best = i
			}
		}
		changed := best != t.cand
		t.cand = best
		t.state = stLocked
		t.fpA, t.fpB = fpA, fpB
		t.drift = 0
		t.dwell = dwell
		return best, changed
	default: // stLocked
		if t.dwell > 0 {
			t.dwell--
			return t.cand, false
		}
		if fpA != t.fpA || fpB != t.fpB {
			t.drift++
		} else {
			t.drift = 0
		}
		if t.drift >= confirm {
			t.state = stProbe
			for i := range t.scored {
				t.scored[i] = false
			}
			t.drift = 0
			changed := t.cand != 0
			t.cand = 0
			return 0, changed
		}
		return t.cand, false
	}
}

// Controller is the per-QP adaptive controller. It is driven from the
// runtime's op path (advance/noteBatch/noteSmall) and, passively, from the
// verbs post hook (ObservePost). It allocates only at construction.
type Controller struct {
	params  Params
	qp      *verbs.QP
	batcher *core.Batcher
	cons    *core.Consolidator

	strategies [3]core.Strategy // batch-tuner candidate order

	started  bool
	warmed   bool // first closed epoch is discarded (QP cold-start costs)
	epochEnd sim.Time
	epochIdx int64

	// Per-epoch tallies, reset at every epoch close.
	batchOps, batchFrags, batchBytes, batchLat int64
	smallOps, smallBytes, smallLat             int64
	smallSwitch                                int64 // block-to-block transitions
	posts, postWRs, postBytes                  int64

	smallLastBlk int // last small-write block (locality tracking)
	collapseRun  int // consecutive epochs with a collapsed absorb ratio

	// Baselines for delta readings at epoch close.
	lastWrites, lastFlushes         int64
	lastTheta, lastLease, lastEvict int64
	lastBad                         uint64

	batch tuner
	small tuner

	depth      int // live doorbell list depth
	depthClean int // consecutive trouble-free epochs since the last halving

	theta int // live consolidation threshold

	needDrain bool // cons->direct switch: flush pending blocks at next op

	recs    []Record
	dropped int
}

// NewController builds a controller bound to a QP (reliability deltas), a
// batcher (strategy/depth knobs) and a consolidator (θ knob). Any of the
// three may be nil; the corresponding knob is then decided but not applied.
// Unless params.Shadow is set, construction applies the initial probe
// candidate so the first epoch measures it.
func NewController(params Params, qp *verbs.QP, b *core.Batcher, cons *core.Consolidator) *Controller {
	if params.Epoch <= 0 {
		params.Epoch = DefaultEpoch
	}
	if params.Confirm <= 0 {
		params.Confirm = DefaultConfirm
	}
	if params.Dwell <= 0 {
		params.Dwell = DefaultDwell
	}
	if params.MaxDepth <= 0 {
		params.MaxDepth = DefaultMaxDepth
	}
	c := &Controller{
		params:       params,
		qp:           qp,
		batcher:      b,
		cons:         cons,
		depth:        params.MaxDepth,
		theta:        16,
		smallLastBlk: -1,
		recs:         make([]Record, 0, maxRecords),
	}
	// SP joins the candidate set only when the batcher can stage gathers.
	c.strategies = [3]core.Strategy{core.SP, core.Doorbell, core.SGL}
	c.batch.n = 3
	if b != nil {
		was := b.Strategy()
		if b.SetStrategy(core.SP) != nil {
			c.strategies = [3]core.Strategy{core.Doorbell, core.SGL, core.SGL}
			c.batch.n = 2
		}
		b.SetStrategy(was)
	}
	if cons != nil {
		c.theta = cons.Theta()
	}
	c.small.n = 2 // direct, consolidate
	if !params.Shadow {
		c.applyStrategy(c.strategies[0])
		c.applyDepth(c.depth)
	}
	return c
}

// Params returns the resolved (defaults filled in) parameters.
func (c *Controller) Params() Params { return c.params }

// Records returns the decision log: one entry per epoch that changed any
// knob. The slice aliases the controller's preallocated buffer.
func (c *Controller) Records() []Record { return c.recs }

// DroppedRecords reports decision changes beyond the log's fixed capacity.
func (c *Controller) DroppedRecords() int { return c.dropped }

// Decision returns the current knob tuple.
func (c *Controller) Decision() Record {
	return Record{
		Epoch: c.epochIdx,
		Batch: c.strategies[c.batch.cand],
		Depth: c.depth,
		Cons:  c.usingCons(),
		Theta: c.theta,
	}
}

// usingCons reports whether the small-write tuner currently routes writes
// through the consolidator.
func (c *Controller) usingCons() bool { return c.small.cand == candCons }

// ObservePost implements verbs.PostObserver: the per-doorbell-list occupancy
// feed from the op pipeline. Strictly passive — it records and returns.
func (c *Controller) ObservePost(post sim.Time, wrs, bytes int, done sim.Time) {
	c.posts++
	c.postWRs += int64(wrs)
	c.postBytes += int64(bytes)
}

// noteBatch records one completed WriteBatch.
func (c *Controller) noteBatch(post sim.Time, frags, bytes int, done sim.Time) {
	c.batchOps++
	c.batchFrags += int64(frags)
	c.batchBytes += int64(bytes)
	c.batchLat += int64(done - post)
}

// noteSmall records one completed small write and its target block (the
// locality half of the small-path fingerprint).
func (c *Controller) noteSmall(post sim.Time, blk, bytes int, done sim.Time) {
	c.smallOps++
	c.smallBytes += int64(bytes)
	c.smallLat += int64(done - post)
	if blk != c.smallLastBlk {
		c.smallSwitch++
		c.smallLastBlk = blk
	}
}

// advance moves the controller to virtual time now, closing every epoch
// boundary crossed since the last op, and returns the (possibly later) time
// the caller's op may start: switching the small path off the consolidator
// drains pending blocks, and that flush burns real virtual time.
func (c *Controller) advance(now sim.Time) sim.Time {
	if !c.started {
		c.started = true
		c.epochEnd = now + c.params.Epoch
		c.refreshBaselines()
		return now
	}
	for now >= c.epochEnd {
		c.closeEpoch(c.epochEnd)
		c.epochEnd += c.params.Epoch
		c.epochIdx++
	}
	if c.needDrain {
		c.needDrain = false
		if done, err := c.cons.Flush(now); err == nil && done > now {
			now = done
		}
	}
	return now
}

// closeEpoch runs every tuner against the closing epoch's tallies and resets
// them. Knob applications are keyed off the tuners' change flags, so each
// knob moves at most once per epoch.
func (c *Controller) closeEpoch(at sim.Time) {
	// The first epoch absorbs one-time cold-start costs (first-touch stage
	// latencies on a fresh QP) that would contaminate whichever candidate
	// happens to be probed first. Discard it: refresh baselines, score
	// nothing.
	if !c.warmed {
		c.warmed = true
		c.refreshBaselines()
		c.resetTallies()
		return
	}
	changed := false

	// Batch strategy: fingerprint is the shape of the batches themselves.
	var bFpA, bFpB int
	if c.batchOps > 0 {
		bFpA = lg(c.batchBytes / c.batchOps)
		bFpB = lg(c.batchFrags / c.batchOps)
	}
	if act, ch := c.batch.close(c.batchOps, c.batchLat, bFpA, bFpB,
		c.params.Confirm, c.params.Dwell); ch {
		changed = true
		c.applyStrategy(c.strategies[act])
	}

	// Small-write path. The fingerprint pairs write size with block
	// locality (transitions per op), so a hot set collapsing into scatter —
	// or re-condensing — reads as drift even at a constant write size.
	var sFpA, sFpB int
	if c.smallOps > 0 {
		sFpA = lg(c.smallBytes / c.smallOps)
		sFpB = lg(1 + 16*c.smallSwitch/c.smallOps)
	}
	// Absorb-ratio watchdog: fewer than 2 absorbed writes per flush while
	// the consolidator is switched in means it has stopped consolidating.
	// Probing cannot rediscover this — the drain that precedes a probe hands
	// the consolidator a freshly emptied shadow, so its probe epoch scores a
	// free-slot honeymoon, wins, and the thrash restarts. After Confirm
	// collapsed epochs, demote to the native path outright.
	if c.cons != nil && c.small.state == stLocked && c.small.cand == candCons && c.smallOps > 0 {
		w, f := c.cons.Stats()
		dw, df := w-c.lastWrites, f-c.lastFlushes
		if dw > 0 && df*2 > dw {
			c.collapseRun++
		} else {
			c.collapseRun = 0
		}
	} else {
		c.collapseRun = 0
	}
	if c.collapseRun >= c.params.Confirm {
		c.collapseRun = 0
		c.small.state = stLocked
		c.small.cand = candDirect
		c.small.fpA, c.small.fpB = sFpA, sFpB
		c.small.drift = 0
		c.small.dwell = c.params.Dwell
		changed = true
		c.applyCons(false)
	} else if act, ch := c.small.close(c.smallOps, c.smallLat, sFpA, sFpB,
		c.params.Confirm, c.params.Dwell); ch {
		changed = true
		c.applyCons(act == candCons)
	}

	// Give the consolidator its lease tick at the epoch boundary before
	// reading the flush breakdown: the lease flushes this tick performs are
	// exactly the signal the θ tuner below thresholds on, and folding them
	// straight into the baselines would hide them forever.
	if c.cons != nil && c.usingCons() && c.cons.Lease() > 0 && !c.params.Shadow {
		_, _ = c.cons.Tick(at)
	}

	// θ: lease/evict flushes outnumbering θ-triggered ones mean blocks drain
	// before they fill — halve θ. All-θ flushing with no forced drains means
	// θ is earning its keep — grow it back toward Figure 8's sweet spot.
	if c.cons != nil && c.usingCons() && c.smallOps > 0 {
		th, le, ev, _ := c.cons.FlushBreakdown()
		dth, dle, dev := th-c.lastTheta, le-c.lastLease, ev-c.lastEvict
		newTheta := c.theta
		if dle+dev > dth {
			newTheta = c.theta / 2
			if newTheta < 2 {
				newTheta = 2
			}
		} else if dth > 0 && dle+dev == 0 && c.theta < 16 {
			newTheta = c.theta * 2
		}
		if newTheta != c.theta {
			c.theta = newTheta
			changed = true
			if !c.params.Shadow {
				_ = c.cons.Retune(at, newTheta, c.cons.Lease())
			}
		}
	}

	// Doorbell depth: reliability trouble (RNR NAKs, retransmits, timeouts)
	// during an epoch that actually posted halves the list depth; Confirm
	// consecutive calm epochs double it back toward the ceiling.
	if c.qp != nil && c.posts > 0 {
		bad := badEvents(c.qp.Stats())
		delta := bad - c.lastBad
		c.lastBad = bad
		newDepth := c.depth
		if delta > 0 {
			newDepth = c.depth / 2
			if newDepth < 1 {
				newDepth = 1
			}
			c.depthClean = 0
		} else if c.depth < c.params.MaxDepth {
			c.depthClean++
			if c.depthClean >= c.params.Confirm {
				c.depthClean = 0
				newDepth = c.depth * 2
				if newDepth > c.params.MaxDepth {
					newDepth = c.params.MaxDepth
				}
			}
		}
		if newDepth != c.depth {
			c.depth = newDepth
			changed = true
			c.applyDepth(newDepth)
		}
	}

	if changed {
		c.record(at)
	}

	c.refreshBaselines()
	c.resetTallies()
}

// refreshBaselines re-reads every cumulative counter the epoch close takes
// deltas against.
func (c *Controller) refreshBaselines() {
	if c.qp != nil {
		c.lastBad = badEvents(c.qp.Stats())
	}
	if c.cons != nil {
		c.lastWrites, c.lastFlushes = c.cons.Stats()
		c.lastTheta, c.lastLease, c.lastEvict, _ = c.cons.FlushBreakdown()
	}
}

// resetTallies clears the per-epoch accumulators.
func (c *Controller) resetTallies() {
	c.batchOps, c.batchFrags, c.batchBytes, c.batchLat = 0, 0, 0, 0
	c.smallOps, c.smallBytes, c.smallLat, c.smallSwitch = 0, 0, 0, 0
	c.posts, c.postWRs, c.postBytes = 0, 0, 0
}

// applyStrategy retargets the live batcher (no-op in shadow mode).
func (c *Controller) applyStrategy(s core.Strategy) {
	if c.params.Shadow || c.batcher == nil {
		return
	}
	_ = c.batcher.SetStrategy(s)
}

// applyDepth retunes the live doorbell depth (no-op in shadow mode).
func (c *Controller) applyDepth(depth int) {
	if c.params.Shadow || c.batcher == nil {
		return
	}
	_ = c.batcher.SetDoorbellDepth(depth)
}

// applyCons switches the small-write path. Leaving the consolidator marks
// its pending blocks for a drain at the next op (advance charges the flush).
func (c *Controller) applyCons(on bool) {
	if c.params.Shadow || c.cons == nil {
		return
	}
	if !on {
		c.needDrain = true
	}
}

// record appends the current knob tuple to the bounded decision log.
func (c *Controller) record(at sim.Time) {
	if len(c.recs) == cap(c.recs) {
		c.dropped++
		return
	}
	r := c.Decision()
	r.At = at
	c.recs = append(c.recs, r)
}

// badEvents folds a QPStats snapshot into the single reliability-trouble
// tally the depth tuner thresholds on.
func badEvents(s verbs.QPStats) uint64 {
	return s.Retransmits + s.AckTimeouts + s.NaksReceived + s.RNRNaks
}

// lg is the log2 bucket of a non-negative value (bits.Len), the fingerprint
// quantization that makes drift detection robust to small fluctuations.
func lg(v int64) int {
	if v < 0 {
		v = 0
	}
	return bits.Len64(uint64(v))
}
