// Package adaptive applies the paper's Table I guidance online: a per-QP
// Runtime that retunes the paper's optimizations — batching strategy,
// native vs consolidated small writes, doorbell list depth — from measured
// behavior instead of a hand-written workload description (RDMAbox's
// adaptive IO merging is the model).
//
// The runtime divides virtual time into fixed epochs. Every operation first
// advances the runtime to the current epoch; an epoch that closes feeds its
// tallies (op latencies, payload/fragment shapes, consolidator flush counts,
// reliability-event deltas) into two probe-and-lock tuners:
//
//   - the batch tuner scores SP, Doorbell and SGL one epoch each and locks
//     the strategy with the lowest measured mean latency;
//   - the small-write tuner scores the native one-write-per-request path
//     against the consolidator the same way.
//
// A locked tuner watches a workload fingerprint — log2 of mean payload
// bytes per op, plus fragments per op on the batch path and a
// block-locality term (log2 of the scaled block-switch rate) on the
// small-write path; only after DefaultConfirm consecutive drifted epochs
// does it re-probe, and never during the DefaultDwell cooldown that follows
// a lock. Decisions therefore change at most once per epoch per knob, which
// is the hysteresis contract the tests pin.
//
// Everything is a pure function of the virtual-time operation sequence: no
// wall clock, no randomness, no goroutines. Two runs that see the same ops
// at the same virtual times make identical decisions.
package adaptive

import (
	"math/bits"

	"rdmasem/internal/core"
	"rdmasem/internal/rnic"
	"rdmasem/internal/sim"
)

// Params tunes the adaptive runtime.
type Params struct {
	Epoch  sim.Duration // decision interval in virtual time (positive)
	Shadow bool         // observe and decide but never retune (passive mode)
}

// The runtime's fixed hysteresis: consecutive drifted epochs before
// re-probing, cooldown epochs after a switch before re-probing, and the
// doorbell list depth ceiling.
const (
	DefaultConfirm  = 2
	DefaultDwell    = 2
	DefaultMaxDepth = 16
)

// maxRecords bounds the decision log so the hot path never grows it; changes
// beyond the cap are counted, not stored.
const maxRecords = 256

// Record is one decision change: the epoch it was made in, the virtual time
// of the epoch boundary, and the complete knob tuple after the change. In
// shadow mode records log what the runtime would have applied.
type Record struct {
	Epoch int64
	At    sim.Time
	Batch core.Strategy
	Depth int
	Cons  bool
}

// Tuner states: probing scores each candidate for one epoch; locked runs the
// winner until the workload fingerprint drifts.
const (
	stProbe = iota
	stLocked
)

// Small-write path candidates. The batch tuner's candidates are the
// strategies themselves, in core.Strategy order: SP, Doorbell, SGL.
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
func (t *tuner) close(ops, lat int64, fpA, fpB int) (int, bool) {
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
		t.dwell = DefaultDwell
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
		if t.drift >= DefaultConfirm {
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

// badEvents folds a QP's reliability tally into the single
// reliability-trouble count the depth tuner thresholds on.
func badEvents(s rnic.RelCounters) uint64 {
	return s.Retransmits + s.AckTimeouts + s.NaksReceived
}

// lg is the log2 bucket of a non-negative value (bits.Len), the fingerprint
// quantization that makes drift detection robust to small fluctuations.
func lg(v int64) int { return bits.Len64(uint64(v)) }
