// Connection recovery at the proxy layer: instead of folding every logical
// connection of a dead pooled QP to StatusFlushed forever, the table walks
// the dead QP back to READY on the clamped exponential back-off (the same
// sim.DefaultBackoff curve the spinlocks use), can remap its connections
// onto surviving pool members meanwhile, and replays the failed WR it still
// holds from the failing Post. Remapped connections come home lazily once
// the reconnect lands, so the static conn→QP pinning — and its blast-radius
// guarantee — is restored after every episode.
package proxy

import (
	"rdmasem/internal/sim"
	"rdmasem/internal/telemetry"
	"rdmasem/internal/verbs"
)

// MaxReconnectAttempts is the reconnect budget of one recovery episode:
// about one clamped-backoff half-life of sim.DefaultBackoff.
const MaxReconnectAttempts = 8

// RecoveryStats tallies the table's recovery activity.
type RecoveryStats struct {
	Episodes   uint64 // pooled-QP failures the table reacted to
	Reconnects uint64 // reconnect walks that restored a QP
	GiveUps    uint64 // episodes whose reconnect budget exhausted
	Remaps     uint64 // logical connections moved to a survivor
}

// poolRecState is the table's per-pool-member recovery bookkeeping.
type poolRecState struct {
	reconnected bool     // the last episode's reconnect walk landed
	backAt      sim.Time // when it landed: displaced conns re-pin from here on
	retryAt     sim.Time // a failed walk exhausted here: no new walk before this
}

// EnableRecovery arms the table's reaction to a pooled QP entering the
// error state: Post runs a recovery episode instead of surfacing
// ErrQPError. Every episode walks the dead QP back to READY; with remap, its
// connections also move onto surviving pool members while the walk runs.
// The TTR histogram registers under component "proxy/recovery" when the
// local machine has telemetry attached.
func (t *Table) EnableRecovery(remap bool) {
	t.recovering, t.remap = true, remap
	t.recQP = make([]poolRecState, len(t.pool))
	// The table's own histogram is always private: RecoveryTTR() must report
	// this table's episodes only. A telemetry registry, if attached, gets a
	// mirrored stream — registry histograms intern by machine label and so
	// aggregate across every cluster an experiment builds, which is exactly
	// right for -metrics summaries and exactly wrong for per-table stats.
	t.ttr = new(telemetry.Histogram)
	local, _ := t.Machines()
	if reg := local.Telemetry(); reg != nil {
		t.ttrReg = reg.Hist(local.Label(), "proxy/recovery", "ttr")
	}
}

// RecoveryStats returns the recovery tallies (zero value when disabled).
// Reconnects is the pool QPs' own tally, summed: only the table reconnects
// its pool members.
func (t *Table) RecoveryStats() RecoveryStats {
	st := t.recStats
	if !t.recovering {
		return st
	}
	for _, qp := range t.pool {
		st.Reconnects += qp.Stats().Reconnects
	}
	return st
}

// RecoveryTTR returns the time-to-recovery histogram: for every WR that
// failed and was successfully replayed, the virtual time from the failure
// surfacing to its recovered completion. Nil until EnableRecovery.
func (t *Table) RecoveryTTR() *telemetry.Histogram { return t.ttr }

// connQP resolves the pool member a connection posts on at the given time,
// lazily re-pinning a displaced connection to its home member once the
// home's reconnect walk has landed.
func (t *Table) connQP(now sim.Time, conn int) int {
	cur := t.conns[conn]
	if !t.recovering {
		return cur
	}
	home := conn % len(t.pool)
	if cur != home {
		st := &t.recQP[home]
		if st.reconnected && now >= st.backAt && t.pool[home].State() == verbs.StateReady {
			t.conns[conn] = home
			return home
		}
	}
	return cur
}

// survivors returns the READY pool members other than qi, in pool order.
func (t *Table) survivors(qi int) []int {
	var out []int
	for i, qp := range t.pool {
		if i != qi && qp.State() == verbs.StateReady {
			out = append(out, i)
		}
	}
	return out
}

// recover runs one recovery episode for dead pool member qi. wr is the
// work request conn's failing post still holds, and failed is its
// error-status completion, whose Done is when the failure surfaced.
//
// With remap, the member's connections spread across the survivors
// immediately and the WR replays there; the reconnect walk then only gates
// when the connections come home. Without remap the WR waits for the
// reconnect itself. Either way the WR completes exactly once: with its
// replayed completion on success, or with an authoritative error status
// when recovery gave up (reconnect budget exhausted with no survivor, or
// the replay failing again).
func (t *Table) recover(qi, conn int, wr *verbs.SendWR, failed verbs.Completion) (verbs.Completion, error) {
	fail := failed.Done
	applied := t.pool[qi].FailedApplied()
	t.recStats.Episodes++
	t.recQP[qi].reconnected = false

	if t.remap {
		if surv := t.survivors(qi); len(surv) > 0 {
			k := 0
			for c := range t.conns {
				if t.conns[c] == qi {
					t.conns[c] = surv[k%len(surv)]
					k++
					t.recStats.Remaps++
				}
			}
		}
	}

	// Reconnect walk on the clamped back-off. With remap in effect the
	// displaced connections are already flowing on the survivors; the walk
	// runs "in the background" on the machines' CM resources and only
	// decides when they come home. A member whose previous walk exhausted
	// its budget is in cooldown until that walk's horizon: new episodes for
	// it give up immediately instead of stampeding the connection managers
	// (a peer that is down for a long window would otherwise queue one full
	// walk per failed post on the CM resources).
	up, reconnected := fail, false
	if fail >= t.recQP[qi].retryAt {
		backoff := sim.DefaultBackoff()
		delay := backoff.Base
		for a := 0; a < MaxReconnectAttempts; a++ {
			at, err := t.pool[qi].Reconnect(up)
			if err == nil {
				up, reconnected = at, true
				break
			}
			up = at + delay
			delay = backoff.Next(delay)
		}
		if reconnected {
			t.recQP[qi].reconnected = true
			t.recQP[qi].backAt = up
		} else {
			t.recStats.GiveUps++
			t.recQP[qi].retryAt = up
		}
	} else {
		t.recStats.GiveUps++
	}

	// Replay the WR on its connection's current QP: a survivor when
	// remapped, the reconnected member otherwise.
	target, at := t.conns[conn], fail
	if target == qi {
		if !reconnected {
			// Nowhere to replay: return the original failure.
			return failed, verbs.ErrQPError
		}
		at = up
	}
	comp, err := t.pool[target].PostReplay(at, wr, applied, failed.OldValue)
	if err != nil {
		// The replay failed too (the survivor died under us, or the
		// reconnected member broke again): the WR completes now, with the
		// replay's authoritative error status, and the target's next post
		// will open its own episode.
		return comp, err
	}
	t.ttr.Observe(comp.Done - fail)
	if t.ttrReg != nil {
		t.ttrReg.Observe(comp.Done - fail)
	}
	return comp, nil
}
