// QP connection recovery: the modeled ibv_modify_qp walk that brings a
// broken connection back. A QP that entered StateError — retry budget
// exhausted, machine crash, or ForceError — is terminal for the reliability
// layer; Reconnect cycles both ends through RESET→INIT→RTR→RTS on their
// machines' connection managers and re-arms the retry budgets, as a host CM
// would re-establish an RC connection.
//
// A WR the broken QP failed can be reposted after the reconnect, by whoever
// still holds it (proxy.Table does). Replay is exactly-once with respect to
// memory effects: the QP remembers whether the responder had already
// executed the last WR that failed before the connection died (an "applied"
// failure means only the acknowledgement or response was lost), and a
// replayed applied WR takes the reliability layer's duplicate path — the
// responder regenerates its response, with the atomic's original old value,
// without re-touching memory. That is the same duplicate suppression that
// makes retransmitted atomics exactly-once, extended across a connection
// teardown.
package verbs

import (
	"rdmasem/internal/sim"
)

// ModifyQPCost is the modeled cost of one ibv_modify_qp state transition:
// a driver/firmware round trip through the machine's connection manager.
// A full RESET→INIT→RTR→RTS recovery walk is three transitions per side.
const ModifyQPCost = 2 * sim.Microsecond

// FailedApplied reports whether the last WR to fail on this QP had executed
// at the responder: true when an error-status completion lost only its
// acknowledgement or response, so its effects landed (and an atomic's old
// value is the completion's OldValue). A flushed WR never reached the
// responder, unless it was itself the replay of an applied failure.
func (q *QP) FailedApplied() bool { return q.rel != nil && q.rel.failedApplied }

// Reconnect cycles the connection back to READY: both machines' connection
// managers execute the RESET→INIT→RTR→RTS walk (three ModifyQPCost
// transitions each, serialized on the per-machine CM resource, so
// simultaneous recoveries on one host queue up) and both ends return to
// READY, which is all the re-arming the retry budgets need (they are per-WR
// locals). It returns the time the QP pair is usable again.
//
// The walk needs both hosts alive: if either end's machine is still inside
// a crash window when the transitions complete, the handshake fails with
// ErrQPError and the QP stays in the error state — callers retry on a
// back-off walk (see proxy.Table).
func (q *QP) Reconnect(now sim.Time) (sim.Time, error) {
	if q.peer == nil {
		return now, ErrNotConnected
	}
	local, remote := q.route.machine, q.peer.route.machine
	t := local.CM().Delay(now, 3*ModifyQPCost)
	t = remote.CM().Delay(t, 3*ModifyQPCost)
	if local.CrashedAt(t) || remote.CrashedAt(t) {
		return t, ErrQPError
	}
	q.state = StateReady
	q.peer.state = StateReady
	q.reliability().stats.Reconnects++
	return t, nil
}

// PostReplay reposts one failed WR, seeding the reliability layer with the
// failure's applied flag (FailedApplied) and the old value its error
// completion carried: a WR whose effects already landed is recovered as a
// duplicate (acknowledged with that old value, never re-executed — see
// executeReliable). The target may be any QP connected to the same remote
// machine; duplicate suppression is a property of the responder's memory,
// not of the broken connection.
func (q *QP) PostReplay(now sim.Time, wr *SendWR, applied bool, old uint64) (Completion, error) {
	rel := q.reliability()
	rel.replay = replaySeed{applied: applied, old: old}
	comp, err := q.PostSend(now, wr)
	rel.replay = replaySeed{}
	return comp, err
}
