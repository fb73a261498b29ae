// QP connection recovery: the modeled ibv_modify_qp walk that brings a
// broken connection back. A QP that entered StateError — retry budget
// exhausted, machine crash, or ForceError — is terminal for the reliability
// layer; Reconnect cycles both ends through RESET→INIT→RTR→RTS on their
// machines' connection managers, resynchronizes PSNs and re-arms the retry
// budgets, exactly as a host CM would re-establish an RC connection.
//
// The WRs the broken QP failed (error status or flushed) can be captured in
// an opt-in replay log and reposted after the reconnect. Replay is
// exactly-once with respect to memory effects: each log entry remembers
// whether the responder had already executed the request before the
// connection died (an "applied" failure means only the acknowledgement was
// lost), and a replayed applied WR takes the reliability layer's duplicate
// path — the responder regenerates its response without re-touching memory.
// That is the same PSN-based duplicate suppression that makes retransmitted
// atomics exactly-once, extended across a connection teardown.
package verbs

import (
	"rdmasem/internal/sim"
)

// ModifyQPCost is the modeled cost of one ibv_modify_qp state transition:
// a driver/firmware round trip through the machine's connection manager.
// A full RESET→INIT→RTR→RTS recovery walk is three transitions per side.
const ModifyQPCost = 2 * sim.Microsecond

// replayEntry is one failed WR captured for post-reconnect replay. The WR
// and its SGL are value copies: callers may reuse their SendWR structs
// across posts (proxy.Table does), so the log cannot alias them.
type replayEntry struct {
	wr      SendWR
	sgl     []SGE
	applied bool // responder executed the request before the failure
}

// SetReplayLog enables (or disables) capture of failed WRs for replay.
// Entries accumulate in failure order — error-status completions first,
// then the flushed remainder — which is the order TakeReplayLog returns.
func (s *qpState) SetReplayLog(on bool) { s.logReplay = on }

// ReplayLogLen reports how many failed WRs are waiting for replay.
func (s *qpState) ReplayLogLen() int { return len(s.replayLog) }

// logFailed captures one failed WR into the replay log (no-op unless
// SetReplayLog enabled capture).
func (s *qpState) logFailed(wr *SendWR, applied bool) {
	if !s.logReplay {
		return
	}
	e := replayEntry{wr: *wr, applied: applied}
	e.sgl = append(e.sgl, wr.SGL...)
	e.wr.SGL = nil
	s.replayLog = append(s.replayLog, e)
}

// resync is the state both sides agree on when the connection is
// re-established: READY, fresh PSN windows, retry budgets re-armed (the
// budgets are per-WR locals, so READY is all the re-arming they need).
func (s *qpState) resync() {
	s.state = StateReady
	s.stats.SendPSN = 0
	s.stats.ExpectedPSN = 0
}

// Reconnect cycles the connection back to READY: both machines' connection
// managers execute the RESET→INIT→RTR→RTS walk (three ModifyQPCost
// transitions each, serialized on the per-machine CM resource, so
// simultaneous recoveries on one host queue up), PSNs resynchronize and the
// retry budgets re-arm. It returns the time the QP pair is usable again.
//
// The walk needs both hosts alive: if either end's machine is still inside
// a crash window when the transitions complete, the handshake fails with
// ErrQPError, the QP stays in the error state, and the failure is tallied —
// callers retry on a back-off walk (see proxy.Table).
func (q *QP) Reconnect(now sim.Time) (sim.Time, error) {
	if q.peer == nil {
		return now, ErrNotConnected
	}
	local, remote := q.ctx.machine, q.peer.ctx.machine
	t := local.CM().Delay(now, 3*ModifyQPCost)
	t = remote.CM().Delay(t, 3*ModifyQPCost)
	if local.CrashedAt(t) || remote.CrashedAt(t) {
		q.stats.ReconnectFailures++
		return t, ErrQPError
	}
	q.resync()
	q.peer.resync()
	q.stats.Reconnects++
	return t, nil
}

// ReplayWR is one captured failed WR handed out for external replay (the
// proxy layer replays a dead pooled QP's WRs on a surviving pool member).
type ReplayWR struct {
	WR      SendWR
	Applied bool // effects landed before the failure: replay as a duplicate
}

// TakeReplayLog drains and returns the captured failed WRs in failure
// order. Each entry's WR is self-contained (its SGL is the log's copy).
// Callers own the recovery decision: repost entries here via PostReplay —
// on this QP after a Reconnect, or on any other QP to the same remote
// machine — or drop them to give up.
func (s *qpState) TakeReplayLog() []ReplayWR {
	if len(s.replayLog) == 0 {
		return nil
	}
	out := make([]ReplayWR, len(s.replayLog))
	for i := range s.replayLog {
		e := &s.replayLog[i]
		out[i] = ReplayWR{WR: e.wr, Applied: e.applied}
		out[i].WR.SGL = e.sgl
	}
	s.replayLog = nil
	return out
}

// PostReplay reposts one captured failed WR, seeding the reliability layer
// with its applied flag: a WR whose effects already landed is recovered as
// a duplicate (acknowledged, never re-executed — see executeReliable). The
// target may be any QP connected to the same remote machine; PSN duplicate
// suppression is a property of the responder's memory, not of the broken
// connection.
func (q *QP) PostReplay(now sim.Time, wr *SendWR, applied bool) (Completion, error) {
	q.replayApplied = applied
	comp, err := q.PostSend(now, wr)
	q.replayApplied = false
	q.stats.Replayed++
	return comp, err
}
