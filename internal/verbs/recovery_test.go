package verbs

import (
	"errors"
	"testing"

	"rdmasem/internal/fabric"
	"rdmasem/internal/sim"
)

func fetchAddWR(e *pairEnv, id uint64) *SendWR {
	return &SendWR{
		ID:         id,
		Opcode:     OpFetchAdd,
		SGL:        []SGE{{Addr: e.mrA.Addr(), Length: 8, MR: e.mrA}},
		RemoteAddr: e.mrB.Addr() + 1<<19,
		RemoteKey:  e.mrB.RKey(),
		CompareAdd: 1,
	}
}

// TestReconnectRestoresQP: after ForceError, Reconnect cycles the pair back
// to READY with fresh PSNs, charges the connection managers, and the QP
// carries traffic again.
func TestReconnectRestoresQP(t *testing.T) {
	e := newLossyPair(t, quietPlan())
	fillPattern(e.mrA.Region().Bytes()[:64], 3)
	if _, err := e.qpA.PostSend(0, writeWR(e, 64)); err != nil {
		t.Fatal(err)
	}
	if e.qpA.Stats().SendPSN == 0 {
		t.Fatal("probe did not advance the PSN window")
	}
	e.qpA.ForceError()
	if _, err := e.qpA.PostSend(0, writeWR(e, 64)); !errors.Is(err, ErrQPError) {
		t.Fatalf("error-state post returned %v", err)
	}
	up, err := e.qpA.Reconnect(sim.Microsecond)
	if err != nil {
		t.Fatal(err)
	}
	if up < sim.Microsecond+6*ModifyQPCost {
		t.Fatalf("reconnect at %v did not charge the two CM walks", up)
	}
	if e.qpA.State() != StateReady || e.qpB.State() != StateReady {
		t.Fatalf("states after reconnect: %v / %v", e.qpA.State(), e.qpB.State())
	}
	st := e.qpA.Stats()
	if st.Reconnects != 1 || st.SendPSN != 0 {
		t.Fatalf("reconnect stats %+v", st)
	}
	if got := e.cl.Machine(0).NIC().Counters().Rel.Reconnects; got != 1 {
		t.Fatalf("NIC reconnect counter %d", got)
	}
	comp, err := e.qpA.PostSend(up, writeWR(e, 64))
	if err != nil || comp.Status != StatusOK {
		t.Fatalf("post after reconnect: %v status %v", err, comp.Status)
	}
}

// TestCrashWindowFlushesAndReconnects: a machine inside a crash window
// breaks its QPs at the next post; Reconnect fails while the host is still
// down and succeeds after the restart.
func TestCrashWindowFlushesAndReconnects(t *testing.T) {
	plan := &fabric.FaultPlan{Seed: 1, Crashes: []fabric.CrashEvent{
		{Machine: 0, At: 10 * sim.Microsecond, Down: 40 * sim.Microsecond},
	}}
	e := newLossyPair(t, plan)
	if comp, err := e.qpA.PostSend(0, writeWR(e, 64)); err != nil || comp.Status != StatusOK {
		t.Fatalf("pre-crash post: %v status %v", err, comp.Status)
	}
	comp, err := e.qpA.PostSend(20*sim.Microsecond, writeWR(e, 64))
	if !errors.Is(err, ErrQPError) || comp.Status != StatusFlushed {
		t.Fatalf("post on crashed machine: %v status %v", err, comp.Status)
	}
	if _, err := e.qpA.Reconnect(25 * sim.Microsecond); !errors.Is(err, ErrQPError) {
		t.Fatalf("reconnect during the crash window returned %v", err)
	}
	if e.qpA.Stats().ReconnectFailures != 1 {
		t.Fatalf("stats %+v", e.qpA.Stats())
	}
	up, err := e.qpA.Reconnect(60 * sim.Microsecond)
	if err != nil {
		t.Fatal(err)
	}
	if comp, err := e.qpA.PostSend(up, writeWR(e, 64)); err != nil || comp.Status != StatusOK {
		t.Fatalf("post after restart: %v status %v", err, comp.Status)
	}
}

// TestReplayExactlyOnceUnapplied: WRs that died without reaching the
// responder (crashed peer) replay after the reconnect with their memory
// effects happening exactly once and their WR IDs preserved.
func TestReplayExactlyOnceUnapplied(t *testing.T) {
	plan := &fabric.FaultPlan{Seed: 1, Crashes: []fabric.CrashEvent{
		{Machine: 1, At: 0, Down: 50 * sim.Microsecond},
	}}
	e := newLossyPair(t, plan)
	e.qpA.SetReplayLog(true)
	e.qpA.SetRetryPolicy(RetryPolicy{RetryCount: 1, RNRRetryCount: 1, AckTimeout: 2 * sim.Microsecond, RNRTimer: 2 * sim.Microsecond})

	// Two fetch-adds: the first burns its retry budget against the crashed
	// responder, the second flushes behind it.
	comp, err := e.qpA.PostSend(0, fetchAddWR(e, 101))
	if !errors.Is(err, ErrQPError) || comp.Status != StatusRetryExceeded {
		t.Fatalf("first WR: %v status %v", err, comp.Status)
	}
	comp, err = e.qpA.PostSend(comp.Done, fetchAddWR(e, 102))
	if !errors.Is(err, ErrQPError) || comp.Status != StatusFlushed {
		t.Fatalf("second WR: %v status %v", err, comp.Status)
	}
	if n := e.qpA.ReplayLogLen(); n != 2 {
		t.Fatalf("replay log holds %d WRs, want 2", n)
	}
	ctr := e.mrB.Region().Bytes()[1<<19 : 1<<19+8]
	if ctr[0] != 0 {
		t.Fatal("counter touched before any replay")
	}

	up, err := e.qpA.Reconnect(60 * sim.Microsecond)
	if err != nil {
		t.Fatal(err)
	}
	entries := e.qpA.TakeReplayLog()
	if len(entries) != 2 || e.qpA.ReplayLogLen() != 0 {
		t.Fatalf("took %d replay entries, %d left in the log", len(entries), e.qpA.ReplayLogLen())
	}
	var comps []Completion
	at := up
	for i := range entries {
		if entries[i].Applied {
			t.Fatalf("entry %d marked applied against a crashed responder", i)
		}
		c, err := e.qpA.PostReplay(at, &entries[i].WR, entries[i].Applied)
		if err != nil {
			t.Fatal(err)
		}
		comps = append(comps, c)
		at = c.Done
	}
	for i, c := range comps {
		if c.Status != StatusOK {
			t.Fatalf("replay %d status %v", i, c.Status)
		}
		if c.WRID != uint64(101+i) {
			t.Fatalf("replay %d carries WR ID %d: tags not preserved", i, c.WRID)
		}
	}
	// Exactly-once: two adds of one, counter is exactly 2, olds 0 then 1.
	if ctr[0] != 2 {
		t.Fatalf("counter %d after replay, want 2", ctr[0])
	}
	if comps[0].OldValue != 0 || comps[1].OldValue != 1 {
		t.Fatalf("replayed old values %d, %d", comps[0].OldValue, comps[1].OldValue)
	}
	st := e.qpA.Stats()
	if st.Replayed != 2 || e.qpA.ReplayLogLen() != 0 {
		t.Fatalf("replay accounting %+v, log %d", st, e.qpA.ReplayLogLen())
	}
	if got := e.qpA.TakeReplayLog(); got != nil {
		t.Fatalf("drained log handed out %d more entries", len(got))
	}
}

// TestReplayAppliedIsDuplicate: a replayed WR whose effects already landed
// before the connection died takes the responder's duplicate path — the
// acknowledgement regenerates, memory is not touched again. (White-box: the
// applied flag is seeded directly; the integrated path that sets it — ACKs
// lost until the budget exhausts — is exercised statistically by the
// cross-layer determinism workload.)
func TestReplayAppliedIsDuplicate(t *testing.T) {
	e := newLossyPair(t, quietPlan())
	comp, err := e.qpA.PostSend(0, fetchAddWR(e, 1))
	if err != nil || comp.OldValue != 0 {
		t.Fatalf("probe: %v old %d", err, comp.OldValue)
	}
	ctr := e.mrB.Region().Bytes()[1<<19 : 1<<19+8]
	if ctr[0] != 1 {
		t.Fatalf("counter %d after probe", ctr[0])
	}
	e.qpA.replayApplied = true
	comp, err = e.qpA.PostSend(comp.Done, fetchAddWR(e, 2))
	if err != nil || comp.Status != StatusOK {
		t.Fatalf("duplicate replay: %v status %v", err, comp.Status)
	}
	if ctr[0] != 1 {
		t.Fatalf("duplicate replay re-applied the atomic: counter %d", ctr[0])
	}
	if e.qpA.replayApplied {
		t.Fatal("applied seed not consumed")
	}
}
