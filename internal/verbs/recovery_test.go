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
// to READY, charges the connection managers, and the QP carries traffic
// again.
func TestReconnectRestoresQP(t *testing.T) {
	e := newLossyPair(t, quietPlan())
	fillPattern(e.mrA.Region().Bytes()[:64], 3)
	if _, err := e.qpA.PostSend(0, writeWR(e, 64)); err != nil {
		t.Fatal(err)
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
	if st.Reconnects != 1 {
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
	if e.qpA.State() != StateError || e.qpA.Stats().Reconnects != 0 {
		t.Fatalf("failed reconnect left state %v, stats %+v", e.qpA.State(), e.qpA.Stats())
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
	e.qpA.SetRetryPolicy(RetryPolicy{RetryCount: 1, AckTimeout: 2 * sim.Microsecond})

	// Two fetch-adds: the first burns its retry budget against the crashed
	// responder, the second flushes behind it.
	wrs := []*SendWR{fetchAddWR(e, 101), fetchAddWR(e, 102)}
	comp, err := e.qpA.PostSend(0, wrs[0])
	if !errors.Is(err, ErrQPError) || comp.Status != StatusRetryExceeded {
		t.Fatalf("first WR: %v status %v", err, comp.Status)
	}
	if e.qpA.FailedApplied() {
		t.Fatal("first WR marked applied against a crashed responder")
	}
	comp, err = e.qpA.PostSend(comp.Done, wrs[1])
	if !errors.Is(err, ErrQPError) || comp.Status != StatusFlushed {
		t.Fatalf("second WR: %v status %v", err, comp.Status)
	}
	if e.qpA.FailedApplied() {
		t.Fatal("flushed WR marked applied")
	}
	ctr := e.mrB.Region().Bytes()[1<<19 : 1<<19+8]
	if ctr[0] != 0 {
		t.Fatal("counter touched before any replay")
	}

	up, err := e.qpA.Reconnect(60 * sim.Microsecond)
	if err != nil {
		t.Fatal(err)
	}
	var comps []Completion
	at := up
	for _, wr := range wrs {
		c, err := e.qpA.PostReplay(at, wr, false, 0)
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
			t.Fatalf("replay %d carries WR ID %d: IDs not preserved", i, c.WRID)
		}
	}
	// Exactly-once: two adds of one, counter is exactly 2, olds 0 then 1.
	if ctr[0] != 2 {
		t.Fatalf("counter %d after replay, want 2", ctr[0])
	}
	if comps[0].OldValue != 0 || comps[1].OldValue != 1 {
		t.Fatalf("replayed old values %d, %d", comps[0].OldValue, comps[1].OldValue)
	}
}

// TestReplayAppliedIsDuplicate: a FETCH_ADD whose effects landed before its
// connection died — the requester crashes between the request's arrival at
// the responder and the response's arrival back, and stays down through its
// one retransmission — fails applied, with the responder's old value on its
// error completion. Replayed with that seed after the reconnect, it takes
// the responder's duplicate path: the response regenerates with the
// original old value, and memory is not touched again.
func TestReplayAppliedIsDuplicate(t *testing.T) {
	policy := RetryPolicy{RetryCount: 1, AckTimeout: 2 * sim.Microsecond}
	// A probe moves the counter off zero, so a lost old value shows.
	probe := func(e *pairEnv) sim.Time {
		comp, err := e.qpA.PostSend(0, fetchAddWR(e, 1))
		if err != nil || comp.OldValue != 0 {
			t.Fatalf("probe: %v old %d", err, comp.OldValue)
		}
		return comp.Done
	}
	// A lossless twin times the second fetch-add.
	twin, tl := observedPair(t, nil)
	post := probe(twin)
	if _, err := twin.qpA.PostSend(post, fetchAddWR(twin, 2)); err != nil {
		t.Fatal(err)
	}
	spans := opSpans(tl, twin.qpA.ID(), 2)
	arrived, _ := stageEnd(spans, StageArrived)
	responded, _ := stageEnd(spans, StageResponded)
	retransmit := responded + policy.AckTimeout
	plan := &fabric.FaultPlan{Seed: 1, Crashes: []fabric.CrashEvent{
		{Machine: 0, At: arrived, Down: retransmit + policy.AckTimeout - arrived},
	}}

	e := newLossyPair(t, plan)
	e.qpA.SetRetryPolicy(policy)
	probe(e)
	ctr := e.mrB.Region().Bytes()[1<<19 : 1<<19+8]
	wr := fetchAddWR(e, 2)
	failed, err := e.qpA.PostSend(post, wr)
	if !errors.Is(err, ErrQPError) || failed.Status != StatusRetryExceeded {
		t.Fatalf("lost-response WR: %v status %v", err, failed.Status)
	}
	if !e.qpA.FailedApplied() || ctr[0] != 2 {
		t.Fatalf("applied=%v counter %d: the responder must have executed the WR", e.qpA.FailedApplied(), ctr[0])
	}
	if failed.OldValue != 1 {
		t.Fatalf("error completion carries old value %d, want 1", failed.OldValue)
	}
	up, err := e.qpA.Reconnect(failed.Done)
	if err != nil {
		t.Fatal(err)
	}
	comp, err := e.qpA.PostReplay(up, wr, e.qpA.FailedApplied(), failed.OldValue)
	if err != nil || comp.Status != StatusOK {
		t.Fatalf("duplicate replay: %v status %v", err, comp.Status)
	}
	if ctr[0] != 2 {
		t.Fatalf("duplicate replay re-applied the atomic: counter %d", ctr[0])
	}
	if comp.OldValue != 1 {
		t.Fatalf("replayed old value %d, want the pre-failure 1", comp.OldValue)
	}
	if e.qpA.rel.replay != (replaySeed{}) {
		t.Fatal("replay seed not cleared")
	}
}
