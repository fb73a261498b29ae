package proxy_test

import (
	"encoding/binary"
	"errors"
	"fmt"
	"testing"

	"rdmasem/internal/cluster"
	"rdmasem/internal/fabric"
	"rdmasem/internal/proxy"
	"rdmasem/internal/sim"
	"rdmasem/internal/telemetry"
	"rdmasem/internal/verbs"
)

// newFaultyTableEnv is newTableEnv over a cluster with a fault plan attached.
func newFaultyTableEnv(t *testing.T, poolSize, conns int, plan *fabric.FaultPlan) *tableEnv {
	t.Helper()
	cfg := cluster.DefaultConfig()
	cfg.Faults = plan
	return newTableEnvOn(t, cfg, poolSize, conns)
}

func (e *tableEnv) writeWR(id uint64, size int) *verbs.SendWR {
	return &verbs.SendWR{
		ID:         id,
		Opcode:     verbs.OpWrite,
		SGL:        []verbs.SGE{{Addr: e.mrA.Addr(), Length: size, MR: e.mrA}},
		RemoteAddr: e.mrB.Addr(),
		RemoteKey:  e.mrB.RKey(),
	}
}

func TestEnableRecoveryValidation(t *testing.T) {
	e := newTableEnv(t, 2, 4)
	if e.table.RecoveryTTR() != nil {
		t.Fatal("TTR histogram exists before recovery is armed")
	}
	e.table.EnableRecovery(true)
	if e.table.RecoveryTTR() == nil {
		t.Fatal("recovery not armed")
	}
}

// TestRecoveryRemapAndRehome: a dead pooled QP's connection is remapped to
// the survivor, its failed WR replays there with the caller's ID preserved,
// and once the background reconnect walk lands the connection re-pins to its
// home QP.
func TestRecoveryRemapAndRehome(t *testing.T) {
	e := newTableEnv(t, 2, 4)
	e.table.EnableRecovery(true)
	e.pool[0].ForceError()
	comp, err := e.table.Post(0, 0, e.writeWR(900, 64))
	if err != nil {
		t.Fatalf("recovered post returned %v", err)
	}
	if comp.WRID != 900 || comp.Status != verbs.StatusOK {
		t.Fatalf("recovered completion %+v", comp)
	}
	st := e.table.RecoveryStats()
	if st.Episodes != 1 || st.Remaps != 2 || st.Reconnects != 1 {
		t.Fatalf("recovery stats %+v", st)
	}
	if count, _, _, _ := e.table.RecoveryTTR().Stats(); count != 1 {
		t.Fatalf("TTR histogram holds %d samples, want the one replay", count)
	}
	// Both of the dead member's connections moved to the survivor.
	if e.table.ConnQP(0) != e.pool[1] || e.table.ConnQP(2) != e.pool[1] {
		t.Fatal("dead QP's connections not remapped to the survivor")
	}
	// The reconnect walk charged both machines' CMs: 3 transitions per side.
	up := comp.Done + 6*verbs.ModifyQPCost
	comp2, err := e.table.Post(up, 0, e.writeWR(901, 64))
	if err != nil || comp2.Status != verbs.StatusOK {
		t.Fatalf("post after reconnect: %+v err=%v", comp2, err)
	}
	if e.table.ConnQP(0) != e.pool[0] {
		t.Fatal("connection not re-pinned to its home QP after the reconnect landed")
	}
}

// TestRecoveryReconnectOnly: without remap, the failed WR waits for the
// reconnect walk and replays on the same (now recovered) pooled QP.
func TestRecoveryReconnectOnly(t *testing.T) {
	e := newTableEnv(t, 2, 4)
	e.table.EnableRecovery(false)
	e.pool[0].ForceError()
	comp, err := e.table.Post(0, 0, e.writeWR(910, 64))
	if err != nil || comp.Status != verbs.StatusOK || comp.WRID != 910 {
		t.Fatalf("recovered completion %+v err=%v", comp, err)
	}
	// No remap: the replay ran on the reconnected home QP, after the walk.
	if comp.Done < 6*verbs.ModifyQPCost {
		t.Fatalf("recovered completion at %v precedes the reconnect walk", comp.Done)
	}
	st := e.table.RecoveryStats()
	if st.Remaps != 0 || st.Reconnects != 1 {
		t.Fatalf("recovery stats %+v", st)
	}
	if count, _, _, _ := e.table.RecoveryTTR().Stats(); count != 1 {
		t.Fatalf("TTR histogram holds %d samples, want the one replay", count)
	}
	if e.table.ConnQP(0) != e.pool[0] {
		t.Fatal("reconnect-only recovery must not move the connection")
	}
}

// TestRecoveryReplaysAppliedAtomic: a FETCH_ADD whose responder executed it
// but whose response never came back fails with its effects landed, and
// recovery replays it as a duplicate. The requester crashes between the
// request's arrival and the response's, stays down through the one
// retransmission its budget allows, and is back before the failure
// surfaces. The table returns StatusOK, the remote counter advanced exactly
// once, and OldValue is the pre-failure value.
func TestRecoveryReplaysAppliedAtomic(t *testing.T) {
	const before = 41
	faa := func(e *tableEnv) *verbs.SendWR {
		return &verbs.SendWR{
			ID:         940,
			Opcode:     verbs.OpFetchAdd,
			SGL:        []verbs.SGE{{Addr: e.mrA.Addr(), Length: 8, MR: e.mrA}},
			RemoteAddr: e.mrB.Addr(),
			RemoteKey:  e.mrB.RKey(),
			CompareAdd: 1,
		}
	}
	// A lossless twin times the post: when the request lands at the
	// responder, and when its response lands back at the requester.
	cfg := cluster.DefaultConfig()
	cfg.Timeline = telemetry.NewTimeline(0)
	twin := newTableEnvOn(t, cfg, 2, 4)
	if _, err := twin.pool[0].PostSend(0, faa(twin)); err != nil {
		t.Fatal(err)
	}
	var arrived, responded sim.Time
	for _, sp := range cfg.Timeline.Spans() {
		if sp.TID != int64(twin.pool[0].ID()) {
			continue
		}
		switch sp.Name {
		case verbs.StageArrived.String():
			arrived = sp.Start + sp.Dur
		case verbs.StageResponded.String():
			responded = sp.Start + sp.Dur
		}
	}
	policy := verbs.RetryPolicy{RetryCount: 1, AckTimeout: 2 * sim.Microsecond}
	// The retransmission leaves one AckTimeout after the lost response; the
	// failure surfaces two AckTimeouts after that.
	retransmit := responded + policy.AckTimeout
	plan := &fabric.FaultPlan{Seed: 1, Crashes: []fabric.CrashEvent{
		{Machine: 0, At: arrived, Down: retransmit + policy.AckTimeout - arrived},
	}}
	for _, remap := range []bool{false, true} {
		t.Run(fmt.Sprintf("remap=%v", remap), func(t *testing.T) {
			e := newFaultyTableEnv(t, 2, 4, plan)
			for _, qp := range e.pool {
				qp.SetRetryPolicy(policy)
			}
			e.table.EnableRecovery(remap)
			ctr := e.mrB.Region().Bytes()[:8]
			binary.LittleEndian.PutUint64(ctr, before)

			comp, err := e.table.Post(0, 0, faa(e))
			if err != nil || comp.Status != verbs.StatusOK || comp.WRID != 940 {
				t.Fatalf("recovered completion %+v err=%v", comp, err)
			}
			if got := binary.LittleEndian.Uint64(ctr); got != before+1 {
				t.Fatalf("counter %d after recovery, want %d: the atomic must apply exactly once", got, before+1)
			}
			if comp.OldValue != before {
				t.Fatalf("replayed OldValue %d, want the pre-failure %d", comp.OldValue, before)
			}
			if st := e.table.RecoveryStats(); st.Episodes != 1 {
				t.Fatalf("recovery stats %+v", st)
			}
			if count, _, _, _ := e.table.RecoveryTTR().Stats(); count != 1 {
				t.Fatalf("TTR histogram holds %d samples, want the one replay", count)
			}
			if !e.pool[0].FailedApplied() || e.cl.Machine(0).Fabric().FaultStats().CrashDrops == 0 {
				t.Fatal("the failure was not a lost response to an executed request")
			}
		})
	}
}

// TestRecoveryGiveUp: with no survivor to remap onto and the peer machine
// crashed across the whole reconnect budget, recovery delivers the original
// failure — exactly once, with the caller's WR ID — and tallies the give-up
// after walking the whole budget on the connection managers.
func TestRecoveryGiveUp(t *testing.T) {
	cfg := cluster.DefaultConfig()
	cfg.Faults = &fabric.FaultPlan{Seed: 3, Crashes: []fabric.CrashEvent{
		{Machine: 1, At: 0, Down: 100 * sim.Millisecond},
	}}
	cfg.Telemetry = telemetry.NewRegistry()
	e := newTableEnvOn(t, cfg, 1, 2)
	e.table.EnableRecovery(true)
	e.pool[0].ForceError()
	comp, err := e.table.Post(0, 1, e.writeWR(920, 64))
	if !errors.Is(err, verbs.ErrQPError) {
		t.Fatalf("gave-up recovery returned %v, want ErrQPError", err)
	}
	if comp.WRID != 920 || comp.Status != verbs.StatusFlushed {
		t.Fatalf("gave-up completion %+v", comp)
	}
	st := e.table.RecoveryStats()
	if st.GiveUps != 1 || st.Reconnects != 0 {
		t.Fatalf("recovery stats %+v", st)
	}
	// Each reconnect attempt is one walk on the local connection manager.
	local := e.cl.Machine(0).Label()
	if walks, _, _, _ := cfg.Telemetry.Hist(local, "cm", "service").Stats(); walks != proxy.MaxReconnectAttempts {
		t.Fatalf("%d reconnect walks, want the full budget of %d", walks, proxy.MaxReconnectAttempts)
	}
	if e.pool[0].State() != verbs.StateError {
		t.Fatalf("pool QP %v after the give-up, want ERROR", e.pool[0].State())
	}
	if count, _, _, _ := e.table.RecoveryTTR().Stats(); count != 0 {
		t.Fatal("a gave-up WR must not count as recovered in the TTR histogram")
	}
}

// TestRecoveryBatch: a round of posts over every connection, spanning dead
// and healthy pooled QPs, comes back fully OK — the healthy share directly,
// the dead member's first WR via remap+replay and its second on the
// survivor it was remapped to — with no error reported.
func TestRecoveryBatch(t *testing.T) {
	e := newTableEnv(t, 2, 4)
	e.table.EnableRecovery(true)
	e.pool[0].ForceError()
	for conn := 0; conn < 4; conn++ {
		comp, err := e.table.Post(0, conn, e.writeWR(uint64(930+conn), 64))
		if err != nil {
			t.Fatalf("conn %d: recovered post returned %v", conn, err)
		}
		if comp.Status != verbs.StatusOK || comp.WRID != uint64(930+conn) {
			t.Fatalf("conn %d completion %+v", conn, comp)
		}
	}
	st := e.table.RecoveryStats()
	if st.Episodes != 1 || st.Remaps != 2 {
		t.Fatalf("recovery stats %+v", st)
	}
	if count, _, _, _ := e.table.RecoveryTTR().Stats(); count != 1 {
		t.Fatalf("TTR histogram holds %d samples, want the one replay", count)
	}
}

// TestDeliverErrorStatuses pins the error completions a table returns
// without recovery: a retry-exhausted WR and a flushed WR come back with the
// caller's ID, their authoritative status and verbs.ErrQPError.
func TestDeliverErrorStatuses(t *testing.T) {
	// A fabric that drops every frame: the SEND burns its tiny retry budget.
	e := newFaultyTableEnv(t, 1, 2, &fabric.FaultPlan{Seed: 1, Drop: 1})
	e.pool[0].SetRetryPolicy(verbs.RetryPolicy{RetryCount: 1, AckTimeout: 2 * sim.Microsecond})
	comp, err := e.table.Post(0, 1, e.sendWR(777, 64))
	if !errors.Is(err, verbs.ErrQPError) {
		t.Fatalf("retry-exhausted post returned %v", err)
	}
	if comp.WRID != 777 || comp.Status != verbs.StatusRetryExceeded {
		t.Fatalf("retry-exhausted completion %+v", comp)
	}
	// The QP is now in the error state: the next connection's WR flushes.
	comp, err = e.table.Post(comp.Done, 0, e.sendWR(778, 64))
	if !errors.Is(err, verbs.ErrQPError) {
		t.Fatalf("flushed post returned %v", err)
	}
	if comp.WRID != 778 || comp.Status != verbs.StatusFlushed {
		t.Fatalf("flushed completion %+v", comp)
	}
}

// TestDaemonFailover: a dead primary daemon redirects requests to the
// standby on the same table — the first one paying the detection timeout —
// and a primary with no standby fails hard.
func TestDaemonFailover(t *testing.T) {
	e := newTableEnv(t, 2, 4)
	e.stock(t, 8)
	primary, err := proxy.NewDaemon(e.table)
	if err != nil {
		t.Fatal(err)
	}
	standby, err := proxy.NewDaemon(e.table)
	if err != nil {
		t.Fatal(err)
	}
	if err := primary.SetStandby(nil); err == nil {
		t.Fatal("nil standby must be rejected")
	}
	if err := primary.SetStandby(primary); err == nil {
		t.Fatal("self standby must be rejected")
	}
	other := newTableEnv(t, 1, 1)
	foreign, err := proxy.NewDaemon(other.table)
	if err != nil {
		t.Fatal(err)
	}
	if err := primary.SetStandby(foreign); err == nil {
		t.Fatal("standby on a different table must be rejected")
	}
	if err := primary.SetStandby(standby); err != nil {
		t.Fatal(err)
	}

	before, err := primary.Post(0, 0, e.sendWR(50, 64))
	if err != nil || before.Status != verbs.StatusOK {
		t.Fatalf("pre-failure post %+v err=%v", before, err)
	}
	nic := e.cl.Machine(0).NIC()
	base := nic.Counters()
	primary.FailAt(before.Done)

	first, err := primary.Post(before.Done, 1, e.sendWR(51, 64))
	if err != nil || first.Status != verbs.StatusOK {
		t.Fatalf("failover post %+v err=%v", first, err)
	}
	firstLat := first.Done - before.Done
	if firstLat < proxy.FailoverTimeout {
		t.Fatalf("first failover latency %v does not include the %v detection timeout", firstLat, proxy.FailoverTimeout)
	}
	next, err := primary.Post(first.Done, 2, e.sendWR(52, 64))
	if err != nil || next.Status != verbs.StatusOK {
		t.Fatalf("post-detection post %+v err=%v", next, err)
	}
	if nextLat := next.Done - first.Done; nextLat >= firstLat {
		t.Fatalf("detection timeout charged twice: first %v, next %v", firstLat, nextLat)
	}
	if primary.Failovers() != 2 {
		t.Fatalf("%d failovers, want 2", primary.Failovers())
	}
	// Both failover posts staged through the standby's bounce MR: one
	// lookup miss, then a hit. The primary's bounce MR would hit twice.
	if c := nic.Counters(); c.MRMisses != base.MRMisses+1 || c.MRHits != base.MRHits+1 {
		t.Fatalf("failover posts: MR misses %d -> %d, hits %d -> %d, want one miss and one hit",
			base.MRMisses, c.MRMisses, base.MRHits, c.MRHits)
	}

	lone, err := proxy.NewDaemon(e.table)
	if err != nil {
		t.Fatal(err)
	}
	lone.FailAt(0)
	if _, err := lone.Post(0, 0, e.sendWR(53, 64)); err == nil {
		t.Fatal("dead daemon with no standby must fail the post")
	}
}
