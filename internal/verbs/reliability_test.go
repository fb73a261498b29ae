package verbs

import (
	"bytes"
	"errors"
	"fmt"
	"reflect"
	"testing"
	"testing/quick"

	"rdmasem/internal/cluster"
	"rdmasem/internal/fabric"
	"rdmasem/internal/mem"
	"rdmasem/internal/rnic"
	"rdmasem/internal/sim"
)

// newLossyPair is newPair on a fabric with the given fault plan attached.
func newLossyPair(t *testing.T, plan *fabric.FaultPlan, tr Transport) *pairEnv {
	t.Helper()
	e, err := buildLossyPair(plan, tr)
	if err != nil {
		t.Fatal(err)
	}
	return e
}

func buildLossyPair(plan *fabric.FaultPlan, tr Transport) (*pairEnv, error) {
	cfg := cluster.DefaultConfig()
	cfg.Machines = 2
	cfg.Faults = plan
	cl, err := cluster.New(cfg)
	if err != nil {
		return nil, err
	}
	ctxA := NewContext(cl.Machine(0))
	ctxB := NewContext(cl.Machine(1))
	qpA, qpB, err := Connect(ctxA, 1, ctxB, 1, tr)
	if err != nil {
		return nil, err
	}
	mrA := ctxA.MustRegisterMR(cl.Machine(0).MustAlloc(1, 1<<20, 0))
	mrB := ctxB.MustRegisterMR(cl.Machine(1).MustAlloc(1, 1<<20, 0))
	return &pairEnv{cl: cl, ctxA: ctxA, ctxB: ctxB, qpA: qpA, qpB: qpB, mrA: mrA, mrB: mrB}, nil
}

// quietPlan is an active fault plan that never actually fires: the drop
// probability is far below the fault stream's resolution. It routes verbs
// through the reliability engine without injecting any faults.
func quietPlan() *fabric.FaultPlan { return &fabric.FaultPlan{Seed: 1, Drop: 1e-300} }

func writeWR(e *pairEnv, size int) *SendWR {
	return &SendWR{
		ID:         1,
		Opcode:     OpWrite,
		SGL:        []SGE{{Addr: e.mrA.Addr(), Length: size, MR: e.mrA}},
		RemoteAddr: e.mrB.Addr(),
		RemoteKey:  e.mrB.RKey(),
	}
}

func fillPattern(b []byte, seed byte) {
	for i := range b {
		b[i] = seed + byte(i*131)
	}
}

// TestReliableWriteRecoversDrops: a multi-segment RC WRITE on a fabric that
// drops ~10% of segments completes successfully, delivers every byte exactly
// once, and the QP's stats show the go-back-N machinery actually ran.
func TestReliableWriteRecoversDrops(t *testing.T) {
	e := newLossyPair(t, &fabric.FaultPlan{Seed: 7, Drop: 0.1}, RC)
	const size = 16 * PathMTU
	fillPattern(e.mrA.Region().Bytes()[:size], 3)
	comp, err := e.qpA.PostSend(0, writeWR(e, size))
	if err != nil {
		t.Fatal(err)
	}
	if comp.Status != StatusOK {
		t.Fatalf("completion status %v", comp.Status)
	}
	if !bytes.Equal(e.mrB.Region().Bytes()[:size], e.mrA.Region().Bytes()[:size]) {
		t.Fatal("remote memory does not match the written payload")
	}
	st := e.qpA.Stats()
	if st.Segments < 16 || st.Retransmits == 0 {
		t.Fatalf("expected retransmissions at 10%% drop: %+v", st)
	}
	if st.SendPSN < 16 {
		t.Fatalf("PSN window not advanced: %+v", st)
	}
	if got := e.cl.Machine(0).NIC().Counters().Rel.Retransmits; got != st.Retransmits {
		t.Fatalf("NIC counters (%d) disagree with QP stats (%d)", got, st.Retransmits)
	}
	if e.qpA.State() != StateReady {
		t.Fatalf("QP state %v after successful recovery", e.qpA.State())
	}
}

// sumRel adds the reliability tallies field by field, so a counter added to
// rnic.RelCounters is summed here without a matching edit.
func sumRel(stats ...QPStats) rnic.RelCounters {
	var sum rnic.RelCounters
	out := reflect.ValueOf(&sum).Elem()
	for _, st := range stats {
		in := reflect.ValueOf(st.RelCounters)
		for i := 0; i < in.NumField(); i++ {
			out.Field(i).SetUint(out.Field(i).Uint() + in.Field(i).Uint())
		}
	}
	return sum
}

// TestNICRelSumsQPStats: each reliability event is tallied once, at its QP,
// and the NIC's device-wide Rel is the field-wise sum of its QPs' tallies —
// several RC QPs recovering drops, a UDQP losing datagrams, and a QP that
// flushed and reconnected.
func TestNICRelSumsQPStats(t *testing.T) {
	e := newLossyPair(t, &fabric.FaultPlan{Seed: 5, Drop: 0.1}, RC)
	qps := []*QP{e.qpA}
	for i := 0; i < 2; i++ {
		qa, _ := MustConnect(e.ctxA, 1, e.ctxB, 1, RC)
		qps = append(qps, qa)
	}
	at := sim.Time(0)
	for round := 0; round < 8; round++ {
		for _, q := range qps {
			comp, err := q.PostSend(at, writeWR(e, 4*PathMTU))
			if err != nil {
				t.Fatal(err)
			}
			at = comp.Done
		}
	}

	ua, err := NewUDQP(e.ctxA, 1)
	if err != nil {
		t.Fatal(err)
	}
	ub, err := NewUDQP(e.ctxB, 1)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 64; i++ {
		if err := ub.PostRecv(RecvWR{ID: uint64(i), SGE: SGE{Addr: e.mrB.Addr(), Length: 256, MR: e.mrB}}); err != nil {
			t.Fatal(err)
		}
		comp, _, err := ua.Send(at, ub.Handle(), []SGE{{Addr: e.mrA.Addr(), Length: 64, MR: e.mrA}}, false)
		if err != nil {
			t.Fatal(err)
		}
		at = comp.Done
	}

	qps[1].ForceError()
	if _, err := qps[1].PostSend(at, writeWR(e, 64)); !errors.Is(err, ErrQPError) {
		t.Fatalf("error-state post returned %v", err)
	}
	if at, err = qps[1].Reconnect(at); err != nil {
		t.Fatal(err)
	}

	stats := []QPStats{ua.Stats()}
	for _, q := range qps {
		stats = append(stats, q.Stats())
	}
	want := sumRel(stats...)
	if got := e.cl.Machine(0).NIC().Counters().Rel; got != want {
		t.Fatalf("NIC Rel %+v, sum of its QPs' tallies %+v", got, want)
	}
	if want.Retransmits == 0 || want.SilentDrops == 0 || want.FlushedWRs != 1 || want.Reconnects != 1 {
		t.Fatalf("workload missed an event kind: %+v", want)
	}
	peers := []QPStats{ub.Stats()}
	for _, q := range qps {
		peers = append(peers, q.Peer().Stats())
	}
	if got, want := e.cl.Machine(1).NIC().Counters().Rel, sumRel(peers...); got != want {
		t.Fatalf("peer NIC Rel %+v, sum of its QPs' tallies %+v", got, want)
	}
}

// TestReliableReadAndAtomics: READ responses and atomic responses survive
// drops, and the exactly-once guarantee holds for FETCH_ADD even when its
// request or response segments are retransmitted.
func TestReliableReadAndAtomics(t *testing.T) {
	e := newLossyPair(t, &fabric.FaultPlan{Seed: 11, Drop: 0.08}, RC)
	const size = 8 * PathMTU
	fillPattern(e.mrB.Region().Bytes()[:size], 9)
	comp, err := e.qpA.PostSend(0, &SendWR{
		Opcode:     OpRead,
		SGL:        []SGE{{Addr: e.mrA.Addr(), Length: size, MR: e.mrA}},
		RemoteAddr: e.mrB.Addr(),
		RemoteKey:  e.mrB.RKey(),
	})
	if err != nil || comp.Status != StatusOK {
		t.Fatalf("read: %v status %v", err, comp.Status)
	}
	if !bytes.Equal(e.mrA.Region().Bytes()[:size], e.mrB.Region().Bytes()[:size]) {
		t.Fatal("READ scattered wrong bytes")
	}

	// 50 fetch-adds of 1 against a zeroed counter: whatever was dropped and
	// retransmitted along the way, the counter must end at exactly 50 and
	// the returned old values must be 0..49 in order.
	ctr := e.mrB.Addr() + 1<<19
	now := comp.Done
	for i := 0; i < 50; i++ {
		c, err := e.qpA.PostSend(now, &SendWR{
			Opcode:     OpFetchAdd,
			SGL:        []SGE{{Addr: e.mrA.Addr(), Length: 8, MR: e.mrA}},
			RemoteAddr: ctr,
			RemoteKey:  e.mrB.RKey(),
			CompareAdd: 1,
		})
		if err != nil || c.Status != StatusOK {
			t.Fatalf("fetch-add %d: %v status %v", i, err, c.Status)
		}
		if c.OldValue != uint64(i) {
			t.Fatalf("fetch-add %d returned old value %d: not exactly-once", i, c.OldValue)
		}
		now = c.Done
	}
	if st := e.qpA.Stats(); st.Retransmits == 0 {
		t.Fatalf("test exercised no retransmissions: %+v", st)
	}
}

// TestQuietPlanMatchesLossless: a lossless fabric is the reliability
// engine's no-loss case. For every RC opcode at up to PathMTU, plus a
// cross-socket WRITE (its ACK lands one QPI hop before the completion), an
// attached-but-never-firing plan yields the same completion and the same
// stage spans, arrived included, as the lossless fabric; only the
// reliability tallies differ. A multi-segment WRITE under the quiet plan
// lands its data in PathMTU segments without drawing recovery machinery.
func TestQuietPlanMatchesLossless(t *testing.T) {
	lossless, quietEnv := newLossyPair(t, nil, RC), newLossyPair(t, quietPlan(), RC)
	// A target MR on the responder's other socket: port 1 sits on socket 1.
	far := func(e *pairEnv) *MR { return e.ctxB.MustRegisterMR(e.cl.Machine(1).MustAlloc(0, PathMTU, 0)) }
	farL, farQ := far(lossless), far(quietEnv)
	if farL.Region().Socket() == lossless.qpB.PortSocket() {
		t.Fatal("the far MR shares the responder port's socket")
	}
	atomic := func(e *pairEnv, op Opcode) *SendWR {
		return &SendWR{Opcode: op, SGL: []SGE{{Addr: e.mrA.Addr(), Length: 8, MR: e.mrA}},
			RemoteAddr: e.mrB.Addr() + 64, RemoteKey: e.mrB.RKey(), CompareAdd: 3, Swap: 9}
	}
	cases := []struct {
		name string
		wr   func(e *pairEnv, far *MR) *SendWR
	}{
		{"WRITE", func(e *pairEnv, _ *MR) *SendWR { return writeWR(e, 256) }},
		{"WRITE cross-socket", func(e *pairEnv, far *MR) *SendWR {
			wr := writeWR(e, 256)
			wr.RemoteAddr, wr.RemoteKey = far.Addr(), far.RKey()
			return wr
		}},
		{"WRITE PathMTU", func(e *pairEnv, _ *MR) *SendWR { return writeWR(e, PathMTU) }},
		{"READ", func(e *pairEnv, _ *MR) *SendWR {
			wr := writeWR(e, PathMTU)
			wr.Opcode = OpRead
			return wr
		}},
		{"CMP_SWAP", func(e *pairEnv, _ *MR) *SendWR { return atomic(e, OpCompSwap) }},
		{"FETCH_ADD", func(e *pairEnv, _ *MR) *SendWR { return atomic(e, OpFetchAdd) }},
		{"SEND", func(e *pairEnv, _ *MR) *SendWR {
			if err := e.qpB.PostRecv(RecvWR{SGE: SGE{Addr: e.mrB.Addr(), Length: 512, MR: e.mrB}}); err != nil {
				t.Fatal(err)
			}
			return &SendWR{Opcode: OpSend, SGL: []SGE{{Addr: e.mrA.Addr(), Length: 512, MR: e.mrA}}}
		}},
	}
	now := sim.Time(0)
	for _, c := range cases {
		cl, trL, err := lossless.qpA.PostSendTraced(now, c.wr(lossless, farL))
		if err != nil {
			t.Fatalf("%s lossless: %v", c.name, err)
		}
		cq, trQ, err := quietEnv.qpA.PostSendTraced(now, c.wr(quietEnv, farQ))
		if err != nil {
			t.Fatalf("%s quiet: %v", c.name, err)
		}
		if cl != cq {
			t.Fatalf("%s: lossless completion %+v, quiet %+v", c.name, cl, cq)
		}
		if fmt.Sprint(trL.Spans) != fmt.Sprint(trQ.Spans) {
			t.Fatalf("%s: stage spans differ\nlossless %v\nquiet    %v", c.name, trL.Spans, trQ.Spans)
		}
		if _, ok := trQ.At(StageArrived); !ok {
			t.Fatalf("%s: no arrived stage: %v", c.name, trQ.Spans)
		}
		now = cl.Done + sim.Time(sim.Microsecond)
	}
	if st := lossless.qpA.Stats(); st != (QPStats{}) {
		t.Fatalf("lossless fabric drew reliability tallies: %+v", st)
	}
	if st := quietEnv.qpA.Stats(); st.Segments != uint64(len(cases)) {
		t.Fatalf("quiet plan: %d segments for %d one-segment messages", st.Segments, len(cases))
	}

	quiet := newLossyPair(t, quietPlan(), RC)
	const size = 3 * PathMTU
	fillPattern(quiet.mrA.Region().Bytes()[:size], 5)
	comp, err := quiet.qpA.PostSend(0, writeWR(quiet, size))
	if err != nil || comp.Status != StatusOK {
		t.Fatalf("%v status %v", err, comp.Status)
	}
	if !bytes.Equal(quiet.mrB.Region().Bytes()[:size], quiet.mrA.Region().Bytes()[:size]) {
		t.Fatal("data corrupted")
	}
	st := quiet.qpA.Stats()
	if st.Retransmits != 0 || st.AckTimeouts != 0 || st.NaksReceived != 0 {
		t.Fatalf("quiet plan drew recovery machinery: %+v", st)
	}
	if st.Segments != 3 {
		t.Fatalf("expected 3 segments, got %+v", st)
	}
}

// TestRetryExhaustion: on a fabric that drops everything, an RC WRITE burns
// its full retry budget with exponential backoff, completes with
// RETRY_EXC, moves the QP to the error state, and leaves remote memory
// untouched. Later posts flush without touching the wire.
func TestRetryExhaustion(t *testing.T) {
	e := newLossyPair(t, &fabric.FaultPlan{Seed: 3, Drop: 1}, RC)
	const size = 2 * PathMTU
	fillPattern(e.mrA.Region().Bytes()[:size], 7)
	before := append([]byte(nil), e.mrB.Region().Bytes()[:size]...)

	comp, err := e.qpA.PostSend(0, writeWR(e, size))
	if !errors.Is(err, ErrQPError) {
		t.Fatalf("err = %v, want ErrQPError", err)
	}
	if comp.Status != StatusRetryExceeded {
		t.Fatalf("status %v, want RETRY_EXC", comp.Status)
	}
	if comp.Err() == nil {
		t.Fatal("Completion.Err must be non-nil for an error status")
	}
	if e.qpA.State() != StateError {
		t.Fatalf("QP state %v, want ERROR", e.qpA.State())
	}
	if !bytes.Equal(e.mrB.Region().Bytes()[:size], before) {
		t.Fatal("failed WRITE must not modify remote memory")
	}
	pol := e.qpA.RetryPolicy()
	st := e.qpA.Stats()
	if st.AckTimeouts != uint64(pol.RetryCount)+1 {
		t.Fatalf("timeouts %d, want retry budget + 1 = %d", st.AckTimeouts, pol.RetryCount+1)
	}
	if st.RetriesExhausted != 1 {
		t.Fatalf("stats %+v", st)
	}
	// Exponential backoff: the error lands after the sum of the backed-off
	// timeouts, which dwarfs (budget+1) * base.
	if comp.Done < sim.Time((1+2+4+8+16+32+64+64)*pol.AckTimeout) {
		t.Fatalf("error completion at %v arrived before the backoff could have elapsed", comp.Done)
	}

	// The QP is broken: further posts flush immediately with FLUSH status.
	c2, err := e.qpA.PostSend(comp.Done, writeWR(e, 64))
	if !errors.Is(err, ErrQPError) || c2.Status != StatusFlushed {
		t.Fatalf("post on error QP: err %v status %v", err, c2.Status)
	}
	if got := e.qpA.Stats().FlushedWRs; got != 1 {
		t.Fatalf("flushed WRs %d", got)
	}
}

// TestPostSendListFlushOnError: when WR k of a doorbell list exhausts its
// retries, WRs before k completed OK (their effects persist), WR k carries
// the error status, and everything after k is flushed.
func TestPostSendListFlushOnError(t *testing.T) {
	e := newLossyPair(t, &fabric.FaultPlan{Seed: 5, Drop: 1}, RC)
	wrs := []*SendWR{
		{ID: 1, Opcode: OpWrite, SGL: []SGE{{Addr: e.mrA.Addr(), Length: 64, MR: e.mrA}}, RemoteAddr: e.mrB.Addr(), RemoteKey: e.mrB.RKey()},
		{ID: 2, Opcode: OpWrite, SGL: []SGE{{Addr: e.mrA.Addr(), Length: 64, MR: e.mrA}}, RemoteAddr: e.mrB.Addr() + 64, RemoteKey: e.mrB.RKey()},
		{ID: 3, Opcode: OpWrite, SGL: []SGE{{Addr: e.mrA.Addr(), Length: 64, MR: e.mrA}}, RemoteAddr: e.mrB.Addr() + 128, RemoteKey: e.mrB.RKey()},
	}
	comps, err := e.qpA.PostSendList(0, wrs)
	if !errors.Is(err, ErrQPError) {
		t.Fatalf("err = %v", err)
	}
	if len(comps) != 3 {
		t.Fatalf("got %d completions for 3 WRs", len(comps))
	}
	want := []CompletionStatus{StatusRetryExceeded, StatusFlushed, StatusFlushed}
	for i, c := range comps {
		if c.Status != want[i] {
			t.Fatalf("WR %d status %v, want %v", i, c.Status, want[i])
		}
		if c.WRID != wrs[i].ID {
			t.Fatalf("WR %d id %d", i, c.WRID)
		}
	}
	// All three produced CQEs (error completions are always signaled): each
	// went through the send clamp, which ends at the last flush.
	for i := 1; i < len(comps); i++ {
		if comps[i].Done < comps[i-1].Done {
			t.Fatalf("CQE %d at %v precedes CQE %d at %v", i, comps[i].Done, i-1, comps[i-1].Done)
		}
	}
	if e.qpA.lastCQE != comps[2].Done {
		t.Fatalf("send clamp at %v, want the last CQE time %v", e.qpA.lastCQE, comps[2].Done)
	}
}

// TestPostSendListMidListFailureInOrder: a doorbell list whose third WR
// exhausts its RNR retries returns the successful prefix, the error
// completion and the flushed tail, and their completion times never
// decrease: the send clamp orders them as a completion queue would.
func TestPostSendListMidListFailureInOrder(t *testing.T) {
	e := newLossyPair(t, quietPlan(), RC)
	wrs := []*SendWR{writeWR(e, 8192), writeWR(e, 64), // succeed
		{Opcode: OpSend, SGL: []SGE{{Addr: e.mrA.Addr(), Length: 64, MR: e.mrA}}}, // no receive posted
		writeWR(e, 64), writeWR(e, 8192)} // flushed
	for i, wr := range wrs {
		wr.ID = uint64(i + 1)
	}
	comps, err := e.qpA.PostSendList(0, wrs)
	if !errors.Is(err, ErrQPError) {
		t.Fatalf("err = %v, want ErrQPError", err)
	}
	want := []CompletionStatus{StatusOK, StatusOK, StatusRNRRetryExceeded, StatusFlushed, StatusFlushed}
	if len(comps) != len(want) {
		t.Fatalf("got %d completions for %d WRs", len(comps), len(want))
	}
	for i, c := range comps {
		if c.Status != want[i] || c.WRID != wrs[i].ID {
			t.Fatalf("completion %d: id %d status %v, want id %d status %v", i, c.WRID, c.Status, wrs[i].ID, want[i])
		}
		if i > 0 && c.Done < comps[i-1].Done {
			t.Fatalf("completion %d at %v precedes completion %d at %v", i, c.Done, i-1, comps[i-1].Done)
		}
	}
	if e.qpA.lastCQE != comps[len(comps)-1].Done {
		t.Fatalf("send clamp at %v, want the last CQE time %v", e.qpA.lastCQE, comps[len(comps)-1].Done)
	}
}

// TestRNRRetry: an RC SEND with no posted receive draws RNR NAKs and
// retries on the RNR timer; with the budget exhausted the WR completes with
// RNR_RETRY_EXC. Posting the receive beforehand avoids the whole dance.
func TestRNRRetry(t *testing.T) {
	e := newLossyPair(t, quietPlan(), RC)
	sendWR := &SendWR{Opcode: OpSend, SGL: []SGE{{Addr: e.mrA.Addr(), Length: 256, MR: e.mrA}}}

	comp, err := e.qpA.PostSend(0, sendWR)
	if !errors.Is(err, ErrQPError) {
		t.Fatalf("err = %v, want ErrQPError", err)
	}
	if comp.Status != StatusRNRRetryExceeded {
		t.Fatalf("status %v, want RNR_RETRY_EXC", comp.Status)
	}
	pol := e.qpA.RetryPolicy()
	st := e.qpA.Stats()
	if st.RNRNaks != uint64(pol.RNRRetryCount) {
		t.Fatalf("RNR NAKs %d, want %d", st.RNRNaks, pol.RNRRetryCount)
	}
	if comp.Done < sim.Time(pol.RNRTimer)*sim.Time(pol.RNRRetryCount) {
		t.Fatalf("error completion at %v arrived before %d RNR timers could have elapsed", comp.Done, pol.RNRRetryCount)
	}

	// With the receive posted, the same SEND lands and consumes it.
	e2 := newLossyPair(t, quietPlan(), RC)
	if err := e2.qpB.PostRecv(RecvWR{ID: 9, SGE: SGE{Addr: e2.mrB.Addr(), Length: 512, MR: e2.mrB}}); err != nil {
		t.Fatal(err)
	}
	fillPattern(e2.mrA.Region().Bytes()[:256], 2)
	c2, err := e2.qpA.PostSend(0, &SendWR{Opcode: OpSend, SGL: []SGE{{Addr: e2.mrA.Addr(), Length: 256, MR: e2.mrA}}})
	if err != nil || c2.Status != StatusOK {
		t.Fatalf("send with recv posted: %v status %v", err, c2.Status)
	}
	if !bytes.Equal(e2.mrB.Region().Bytes()[:256], e2.mrA.Region().Bytes()[:256]) {
		t.Fatal("SEND payload mismatch")
	}
	if rq := e2.qpB.RecvCQ().Poll(sim.MaxTime, 2); len(rq) != 1 || rq[0].WRID != 9 {
		t.Fatalf("receive CQ %v", rq)
	}
}

// TestRNRImmediateFailure: rnr_retry=0 fails on the first RNR NAK.
func TestRNRImmediateFailure(t *testing.T) {
	e := newLossyPair(t, quietPlan(), RC)
	pol := e.qpA.RetryPolicy()
	pol.RNRRetryCount = 0
	e.qpA.SetRetryPolicy(pol)
	comp, err := e.qpA.PostSend(0, &SendWR{Opcode: OpSend, SGL: []SGE{{Addr: e.mrA.Addr(), Length: 64, MR: e.mrA}}})
	if !errors.Is(err, ErrQPError) || comp.Status != StatusRNRRetryExceeded {
		t.Fatalf("err %v status %v", err, comp.Status)
	}
	if st := e.qpA.Stats(); st.RNRNaks != 0 {
		t.Fatalf("no NAK should have been counted before the immediate failure: %+v", st)
	}
}

// TestForceErrorFlushes: ForceError (the model's modify-to-ERR) flushes all
// subsequent posts, including on UD QPs.
func TestForceErrorFlushes(t *testing.T) {
	e := newLossyPair(t, quietPlan(), RC)
	e.qpA.ForceError()
	comps, err := e.qpA.PostSendList(0, []*SendWR{writeWR(e, 64), writeWR(e, 64)})
	if !errors.Is(err, ErrQPError) || len(comps) != 2 {
		t.Fatalf("err %v comps %d", err, len(comps))
	}
	for _, c := range comps {
		if c.Status != StatusFlushed {
			t.Fatalf("status %v", c.Status)
		}
	}
}

// TestUCLossSilent: UC WRITEs complete locally with OK status even when the
// fabric eats segments; a torn multi-segment WRITE lands only its prefix
// and the QP records the silent drop. UC never moves to the error state.
func TestUCLossSilent(t *testing.T) {
	e := newLossyPair(t, &fabric.FaultPlan{Seed: 2, Drop: 0.25}, UC)
	const size = 8 * PathMTU
	fillPattern(e.mrA.Region().Bytes()[:size], 4)
	before := append([]byte(nil), e.mrB.Region().Bytes()[:size]...)

	var silent uint64
	for i := 0; i < 12 && silent == 0; i++ {
		comp, err := e.qpA.PostSend(sim.Time(i)*sim.Time(sim.Millisecond), writeWR(e, size))
		if err != nil {
			t.Fatal(err)
		}
		if comp.Status != StatusOK {
			t.Fatalf("UC completion status %v — UC must complete locally", comp.Status)
		}
		silent = e.qpA.Stats().SilentDrops
	}
	if silent == 0 {
		t.Fatal("25% drop never tore a UC WRITE in 12 attempts")
	}
	if e.qpA.State() != StateReady {
		t.Fatal("UC QP must never enter the error state from wire loss")
	}
	// The remote extent holds, per byte offset, either the written pattern
	// or the original bytes — and since every attempt writes the same
	// pattern, each position is old or new, never garbage.
	remote := e.mrB.Region().Bytes()[:size]
	local := e.mrA.Region().Bytes()[:size]
	for i := range remote {
		if remote[i] != local[i] && remote[i] != before[i] {
			t.Fatalf("byte %d is neither old nor new: silent corruption", i)
		}
	}
	if e.qpA.Stats().Retransmits != 0 {
		t.Fatal("UC must never retransmit")
	}
}

// TestUDNeverDuplicates: under drops, every UD datagram is delivered at most
// once — the count of consumed receives plus reported drops equals the send
// count, and each delivered payload is distinct.
func TestUDNeverDuplicates(t *testing.T) {
	cfg := cluster.DefaultConfig()
	cfg.Machines = 2
	cfg.Faults = &fabric.FaultPlan{Seed: 13, Drop: 0.3}
	cl, err := cluster.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ctxA, ctxB := NewContext(cl.Machine(0)), NewContext(cl.Machine(1))
	qa, err := NewUDQP(ctxA, 1)
	if err != nil {
		t.Fatal(err)
	}
	qb, err := NewUDQP(ctxB, 1)
	if err != nil {
		t.Fatal(err)
	}
	mrA := ctxA.MustRegisterMR(cl.Machine(0).MustAlloc(1, 1<<16, 0))
	mrB := ctxB.MustRegisterMR(cl.Machine(1).MustAlloc(1, 1<<16, 0))

	const n = 100
	for i := 0; i < n; i++ {
		if err := qb.PostRecv(RecvWR{ID: uint64(i), SGE: SGE{Addr: mrB.Addr() + mem.Addr(i*8), Length: 8, MR: mrB}}); err != nil {
			t.Fatal(err)
		}
	}
	drops := 0
	for i := 0; i < n; i++ {
		// Stamp each datagram with a distinct payload.
		copy(mrA.Region().Bytes()[:8], fmt.Sprintf("%08d", i))
		_, dropped, err := qa.Send(sim.Time(i)*1000000, qb.Handle(), []SGE{{Addr: mrA.Addr(), Length: 8, MR: mrA}}, false)
		if err != nil {
			t.Fatal(err)
		}
		if dropped {
			drops++
		}
	}
	if drops == 0 {
		t.Fatal("30% drop plan dropped nothing across 100 datagrams")
	}
	delivered := qb.RecvCQ().Poll(sim.MaxTime, n+1)
	if len(delivered)+drops != n {
		t.Fatalf("delivered %d + dropped %d != sent %d", len(delivered), drops, n)
	}
	seen := map[string]bool{}
	for _, cqe := range delivered {
		off := int(cqe.WRID) * 8
		payload := string(mrB.Region().Bytes()[off : off+8])
		if seen[payload] {
			t.Fatalf("payload %q delivered twice: UD duplicated a datagram", payload)
		}
		seen[payload] = true
	}
	if st := qa.Stats(); st.SilentDrops != uint64(drops) {
		t.Fatalf("sender recorded %d silent drops, harness saw %d", st.SilentDrops, drops)
	}
}

// TestReliabilityDeterminism: the same plan and traffic reproduce the same
// completion times and stats, and corruption is recovered like loss.
func TestReliabilityDeterminism(t *testing.T) {
	run := func() (sim.Time, QPStats) {
		e, err := buildLossyPair(&fabric.FaultPlan{Seed: 17, Drop: 0.05, Corrupt: 0.05, DelayP: 0.2, Delay: 3 * sim.Microsecond}, RC)
		if err != nil {
			t.Fatal(err)
		}
		fillPattern(e.mrA.Region().Bytes()[:64*1024], 6)
		var last sim.Time
		for i := 0; i < 10; i++ {
			comp, err := e.qpA.PostSend(last, writeWR(e, 64*1024))
			if err != nil || comp.Status != StatusOK {
				t.Fatalf("op %d: %v status %v", i, err, comp.Status)
			}
			last = comp.Done
		}
		return last, e.qpA.Stats()
	}
	t1, s1 := run()
	t2, s2 := run()
	if t1 != t2 || s1 != s2 {
		t.Fatalf("two identical runs diverged:\n%v %+v\n%v %+v", t1, s1, t2, s2)
	}
	if s1.Retransmits == 0 {
		t.Fatal("plan produced no retransmissions; test is vacuous")
	}
}

// TestRCPropertyNoSilentCorruption is the central property: under ANY seeded
// fault plan, an RC WRITE either completes StatusOK with the remote extent
// exactly equal to the payload, or fails with ErrQPError with the extent
// either untouched or fully written (data landed, acks lost) — never a torn
// or corrupted in-between state.
func TestRCPropertyNoSilentCorruption(t *testing.T) {
	prop := func(seed int64, dropPm uint16, sizeRaw uint32) bool {
		drop := float64(dropPm%1000) / 1000 // [0, 0.999]
		size := int(sizeRaw%(128*1024)) + 1
		e, err := buildLossyPair(&fabric.FaultPlan{Seed: seed, Drop: drop}, RC)
		if err != nil {
			return false
		}
		fillPattern(e.mrA.Region().Bytes()[:size], byte(seed))
		before := append([]byte(nil), e.mrB.Region().Bytes()[:size]...)
		comp, err := e.qpA.PostSend(0, writeWR(e, size))
		remote := e.mrB.Region().Bytes()[:size]
		local := e.mrA.Region().Bytes()[:size]
		if err == nil {
			return comp.Status == StatusOK && bytes.Equal(remote, local)
		}
		if !errors.Is(err, ErrQPError) {
			return false
		}
		return comp.Status != StatusOK &&
			(bytes.Equal(remote, before) || bytes.Equal(remote, local)) &&
			e.qpA.State() == StateError
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// TestSetRetryPolicyValidation: broken policies panic rather than arm a
// meaningless recovery loop.
func TestSetRetryPolicyValidation(t *testing.T) {
	e := newLossyPair(t, quietPlan(), RC)
	for _, bad := range []RetryPolicy{
		{RetryCount: -1, RNRRetryCount: 1, AckTimeout: 1, RNRTimer: 1},
		{RetryCount: 1, RNRRetryCount: -1, AckTimeout: 1, RNRTimer: 1},
		{RetryCount: 1, RNRRetryCount: 1, AckTimeout: 0, RNRTimer: 1},
		{RetryCount: 1, RNRRetryCount: 1, AckTimeout: 1, RNRTimer: 0},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("SetRetryPolicy(%+v) did not panic", bad)
				}
			}()
			e.qpA.SetRetryPolicy(bad)
		}()
	}
}

// TestStatusAndStateStrings pins the rendered forms used in error messages
// and CLI output.
func TestStatusAndStateStrings(t *testing.T) {
	for want, s := range map[string]fmt.Stringer{
		"OK":            StatusOK,
		"RETRY_EXC":     StatusRetryExceeded,
		"RNR_RETRY_EXC": StatusRNRRetryExceeded,
		"FLUSH":         StatusFlushed,
		"READY":         StateReady,
		"ERROR":         StateError,
	} {
		if s.String() != want {
			t.Errorf("%v renders %q, want %q", s, s.String(), want)
		}
	}
}

// FuzzPostSendListErrorState drives the doorbell-list flush machinery with
// arbitrary batch shapes, fault seeds and pre-error states. The invariants:
// exactly one completion per WR whenever ErrQPError is reported, statuses
// form the pattern OK* (RETRY_EXC|RNR_RETRY_EXC)? FLUSH*, flushed WRs have
// no data effects, and every completion (all signaled) passes the send
// clamp, so completion times never decrease.
// The f.Add corpus runs as a regression suite under plain `go test`.
func FuzzPostSendListErrorState(f *testing.F) {
	f.Add(int64(1), uint8(3), uint16(64), uint16(1000), false)
	f.Add(int64(5), uint8(1), uint16(8192), uint16(1000), false)
	f.Add(int64(9), uint8(5), uint16(300), uint16(0), false)
	f.Add(int64(2), uint8(4), uint16(100), uint16(50), false)
	f.Add(int64(7), uint8(2), uint16(4096), uint16(999), true)
	f.Add(int64(-3), uint8(8), uint16(1), uint16(500), false)
	f.Add(int64(0), uint8(6), uint16(16384), uint16(900), true)
	f.Fuzz(func(t *testing.T, seed int64, nWR uint8, size uint16, dropPm uint16, forceErr bool) {
		n := int(nWR)%6 + 1
		sz := int(size)%(32*1024) + 1
		drop := float64(dropPm%1001) / 1000
		e, err := buildLossyPair(&fabric.FaultPlan{Seed: seed, Drop: drop}, RC)
		if err != nil {
			t.Fatal(err)
		}
		if forceErr {
			e.qpA.ForceError()
		}
		fillPattern(e.mrA.Region().Bytes()[:sz], byte(seed))
		wrs := make([]*SendWR, n)
		for i := range wrs {
			wrs[i] = &SendWR{
				ID:         uint64(i + 1),
				Opcode:     OpWrite,
				SGL:        []SGE{{Addr: e.mrA.Addr(), Length: sz, MR: e.mrA}},
				RemoteAddr: e.mrB.Addr() + mem.Addr(i*32*1024),
				RemoteKey:  e.mrB.RKey(),
			}
		}
		comps, err := e.qpA.PostSendList(0, wrs)
		if err != nil && !errors.Is(err, ErrQPError) {
			t.Fatalf("unexpected error class: %v", err)
		}
		if err != nil && len(comps) != n {
			t.Fatalf("QP error must complete every WR: %d of %d", len(comps), n)
		}
		if err == nil && len(comps) != n {
			t.Fatalf("success must complete every WR: %d of %d", len(comps), n)
		}
		// Status pattern: OK* fail? FLUSH*.
		phase := 0 // 0 = OK prefix, 1 = saw failure, 2 = flush tail
		for i, c := range comps {
			switch c.Status {
			case StatusOK:
				if phase != 0 {
					t.Fatalf("WR %d OK after a failure", i)
				}
			case StatusRetryExceeded, StatusRNRRetryExceeded:
				if phase != 0 || err == nil {
					t.Fatalf("WR %d failure status %v in phase %d err %v", i, c.Status, phase, err)
				}
				phase = 2
			case StatusFlushed:
				if err == nil {
					t.Fatalf("flushed WR %d on a successful post", i)
				}
				phase = 2
			}
			if c.WRID != wrs[i].ID {
				t.Fatalf("WR %d completion id %d", i, c.WRID)
			}
		}
		// Data effects: OK WRs landed their bytes, flushed WRs did not.
		for i, c := range comps {
			off := i * 32 * 1024
			remote := e.mrB.Region().Bytes()[off : off+sz]
			switch c.Status {
			case StatusOK:
				if !bytes.Equal(remote, e.mrA.Region().Bytes()[:sz]) {
					t.Fatalf("WR %d completed OK but bytes differ", i)
				}
			case StatusFlushed:
				for _, b := range remote {
					if b != 0 {
						t.Fatalf("flushed WR %d has data effects", i)
					}
				}
			}
		}
		// One CQE per completion (error and flush CQEs are always signaled):
		// in order, with the send clamp at the last one.
		for i := 1; i < len(comps); i++ {
			if comps[i].Done < comps[i-1].Done {
				t.Fatalf("CQE %d at %v precedes CQE %d at %v", i, comps[i].Done, i-1, comps[i-1].Done)
			}
		}
		if len(comps) > 0 && e.qpA.lastCQE != comps[len(comps)-1].Done {
			t.Fatalf("send clamp at %v, want the last CQE time %v", e.qpA.lastCQE, comps[len(comps)-1].Done)
		}
	})
}
