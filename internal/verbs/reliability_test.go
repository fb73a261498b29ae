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
func newLossyPair(t *testing.T, plan *fabric.FaultPlan) *pairEnv {
	t.Helper()
	e, err := buildLossyPair(plan)
	if err != nil {
		t.Fatal(err)
	}
	return e
}

func buildLossyPair(plan *fabric.FaultPlan) (*pairEnv, error) {
	cfg := cluster.DefaultConfig()
	cfg.Faults = plan
	return pairOn(cfg)
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
	e := newLossyPair(t, &fabric.FaultPlan{Seed: 7, Drop: 0.1})
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
	if st.Segments-st.Retransmits != 16 {
		t.Fatalf("first round sent %d segments, want 16: %+v", st.Segments-st.Retransmits, st)
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
func sumRel(stats ...rnic.RelCounters) rnic.RelCounters {
	var sum rnic.RelCounters
	out := reflect.ValueOf(&sum).Elem()
	for _, st := range stats {
		in := reflect.ValueOf(st)
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
	e := newLossyPair(t, &fabric.FaultPlan{Seed: 5, Drop: 0.1})
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
		comp, _, err := ua.Send(at, ub.Handle(), []SGE{{Addr: e.mrA.Addr(), Length: 64, MR: e.mrA}})
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

	stats := []rnic.RelCounters{ua.Stats()}
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
	peers := []rnic.RelCounters{ub.Stats()}
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
	e := newLossyPair(t, &fabric.FaultPlan{Seed: 11, Drop: 0.08})
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

// TestSegmentation: a message is PathMTU frames on a lossy fabric, the last
// carrying the rest, and one frame of any size on a lossless one.
func TestSegmentation(t *testing.T) {
	lossy, lossless := &qpState{flags: qpLossy}, &qpState{}
	for _, tc := range []struct {
		name     string
		s        *qpState
		outbound int
		frames   int
		last     int
	}{
		{"empty", lossy, 0, 1, 0},
		{"one byte", lossy, 1, 1, 1},
		{"exact multiple", lossy, 3 * PathMTU, 3, PathMTU},
		{"multiple plus one", lossy, 3*PathMTU + 1, 4, 1},
		{"large lossless", lossless, 16*PathMTU + 5, 1, 16*PathMTU + 5},
	} {
		n := tc.s.segments(tc.outbound)
		if n != tc.frames {
			t.Fatalf("%s: %d frames, want %d", tc.name, n, tc.frames)
		}
		sum := 0
		for i := 0; i < n-1; i++ {
			if got := segmentSize(i, n, tc.outbound); got != PathMTU {
				t.Fatalf("%s: frame %d is %d bytes, want PathMTU", tc.name, i, got)
			}
			sum += PathMTU
		}
		if got := segmentSize(n-1, n, tc.outbound); got != tc.last {
			t.Fatalf("%s: last frame is %d bytes, want %d", tc.name, got, tc.last)
		}
		if sum+tc.last != tc.outbound {
			t.Fatalf("%s: frames sum to %d, want %d", tc.name, sum+tc.last, tc.outbound)
		}
	}
}

// TestLoopbackPairSegments: a QP connected to its own context's port shares
// one route between requester and responder. Under a lossy plan a
// 4×PathMTU WRITE and its READ back land every byte and tally 4 + 1 request
// segments in their first rounds, as on a two-machine pair.
func TestLoopbackPairSegments(t *testing.T) {
	const size = 4 * PathMTU
	plan := &fabric.FaultPlan{Seed: 1, Drop: 0.01}
	run := func(name string, qp *QP, local, remote *MR) {
		t.Helper()
		src, back := local.Region().Bytes()[:size], local.Region().Bytes()[size:2*size]
		fillPattern(src, 5)
		c, err := qp.PostSend(0, &SendWR{
			Opcode:     OpWrite,
			SGL:        []SGE{{Addr: local.Addr(), Length: size, MR: local}},
			RemoteAddr: remote.Addr(),
			RemoteKey:  remote.RKey(),
		})
		if err != nil || c.Status != StatusOK {
			t.Fatalf("%s: write: %v status %v", name, err, c.Status)
		}
		c, err = qp.PostSend(c.Done, &SendWR{
			Opcode:     OpRead,
			SGL:        []SGE{{Addr: local.Addr() + size, Length: size, MR: local}},
			RemoteAddr: remote.Addr(),
			RemoteKey:  remote.RKey(),
		})
		if err != nil || c.Status != StatusOK {
			t.Fatalf("%s: read: %v status %v", name, err, c.Status)
		}
		if !bytes.Equal(remote.Region().Bytes()[:size], src) {
			t.Fatalf("%s: WRITE landed wrong bytes", name)
		}
		if !bytes.Equal(back, src) {
			t.Fatalf("%s: READ scattered wrong bytes", name)
		}
		if st := qp.Stats(); st.Segments-st.Retransmits != 4+1 {
			t.Fatalf("%s: first rounds sent %d request segments, want 4 + 1: %+v", name, st.Segments-st.Retransmits, st)
		}
	}

	e := newLossyPair(t, plan)
	run("two-machine", e.qpA, e.mrA, e.mrB)

	cfg := cluster.DefaultConfig()
	cfg.Machines = 1
	cfg.Faults = plan
	cl, err := cluster.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ctx := NewContext(cl.Machine(0))
	qp, _, err := Connect(ctx, 1, ctx, 1, RC)
	if err != nil {
		t.Fatal(err)
	}
	local := ctx.MustRegisterMR(cl.Machine(0).MustAlloc(1, 1<<20, 0))
	remote := ctx.MustRegisterMR(cl.Machine(0).MustAlloc(1, 1<<20, 0))
	run("loopback", qp, local, remote)
}

// TestQuietPlanMatchesLossless: a lossless fabric is the reliability
// engine's no-loss case. For every RC opcode at up to PathMTU, plus a
// cross-socket WRITE (its ACK lands one QPI hop before the completion), an
// attached-but-never-firing plan yields the same completion and the same
// stage spans, arrived included, as the lossless fabric; only the
// reliability tallies differ. A multi-segment WRITE under the quiet plan
// lands its data in PathMTU segments without drawing recovery machinery.
func TestQuietPlanMatchesLossless(t *testing.T) {
	lossless, tlL := observedPair(t, nil)
	quietEnv, tlQ := observedPair(t, quietPlan())
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
	for i, c := range cases {
		cl, err := lossless.qpA.PostSend(now, c.wr(lossless, farL))
		if err != nil {
			t.Fatalf("%s lossless: %v", c.name, err)
		}
		cq, err := quietEnv.qpA.PostSend(now, c.wr(quietEnv, farQ))
		if err != nil {
			t.Fatalf("%s quiet: %v", c.name, err)
		}
		if cl != cq {
			t.Fatalf("%s: lossless completion %+v, quiet %+v", c.name, cl, cq)
		}
		spL, spQ := opSpans(tlL, lossless.qpA.ID(), int64(i+1)), opSpans(tlQ, quietEnv.qpA.ID(), int64(i+1))
		if fmt.Sprint(spL) != fmt.Sprint(spQ) {
			t.Fatalf("%s: stage spans differ\nlossless %v\nquiet    %v", c.name, spL, spQ)
		}
		if _, ok := stageEnd(spQ, StageArrived); !ok {
			t.Fatalf("%s: no arrived stage: %v", c.name, spQ)
		}
		now = cl.Done + sim.Time(sim.Microsecond)
	}
	if st := lossless.qpA.Stats(); st != (rnic.RelCounters{}) {
		t.Fatalf("lossless fabric drew reliability tallies: %+v", st)
	}
	if st := quietEnv.qpA.Stats(); st.Segments != uint64(len(cases)) {
		t.Fatalf("quiet plan: %d segments for %d one-segment messages", st.Segments, len(cases))
	}

	quiet := newLossyPair(t, quietPlan())
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
	e := newLossyPair(t, &fabric.FaultPlan{Seed: 3, Drop: 1})
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
	e := newLossyPair(t, &fabric.FaultPlan{Seed: 5, Drop: 1})
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
	if e.qpA.send.lastCQE != comps[2].Done {
		t.Fatalf("send clamp at %v, want the last CQE time %v", e.qpA.send.lastCQE, comps[2].Done)
	}
}

// TestPostSendListMidListFailureInOrder: a doorbell list whose third WR
// exhausts its retries returns the successful prefix, the error completion
// and the flushed tail, and their completion times never decrease: the send
// clamp orders them as a completion queue would. With no retry budget, the
// plan's seed loses a frame of the third WR and none of the first two's.
func TestPostSendListMidListFailureInOrder(t *testing.T) {
	e := newLossyPair(t, &fabric.FaultPlan{Seed: 5, Drop: 0.2})
	e.qpA.SetRetryPolicy(RetryPolicy{RetryCount: 0, AckTimeout: 2 * sim.Microsecond})
	wrs := []*SendWR{writeWR(e, 8192), writeWR(e, 64), // succeed
		writeWR(e, 64),                   // fails
		writeWR(e, 64), writeWR(e, 8192)} // flushed
	for i, wr := range wrs {
		wr.ID = uint64(i + 1)
	}
	comps, err := e.qpA.PostSendList(0, wrs)
	if !errors.Is(err, ErrQPError) {
		t.Fatalf("err = %v, want ErrQPError", err)
	}
	want := []CompletionStatus{StatusOK, StatusOK, StatusRetryExceeded, StatusFlushed, StatusFlushed}
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
	if e.qpA.send.lastCQE != comps[len(comps)-1].Done {
		t.Fatalf("send clamp at %v, want the last CQE time %v", e.qpA.send.lastCQE, comps[len(comps)-1].Done)
	}
}

// TestForceErrorFlushes: ForceError (the model's modify-to-ERR) flushes all
// subsequent posts, including on UD QPs.
func TestForceErrorFlushes(t *testing.T) {
	e := newLossyPair(t, quietPlan())
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
		_, dropped, err := qa.Send(sim.Time(i)*1000000, qb.Handle(), []SGE{{Addr: mrA.Addr(), Length: 8, MR: mrA}})
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
	delivered := drainCQ(qb.RecvCQ())
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
	run := func() (sim.Time, rnic.RelCounters) {
		e, err := buildLossyPair(&fabric.FaultPlan{Seed: 17, Drop: 0.05, Corrupt: 0.05, DelayP: 0.2, Delay: 3 * sim.Microsecond})
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
		e, err := buildLossyPair(&fabric.FaultPlan{Seed: seed, Drop: drop})
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
	e := newLossyPair(t, quietPlan())
	for _, bad := range []RetryPolicy{
		{RetryCount: -1, AckTimeout: 1},
		{RetryCount: 1, AckTimeout: 0},
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
		"OK":        StatusOK,
		"RETRY_EXC": StatusRetryExceeded,
		"FLUSH":     StatusFlushed,
		"READY":     StateReady,
		"ERROR":     StateError,
	} {
		if s.String() != want {
			t.Errorf("%v renders %q, want %q", s, s.String(), want)
		}
	}
}

// FuzzPostSendListErrorState drives the doorbell-list flush machinery with
// arbitrary batch shapes, fault seeds and pre-error states. The invariants:
// exactly one completion per WR whenever ErrQPError is reported, statuses
// form the pattern OK* RETRY_EXC? FLUSH*, flushed WRs have
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
		e, err := buildLossyPair(&fabric.FaultPlan{Seed: seed, Drop: drop})
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
			case StatusRetryExceeded:
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
		if len(comps) > 0 && e.qpA.send.lastCQE != comps[len(comps)-1].Done {
			t.Fatalf("send clamp at %v, want the last CQE time %v", e.qpA.send.lastCQE, comps[len(comps)-1].Done)
		}
	})
}
