package verbs

import (
	"testing"

	"rdmasem/internal/cluster"
	"rdmasem/internal/fabric"
	"rdmasem/internal/sim"
	"rdmasem/internal/telemetry"
)

// observedPair is newLossyPair with a timeline attached to its cluster: the
// tests read an op's stage spans back from it.
func observedPair(t *testing.T, plan *fabric.FaultPlan) (*pairEnv, *telemetry.Timeline) {
	t.Helper()
	cfg := cluster.DefaultConfig()
	cfg.Faults = plan
	cfg.Timeline = telemetry.NewTimeline(0)
	e, err := pairOn(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return e, cfg.Timeline
}

// opSpans returns the timeline spans of the op-th op (from 1) that QP qp
// posted, in walk order.
func opSpans(tl *telemetry.Timeline, qp uint64, op int64) []telemetry.Span {
	var out []telemetry.Span
	for _, sp := range tl.Spans() {
		if sp.TID == int64(qp) && sp.Op == op {
			out = append(out, sp)
		}
	}
	return out
}

// stageEnd returns when the given stage of an op ended, or false if the op
// never ran it (e.g. no gather on a READ).
func stageEnd(spans []telemetry.Span, st Stage) (sim.Time, bool) {
	for _, sp := range spans {
		if sp.Name == st.String() {
			return sp.Start + sp.Dur, true
		}
	}
	return 0, false
}

// decompose charges each of an op's spans to its III-D term.
func decompose(spans []telemetry.Span) Breakdown {
	var b Breakdown
	for _, sp := range spans {
		st := StagePosted
		for st < StageCompleted && st.String() != sp.Name {
			st++
		}
		b.Add(st, sp.Dur)
	}
	return b
}

// checkTiles asserts that an op's spans tile [start, end] without gap or
// overlap.
func checkTiles(t *testing.T, spans []telemetry.Span, start, end sim.Time) {
	t.Helper()
	if len(spans) == 0 {
		t.Fatal("op recorded no spans")
	}
	prev := start
	for _, sp := range spans {
		if sp.Start != prev || sp.Dur < 0 {
			t.Fatalf("stage %s does not tile the walk: starts %v after %v, dur %v", sp.Name, sp.Start, prev, sp.Dur)
		}
		prev = sp.Start + sp.Dur
	}
	if prev != end {
		t.Fatalf("spans end at %v, completion is %v", prev, end)
	}
}

// tracedWrite posts one WRITE on an observed pair and returns the spans of
// that op, the QP's op-th.
func tracedWrite(t *testing.T, e *pairEnv, tl *telemetry.Timeline, op int64, now sim.Time, size int) ([]telemetry.Span, Completion) {
	t.Helper()
	comp, err := e.qpA.PostSend(now, &SendWR{
		Opcode:     OpWrite,
		SGL:        []SGE{{Addr: e.mrA.Addr(), Length: size, MR: e.mrA}},
		RemoteAddr: e.mrB.Addr(),
		RemoteKey:  e.mrB.RKey(),
	})
	if err != nil {
		t.Fatal(err)
	}
	return opSpans(tl, e.qpA.ID(), op), comp
}

func TestTraceStagesMonotone(t *testing.T) {
	e, tl := observedPair(t, nil)
	spans, comp := tracedWrite(t, e, tl, 1, 0, 64)
	if len(spans) < 6 {
		t.Fatalf("only %d stages recorded", len(spans))
	}
	checkTiles(t, spans, 0, comp.Done)
}

// TestTraceInlineSkipsFetchAndGather: a UD datagram rides inside its WQE,
// so its walk records neither a WQE fetch nor a payload gather.
func TestTraceInlineSkipsFetchAndGather(t *testing.T) {
	e, tl := observedPair(t, nil)
	ua, err := NewUDQP(e.ctxA, 1)
	if err != nil {
		t.Fatal(err)
	}
	ub, err := NewUDQP(e.ctxB, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := ub.PostRecv(RecvWR{SGE: SGE{Addr: e.mrB.Addr(), Length: 64, MR: e.mrB}}); err != nil {
		t.Fatal(err)
	}
	if _, _, err := ua.Send(0, ub.Handle(), []SGE{{Addr: e.mrA.Addr(), Length: 32, MR: e.mrA}}); err != nil {
		t.Fatal(err)
	}
	spans := opSpans(tl, ua.ID(), 1)
	if _, ok := stageEnd(spans, StageWQEFetched); ok {
		t.Error("an inline datagram must not fetch a WQE")
	}
	if _, ok := stageEnd(spans, StageGathered); ok {
		t.Error("an inline datagram must not gather")
	}
	if _, ok := stageEnd(spans, StagePosted); !ok {
		t.Error("posted stage missing")
	}
}

func TestTraceDecomposeSumsToTotal(t *testing.T) {
	e, tl := observedPair(t, nil)
	// Warm caches so the decomposition reflects steady state.
	tracedWrite(t, e, tl, 1, 0, 64)
	const start = 100 * sim.Microsecond
	spans, comp := tracedWrite(t, e, tl, 2, start, 64)
	b := decompose(spans)
	sum := b.RNICToSocket + b.Network + b.SocketToMemory + b.Completion
	if sum != comp.Done-start {
		t.Fatalf("decomposition sums to %v, total is %v", sum, comp.Done-start)
	}
	if b.RNICToSocket <= 0 || b.Network <= 0 || b.SocketToMemory <= 0 {
		t.Fatalf("all paper terms should be positive: %+v", b)
	}
	if b.Completion != CQECost {
		t.Fatalf("completion term %v, want CQE cost %v", b.Completion, CQECost)
	}
}

func TestTraceShowsNUMAPenalty(t *testing.T) {
	// A cross-socket posting core inflates the T(RNIC->Socket) term,
	// exactly the paper's III-D claim.
	own, ownTL := observedPair(t, nil)
	tracedWrite(t, own, ownTL, 1, 0, 64)
	spOwn, _ := tracedWrite(t, own, ownTL, 2, 100*sim.Microsecond, 64)

	alt, altTL := observedPair(t, nil)
	alt.qpA.BindCore(0) // port is on socket 1
	tracedWrite(t, alt, altTL, 1, 0, 64)
	spAlt, _ := tracedWrite(t, alt, altTL, 2, 100*sim.Microsecond, 64)

	if a, o := decompose(spAlt).RNICToSocket, decompose(spOwn).RNICToSocket; a <= o {
		t.Fatalf("alt-core RNIC->Socket (%v) should exceed own-core (%v)", a, o)
	}
}

func TestTraceReadPath(t *testing.T) {
	e, tl := observedPair(t, nil)
	comp, err := e.qpA.PostSend(0, &SendWR{
		Opcode:     OpRead,
		SGL:        []SGE{{Addr: e.mrA.Addr(), Length: 64, MR: e.mrA}},
		RemoteAddr: e.mrB.Addr(),
		RemoteKey:  e.mrB.RKey(),
	})
	if err != nil {
		t.Fatal(err)
	}
	spans := opSpans(tl, e.qpA.ID(), 1)
	if _, ok := stageEnd(spans, StageGathered); ok {
		t.Error("read has no outbound gather")
	}
	resp, _ := stageEnd(spans, StageResponded)
	arr, _ := stageEnd(spans, StageArrived)
	// The responder term of a READ carries the host DMA read latency.
	if resp-arr < 800 {
		t.Errorf("read responder term %v should include the host DMA read", resp-arr)
	}
	if comp.Done <= arr {
		t.Error("completion must follow arrival")
	}
}
