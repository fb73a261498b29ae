package verbs

import (
	"strings"
	"testing"

	"rdmasem/internal/sim"
)

func tracedWrite(t *testing.T, e *pairEnv, now sim.Time, size int, inline bool) (*Trace, Completion) {
	t.Helper()
	comp, tr, err := e.qpA.PostSendTraced(now, &SendWR{
		Opcode:     OpWrite,
		SGL:        []SGE{{Addr: e.mrA.Addr(), Length: size, MR: e.mrA}},
		RemoteAddr: e.mrB.Addr(),
		RemoteKey:  e.mrB.RKey(),
		Inline:     inline,
	})
	if err != nil {
		t.Fatal(err)
	}
	return tr, comp
}

func TestTraceStagesMonotone(t *testing.T) {
	e := newPair(t)
	tr, comp := tracedWrite(t, e, 0, 64, false)
	if len(tr.Spans) < 6 {
		t.Fatalf("only %d stages recorded", len(tr.Spans))
	}
	prev := tr.Start
	for _, sp := range tr.Spans {
		if sp.Start != prev || sp.Dur < 0 {
			t.Fatalf("stage %s does not tile the walk: starts %v after %v, dur %v", sp.Stage, sp.Start, prev, sp.Dur)
		}
		prev = sp.Start + sp.Dur
	}
	if end, _ := tr.At(StageCompleted); end != comp.Done {
		t.Fatalf("trace end %v != completion %v", end, comp.Done)
	}
	if tr.Total() != comp.Done-tr.Start {
		t.Fatalf("Total()=%v", tr.Total())
	}
}

func TestTraceInlineSkipsFetchAndGather(t *testing.T) {
	e := newPair(t)
	tr, _ := tracedWrite(t, e, 0, 32, true)
	if _, ok := tr.At(StageWQEFetched); ok {
		t.Error("inline write must not fetch a WQE")
	}
	if _, ok := tr.At(StageGathered); ok {
		t.Error("inline write must not gather")
	}
	if _, ok := tr.At(StagePosted); !ok {
		t.Error("posted stage missing")
	}
}

func TestTraceDecomposeSumsToTotal(t *testing.T) {
	e := newPair(t)
	// Warm caches so the decomposition reflects steady state.
	tracedWrite(t, e, 0, 64, false)
	tr, _ := tracedWrite(t, e, 100*sim.Microsecond, 64, false)
	b := tr.Decompose()
	sum := b.RNICToSocket + b.Network + b.SocketToMemory + b.Completion
	if sum != tr.Total() {
		t.Fatalf("decomposition sums to %v, total is %v", sum, tr.Total())
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
	own := newPair(t)
	tracedWrite(t, own, 0, 64, false)
	trOwn, _ := tracedWrite(t, own, 100*sim.Microsecond, 64, false)

	alt := newPair(t)
	alt.qpA.BindCore(0) // port is on socket 1
	tracedWrite(t, alt, 0, 64, false)
	trAlt, _ := tracedWrite(t, alt, 100*sim.Microsecond, 64, false)

	if trAlt.Decompose().RNICToSocket <= trOwn.Decompose().RNICToSocket {
		t.Fatalf("alt-core RNIC->Socket (%v) should exceed own-core (%v)",
			trAlt.Decompose().RNICToSocket, trOwn.Decompose().RNICToSocket)
	}
}

func TestTraceDoesNotPerturbTiming(t *testing.T) {
	a := newPair(t)
	b := newPair(t)
	wr := func(e *pairEnv) *SendWR {
		return &SendWR{
			Opcode:     OpWrite,
			SGL:        []SGE{{Addr: e.mrA.Addr(), Length: 64, MR: e.mrA}},
			RemoteAddr: e.mrB.Addr(),
			RemoteKey:  e.mrB.RKey(),
		}
	}
	c1, err := a.qpA.PostSend(0, wr(a))
	if err != nil {
		t.Fatal(err)
	}
	c2, _, err := b.qpA.PostSendTraced(0, wr(b))
	if err != nil {
		t.Fatal(err)
	}
	if c1.Done != c2.Done {
		t.Fatalf("tracing changed timing: %v vs %v", c1.Done, c2.Done)
	}
}

func TestTraceRender(t *testing.T) {
	e := newPair(t)
	tr, _ := tracedWrite(t, e, 0, 64, false)
	var sb strings.Builder
	tr.Render(&sb)
	out := sb.String()
	for _, want := range []string{"WRITE trace", "posted", "arrived", "completed"} {
		if !strings.Contains(out, want) {
			t.Errorf("render missing %q:\n%s", want, out)
		}
	}
}

func TestTraceReadPath(t *testing.T) {
	e := newPair(t)
	comp, tr, err := e.qpA.PostSendTraced(0, &SendWR{
		Opcode:     OpRead,
		SGL:        []SGE{{Addr: e.mrA.Addr(), Length: 64, MR: e.mrA}},
		RemoteAddr: e.mrB.Addr(),
		RemoteKey:  e.mrB.RKey(),
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := tr.At(StageGathered); ok {
		t.Error("read has no outbound gather")
	}
	resp, _ := tr.At(StageResponded)
	arr, _ := tr.At(StageArrived)
	// The responder term of a READ carries the host DMA read latency.
	if resp-arr < 800 {
		t.Errorf("read responder term %v should include the host DMA read", resp-arr)
	}
	if comp.Done <= arr {
		t.Error("completion must follow arrival")
	}
}
