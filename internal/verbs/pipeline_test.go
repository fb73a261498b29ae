package verbs

import (
	"errors"
	"math/rand"
	"testing"

	"rdmasem/internal/cluster"
	"rdmasem/internal/mem"
	"rdmasem/internal/sim"
	"rdmasem/internal/telemetry"
)

// TestPostSendListPartialBatch pins the doorbell-list error contract: a
// runtime failure mid-list returns the completed prefix alongside the error,
// and len(comps) identifies the failing WR.
func TestPostSendListPartialBatch(t *testing.T) {
	e := newPair(t)
	// Two receive buffers for four SENDs: WRs 0 and 1 land, WR 2 hits RNR.
	for i := 0; i < 2; i++ {
		if err := e.qpB.PostRecv(RecvWR{ID: uint64(100 + i), SGE: SGE{Addr: e.mrB.Addr() + mem.Addr(i*256), Length: 256, MR: e.mrB}}); err != nil {
			t.Fatal(err)
		}
	}
	wrs := make([]*SendWR, 4)
	for i := range wrs {
		copy(e.mrA.Region().Bytes()[i*16:], []byte{byte('a' + i)})
		wrs[i] = &SendWR{
			ID:     uint64(i),
			Opcode: OpSend,
			SGL:    []SGE{{Addr: e.mrA.Addr() + mem.Addr(i*16), Length: 16, MR: e.mrA}},
		}
	}
	comps, err := e.qpA.PostSendList(0, wrs)
	if !errors.Is(err, ErrRNR) {
		t.Fatalf("err=%v, want ErrRNR", err)
	}
	if len(comps) != 2 {
		t.Fatalf("got %d completions, want the 2-WR prefix", len(comps))
	}
	for i, c := range comps {
		if c.WRID != uint64(i) || c.Bytes != 16 {
			t.Fatalf("prefix completion %d = %+v", i, c)
		}
		if c.Done <= 0 {
			t.Fatalf("prefix completion %d has no timing", i)
		}
	}
	// wrs[len(comps)] is the failing WR; its effects must be absent while
	// the prefix's data and CQEs are in place.
	if got := e.mrB.Region().Bytes()[0]; got != 'a' {
		t.Fatalf("first send payload = %q", got)
	}
	if got := e.mrB.Region().Bytes()[256]; got != 'b' {
		t.Fatalf("second send payload = %q", got)
	}
	cqes := drainCQ(e.qpB.RecvCQ())
	if len(cqes) != 2 || cqes[0].WRID != 100 || cqes[1].WRID != 101 {
		t.Fatalf("recv CQEs %+v", cqes)
	}

	// A validation failure is detected up front: no completions, no effects.
	e2 := newPair(t)
	bad := []*SendWR{
		{Opcode: OpWrite, SGL: []SGE{{Addr: e2.mrA.Addr(), Length: 8, MR: e2.mrA}}, RemoteAddr: e2.mrB.Addr(), RemoteKey: e2.mrB.RKey()},
		{Opcode: OpWrite, SGL: nil, RemoteAddr: e2.mrB.Addr(), RemoteKey: e2.mrB.RKey()},
	}
	comps, err = e2.qpA.PostSendList(0, bad)
	if !errors.Is(err, ErrBadSGL) || comps != nil {
		t.Fatalf("validation failure: comps=%v err=%v", comps, err)
	}
	if got := e2.cl.Machine(0).NIC().Counters().Doorbells; got != 0 {
		t.Fatalf("doorbells after rejected list = %d, want 0", got)
	}
}

// randomWR builds a deterministic random RC work request. The spread covers
// every opcode and single and multi-SGE gathers.
func randomWR(rng *rand.Rand, e *pairEnv) *SendWR {
	ops := []Opcode{OpWrite, OpRead, OpSend, OpCompSwap, OpFetchAdd}
	op := ops[rng.Intn(len(ops))]
	wr := &SendWR{ID: rng.Uint64(), Opcode: op}
	if op == OpCompSwap || op == OpFetchAdd {
		wr.SGL = []SGE{{Addr: e.mrA.Addr() + mem.Addr(rng.Intn(1024)*8), Length: 8, MR: e.mrA}}
		wr.RemoteAddr = e.mrB.Addr() + mem.Addr(rng.Intn(1024)*8)
		wr.RemoteKey = e.mrB.RKey()
		wr.CompareAdd = rng.Uint64()
		wr.Swap = rng.Uint64()
		return wr
	}
	nSGE := 1 + rng.Intn(3)
	for i := 0; i < nSGE; i++ {
		l := 1 + rng.Intn(512)
		wr.SGL = append(wr.SGL, SGE{Addr: e.mrA.Addr() + mem.Addr(rng.Intn(1<<19)), Length: l, MR: e.mrA})
	}
	if op.OneSided() {
		wr.RemoteAddr = e.mrB.Addr() + mem.Addr(rng.Intn(1<<19))
		wr.RemoteKey = e.mrB.RKey()
	}
	return wr
}

// newTestCluster is a two-machine cluster with the given telemetry sinks
// attached (either may be nil).
func newTestCluster(t *testing.T, reg *telemetry.Registry, tl *telemetry.Timeline) *cluster.Cluster {
	t.Helper()
	cfg := cluster.DefaultConfig()
	cfg.Machines = 2
	cfg.Telemetry = reg
	cfg.Timeline = tl
	cl, err := cluster.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return cl
}

// TestTracedMatchesUntraced is the engine-equivalence property: the same
// random WR sequence replayed on identical fresh clusters must produce
// bit-identical completion times whether posted plainly, observed by a
// metrics registry and a timeline, or as a singleton doorbell list. There is
// only one stage walk; observation and batching must not perturb it. The
// observed leg also pins that the recorder's attribution is exact: each op's
// timeline spans tile [post, Completion.Done], and per opcode the stage
// histograms sum to the end-to-end histogram. UD is exempt from both (see
// TestUDTracedMatchesUntraced): a datagram's remote spans may end after its
// local CQE, so they need not tile its latency.
func TestTracedMatchesUntraced(t *testing.T) {
	t.Run("RC", func(t *testing.T) {
		plain, listed := newPair(t), newPair(t)
		cfg := cluster.DefaultConfig()
		cfg.Telemetry = telemetry.NewRegistry()
		cfg.Timeline = telemetry.NewTimeline(0)
		metered, err := pairOn(cfg)
		if err != nil {
			t.Fatal(err)
		}
		now := sim.Time(0)
		for step := 0; step < 60; step++ {
			// One shared generator per variant, same seed: identical WRs.
			wrOn := func(e *pairEnv) *SendWR {
				return randomWR(rand.New(rand.NewSource(int64(step))), e)
			}
			if wrOn(plain).Opcode == OpSend {
				for _, e := range []*pairEnv{plain, listed, metered} {
					if err := e.qpB.PostRecv(RecvWR{SGE: SGE{Addr: e.mrB.Addr(), Length: 1 << 20, MR: e.mrB}}); err != nil {
						t.Fatal(err)
					}
				}
			}
			cp, err := plain.qpA.PostSend(now, wrOn(plain))
			if err != nil {
				t.Fatal(err)
			}
			cls, err := listed.qpA.PostSendList(now, []*SendWR{wrOn(listed)})
			if err != nil {
				t.Fatal(err)
			}
			cm, err := metered.qpA.PostSend(now, wrOn(metered))
			if err != nil {
				t.Fatal(err)
			}
			if cp.Done != cls[0].Done || cp.Done != cm.Done {
				t.Fatalf("step %d: plain %v, listed %v, metered %v", step, cp.Done, cls[0].Done, cm.Done)
			}
			checkTiles(t, opSpans(cfg.Timeline, metered.qpA.ID(), int64(step+1)), now, cp.Done)
			now = cp.Done + sim.Time(100+step*7)
		}
		for op := OpWrite; op <= OpSend; op++ {
			label, comp := metered.cl.Machine(0).Label(), "verbs/"+op.String()
			var stages sim.Duration
			for st := StagePosted; st <= StageCompleted; st++ {
				_, sum, _, _ := cfg.Telemetry.Hist(label, comp, st.String()).Stats()
				stages += sum
			}
			n, e2e, _, _ := cfg.Telemetry.Hist(label, comp, "e2e").Stats()
			if n == 0 || stages != e2e {
				t.Errorf("%s: %d ops, stage histograms sum to %v, e2e to %v", op, n, stages, e2e)
			}
		}
	})
}

// TestUDTracedMatchesUntraced is the datagram leg of the equivalence
// property, including the drop path: a datagram sent with metrics and a
// timeline attached completes, and drops, exactly as a plain one does, and
// the timeline records its stages.
func TestUDTracedMatchesUntraced(t *testing.T) {
	mkUD := func(cl *cluster.Cluster) (*pairEnv, *UDQP, *UDQP) {
		ctxA, ctxB := NewContext(cl.Machine(0)), NewContext(cl.Machine(1))
		e := &pairEnv{cl: cl, ctxA: ctxA, ctxB: ctxB}
		e.mrA = ctxA.MustRegisterMR(cl.Machine(0).MustAlloc(1, 1<<20, 0))
		e.mrB = ctxB.MustRegisterMR(cl.Machine(1).MustAlloc(1, 1<<20, 0))
		qa, err := NewUDQP(ctxA, 1)
		if err != nil {
			t.Fatal(err)
		}
		qb, err := NewUDQP(ctxB, 1)
		if err != nil {
			t.Fatal(err)
		}
		return e, qa, qb
	}
	tl := telemetry.NewTimeline(0)
	e1, s1, r1 := mkUD(newTestCluster(t, nil, nil))
	e3, s3, r3 := mkUD(newTestCluster(t, telemetry.NewRegistry(), tl))
	now := sim.Time(0)
	for step := 0; step < 40; step++ {
		rng := rand.New(rand.NewSource(int64(step)))
		size := 1 + rng.Intn(MaxInline)
		post := rng.Intn(3) > 0 // sometimes leave no buffer: datagram drops
		if post {
			if err := r1.PostRecv(RecvWR{SGE: SGE{Addr: e1.mrB.Addr(), Length: 1 << 20, MR: e1.mrB}}); err != nil {
				t.Fatal(err)
			}
			if err := r3.PostRecv(RecvWR{SGE: SGE{Addr: e3.mrB.Addr(), Length: 1 << 20, MR: e3.mrB}}); err != nil {
				t.Fatal(err)
			}
		}
		c1, d1, err := s1.Send(now, r1.Handle(), []SGE{{Addr: e1.mrA.Addr(), Length: size, MR: e1.mrA}})
		if err != nil {
			t.Fatal(err)
		}
		if d1 == post {
			t.Fatalf("step %d: drop=%v with recv posted=%v", step, d1, post)
		}
		c3, d3, err := s3.Send(now, r3.Handle(), []SGE{{Addr: e3.mrA.Addr(), Length: size, MR: e3.mrA}})
		if err != nil {
			t.Fatal(err)
		}
		if c3.Done != c1.Done || d3 != d1 {
			t.Fatalf("step %d: metered %v/%v, want %v/%v", step, c3.Done, d3, c1.Done, d1)
		}
		spans := 0
		for _, sp := range tl.Spans() {
			if sp.TID == int64(s3.ID()) && sp.Op == int64(step+1) {
				spans++
			}
		}
		if spans == 0 {
			t.Fatalf("step %d: the timeline recorded no stage of the datagram", step)
		}
		now = c1.Done + sim.Time(250)
	}
}

// TestStageCounters checks the per-device counters the engine feeds: a UD
// datagram rides inline, so it rings one doorbell and fetches nothing by
// DMA; an RC write costs a WQE fetch and one gather DMA spanning the SGL.
func TestStageCounters(t *testing.T) {
	e, ua, ub := udPair(t)
	nic := e.cl.Machine(0).NIC()
	base := nic.Counters()
	if _, _, err := ua.Send(0, ub.Handle(), []SGE{{Addr: e.mrA.Addr(), Length: 32, MR: e.mrA}}); err != nil {
		t.Fatal(err)
	}
	c := nic.Counters()
	if c.Doorbells != base.Doorbells+1 {
		t.Fatalf("doorbells %d -> %d", base.Doorbells, c.Doorbells)
	}
	if c.WQEFetches != base.WQEFetches || c.GatherOps != base.GatherOps {
		t.Fatalf("inline datagram should not DMA: %+v -> %+v", base, c)
	}

	base = nic.Counters()
	if _, err := e.qpA.PostSend(sim.Time(sim.Millisecond), &SendWR{
		Opcode: OpWrite,
		SGL: []SGE{
			{Addr: e.mrA.Addr(), Length: 1024, MR: e.mrA},
			{Addr: e.mrA.Addr() + 4096, Length: 1024, MR: e.mrA},
		},
		RemoteAddr: e.mrB.Addr(),
		RemoteKey:  e.mrB.RKey(),
	}); err != nil {
		t.Fatal(err)
	}
	c = nic.Counters()
	if c.Doorbells != base.Doorbells+1 || c.WQEFetches != base.WQEFetches+1 {
		t.Fatalf("RC write doorbell/WQE: %+v -> %+v", base, c)
	}
	if c.GatherOps != base.GatherOps+1 || c.GatherFrags != base.GatherFrags+2 || c.GatherBytes != base.GatherBytes+2048 {
		t.Fatalf("gather accounting: %+v -> %+v", base, c)
	}
	// The responder NIC scatters the payload.
	rc := e.cl.Machine(1).NIC().Counters()
	if rc.ScatterOps == 0 || rc.ScatterBytes == 0 {
		t.Fatalf("responder scatter counters empty: %+v", rc)
	}
}
