package verbs

import (
	"bytes"
	"errors"
	"math/rand"
	"testing"
	"testing/quick"

	"rdmasem/internal/cluster"
	"rdmasem/internal/fabric"
	"rdmasem/internal/mem"
	"rdmasem/internal/sim"
)

// pairEnv is a one-to-one test harness: two machines, one RC QP pair between
// port 1 of each (the NIC-socket-affine port), and one 1 MB MR on each side
// on the port's socket.
type pairEnv struct {
	cl       *cluster.Cluster
	ctxA     *Context
	ctxB     *Context
	qpA, qpB *QP
	mrA, mrB *MR
}

func newPair(t *testing.T) *pairEnv {
	t.Helper()
	e, err := pairOn(cluster.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	return e
}

// pairOn builds the pair on a two-machine cluster made from cfg.
func pairOn(cfg cluster.Config) (*pairEnv, error) {
	cfg.Machines = 2
	cl, err := cluster.New(cfg)
	if err != nil {
		return nil, err
	}
	ctxA := NewContext(cl.Machine(0))
	ctxB := NewContext(cl.Machine(1))
	qpA, qpB, err := Connect(ctxA, 1, ctxB, 1, RC)
	if err != nil {
		return nil, err
	}
	mrA := ctxA.MustRegisterMR(cl.Machine(0).MustAlloc(1, 1<<20, 0))
	mrB := ctxB.MustRegisterMR(cl.Machine(1).MustAlloc(1, 1<<20, 0))
	return &pairEnv{cl: cl, ctxA: ctxA, ctxB: ctxB, qpA: qpA, qpB: qpB, mrA: mrA, mrB: mrB}, nil
}

func TestWriteMovesData(t *testing.T) {
	e := newPair(t)
	msg := []byte("one-sided write payload")
	copy(e.mrA.Region().Bytes(), msg)
	comp, err := e.qpA.PostSend(0, &SendWR{
		ID:         42,
		Opcode:     OpWrite,
		SGL:        []SGE{{Addr: e.mrA.Addr(), Length: len(msg), MR: e.mrA}},
		RemoteAddr: e.mrB.Addr(),
		RemoteKey:  e.mrB.RKey(),
	})
	if err != nil {
		t.Fatal(err)
	}
	if comp.WRID != 42 || comp.Bytes != len(msg) {
		t.Fatalf("completion %+v", comp)
	}
	if got := e.mrB.Region().Bytes()[:len(msg)]; !bytes.Equal(got, msg) {
		t.Fatalf("remote memory = %q, want %q", got, msg)
	}
}

func TestSGLWriteGathersScatteredBuffers(t *testing.T) {
	e := newPair(t)
	// Three discontiguous local fragments coalesce into one remote extent
	// (the SGL vector-IO mechanism of Section III-A).
	b := e.mrA.Region().Bytes()
	copy(b[0:], "AAAA")
	copy(b[100:], "BBBB")
	copy(b[200:], "CCCC")
	base := e.mrA.Addr()
	_, err := e.qpA.PostSend(0, &SendWR{
		Opcode: OpWrite,
		SGL: []SGE{
			{Addr: base, Length: 4, MR: e.mrA},
			{Addr: base + 100, Length: 4, MR: e.mrA},
			{Addr: base + 200, Length: 4, MR: e.mrA},
		},
		RemoteAddr: e.mrB.Addr() + 8,
		RemoteKey:  e.mrB.RKey(),
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := string(e.mrB.Region().Bytes()[8:20]); got != "AAAABBBBCCCC" {
		t.Fatalf("remote = %q", got)
	}
}

func TestReadScattersIntoSGL(t *testing.T) {
	e := newPair(t)
	copy(e.mrB.Region().Bytes()[64:], "0123456789abcdef")
	base := e.mrA.Addr()
	_, err := e.qpA.PostSend(0, &SendWR{
		Opcode: OpRead,
		SGL: []SGE{
			{Addr: base, Length: 8, MR: e.mrA},
			{Addr: base + 512, Length: 8, MR: e.mrA},
		},
		RemoteAddr: e.mrB.Addr() + 64,
		RemoteKey:  e.mrB.RKey(),
	})
	if err != nil {
		t.Fatal(err)
	}
	lb := e.mrA.Region().Bytes()
	if string(lb[:8]) != "01234567" || string(lb[512:520]) != "89abcdef" {
		t.Fatalf("scatter result %q / %q", lb[:8], lb[512:520])
	}
}

func TestCompareAndSwap(t *testing.T) {
	e := newPair(t)
	target := e.mrB.Addr()
	word := func() uint64 {
		var b [8]byte
		if err := e.ctxB.Machine().Space().ReadAt(target, b[:]); err != nil {
			t.Fatal(err)
		}
		return uint64(b[0]) | uint64(b[1])<<8 | uint64(b[2])<<16 | uint64(b[3])<<24 |
			uint64(b[4])<<32 | uint64(b[5])<<40 | uint64(b[6])<<48 | uint64(b[7])<<56
	}
	cas := func(compare, swap uint64) Completion {
		comp, err := e.qpA.PostSend(0, &SendWR{
			Opcode:     OpCompSwap,
			SGL:        []SGE{{Addr: e.mrA.Addr(), Length: 8, MR: e.mrA}},
			RemoteAddr: target,
			RemoteKey:  e.mrB.RKey(),
			CompareAdd: compare,
			Swap:       swap,
		})
		if err != nil {
			t.Fatal(err)
		}
		return comp
	}
	c := cas(0, 7) // succeeds: 0 -> 7
	if c.OldValue != 0 || word() != 7 {
		t.Fatalf("first CAS old=%d word=%d", c.OldValue, word())
	}
	c = cas(0, 99) // fails: word is 7
	if c.OldValue != 7 || word() != 7 {
		t.Fatalf("failed CAS old=%d word=%d", c.OldValue, word())
	}
}

func TestFetchAndAdd(t *testing.T) {
	e := newPair(t)
	target := e.mrB.Addr() + 16
	var sum uint64
	for i := uint64(1); i <= 5; i++ {
		comp, err := e.qpA.PostSend(0, &SendWR{
			Opcode:     OpFetchAdd,
			SGL:        []SGE{{Addr: e.mrA.Addr(), Length: 8, MR: e.mrA}},
			RemoteAddr: target,
			RemoteKey:  e.mrB.RKey(),
			CompareAdd: i,
		})
		if err != nil {
			t.Fatal(err)
		}
		if comp.OldValue != sum {
			t.Fatalf("FAA old=%d, want %d", comp.OldValue, sum)
		}
		sum += i
	}
}

func TestSendRecv(t *testing.T) {
	e := newPair(t)
	if err := e.qpB.PostRecv(RecvWR{ID: 9, SGE: SGE{Addr: e.mrB.Addr(), Length: 256, MR: e.mrB}}); err != nil {
		t.Fatal(err)
	}
	msg := []byte("two-sided message")
	copy(e.mrA.Region().Bytes()[32:], msg)
	comp, err := e.qpA.PostSend(0, &SendWR{
		Opcode: OpSend,
		SGL:    []SGE{{Addr: e.mrA.Addr() + 32, Length: len(msg), MR: e.mrA}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(e.mrB.Region().Bytes()[:len(msg)], msg) {
		t.Fatal("payload did not land in receive buffer")
	}
	// The receiver's CQ must carry the recv completion.
	cqes := drainCQ(e.qpB.RecvCQ())
	if len(cqes) != 1 || cqes[0].WRID != 9 || cqes[0].Bytes != len(msg) {
		t.Fatalf("recv CQEs %+v", cqes)
	}
	if comp.Done <= 0 {
		t.Fatal("send completion time must be positive")
	}
}

// TestSendWithoutRecvIsRNR: an RC SEND that finds no posted receive, in its
// peer's own queue or in the peer's SRQ, returns ErrRNR on every fabric. It
// draws no retransmit, no timeout and no error completion, and the QP stays
// READY: once a receive is posted, the same SEND lands.
func TestSendWithoutRecvIsRNR(t *testing.T) {
	for _, c := range []struct {
		name string
		srq  bool
		plan *fabric.FaultPlan
	}{
		{"per-QP lossless", false, nil},
		{"per-QP lossy", false, &fabric.FaultPlan{Seed: 1, Drop: 0.01}},
		{"SRQ lossless", true, nil},
		{"SRQ lossy", true, &fabric.FaultPlan{Seed: 1, Drop: 0.01}},
	} {
		t.Run(c.name, func(t *testing.T) {
			e := newLossyPair(t, c.plan)
			post := e.qpB.PostRecv
			if c.srq {
				srq := NewSRQ(e.ctxB)
				if err := e.qpB.AttachSRQ(srq); err != nil {
					t.Fatal(err)
				}
				post = srq.PostRecv
			}
			send := &SendWR{ID: 5, Opcode: OpSend, SGL: []SGE{{Addr: e.mrA.Addr(), Length: 8, MR: e.mrA}}}
			if _, err := e.qpA.PostSend(0, send); !errors.Is(err, ErrRNR) {
				t.Fatalf("err=%v, want ErrRNR", err)
			}
			if st := e.qpA.Stats(); st.Retransmits != 0 || st.AckTimeouts != 0 || st.RetriesExhausted != 0 {
				t.Fatalf("SEND into an empty receive queue drew recovery: %+v", st)
			}
			if e.qpA.State() != StateReady {
				t.Fatalf("QP state %v after ErrRNR, want READY", e.qpA.State())
			}
			if err := post(RecvWR{ID: 9, SGE: SGE{Addr: e.mrB.Addr(), Length: 64, MR: e.mrB}}); err != nil {
				t.Fatal(err)
			}
			copy(e.mrA.Region().Bytes(), "payload!")
			comp, err := e.qpA.PostSend(0, send)
			if err != nil || comp.Status != StatusOK {
				t.Fatalf("SEND with a receive posted: %v status %v", err, comp.Status)
			}
			if got := string(e.mrB.Region().Bytes()[:8]); got != "payload!" {
				t.Fatalf("receive buffer holds %q", got)
			}
			if cqes := drainCQ(e.qpB.RecvCQ()); len(cqes) != 1 || cqes[0].WRID != 9 {
				t.Fatalf("receive CQEs %+v, want the one posted receive", cqes)
			}
		})
	}
}

func TestValidationErrors(t *testing.T) {
	e := newPair(t)
	good := func() *SendWR {
		return &SendWR{
			Opcode:     OpWrite,
			SGL:        []SGE{{Addr: e.mrA.Addr(), Length: 8, MR: e.mrA}},
			RemoteAddr: e.mrB.Addr(),
			RemoteKey:  e.mrB.RKey(),
		}
	}

	wr := good()
	wr.SGL = nil
	if _, err := e.qpA.PostSend(0, wr); !errors.Is(err, ErrBadSGL) {
		t.Errorf("empty SGL: %v", err)
	}

	wr = good()
	wr.RemoteKey = 999
	if _, err := e.qpA.PostSend(0, wr); !errors.Is(err, ErrBadRKey) {
		t.Errorf("bad rkey: %v", err)
	}

	wr = good()
	wr.RemoteAddr = e.mrB.Addr() + mem.Addr(e.mrB.Region().Size()) - 4
	if _, err := e.qpA.PostSend(0, wr); !errors.Is(err, ErrMRBounds) {
		t.Errorf("remote overflow: %v", err)
	}

	wr = good()
	wr.SGL[0].Length = 2 << 20
	if _, err := e.qpA.PostSend(0, wr); !errors.Is(err, ErrMRBounds) {
		t.Errorf("local overflow: %v", err)
	}

	wr = good()
	wr.Opcode = OpCompSwap
	wr.SGL[0].Length = 16
	if _, err := e.qpA.PostSend(0, wr); !errors.Is(err, ErrAtomicSize) {
		t.Errorf("atomic size: %v", err)
	}

	// A foreign MR in the SGL is rejected.
	wr = good()
	wr.SGL[0].MR = e.mrB
	if _, err := e.qpA.PostSend(0, wr); !errors.Is(err, ErrBadSGL) {
		t.Errorf("foreign MR: %v", err)
	}
}

// TestTransportRestrictions: RC is the only connected transport (Section
// II-A); Connect rejects any other.
func TestTransportRestrictions(t *testing.T) {
	e := newPair(t)
	for _, tr := range []Transport{UD, Transport(7)} {
		if _, _, err := Connect(e.ctxA, 1, e.ctxB, 1, tr); !errors.Is(err, ErrBadTransport) {
			t.Errorf("transport %d connect: %v", tr, err)
		}
	}
}

func TestDoorbellListBeatsIndividualPosts(t *testing.T) {
	mkWR := func(e *pairEnv) *SendWR {
		return &SendWR{
			Opcode:     OpWrite,
			SGL:        []SGE{{Addr: e.mrA.Addr(), Length: 32, MR: e.mrA}},
			RemoteAddr: e.mrB.Addr(),
			RemoteKey:  e.mrB.RKey(),
		}
	}
	const k = 8

	e1 := newPair(t)
	e1.qpA.PostSend(0, mkWR(e1)) // warm metadata caches
	wrs := make([]*SendWR, k)
	for i := range wrs {
		wrs[i] = mkWR(e1)
	}
	base := sim.Time(100 * sim.Microsecond)
	comps, err := e1.qpA.PostSendList(base, wrs)
	if err != nil {
		t.Fatal(err)
	}
	listDone := comps[len(comps)-1].Done - base

	e2 := newPair(t)
	e2.qpA.PostSend(0, mkWR(e2)) // warm metadata caches
	var seqDone sim.Time
	now := base
	for i := 0; i < k; i++ {
		c, err := e2.qpA.PostSend(now, mkWR(e2))
		if err != nil {
			t.Fatal(err)
		}
		seqDone = c.Done - base
		now += 300 // one MMIO's worth of CPU between posts
	}
	if listDone >= seqDone {
		t.Fatalf("doorbell list (%v) should finish before %d individual posts (%v)", listDone, k, seqDone)
	}
}

func TestRCOrderingInCQ(t *testing.T) {
	e := newPair(t)
	wr := &SendWR{
		Opcode:     OpWrite,
		SGL:        []SGE{{Addr: e.mrA.Addr(), Length: 32, MR: e.mrA}},
		RemoteAddr: e.mrB.Addr(),
		RemoteKey:  e.mrB.RKey(),
	}
	var last sim.Time
	for i := 0; i < 10; i++ {
		wr.ID = uint64(i)
		c, err := e.qpA.PostSend(sim.Time(i)*100, wr)
		if err != nil {
			t.Fatal(err)
		}
		if c.Done < last {
			t.Fatal("completions must be delivered in order on one QP")
		}
		if c.WRID != uint64(i) {
			t.Fatalf("completion %d has WRID %d", i, c.WRID)
		}
		last = c.Done
	}
	if e.qpA.send.lastCQE != last {
		t.Fatalf("send clamp at %v, want the last CQE time %v", e.qpA.send.lastCQE, last)
	}
}

// TestCQPollRespectsTime pins the queued side of completions: a receive CQE
// is invisible before its completion time, visible at it, and polled once.
func TestCQPollRespectsTime(t *testing.T) {
	e := newPair(t)
	if err := e.qpB.PostRecv(RecvWR{ID: 7, SGE: SGE{Addr: e.mrB.Addr(), Length: 8, MR: e.mrB}}); err != nil {
		t.Fatal(err)
	}
	wr := &SendWR{
		Opcode: OpSend,
		SGL:    []SGE{{Addr: e.mrA.Addr(), Length: 8, MR: e.mrA}},
	}
	if _, err := e.qpA.PostSend(0, wr); err != nil {
		t.Fatal(err)
	}
	cq := e.qpB.RecvCQ()
	if len(cq.entries) != 1 {
		t.Fatalf("receive CQ holds %d entries, want 1", len(cq.entries))
	}
	at := cq.entries[0].Time
	if _, ok := cq.PollOne(at - 1); ok {
		t.Fatal("CQE visible before completion time")
	}
	if got, ok := cq.PollOne(at); !ok || got.WRID != 7 {
		t.Fatal("CQE not visible at completion time")
	}
	if _, ok := cq.PollOne(at); ok {
		t.Fatal("CQE polled twice")
	}
}

// drainCQ polls every entry off q, oldest first.
func drainCQ(q *CQ) []CQE {
	var out []CQE
	for {
		e, ok := q.PollOne(sim.MaxTime)
		if !ok {
			return out
		}
		out = append(out, e)
	}
}

func TestPostOnDisconnectedQP(t *testing.T) {
	e := newPair(t)
	q := &QP{qpState: qpState{route: e.ctxA.routes[1]}}
	if _, err := q.PostSend(0, &SendWR{}); !errors.Is(err, ErrNotConnected) {
		t.Fatalf("err=%v, want ErrNotConnected", err)
	}
}

// TestLookupMR: RKeys run 1, 2, 3, ... per context in registration order,
// every registered key resolves, and RKey 0 and a key past the last
// registration fail with ErrBadRKey.
func TestLookupMR(t *testing.T) {
	e := newPair(t)
	m := e.cl.Machine(1)
	mrs := []*MR{e.mrB}
	for i := 0; i < 3; i++ {
		mrs = append(mrs, e.ctxB.MustRegisterMR(m.MustAlloc(1, 4096, 0)))
	}
	for i, mr := range mrs {
		if want := RKey(i + 1); mr.RKey() != want {
			t.Fatalf("registration %d got RKey %d, want %d", i, mr.RKey(), want)
		}
	}
	if e.mrA.RKey() != 1 {
		t.Fatalf("the other context's first RKey is %d, want 1", e.mrA.RKey())
	}
	cases := []struct {
		name string
		key  RKey
		want *MR // nil: ErrBadRKey
	}{
		{"zero", 0, nil},
		{"first", 1, mrs[0]},
		{"second", 2, mrs[1]},
		{"third", 3, mrs[2]},
		{"last", 4, mrs[3]},
		{"past the end", 5, nil},
		{"far past the end", RKey(1 << 40), nil},
	}
	for _, tc := range cases {
		got, err := e.ctxB.LookupMR(tc.key)
		if tc.want == nil {
			if got != nil || !errors.Is(err, ErrBadRKey) {
				t.Errorf("%s: LookupMR(%d) = %v, %v; want ErrBadRKey", tc.name, tc.key, got, err)
			}
			continue
		}
		if got != tc.want || err != nil {
			t.Errorf("%s: LookupMR(%d) = %v, %v; want MR %d", tc.name, tc.key, got, err, tc.want.RKey())
		}
	}
}

// RegisterMR accepts only regions of its own machine's memory: the
// responder lands one-sided data through the MR's region, so a region
// borrowed from another machine's Space must be refused up front.
func TestRegisterMRRejectsForeignRegion(t *testing.T) {
	e := newPair(t)
	foreign := e.cl.Machine(0).MustAlloc(0, 4096, 0)
	if _, err := e.ctxB.RegisterMR(foreign); !errors.Is(err, ErrForeignMR) {
		t.Fatalf("err=%v, want ErrForeignMR for another machine's region", err)
	}
	// A region of the same shape at the same address in a fresh space is
	// still not the region this machine's memory holds.
	space, err := mem.NewSpace(48 << 30)
	if err != nil {
		t.Fatal(err)
	}
	stray, err := space.Alloc(1, 1<<20, 0)
	if err != nil {
		t.Fatal(err)
	}
	if stray.Addr() != e.mrA.Addr() {
		t.Fatalf("stray region at %#x, want it to shadow %#x", stray.Addr(), e.mrA.Addr())
	}
	if _, err := e.ctxA.RegisterMR(stray); !errors.Is(err, ErrForeignMR) {
		t.Fatalf("err=%v, want ErrForeignMR for a region of another Space", err)
	}
	if _, err := e.ctxA.RegisterMR(nil); err == nil {
		t.Fatal("nil region must fail")
	}
	if _, err := e.ctxA.RegisterMR(e.cl.Machine(0).MustAlloc(1, 4096, 0)); err != nil {
		t.Fatalf("own region: %v", err)
	}
}

// Connect rejects a port the machine's NIC does not have, as NewUDQP does.
func TestConnectRejectsBadPort(t *testing.T) {
	e := newPair(t)
	if _, _, err := Connect(e.ctxA, 2, e.ctxB, 0, RC); err == nil {
		t.Fatal("port 2 of a dual-port NIC must fail")
	}
	if _, _, err := Connect(e.ctxA, 0, e.ctxB, -1, RC); err == nil {
		t.Fatal("negative port must fail")
	}
}

// Figure 1 calibration: small WRITE latency ~1.16us, READ ~2.0us; one-QP
// WRITE throughput ~4.7 MOPS, READ ~4.2 MOPS; remote atomics 2.2-2.5 MOPS.
func TestFigure1Calibration(t *testing.T) {
	e := newPair(t)
	writeWR := func() *SendWR {
		return &SendWR{
			Opcode:     OpWrite,
			SGL:        []SGE{{Addr: e.mrA.Addr(), Length: 32, MR: e.mrA}},
			RemoteAddr: e.mrB.Addr(),
			RemoteKey:  e.mrB.RKey(),
		}
	}
	readWR := func() *SendWR {
		wr := writeWR()
		wr.Opcode = OpRead
		return wr
	}
	// Warm all metadata caches.
	e.qpA.PostSend(0, writeWR())
	e.qpA.PostSend(0, readWR())

	base := sim.Time(sim.Millisecond)
	c, err := e.qpA.PostSend(base, writeWR())
	if err != nil {
		t.Fatal(err)
	}
	wlat := c.Done - base
	if wlat < 900 || wlat > 1500 {
		t.Errorf("32B write latency %v, want ~1.16us", wlat)
	}

	c, err = e.qpA.PostSend(base*2, readWR())
	if err != nil {
		t.Fatal(err)
	}
	rlat := c.Done - base*2
	if rlat < 1700 || rlat > 2400 {
		t.Errorf("32B read latency %v, want ~2.0us", rlat)
	}
	if rlat <= wlat {
		t.Errorf("read (%v) must be slower than write (%v)", rlat, wlat)
	}

	mops := func(mk func() *SendWR) float64 {
		env := newPair(t)
		wr := mk()
		// retarget onto the fresh environment
		wr.SGL[0].MR = env.mrA
		wr.SGL[0].Addr = env.mrA.Addr()
		wr.RemoteAddr = env.mrB.Addr()
		wr.RemoteKey = env.mrB.RKey()
		client := &sim.Client{
			PostCost: 150,
			Window:   16,
			Op: func(post sim.Time) sim.Time {
				c, err := env.qpA.PostSend(post, wr)
				if err != nil {
					t.Fatal(err)
				}
				return c.Done
			},
		}
		res, err := sim.RunClosedLoop([]*sim.Client{client}, 20*sim.Millisecond)
		if err != nil {
			t.Fatal(err)
		}
		return res.MOPS()
	}
	if w := mops(writeWR); w < 4.2 || w > 5.2 {
		t.Errorf("write throughput %.2f MOPS, want ~4.7", w)
	}
	if r := mops(readWR); r < 3.7 || r > 4.6 {
		t.Errorf("read throughput %.2f MOPS, want ~4.2", r)
	}
	atomWR := func() *SendWR {
		return &SendWR{
			Opcode:     OpFetchAdd,
			SGL:        []SGE{{Addr: e.mrA.Addr(), Length: 8, MR: e.mrA}},
			RemoteAddr: e.mrB.Addr(),
			RemoteKey:  e.mrB.RKey(),
			CompareAdd: 1,
		}
	}
	if a := mops(atomWR); a < 2.1 || a > 2.6 {
		t.Errorf("atomic throughput %.2f MOPS, want 2.2-2.5", a)
	}
}

// Large payloads become bandwidth-bound: 8KB writes should approach the
// 40 Gbps wire limit, far below the small-payload op rate.
func TestLargePayloadBandwidthBound(t *testing.T) {
	e := newPair(t)
	const size = 8192
	wr := &SendWR{
		Opcode:     OpWrite,
		SGL:        []SGE{{Addr: e.mrA.Addr(), Length: size, MR: e.mrA}},
		RemoteAddr: e.mrB.Addr(),
		RemoteKey:  e.mrB.RKey(),
	}
	client := &sim.Client{
		PostCost: 150,
		Window:   16,
		Op: func(post sim.Time) sim.Time {
			c, err := e.qpA.PostSend(post, wr)
			if err != nil {
				t.Fatal(err)
			}
			return c.Done
		},
	}
	res, err := sim.RunClosedLoop([]*sim.Client{client}, 20*sim.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	gbps := res.Throughput() * size * 8 / 1e9
	if gbps < 28 || gbps > 41 {
		t.Errorf("8KB write goodput %.1f Gbps, want near 40Gbps wire limit", gbps)
	}
}

// Property: a random sequence of WRITE/READ/FAA operations through the verbs
// stack leaves remote memory exactly as a plain reference model predicts.
func TestVerbsAgainstReferenceModelProperty(t *testing.T) {
	f := func(seed int64, opsRaw uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		e := newPairQuiet()
		if e == nil {
			return false
		}
		const span = 4096
		ref := make([]byte, span)   // reference image of remote memory
		local := make([]byte, span) // reference image of local memory
		now := sim.Time(0)
		for i := 0; i < int(opsRaw%40)+1; i++ {
			size := rng.Intn(64) + 1
			lOff := rng.Intn(span - size)
			rOff := rng.Intn(span - size)
			switch rng.Intn(3) {
			case 0: // WRITE
				for j := 0; j < size; j++ {
					b := byte(rng.Intn(256))
					e.mrA.Region().Bytes()[lOff+j] = b
					local[lOff+j] = b
				}
				c, err := e.qpA.PostSend(now, &SendWR{
					Opcode:     OpWrite,
					SGL:        []SGE{{Addr: e.mrA.Addr() + mem.Addr(lOff), Length: size, MR: e.mrA}},
					RemoteAddr: e.mrB.Addr() + mem.Addr(rOff),
					RemoteKey:  e.mrB.RKey(),
				})
				if err != nil {
					return false
				}
				copy(ref[rOff:rOff+size], local[lOff:lOff+size])
				now = c.Done
			case 1: // READ
				c, err := e.qpA.PostSend(now, &SendWR{
					Opcode:     OpRead,
					SGL:        []SGE{{Addr: e.mrA.Addr() + mem.Addr(lOff), Length: size, MR: e.mrA}},
					RemoteAddr: e.mrB.Addr() + mem.Addr(rOff),
					RemoteKey:  e.mrB.RKey(),
				})
				if err != nil {
					return false
				}
				copy(local[lOff:lOff+size], ref[rOff:rOff+size])
				now = c.Done
			default: // FAA on an aligned word
				w := (rOff / 8) * 8
				add := rng.Uint64() % 1000
				c, err := e.qpA.PostSend(now, &SendWR{
					Opcode:     OpFetchAdd,
					SGL:        []SGE{{Addr: e.mrA.Addr() + mem.Addr((lOff/8)*8), Length: 8, MR: e.mrA}},
					RemoteAddr: e.mrB.Addr() + mem.Addr(w),
					RemoteKey:  e.mrB.RKey(),
					CompareAdd: add,
				})
				if err != nil {
					return false
				}
				var old uint64
				for j := 0; j < 8; j++ {
					old |= uint64(ref[w+j]) << (8 * j)
				}
				if c.OldValue != old {
					return false
				}
				nv := old + add
				for j := 0; j < 8; j++ {
					ref[w+j] = byte(nv >> (8 * j))
				}
				// The old value lands in local memory too.
				for j := 0; j < 8; j++ {
					local[(lOff/8)*8+j] = byte(old >> (8 * j))
				}
				now = c.Done
			}
		}
		return bytes.Equal(e.mrB.Region().Bytes()[:span], ref) &&
			bytes.Equal(e.mrA.Region().Bytes()[:span], local)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// newPairQuiet builds the pair env without a *testing.T (for quick.Check).
func newPairQuiet() *pairEnv {
	e, _ := pairOn(cluster.DefaultConfig())
	return e
}
