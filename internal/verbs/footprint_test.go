package verbs

import (
	"errors"
	"reflect"
	"testing"
	"unsafe"

	"rdmasem/internal/cluster"
	"rdmasem/internal/fabric"
	"rdmasem/internal/rnic"
	"rdmasem/internal/sim"
)

// maxQPBytes is the ceiling on one connected QP's heap object, its header:
// qpsweep holds 20,000 pairs, so every field one side of a connection does
// not touch is host memory the sweep pays for. The send side (qpSend) and
// the receive side (qpRecv) are separate objects made on first use, and so
// is the send side's list completion buffer.
const maxQPBytes = 64

// registeredTallies is the number of QP tallies registered with n (its
// unexported qpRel list): only reliability state registers.
func registeredTallies(n *rnic.NIC) int {
	return reflect.ValueOf(n).Elem().FieldByName("qpRel").Len()
}

// addRel returns a+b, field by field.
func addRel(a, b rnic.RelCounters) rnic.RelCounters {
	va, vb := reflect.ValueOf(&a).Elem(), reflect.ValueOf(b)
	for i := 0; i < va.NumField(); i++ {
		va.Field(i).SetUint(va.Field(i).Uint() + vb.Field(i).Uint())
	}
	return a
}

// footprintQPs connects three pairs between two fresh machines of a cluster
// with the given fault plan (nil: lossless), two on port 1 and one on
// port 0 of each side, and returns every QP with the two regions.
func footprintQPs(t *testing.T, plan *fabric.FaultPlan) (*cluster.Cluster, []*QP, *MR, *MR) {
	t.Helper()
	cfg := cluster.DefaultConfig()
	cfg.Machines = 2
	cfg.Faults = plan
	cl, err := cluster.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(cl.Release)
	ctxA, ctxB := NewContext(cl.Machine(0)), NewContext(cl.Machine(1))
	var qps []*QP
	for _, port := range []int{1, 1, 0} {
		qa, qb, err := Connect(ctxA, port, ctxB, port, RC)
		if err != nil {
			t.Fatal(err)
		}
		qps = append(qps, qa, qb)
	}
	mrA := ctxA.MustRegisterMR(cl.Machine(0).MustAlloc(1, 1<<20, 0))
	mrB := ctxB.MustRegisterMR(cl.Machine(1).MustAlloc(1, 1<<20, 0))
	return cl, qps, mrA, mrB
}

// postBatch posts WRITEs of sizes up to three PathMTUs, READs and a
// FETCH_ADD from every A-side QP (even index) and returns the last
// completion time.
func postBatch(t *testing.T, qps []*QP, mrA, mrB *MR) sim.Time {
	t.Helper()
	now := sim.Time(0)
	for i := 0; i < len(qps); i += 2 {
		for _, n := range []int{64, PathMTU + 1, 3 * PathMTU} {
			for _, op := range []Opcode{OpWrite, OpRead} {
				wr := &SendWR{Opcode: op, SGL: []SGE{{Addr: mrA.Addr(), Length: n, MR: mrA}}, RemoteAddr: mrB.Addr(), RemoteKey: mrB.RKey()}
				c, err := qps[i].PostSend(now, wr)
				if err != nil {
					t.Fatal(err)
				}
				now = c.Done
			}
		}
		wr := &SendWR{Opcode: OpFetchAdd, SGL: []SGE{{Addr: mrA.Addr(), Length: 8, MR: mrA}}, RemoteAddr: mrB.Addr(), RemoteKey: mrB.RKey(), CompareAdd: 1}
		c, err := qps[i].PostSend(now, wr)
		if err != nil {
			t.Fatal(err)
		}
		now = c.Done
	}
	return now
}

// TestQPFootprint pins what one QP costs the host: a heap object of at most
// maxQPBytes, two allocations per lossless Connect (the two QP headers),
// a send side only on a QP that posts (the first single-WR post allocates
// the send side and its pipeline's interval list, and no completion
// buffer), a list completion buffer only on a QP that posts a list, a receive side only on one that receives, and no reliability state
// or NIC registration on a lossless fabric. On a lossy one each QP's tally is registered at construction, so
// the NIC's sum matches its QPs'.
func TestQPFootprint(t *testing.T) {
	if n := unsafe.Sizeof(QP{}); n > maxQPBytes {
		t.Errorf("QP is %d bytes, want at most %d", n, maxQPBytes)
	}
	if n := unsafe.Sizeof(qpSend{}); n > 64 {
		t.Errorf("a QP's send side is %d bytes, want at most 64", n)
	}
	if n := unsafe.Sizeof(qpRecv{}); n > 64 {
		t.Errorf("a QP's receive side is %d bytes, want at most 64", n)
	}

	cl, qps, mrA, mrB := footprintQPs(t, nil)
	ctxA, ctxB := qps[0].Context(), qps[1].Context()
	if allocs := testing.AllocsPerRun(100, func() {
		if _, _, err := Connect(ctxA, 1, ctxB, 1, RC); err != nil {
			t.Fatal(err)
		}
	}); allocs != 2 {
		t.Errorf("lossless Connect makes %.2f allocations, want 2", allocs)
	}
	write := &SendWR{Opcode: OpWrite, SGL: []SGE{{Addr: mrA.Addr(), Length: 64, MR: mrA}}, RemoteAddr: mrB.Addr(), RemoteKey: mrB.RKey()}
	if allocs := testing.AllocsPerRun(100, func() {
		qa, _, err := Connect(ctxA, 1, ctxB, 1, RC)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := qa.PostSend(0, write); err != nil {
			t.Fatal(err)
		}
	}); allocs != 4 {
		t.Errorf("lossless Connect and a first single-WR PostSend make %.2f allocations, want 4 (the headers, the send side and its pipeline's first busy interval)", allocs)
	}
	for _, q := range qps {
		if q.send != nil || q.recv != nil {
			t.Errorf("fresh QP %d has a send side (%v) or a receive side (%v)", q.ID(), q.send != nil, q.recv != nil)
		}
	}
	postBatch(t, qps, mrA, mrB)
	for i, q := range qps {
		if q.rel != nil || q.Stats() != (rnic.RelCounters{}) {
			t.Errorf("lossless QP %d holds reliability state %+v", q.ID(), q.Stats())
		}
		// Even indices posted the batch; odd ones only answered it.
		if posted := i%2 == 0; (q.send != nil) != posted {
			t.Errorf("QP %d posted: %v, has a send side: %v", q.ID(), posted, q.send != nil)
		}
		if q.send != nil && q.send.comps != nil {
			t.Errorf("QP %d posted single WRs only but holds a list completion buffer", q.ID())
		}
		if q.recv != nil {
			t.Errorf("QP %d has a receive side after one-sided traffic only", q.ID())
		}
	}
	if _, err := qps[0].PostSendList(0, []*SendWR{write, write}); err != nil {
		t.Fatal(err)
	}
	if qps[0].send.comps == nil {
		t.Error("a list post left the QP without a list completion buffer")
	}
	for i := 0; i < 2; i++ {
		if n := registeredTallies(cl.Machine(i).NIC()); n != 0 {
			t.Errorf("%s's NIC has %d QP tallies registered on a lossless fabric", cl.Machine(i).Label(), n)
		}
	}

	cl, qps, mrA, mrB = footprintQPs(t, &fabric.FaultPlan{Seed: 1, Drop: 0.01})
	postBatch(t, qps, mrA, mrB)
	for i := 0; i < 2; i++ {
		// Machine i's QPs sit at indices i, i+2, i+4.
		var sum rnic.RelCounters
		for j := i; j < len(qps); j += 2 {
			sum = addRel(sum, qps[j].Stats())
		}
		nic := cl.Machine(i).NIC()
		if got := nic.Counters().Rel; got != sum {
			t.Errorf("%s: NIC Rel %+v, sum of its QPs %+v", cl.Machine(i).Label(), got, sum)
		}
		if n := registeredTallies(nic); n != len(qps)/2 {
			t.Errorf("%s: %d QP tallies registered, want %d", cl.Machine(i).Label(), n, len(qps)/2)
		}
	}
	if seg := cl.Machine(0).NIC().Counters().Rel.Segments; seg == 0 {
		t.Fatal("the lossy batch emitted no counted segments")
	}
}

// TestLazyReliabilityStateLossless: on a lossless fabric a QP's reliability
// state reads as before while it does not exist, and each first write —
// SetRetryPolicy, a flush, Reconnect, PostReplay — creates and registers it,
// so its counts reach the NIC.
func TestLazyReliabilityStateLossless(t *testing.T) {
	e := newPair(t)
	if got := e.qpA.RetryPolicy(); got != DefaultRetryPolicy() {
		t.Fatalf("fresh QP's policy %+v, want the default", got)
	}
	if e.qpA.FailedApplied() || e.qpA.rel != nil {
		t.Fatal("a fresh lossless QP has reliability state")
	}
	p := RetryPolicy{RetryCount: 2, AckTimeout: 5 * sim.Microsecond}
	e.qpB.SetRetryPolicy(p)
	if got := e.qpB.RetryPolicy(); got != p {
		t.Fatalf("policy %+v after SetRetryPolicy(%+v)", got, p)
	}

	wr := writeWR(e, 64)
	e.qpA.ForceError()
	c, err := e.qpA.PostSend(0, wr)
	if err == nil || c.Status != StatusFlushed {
		t.Fatalf("post on an error-state QP: %v status %v", err, c.Status)
	}
	nicA := e.cl.Machine(0).NIC()
	if got := nicA.Counters().Rel.FlushedWRs; got != 1 {
		t.Fatalf("NIC counts %d flushed WRs, want 1", got)
	}

	up, err := e.qpA.Reconnect(c.Done)
	if err != nil {
		t.Fatal(err)
	}
	if got := nicA.Counters().Rel.Reconnects; got != 1 {
		t.Fatalf("NIC counts %d reconnects, want 1", got)
	}
	if c, err = e.qpA.PostReplay(up, wr, e.qpA.FailedApplied(), 0); err != nil || c.Status != StatusOK {
		t.Fatalf("replay: %v status %v", err, c.Status)
	}
	if st := e.qpA.Stats(); st.FlushedWRs != 1 || st.Reconnects != 1 {
		t.Fatalf("stats after flush, reconnect and replay: %+v", st)
	}
	if n := registeredTallies(nicA); n != 1 {
		t.Fatalf("%d tallies registered with A's NIC, want 1", n)
	}
}

// TestCompletionsSurviveRoutePost: the completions PostSendList returns are
// the posting QP's own; a post on another QP of the same route, which reuses
// the route's payload staging, leaves them intact.
func TestCompletionsSurviveRoutePost(t *testing.T) {
	e := newPair(t)
	qpC, _, err := Connect(e.ctxA, 1, e.ctxB, 1, RC)
	if err != nil {
		t.Fatal(err)
	}
	if qpC.route != e.qpA.route {
		t.Fatal("the two QPs do not share a route")
	}
	list := func(id uint64, n int) []*SendWR {
		var wrs []*SendWR
		for i := 0; i < n; i++ {
			wr := writeWR(e, 2*PathMTU)
			wr.ID = id + uint64(i)
			wrs = append(wrs, wr)
		}
		return wrs
	}
	comps, err := e.qpA.PostSendList(0, list(100, 3))
	if err != nil {
		t.Fatal(err)
	}
	want := append([]Completion(nil), comps...)
	if _, err := qpC.PostSendList(want[2].Done, list(200, 5)); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(comps, want) {
		t.Fatalf("QP A's completions changed under a post on QP C:\n got %+v\nwant %+v", comps, want)
	}
}

// TestReceiveSideOnFirstUse: a QP makes its receive side on the first
// PostRecv, the first SEND that lands on it through an SRQ, or the first
// RecvCQ call, and at no other point: a SEND that finds no receive (ErrRNR)
// and an SRQ attach leave it absent. Each first use then reads the same as
// on a QP that had the receive side all along.
func TestReceiveSideOnFirstUse(t *testing.T) {
	e := newPair(t)
	send := &SendWR{ID: 1, Opcode: OpSend, SGL: []SGE{{Addr: e.mrA.Addr(), Length: 32, MR: e.mrA}}}
	recv := RecvWR{ID: 7, SGE: SGE{Addr: e.mrB.Addr(), Length: 64, MR: e.mrB}}

	// A SEND into nothing is receiver-not-ready and makes nothing.
	if _, err := e.qpA.PostSend(0, send); !errors.Is(err, ErrRNR) {
		t.Fatalf("SEND with no receive posted: %v, want ErrRNR", err)
	}
	if e.qpB.recv != nil || e.qpB.send != nil {
		t.Fatal("a refused SEND gave the responder a receive or send side")
	}
	// PostRecv makes it, and the SEND then lands.
	if err := e.qpB.PostRecv(recv); err != nil {
		t.Fatal(err)
	}
	if e.qpB.recv == nil {
		t.Fatal("PostRecv left the QP without a receive side")
	}
	c, err := e.qpA.PostSend(0, send)
	if err != nil {
		t.Fatal(err)
	}
	if cqe, ok := e.qpB.RecvCQ().PollOne(c.Done + CQECost); !ok || cqe.WRID != 7 || cqe.Bytes != 32 {
		t.Fatalf("receive CQE %+v (%v)", cqe, ok)
	}

	// RecvCQ makes it on a fresh QP, empty.
	_, qb, err := Connect(e.ctxA, 1, e.ctxB, 1, RC)
	if err != nil {
		t.Fatal(err)
	}
	if cqe, ok := qb.RecvCQ().PollOne(sim.MaxTime); qb.recv == nil || ok {
		t.Fatalf("RecvCQ on a fresh QP: receive side %v, polled %+v", qb.recv != nil, cqe)
	}

	// On an SRQ-attached QP the first landed SEND makes it: attaching does not.
	srq := NewSRQ(e.ctxB)
	qa, qb, err := Connect(e.ctxA, 1, e.ctxB, 1, RC)
	if err != nil {
		t.Fatal(err)
	}
	if err := qb.AttachSRQ(srq); err != nil {
		t.Fatal(err)
	}
	if err := srq.PostRecv(recv); err != nil {
		t.Fatal(err)
	}
	if qb.recv != nil {
		t.Fatal("AttachSRQ or an SRQ PostRecv gave the QP a receive side")
	}
	c, err = qa.PostSend(0, send)
	if err != nil {
		t.Fatal(err)
	}
	if qb.recv == nil {
		t.Fatal("a SEND landed through the SRQ without a receive side for its CQE")
	}
	if cqe, ok := qb.RecvCQ().PollOne(c.Done + CQECost); !ok || cqe.WRID != 7 {
		t.Fatalf("SRQ receive CQE %+v (%v)", cqe, ok)
	}
	if qa.recv != nil || qb.send != nil {
		t.Fatal("the requester gained a receive side or the responder a send side")
	}
}

// TestQPNExhausted: QP numbers are 24 bits, and a QP stores its number in
// 32, so a cluster's allocator must not wrap into a number some QP already
// holds. The allocator is started just below MaxQPN: the pair that takes
// the last two numbers connects, and every QP after it, connected or UD,
// fails with ErrQPNExhausted.
func TestQPNExhausted(t *testing.T) {
	e := newPair(t)
	m := e.cl.Machine(0)
	for m.NextQPID() < MaxQPN-2 {
	}
	qa, qb, err := Connect(e.ctxA, 1, e.ctxB, 1, RC)
	if err != nil {
		t.Fatalf("Connect on the last two QP numbers: %v", err)
	}
	if qa.ID() != MaxQPN-1 || qb.ID() != MaxQPN {
		t.Fatalf("last pair got QP numbers %d and %d, want %d and %d", qa.ID(), qb.ID(), MaxQPN-1, MaxQPN)
	}
	if _, _, err := Connect(e.ctxA, 1, e.ctxB, 1, RC); !errors.Is(err, ErrQPNExhausted) {
		t.Fatalf("Connect past MaxQPN: %v, want ErrQPNExhausted", err)
	}
	if _, err := NewUDQP(e.ctxB, 0); !errors.Is(err, ErrQPNExhausted) {
		t.Fatalf("NewUDQP past MaxQPN: %v, want ErrQPNExhausted", err)
	}
}
