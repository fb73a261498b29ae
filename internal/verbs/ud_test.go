package verbs

import (
	"bytes"
	"errors"
	"testing"

	"rdmasem/internal/sim"
)

func udPair(t *testing.T) (*pairEnv, *UDQP, *UDQP) {
	t.Helper()
	e := newPair(t)
	qa, err := NewUDQP(e.ctxA, 1)
	if err != nil {
		t.Fatal(err)
	}
	qb, err := NewUDQP(e.ctxB, 1)
	if err != nil {
		t.Fatal(err)
	}
	return e, qa, qb
}

func TestUDSendDelivers(t *testing.T) {
	e, qa, qb := udPair(t)
	if err := qb.PostRecv(RecvWR{ID: 5, SGE: SGE{Addr: e.mrB.Addr(), Length: 256, MR: e.mrB}}); err != nil {
		t.Fatal(err)
	}
	msg := []byte("unreliable datagram")
	copy(e.mrA.Region().Bytes(), msg)
	comp, dropped, err := qa.Send(0, qb.Handle(), []SGE{{Addr: e.mrA.Addr(), Length: len(msg), MR: e.mrA}})
	if err != nil {
		t.Fatal(err)
	}
	if dropped {
		t.Fatal("datagram dropped despite posted receive")
	}
	if !bytes.Equal(e.mrB.Region().Bytes()[:len(msg)], msg) {
		t.Fatal("payload missing at receiver")
	}
	cqes := drainCQ(qb.RecvCQ())
	if len(cqes) != 1 || cqes[0].WRID != 5 || cqes[0].Bytes != len(msg) {
		t.Fatalf("recv CQE %+v", cqes)
	}
	if comp.Done <= 0 {
		t.Fatal("send completion missing")
	}
}

func TestUDSendWithoutRecvDrops(t *testing.T) {
	e, qa, qb := udPair(t)
	comp, dropped, err := qa.Send(0, qb.Handle(), []SGE{{Addr: e.mrA.Addr(), Length: 8, MR: e.mrA}})
	if err != nil {
		t.Fatal(err)
	}
	if !dropped {
		t.Fatal("datagram should be dropped without a posted receive (UD is unreliable)")
	}
	// The sender still sees a successful local completion.
	if comp.Done <= 0 {
		t.Fatal("local send completion missing")
	}
	if cqe, ok := qb.RecvCQ().PollOne(sim.MaxTime); ok {
		t.Fatalf("receiver must see nothing, polled %+v", cqe)
	}
}

// UD completes locally: the send completion lands well before an RC write's
// round trip would.
func TestUDCompletesLocally(t *testing.T) {
	e, qa, qb := udPair(t)
	qb.PostRecv(RecvWR{SGE: SGE{Addr: e.mrB.Addr(), Length: 256, MR: e.mrB}})
	// Warm.
	qa.Send(0, qb.Handle(), []SGE{{Addr: e.mrA.Addr(), Length: 32, MR: e.mrA}})
	base := sim.Time(100 * sim.Microsecond)
	qb.PostRecv(RecvWR{SGE: SGE{Addr: e.mrB.Addr(), Length: 256, MR: e.mrB}})
	comp, _, err := qa.Send(base, qb.Handle(), []SGE{{Addr: e.mrA.Addr(), Length: 32, MR: e.mrA}})
	if err != nil {
		t.Fatal(err)
	}
	if lat := comp.Done - base; lat > 900 {
		t.Fatalf("UD local completion took %v; should beat an RC round trip (~1.2us)", lat)
	}
}

func TestUDValidation(t *testing.T) {
	e, qa, qb := udPair(t)
	if _, err := NewUDQP(nil, 0); err == nil {
		t.Error("nil context must fail")
	}
	if _, err := NewUDQP(e.ctxA, 7); err == nil {
		t.Error("bad port must fail")
	}
	if _, _, err := qa.Send(0, AH{}, []SGE{{Addr: e.mrA.Addr(), Length: 8, MR: e.mrA}}); err == nil {
		t.Error("nil AH must fail")
	}
	if _, _, err := qa.Send(0, qb.Handle(), nil); err == nil {
		t.Error("empty SGL must fail")
	}
	if _, _, err := qa.Send(0, qb.Handle(), []SGE{{Addr: e.mrA.Addr(), Length: 8, MR: e.mrB}}); err == nil {
		t.Error("foreign MR must fail")
	}
	// A datagram is inline by construction: one byte past MaxInline fails
	// before any timing.
	base := e.cl.Machine(0).NIC().Counters()
	if _, _, err := qa.Send(0, qb.Handle(), []SGE{{Addr: e.mrA.Addr(), Length: MaxInline + 1, MR: e.mrA}}); !errors.Is(err, ErrBadSGL) {
		t.Errorf("oversized datagram: %v, want ErrBadSGL", err)
	}
	if c := e.cl.Machine(0).NIC().Counters(); c.Doorbells != base.Doorbells {
		t.Errorf("a rejected datagram rang %d doorbells", c.Doorbells-base.Doorbells)
	}
	if err := qb.PostRecv(RecvWR{SGE: SGE{Addr: e.mrA.Addr(), Length: 8, MR: e.mrA}}); err == nil {
		t.Error("recv buffer from foreign MR must fail")
	}
}

// One UD QP reaches many peers — the connection-state economy that lets UD
// RPC scale where RC needs a QP per pair (Section II-B2's scalability
// argument).
func TestUDOneToMany(t *testing.T) {
	e, qa, _ := udPair(t)
	var peers []*UDQP
	for i := 0; i < 4; i++ {
		q, err := NewUDQP(e.ctxB, 1)
		if err != nil {
			t.Fatal(err)
		}
		r := e.ctxB.MustRegisterMR(e.cl.Machine(1).MustAlloc(1, 4096, 0))
		if err := q.PostRecv(RecvWR{ID: uint64(i), SGE: SGE{Addr: r.Addr(), Length: 64, MR: r}}); err != nil {
			t.Fatal(err)
		}
		peers = append(peers, q)
	}
	now := sim.Time(0)
	for i, p := range peers {
		copy(e.mrA.Region().Bytes(), []byte{byte(i + 1)})
		comp, dropped, err := qa.Send(now, p.Handle(), []SGE{{Addr: e.mrA.Addr(), Length: 8, MR: e.mrA}})
		if err != nil || dropped {
			t.Fatalf("send %d: err=%v dropped=%v", i, err, dropped)
		}
		now = comp.Done
	}
	for i, p := range peers {
		cqes := drainCQ(p.RecvCQ())
		if len(cqes) != 1 {
			t.Fatalf("peer %d received %d datagrams", i, len(cqes))
		}
	}
}
