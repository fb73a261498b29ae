package verbs

import (
	"bytes"
	"errors"
	"math/rand"
	"testing"

	"rdmasem/internal/mem"
	"rdmasem/internal/sim"
)

// srqPair is newPair with a second A->B QP and both B-side ends draining one
// SRQ.
func srqPair(t *testing.T) (*pairEnv, *SRQ, [2]*QP, [2]*QP) {
	t.Helper()
	e := newPair(t)
	srq := NewSRQ(e.ctxB)
	qp2, peer2 := MustConnect(e.ctxA, 1, e.ctxB, 1, RC)
	if err := e.qpB.AttachSRQ(srq); err != nil {
		t.Fatal(err)
	}
	if err := peer2.AttachSRQ(srq); err != nil {
		t.Fatal(err)
	}
	return e, srq, [2]*QP{e.qpA, qp2}, [2]*QP{e.qpB, peer2}
}

func srqSendWR(e *pairEnv, off, size int) *SendWR {
	return &SendWR{
		Opcode: OpSend,
		SGL:    []SGE{{Addr: e.mrA.Addr() + mem.Addr(off), Length: size, MR: e.mrA}},
	}
}

// TestSRQAttachValidation pins the attach-time rules: same machine only, no
// mixing with already-posted per-QP receives, no per-QP posting afterwards,
// and SRQ buffers must be local MRs of the SRQ's context.
func TestSRQAttachValidation(t *testing.T) {
	e := newPair(t)
	srqA := NewSRQ(e.ctxA)
	if err := e.qpB.AttachSRQ(srqA); err == nil {
		t.Fatal("cross-machine attach must fail")
	}
	if err := e.qpB.AttachSRQ(nil); err == nil {
		t.Fatal("nil attach must fail")
	}
	if err := e.qpB.PostRecv(RecvWR{SGE: SGE{Addr: e.mrB.Addr(), Length: 64, MR: e.mrB}}); err != nil {
		t.Fatal(err)
	}
	srqB := NewSRQ(e.ctxB)
	if err := e.qpB.AttachSRQ(srqB); err == nil {
		t.Fatal("attach with posted per-QP receives must fail")
	}
	qp2, peer2 := MustConnect(e.ctxA, 1, e.ctxB, 1, RC)
	_ = qp2
	if err := peer2.AttachSRQ(srqB); err != nil {
		t.Fatal(err)
	}
	if peer2.srq != srqB {
		t.Fatal("the QP lost the attachment")
	}
	if err := peer2.PostRecv(RecvWR{SGE: SGE{Addr: e.mrB.Addr(), Length: 64, MR: e.mrB}}); err == nil {
		t.Fatal("per-QP PostRecv on an SRQ-attached QP must fail")
	}
	// SRQ buffer validation matches per-QP PostRecv.
	if err := srqB.PostRecv(RecvWR{SGE: SGE{Addr: e.mrA.Addr(), Length: 64, MR: e.mrA}}); err == nil {
		t.Fatal("foreign-context MR must be rejected")
	}
	if err := srqB.PostRecv(RecvWR{SGE: SGE{Addr: e.mrB.Addr(), Length: 1 << 30, MR: e.mrB}}); err == nil {
		t.Fatal("out-of-bounds buffer must be rejected")
	}
}

// TestSRQLosslessRNR: on the lossless fabric an empty SRQ surfaces the same
// ErrRNR a drained per-QP receive queue does, and a posted entry makes the
// SEND land with its completion on the consuming QP's receive CQ.
func TestSRQLosslessRNR(t *testing.T) {
	e, srq, qps, peers := srqPair(t)
	if _, err := qps[0].PostSend(0, srqSendWR(e, 0, 64)); !errors.Is(err, ErrRNR) {
		t.Fatalf("err=%v, want ErrRNR", err)
	}
	if err := srq.PostRecv(RecvWR{ID: 9, SGE: SGE{Addr: e.mrB.Addr(), Length: 128, MR: e.mrB}}); err != nil {
		t.Fatal(err)
	}
	msg := []byte("shared receive queue")
	copy(e.mrA.Region().Bytes(), msg)
	comp, err := qps[0].PostSend(0, srqSendWR(e, 0, len(msg)))
	if err != nil {
		t.Fatal(err)
	}
	if comp.Status != StatusOK || comp.Done <= 0 {
		t.Fatalf("completion %+v", comp)
	}
	if !bytes.Equal(e.mrB.Region().Bytes()[:len(msg)], msg) {
		t.Fatal("payload missing at receiver")
	}
	cqes := drainCQ(peers[0].RecvCQ())
	if len(cqes) != 1 || cqes[0].WRID != 9 {
		t.Fatalf("consuming QP's recv CQ got %+v", cqes)
	}
	if srq.q.len() != 0 {
		t.Fatalf("SRQ still holds %d receives after one SEND, want 0", srq.q.len())
	}
	// The oversized-payload check must not consume the entry.
	if err := srq.PostRecv(RecvWR{ID: 10, SGE: SGE{Addr: e.mrB.Addr(), Length: 16, MR: e.mrB}}); err != nil {
		t.Fatal(err)
	}
	if _, err := qps[0].PostSend(comp.Done, srqSendWR(e, 0, 64)); err == nil {
		t.Fatal("payload larger than the head buffer must fail")
	}
	if srq.q.len() != 1 {
		t.Fatalf("failed size check consumed the head entry (len=%d)", srq.q.len())
	}
}

// TestSRQFIFOHandout: entries are handed to arriving SENDs in post order no
// matter which attached QP they arrive on, and each receive completion
// lands on the consuming QP's CQ.
func TestSRQFIFOHandout(t *testing.T) {
	e, srq, qps, peers := srqPair(t)
	for id := uint64(1); id <= 4; id++ {
		if err := srq.PostRecv(RecvWR{ID: id, SGE: SGE{
			Addr: e.mrB.Addr() + mem.Addr(id*256), Length: 256, MR: e.mrB,
		}}); err != nil {
			t.Fatal(err)
		}
	}
	now := sim.Time(0)
	for i, qi := range []int{0, 1, 1, 0} {
		comp, err := qps[qi].PostSend(now, srqSendWR(e, i*64, 64))
		if err != nil {
			t.Fatal(err)
		}
		now = comp.Done
	}
	got0 := wrids(drainCQ(peers[0].RecvCQ()))
	got1 := wrids(drainCQ(peers[1].RecvCQ()))
	// Arrival order QP0, QP1, QP1, QP0 must consume entries 1, 2, 3, 4.
	if len(got0) != 2 || got0[0] != 1 || got0[1] != 4 {
		t.Fatalf("QP0 consumed %v, want [1 4]", got0)
	}
	if len(got1) != 2 || got1[0] != 2 || got1[1] != 3 {
		t.Fatalf("QP1 consumed %v, want [2 3]", got1)
	}
	if srq.q.len() != 0 {
		t.Fatalf("SRQ still holds %d receives after four SENDs, want 0", srq.q.len())
	}
}

func wrids(cqes []CQE) []uint64 {
	out := make([]uint64, len(cqes))
	for i, c := range cqes {
		out[i] = c.WRID
	}
	return out
}

// TestSRQUDSilentDrop: UD keeps its unreliable-datagram semantics with an
// SRQ attached — an empty queue drops the datagram silently instead of
// raising RNR.
func TestSRQUDSilentDrop(t *testing.T) {
	e, qa, qb := udPair(t)
	srq := NewSRQ(e.ctxB)
	if err := qb.AttachSRQ(srq); err != nil {
		t.Fatal(err)
	}
	comp, dropped, err := qa.Send(0, qb.Handle(), []SGE{{Addr: e.mrA.Addr(), Length: 32, MR: e.mrA}})
	if err != nil {
		t.Fatal(err)
	}
	if !dropped {
		t.Fatal("empty SRQ must silently drop a UD datagram")
	}
	if comp.Done <= 0 {
		t.Fatal("sender must still see a local completion")
	}
	if err := srq.PostRecv(RecvWR{ID: 3, SGE: SGE{Addr: e.mrB.Addr(), Length: 64, MR: e.mrB}}); err != nil {
		t.Fatal(err)
	}
	_, dropped, err = qa.Send(comp.Done, qb.Handle(), []SGE{{Addr: e.mrA.Addr(), Length: 32, MR: e.mrA}})
	if err != nil || dropped {
		t.Fatalf("dropped=%v err=%v, want delivery from the SRQ", dropped, err)
	}
	if cqes := drainCQ(qb.RecvCQ()); len(cqes) != 1 || cqes[0].WRID != 3 {
		t.Fatalf("recv CQ got %+v", cqes)
	}
}

// TestRecvQueueFIFO drives recvQueue with random push/pop runs against a
// plain slice: the same entry at the front and the same length after every
// step, while the queue slides and grows its backing array, and the array
// stays within a small multiple of the most entries ever live.
func TestRecvQueueFIFO(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	var q recvQueue
	var ref []uint64
	next, peak := uint64(0), 0
	for step := 0; step < 20000; step++ {
		// Bias toward pushes, then toward pops, so the queue both fills
		// deep and drains to empty.
		pushBias := 6
		if step/2000%2 == 1 {
			pushBias = 4
		}
		if len(ref) == 0 || rng.Intn(10) < pushBias {
			next++
			q.push(RecvWR{ID: next})
			ref = append(ref, next)
		} else {
			if got := q.front().ID; got != ref[0] {
				t.Fatalf("step %d: front %d, want %d", step, got, ref[0])
			}
			q.pop()
			ref = ref[1:]
		}
		if q.len() != len(ref) {
			t.Fatalf("step %d: len %d, want %d", step, q.len(), len(ref))
		}
		// The array only grows when at least half of it is live.
		peak = max(peak, len(ref))
		if cap(q.wrs) > 4*peak+8 {
			t.Fatalf("step %d: backing array of %d for at most %d live entries", step, cap(q.wrs), peak)
		}
	}
}
