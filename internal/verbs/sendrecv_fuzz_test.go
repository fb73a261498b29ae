package verbs

import (
	"bytes"
	"errors"
	"fmt"
	"testing"

	"rdmasem/internal/cluster"
	"rdmasem/internal/fabric"
	"rdmasem/internal/mem"
	"rdmasem/internal/sim"
)

// Shape of the SEND receive-path fuzz target: receive buffers are slots of
// one responder region, and SEND payloads may exceed the smaller buffers.
const (
	srSlots      = 64
	srSlotBytes  = 128
	srMaxPayload = 160
	srOpBytes    = 4
	srMaxOps     = 96
)

// srBuf is a posted receive buffer in the model.
type srBuf struct {
	id   uint64
	addr mem.Addr
	n    int
}

// srCQE is a receive completion the model expects, in queue order, with
// the post time of the SEND that produced it.
type srCQE struct {
	id    uint64
	bytes int
	post  sim.Time
}

// srReceiver is the model of one responder QP: its own receive queue,
// whether it drains the SRQ instead, and its receive CQ.
type srReceiver struct {
	q        *qpState
	own      []srBuf
	attached bool
	cq       []srCQE
	lastCQE  sim.Time // time of the last entry polled, for the in-order check
}

// FuzzSendRecvMatchesReference drives the two-sided path over QPs that start
// with no receive side: PostRecv, AttachSRQ and SRQ PostRecv on five
// responders (three RC QPs, two UD QPs), RC SENDs and UD datagrams into
// them, and RecvCQ().PollOne. A plain model predicts which buffer each
// message consumes, the bytes it leaves in the receive region, each CQE's
// queue and order, ErrRNR on an RC SEND into nothing on both fabrics, and
// which datagrams drop for want of a buffer; under loss a datagram may also
// vanish on the wire.
// CQE times must be in order per queue and no earlier than their SEND.
// Each input runs on a lossless fabric and under seed=1,drop=0.01, twice:
// once as is and once with every QP's receive side made up front through
// RecvCQ, and the two transcripts — completions, errors, drop flags and
// polled CQEs with their times — must be identical.
func FuzzSendRecvMatchesReference(f *testing.F) {
	f.Add([]byte{3, 0, 31, 0}) // a SEND into nothing
	f.Add([]byte{
		0, 0, 1, 0, // PostRecv 64 B on RC responder 0
		3, 0, 40, 1, // 41 B inline SEND lands in it
		5, 0, 0, 200, // poll it
		4, 0, 10, 0, // datagram into nothing: dropped
		0, 3, 3, 0, // PostRecv 128 B on UD responder 0
		4, 0, 127, 0, // 128 B datagram lands
		5, 3, 0, 255, // poll it
	})
	f.Add([]byte{
		1, 1, 0, 0, // attach RC responder 1 to the SRQ
		1, 4, 0, 0, // attach UD responder 1 too
		2, 0, 0, 0, // SRQ PostRecv 32 B
		2, 0, 2, 0, // SRQ PostRecv 96 B
		3, 1, 20, 0, // SEND through the SRQ
		4, 1, 90, 0, // datagram through the SRQ: 91 B into 96 B
		0, 1, 0, 0, // PostRecv on an SRQ-attached QP fails
		3, 1, 100, 0, // SRQ empty: RNR
		5, 1, 0, 255, // poll
		5, 4, 0, 255, // poll
	})
	f.Add([]byte{
		0, 2, 0, 0, // PostRecv 32 B on RC responder 2
		3, 2, 120, 0, // 121 B SEND into 32 B: too small
		1, 2, 0, 0, // attach fails: a receive is posted
		3, 2, 31, 0, // 32 B SEND fits
		5, 2, 0, 9, // poll early
		5, 2, 0, 255, // poll late
	})
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, plan := range []*fabric.FaultPlan{nil, {Seed: 1, Drop: 0.01}} {
			lazy := fuzzSendRecv(t, data, plan, false)
			eager := fuzzSendRecv(t, data, plan, true)
			if len(lazy) != len(eager) {
				t.Fatalf("%v: %d transcript lines with lazy receive sides, %d with eager ones", plan, len(lazy), len(eager))
			}
			for i := range lazy {
				if lazy[i] != eager[i] {
					t.Fatalf("%v: op %d differs with eager receive sides:\n lazy  %s\n eager %s", plan, i, lazy[i], eager[i])
				}
			}
		}
	})
}

// fuzzSendRecv runs one FuzzSendRecvMatchesReference input on a cluster
// with the given fault plan (nil: lossless), checking it against the model,
// and returns its transcript. With eager set, every QP's receive side is
// made before the first op.
func fuzzSendRecv(t *testing.T, data []byte, plan *fabric.FaultPlan, eager bool) []string {
	lossy := plan != nil
	cfg := cluster.DefaultConfig()
	cfg.Machines = 2
	cfg.Faults = plan
	cl, err := cluster.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Release()
	ma, mb := cl.Machine(0), cl.Machine(1)
	ctxA, ctxB := NewContext(ma), NewContext(mb)
	lmr := ctxA.MustRegisterMR(ma.MustAlloc(0, 16<<10, 0))
	rmr := ctxB.MustRegisterMR(mb.MustAlloc(1, srSlots*srSlotBytes, 0))
	model := append([]byte(nil), rmr.Region().Bytes()...)
	srq := NewSRQ(ctxB)
	var srqBufs []srBuf

	var senders [3]*QP
	var rcv [5]*srReceiver
	for i, port := range []int{1, 1, 0} {
		qa, qb, err := Connect(ctxA, port, ctxB, port, RC)
		if err != nil {
			t.Fatal(err)
		}
		senders[i], rcv[i] = qa, &srReceiver{q: &qb.qpState}
	}
	udA, err := NewUDQP(ctxA, 1)
	if err != nil {
		t.Fatal(err)
	}
	var udB [2]*UDQP
	for i := range udB {
		if udB[i], err = NewUDQP(ctxB, i); err != nil {
			t.Fatal(err)
		}
		rcv[3+i] = &srReceiver{q: &udB[i].qpState}
	}
	if eager {
		for _, q := range senders {
			q.RecvCQ()
		}
		udA.RecvCQ()
		for _, r := range rcv {
			r.q.RecvCQ()
		}
	}

	var out []string
	now := sim.Time(0)
	nextID := uint64(1)
	for step := 0; step < srMaxOps && len(data) >= srOpBytes; step++ {
		op := data[:srOpBytes]
		data = data[srOpBytes:]
		fail := func(format string, args ...any) {
			t.Helper()
			t.Fatalf("%v eager=%v: op %d %v: %s", plan, eager, step, op, fmt.Sprintf(format, args...))
		}
		newBuf := func() srBuf {
			id := nextID
			nextID++
			return srBuf{id: id, addr: rmr.Addr() + mem.Addr(int(id%srSlots)*srSlotBytes), n: 32 * (1 + int(op[2])%4)}
		}
		switch op[0] % 6 {
		case 0: // PostRecv on a responder's own queue
			r := rcv[int(op[1])%len(rcv)]
			b := newBuf()
			err := r.q.PostRecv(RecvWR{ID: b.id, SGE: SGE{Addr: b.addr, Length: b.n, MR: rmr}})
			if r.attached != (err != nil) {
				fail("PostRecv on a QP attached=%v: %v", r.attached, err)
			}
			if err == nil {
				r.own = append(r.own, b)
			}
			out = append(out, fmt.Sprintf("postrecv %v", err))

		case 1: // AttachSRQ
			r := rcv[int(op[1])%len(rcv)]
			err := r.q.AttachSRQ(srq)
			if (len(r.own) > 0) != (err != nil) {
				fail("AttachSRQ with %d own receives: %v", len(r.own), err)
			}
			if err == nil {
				r.attached = true
			}
			out = append(out, fmt.Sprintf("attach %v", err))

		case 2: // PostRecv on the SRQ
			b := newBuf()
			if err := srq.PostRecv(RecvWR{ID: b.id, SGE: SGE{Addr: b.addr, Length: b.n, MR: rmr}}); err != nil {
				fail("SRQ PostRecv: %v", err)
			}
			srqBufs = append(srqBufs, b)

		case 3, 4: // an RC SEND or a UD datagram
			ud := op[0]%6 == 4
			j := int(op[1]) % 3
			if ud {
				j = 3 + int(op[1])%2
			}
			r := rcv[j]
			n := 1 + int(op[2])%srMaxPayload
			laddr := lmr.Addr() + mem.Addr(step*srMaxPayload%(16<<10-srMaxPayload))
			payload := make([]byte, n)
			for i := range payload {
				payload[i] = byte(step*13+i) ^ op[3]
			}
			copy(lmr.Region().Bytes()[laddr-lmr.Addr():], payload)
			sgl := []SGE{{Addr: laddr, Length: n, MR: lmr}}
			queue := &r.own
			if r.attached {
				queue = &srqBufs
			}
			post := now
			var c Completion
			var dropped bool
			var err error
			if ud {
				c, dropped, err = udA.Send(post, AH{QP: udB[j-3]}, sgl)
			} else {
				c, err = senders[j].PostSend(post, &SendWR{ID: uint64(step), Opcode: OpSend, SGL: sgl})
			}
			out = append(out, fmt.Sprintf("send %d %d: %+v dropped=%v err=%v", j, n, c, dropped, err))
			if err == nil && c.Done < post {
				fail("completion at %v before its post at %v", c.Done, post)
			}
			landed := false
			switch {
			case len(*queue) == 0 && !ud:
				if !errors.Is(err, ErrRNR) {
					fail("SEND into nothing: %v, want ErrRNR", err)
				}
			case len(*queue) == 0:
				if err != nil || !dropped {
					fail("datagram into nothing: dropped=%v err=%v", dropped, err)
				}
			case ud && dropped:
				if !lossy {
					fail("lossless datagram dropped with %d receives posted", len(*queue))
				}
			case (*queue)[0].n < n:
				if !errors.Is(err, ErrBadSGL) {
					fail("%d B into a %d B buffer: %v, want ErrBadSGL", n, (*queue)[0].n, err)
				}
			default:
				if err != nil || dropped || c.Status != StatusOK {
					fail("SEND with a receive posted: dropped=%v err=%v status %v", dropped, err, c.Status)
				}
				landed = true
			}
			if landed {
				b := (*queue)[0]
				*queue = (*queue)[1:]
				copy(model[b.addr-rmr.Addr():], payload)
				r.cq = append(r.cq, srCQE{id: b.id, bytes: n, post: post})
			}
			if err == nil || errors.Is(err, ErrQPError) {
				now = max(now, c.Done)
			}

		case 5: // poll one receive CQE
			r := rcv[int(op[1])%len(rcv)]
			now += sim.Duration(op[3]) * 10
			e, ok := r.q.RecvCQ().PollOne(now)
			out = append(out, fmt.Sprintf("poll %d at %v: %+v %v", int(op[1])%len(rcv), now, e, ok))
			if ok {
				if len(r.cq) == 0 {
					fail("polled %+v from a CQ the model says is empty", e)
				}
				want := r.cq[0]
				r.cq = r.cq[1:]
				if e.WRID != want.id || e.Bytes != want.bytes || e.Opcode != OpSend {
					fail("polled %+v, want WR %d with %d B", e, want.id, want.bytes)
				}
				if e.Time > now || e.Time < want.post || e.Time < r.lastCQE {
					fail("CQE at %v: polled at %v, SEND posted at %v, previous CQE at %v", e.Time, now, want.post, r.lastCQE)
				}
				r.lastCQE = e.Time
			}
		}

		if srq.q.len() != len(srqBufs) {
			fail("SRQ holds %d receives, model %d", srq.q.len(), len(srqBufs))
		}
		for i, r := range rcv {
			if (r.q.srq != nil) != r.attached {
				fail("responder %d attached: %v, model %v", i, r.q.srq != nil, r.attached)
			}
			own := 0
			if r.q.recv != nil {
				own = r.q.recv.q.len()
			}
			if own != len(r.own) {
				fail("responder %d holds %d receives, model %d", i, own, len(r.own))
			}
			if r.q.recv == nil && (len(r.cq) > 0 || len(r.own) > 0) {
				fail("responder %d has no receive side but the model holds %d CQEs, %d receives", i, len(r.cq), len(r.own))
			}
		}
		if !bytes.Equal(rmr.Region().Bytes(), model) {
			fail("receive region differs from the model")
		}
	}
	// Every CQE the model still expects is pending, in order, and nothing else.
	for i, r := range rcv {
		if r.q.recv == nil {
			continue
		}
		for {
			e, ok := r.q.recv.cq.PollOne(sim.MaxTime)
			if !ok {
				break
			}
			out = append(out, fmt.Sprintf("drain %d: %+v", i, e))
			if len(r.cq) == 0 || e.WRID != r.cq[0].id || e.Bytes != r.cq[0].bytes {
				t.Fatalf("%v: responder %d drains %+v, model expects %+v", plan, i, e, r.cq)
			}
			r.cq = r.cq[1:]
		}
		if len(r.cq) != 0 {
			t.Fatalf("%v: responder %d's CQ lacks %d CQEs the model expects", plan, i, len(r.cq))
		}
	}
	if !eager {
		for _, q := range senders {
			if q.recv != nil {
				t.Fatalf("%v: RC requester %d made a receive side", plan, q.ID())
			}
		}
		if udA.recv != nil {
			t.Fatalf("%v: the sending UD QP made a receive side", plan)
		}
	}
	return out
}
