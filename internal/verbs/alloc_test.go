package verbs

import (
	"testing"

	"rdmasem/internal/cluster"
	"rdmasem/internal/sim"
	"rdmasem/internal/telemetry"
)

// CI-enforced allocation budgets for the pooled op-pipeline hot path. These
// fail if a change re-introduces per-op heap traffic that the reusable
// buffers (each QP's completions, each route's payload staging), the
// send-completion clamp, or the interned telemetry streams were added to
// eliminate.

// TestPostSendSteadyStateAllocFree pins the RC PostSend hot path — posted WR
// through completion — to zero allocations per operation.
func TestPostSendSteadyStateAllocFree(t *testing.T) {
	e := newPair(t)
	wr := &SendWR{
		Opcode:     OpWrite,
		SGL:        []SGE{{Addr: e.mrA.Addr(), Length: 64, MR: e.mrA}},
		RemoteAddr: e.mrB.Addr(),
		RemoteKey:  e.mrB.RKey(),
	}
	now := sim.Time(0)
	post := func() {
		c, err := e.qpA.PostSend(now, wr)
		if err != nil {
			t.Fatal(err)
		}
		now = c.Done
	}
	post() // warm the reusable buffers
	if allocs := testing.AllocsPerRun(200, post); allocs != 0 {
		t.Fatalf("steady-state RC WRITE PostSend allocates %.2f/op, want 0", allocs)
	}

	wr.Opcode = OpRead
	post()
	if allocs := testing.AllocsPerRun(200, post); allocs != 0 {
		t.Fatalf("steady-state RC READ PostSend allocates %.2f/op, want 0", allocs)
	}

	wr.SGL[0].Length = 256
	post()
	if allocs := testing.AllocsPerRun(200, post); allocs != 0 {
		t.Fatalf("steady-state RC READ 256 PostSend allocates %.2f/op, want 0", allocs)
	}

	wr.Opcode = OpCompSwap
	wr.SGL[0].Length = 8
	post()
	if allocs := testing.AllocsPerRun(200, post); allocs != 0 {
		t.Fatalf("steady-state RC CAS PostSend allocates %.2f/op, want 0", allocs)
	}

	wr.Opcode = OpFetchAdd
	post()
	if allocs := testing.AllocsPerRun(200, post); allocs != 0 {
		t.Fatalf("steady-state RC FETCH_ADD PostSend allocates %.2f/op, want 0", allocs)
	}

	// A 16-WR doorbell list of 64-byte WRITEs on a fresh QP: its first post
	// makes the send side and grows the completion buffer, then nothing.
	qp, _, err := Connect(e.ctxA, 1, e.ctxB, 1, RC)
	if err != nil {
		t.Fatal(err)
	}
	wrs := make([]*SendWR, 16)
	for i := range wrs {
		wrs[i] = &SendWR{Opcode: OpWrite, SGL: []SGE{{Addr: e.mrA.Addr(), Length: 64, MR: e.mrA}}, RemoteAddr: e.mrB.Addr(), RemoteKey: e.mrB.RKey()}
	}
	postList := func() {
		comps, err := qp.PostSendList(now, wrs)
		if err != nil {
			t.Fatal(err)
		}
		now = comps[len(comps)-1].Done
	}
	postList()
	if allocs := testing.AllocsPerRun(200, postList); allocs != 0 {
		t.Fatalf("steady-state 16-WR doorbell list allocates %.2f/post, want 0", allocs)
	}
}

// TestSendRecvSteadyStateAllocFree pins a steady SEND/PostRecv cycle, with
// the receive CQ drained by PollOne, to zero allocations per operation on a
// plain QP and on an SRQ-attached one, with an empty queue between cycles
// and with a backlog of posted receives: consumed receive WRs must give
// their slot back instead of sliding the queue forward into a fresh array.
func TestSendRecvSteadyStateAllocFree(t *testing.T) {
	for _, c := range []struct {
		shared  bool
		backlog int
	}{{false, 0}, {true, 0}, {false, 5}, {true, 5}} {
		e := newPair(t)
		postRecv := e.qpB.PostRecv
		if c.shared {
			srq := NewSRQ(e.ctxB)
			if err := e.qpB.AttachSRQ(srq); err != nil {
				t.Fatal(err)
			}
			postRecv = srq.PostRecv
		}
		wr := &SendWR{Opcode: OpSend, SGL: []SGE{{Addr: e.mrA.Addr(), Length: 64, MR: e.mrA}}}
		recv := RecvWR{ID: 1, SGE: SGE{Addr: e.mrB.Addr(), Length: 64, MR: e.mrB}}
		now := sim.Time(0)
		cycle := func() {
			if err := postRecv(recv); err != nil {
				t.Fatal(err)
			}
			comp, err := e.qpA.PostSend(now, wr)
			if err != nil {
				t.Fatal(err)
			}
			now = comp.Done
			if _, ok := e.qpB.RecvCQ().PollOne(now + sim.Millisecond); !ok {
				t.Fatal("no receive completion")
			}
		}
		for i := 0; i < c.backlog; i++ {
			if err := postRecv(recv); err != nil {
				t.Fatal(err)
			}
		}
		for i := 0; i < 4*c.backlog+1; i++ {
			cycle() // warm the reusable buffers and the queues' backing arrays
		}
		if allocs := testing.AllocsPerRun(200, cycle); allocs != 0 {
			t.Fatalf("steady-state SEND/PostRecv (srq=%v, backlog %d) allocates %.2f/op, want 0", c.shared, c.backlog, allocs)
		}
	}
}

// TestTelemetryObservePathAllocFree pins the metrics-attached op: once the
// per-(opcode, stage) histogram streams exist, the whole stage-observer
// bridge — array-interned lookups plus Histogram.Observe — stays off the
// heap.
func TestTelemetryObservePathAllocFree(t *testing.T) {
	cfg := cluster.DefaultConfig()
	cfg.Machines = 2
	cfg.Telemetry = telemetry.NewRegistry()
	cl, err := cluster.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ctxA := NewContext(cl.Machine(0))
	ctxB := NewContext(cl.Machine(1))
	qpA, _, err := Connect(ctxA, 1, ctxB, 1, RC)
	if err != nil {
		t.Fatal(err)
	}
	mrA := ctxA.MustRegisterMR(cl.Machine(0).MustAlloc(1, 1<<20, 0))
	mrB := ctxB.MustRegisterMR(cl.Machine(1).MustAlloc(1, 1<<20, 0))
	wr := &SendWR{
		Opcode:     OpWrite,
		SGL:        []SGE{{Addr: mrA.Addr(), Length: 64, MR: mrA}},
		RemoteAddr: mrB.Addr(),
		RemoteKey:  mrB.RKey(),
	}
	now := sim.Time(0)
	post := func() {
		c, err := qpA.PostSend(now, wr)
		if err != nil {
			t.Fatal(err)
		}
		now = c.Done
	}
	post() // resolve the histogram streams and warm the pools
	if allocs := testing.AllocsPerRun(200, post); allocs != 0 {
		t.Fatalf("metrics-attached PostSend allocates %.2f/op, want 0", allocs)
	}
}

// TestVerbsComponentNamesInterned pins the interned telemetry component
// strings to Opcode.String, so the array cache can never drift from the key
// the registry would have built by concatenation.
func TestVerbsComponentNamesInterned(t *testing.T) {
	for op := OpWrite; op <= OpSend; op++ {
		if got, want := verbsComponents[op], "verbs/"+op.String(); got != want {
			t.Fatalf("verbsComponents[%v] = %q, want %q", op, got, want)
		}
	}
}
