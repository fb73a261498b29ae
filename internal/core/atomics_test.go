package core

import (
	"testing"

	"rdmasem/internal/cluster"
	"rdmasem/internal/mem"
	"rdmasem/internal/sim"
	"rdmasem/internal/verbs"
)

// lockEnv wires n clients on n machines to one lock/counter machine.
type lockEnv struct {
	cl      *cluster.Cluster
	server  *verbs.Context
	srvMR   *verbs.MR
	clients []*verbs.Context
	qps     []*verbs.QP
	scrs    []*verbs.MR
}

func newLockEnv(t *testing.T, n int) *lockEnv {
	t.Helper()
	cfg := cluster.DefaultConfig()
	cfg.Machines = n + 1
	cl, err := cluster.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	e := &lockEnv{cl: cl, server: verbs.NewContext(cl.Machine(0))}
	e.srvMR = e.server.MustRegisterMR(cl.Machine(0).MustAlloc(1, 4096, 0))
	for i := 0; i < n; i++ {
		ctx := verbs.NewContext(cl.Machine(i + 1))
		qp, _, err := verbs.Connect(ctx, 1, e.server, 1, verbs.RC)
		if err != nil {
			t.Fatal(err)
		}
		e.clients = append(e.clients, ctx)
		e.qps = append(e.qps, qp)
		e.scrs = append(e.scrs, ctx.MustRegisterMR(cl.Machine(i+1).MustAlloc(1, 4096, 0)))
	}
	return e
}

func (e *lockEnv) remoteLock(t *testing.T, i int, state *LockState, backoff *sim.Backoff) *RemoteLock {
	t.Helper()
	l, err := NewRemoteLock(state, e.qps[i],
		verbs.SGE{Addr: e.scrs[i].Addr(), Length: 8, MR: e.scrs[i]},
		e.srvMR, e.srvMR.Addr(), i, backoff)
	if err != nil {
		t.Fatal(err)
	}
	return l
}

func TestRemoteLockMutualExclusion(t *testing.T) {
	const n = 4
	e := newLockEnv(t, n)
	state := NewLockState()
	type interval struct{ a, r sim.Time }
	var intervals []interval

	// Four clients run lock/hold/unlock cycles in a shared closed loop.
	clients := make([]*sim.Client, n)
	for i := 0; i < n; i++ {
		lock := e.remoteLock(t, i, state, nil)
		clients[i] = &sim.Client{
			PostCost: 150,
			Window:   1,
			MaxOps:   20,
			Op: func(post sim.Time) sim.Time {
				at, err := lock.Acquire(post)
				if err != nil {
					t.Fatal(err)
				}
				rt, err := lock.Release(at + 200) // 200ns critical section
				if err != nil {
					t.Fatal(err)
				}
				intervals = append(intervals, interval{at, rt})
				return rt
			},
		}
	}
	if _, err := sim.RunClosedLoop(clients, sim.Second); err != nil {
		t.Fatal(err)
	}
	if len(intervals) < 40 {
		t.Fatalf("only %d lock cycles ran", len(intervals))
	}
	for i := range intervals {
		for j := i + 1; j < len(intervals); j++ {
			a, b := intervals[i], intervals[j]
			if a.a < b.r && b.a < a.r {
				t.Fatalf("critical sections overlap: [%v,%v] vs [%v,%v]", a.a, a.r, b.a, b.r)
			}
		}
	}
	// Every acquire was released: the lock word is free again.
	var word [8]byte
	if err := e.cl.Machine(0).Space().ReadAt(e.srvMR.Addr(), word[:]); err != nil {
		t.Fatal(err)
	}
	if word != [8]byte{} {
		t.Fatalf("lock word % x after every release, want zero", word)
	}
}

// The paper: back-off "significantly eliminates the lock contention". In
// the model this shows as a lower offered load on the responder's atomic
// unit — the failed-CAS flood shrinks — while naive spinning keeps the unit
// saturated.
func TestRemoteLockBackoffReducesCASFlood(t *testing.T) {
	run := func(backoff *sim.Backoff) (atomicsPerSec float64, cycles int64) {
		const n = 8
		e := newLockEnv(t, n)
		state := NewLockState()
		clients := make([]*sim.Client, n)
		var count, atomics int64
		// Every CAS, failed or not, occupies the server port's atomic unit.
		e.cl.Machine(0).NIC().Port(1).Atomic().Observe(func(_, _, _ sim.Time) { atomics++ })
		for i := 0; i < n; i++ {
			lock := e.remoteLock(t, i, state, backoff)
			clients[i] = &sim.Client{
				PostCost: 150,
				Window:   1,
				Op: func(post sim.Time) sim.Time {
					at, err := lock.Acquire(post)
					if err != nil {
						t.Fatal(err)
					}
					rt, err := lock.Release(at)
					if err != nil {
						t.Fatal(err)
					}
					count++
					return rt
				},
			}
		}
		horizon := 10 * sim.Millisecond
		if _, err := sim.RunClosedLoop(clients, horizon); err != nil {
			t.Fatal(err)
		}
		return float64(atomics) / horizon.Seconds(), count
	}
	naiveLoad, naiveCycles := run(nil)
	bo := sim.DefaultBackoff()
	boLoad, boCycles := run(&bo)
	if naiveCycles == 0 || boCycles == 0 {
		t.Fatal("no lock cycles completed")
	}
	// Naive spinning saturates the ~2.44 MOPS atomic unit.
	if naiveLoad < 1.9e6 {
		t.Errorf("naive CAS load %.2e/s should saturate the atomic unit", naiveLoad)
	}
	if boLoad >= 0.8*naiveLoad {
		t.Errorf("backoff CAS load %.2e/s should be well below naive %.2e/s", boLoad, naiveLoad)
	}
}

func TestLocalLockBasics(t *testing.T) {
	state := NewLockState()
	line := NewLocalLockLine()
	l0 := NewLocalLock(state, line, 0)
	l1 := NewLocalLock(state, line, 1)
	at := l0.Acquire(0)
	if at <= 0 {
		t.Fatal("acquire must advance time")
	}
	rt := l0.Release(at + 50)
	at2 := l1.Acquire(rt)
	if at2 <= rt {
		t.Fatal("second acquire must follow release")
	}
	l1.Release(at2)
}

func TestLocalLockReleaseByNonHolderPanics(t *testing.T) {
	state := NewLockState()
	line := NewLocalLockLine()
	l0 := NewLocalLock(state, line, 0)
	l1 := NewLocalLock(state, line, 1)
	at := l0.Acquire(0)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	l1.Release(at)
}

func TestRemoteSequencerDenseAndMonotone(t *testing.T) {
	const n = 3
	e := newLockEnv(t, n)
	// The shared counter lives at srvMR+64.
	var seen []uint64
	clients := make([]*sim.Client, n)
	for i := 0; i < n; i++ {
		seq, err := NewRemoteSequencer(e.qps[i],
			verbs.SGE{Addr: e.scrs[i].Addr(), Length: 8, MR: e.scrs[i]},
			e.srvMR, e.srvMR.Addr()+64)
		if err != nil {
			t.Fatal(err)
		}
		clients[i] = &sim.Client{
			PostCost: 150,
			Window:   1,
			MaxOps:   50,
			Op: func(post sim.Time) sim.Time {
				v, done, err := seq.Next(post, 1)
				if err != nil {
					t.Fatal(err)
				}
				seen = append(seen, v)
				return done
			},
		}
	}
	if _, err := sim.RunClosedLoop(clients, sim.Second); err != nil {
		t.Fatal(err)
	}
	if len(seen) != n*50 {
		t.Fatalf("drew %d values, want %d", len(seen), n*50)
	}
	// Dense permutation of [0, n*50).
	marks := make([]bool, len(seen))
	for _, v := range seen {
		if v >= uint64(len(seen)) || marks[v] {
			t.Fatalf("value %d duplicated or out of range", v)
		}
		marks[v] = true
	}
}

func TestRemoteSequencerBlockReservation(t *testing.T) {
	e := newLockEnv(t, 1)
	seq, err := NewRemoteSequencer(e.qps[0],
		verbs.SGE{Addr: e.scrs[0].Addr(), Length: 8, MR: e.scrs[0]},
		e.srvMR, e.srvMR.Addr())
	if err != nil {
		t.Fatal(err)
	}
	a, _, err := seq.Next(0, 128)
	if err != nil {
		t.Fatal(err)
	}
	b, _, err := seq.Next(0, 64)
	if err != nil {
		t.Fatal(err)
	}
	if a != 0 || b != 128 {
		t.Fatalf("reservations %d,%d, want 0,128", a, b)
	}
	if _, _, err := seq.Next(0, 0); err == nil {
		t.Fatal("zero reservation must fail")
	}
}

func TestLocalSequencer(t *testing.T) {
	s := NewLocalSequencer()
	v0, t0 := s.Next(0, 0)
	v1, t1 := s.Next(t0, 1)
	v2, t2 := s.Next(t1, 1)
	if v0 != 0 || v1 != 1 || v2 != 2 {
		t.Fatalf("values %d,%d,%d", v0, v1, v2)
	}
	// Same-thread repeat is a cache hit: cheaper than the bounce before it.
	if t2-t1 >= t1-t0 {
		t.Fatalf("hit (%v) should be cheaper than bounce (%v)", t2-t1, t1-t0)
	}
}

func TestRPCSequencerAndLock(t *testing.T) {
	e := newLockEnv(t, 2)
	srv, err := NewRPCServer(e.server, e.srvMR)
	if err != nil {
		t.Fatal(err)
	}
	var counter uint64
	var seqs []*RPCSequencer
	var locks []*RPCLock
	state := NewLockState()
	for i := 0; i < 2; i++ {
		rc, err := srv.NewRPCClient(e.clients[i], 1, 1, e.scrs[i])
		if err != nil {
			t.Fatal(err)
		}
		seqs = append(seqs, NewRPCSequencer(rc, &counter))
		rc2, err := srv.NewRPCClient(e.clients[i], 1, 1, e.scrs[i])
		if err != nil {
			t.Fatal(err)
		}
		locks = append(locks, NewRPCLock(state, rc2, i))
	}
	v0, d0, err := seqs[0].Next(0)
	if err != nil {
		t.Fatal(err)
	}
	v1, _, err := seqs[1].Next(d0)
	if err != nil {
		t.Fatal(err)
	}
	if v0 != 0 || v1 != 1 {
		t.Fatalf("rpc sequence %d,%d", v0, v1)
	}

	at, err := locks[0].Acquire(0)
	if err != nil {
		t.Fatal(err)
	}
	rt, err := locks[0].Release(at + 100)
	if err != nil {
		t.Fatal(err)
	}
	at2, err := locks[1].Acquire(rt)
	if err != nil {
		t.Fatal(err)
	}
	if at2 <= at {
		t.Fatal("second RPC acquire must follow the first")
	}
	if _, err := locks[1].Release(at2); err != nil {
		t.Fatal(err)
	}
}

func TestLockValidation(t *testing.T) {
	e := newLockEnv(t, 1)
	if _, err := NewRemoteLock(nil, e.qps[0], verbs.SGE{Length: 8}, e.srvMR, e.srvMR.Addr(), 0, nil); err == nil {
		t.Error("nil state must fail")
	}
	if _, err := NewRemoteLock(NewLockState(), e.qps[0], verbs.SGE{Length: 4}, e.srvMR, e.srvMR.Addr(), 0, nil); err == nil {
		t.Error("non-8-byte scratch must fail")
	}
	if _, err := NewRemoteSequencer(e.qps[0], verbs.SGE{Length: 4}, e.srvMR, 0); err == nil {
		t.Error("non-8-byte sequencer scratch must fail")
	}
	if _, err := NewRPCServer(nil, e.srvMR); err == nil {
		t.Error("nil rpc context must fail")
	}
	_ = mem.Addr(0)
}
