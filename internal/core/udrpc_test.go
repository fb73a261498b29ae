package core

import (
	"errors"
	"testing"

	"rdmasem/internal/cluster"
	"rdmasem/internal/fabric"
	"rdmasem/internal/sim"
	"rdmasem/internal/verbs"
)

func TestUDRPCValidation(t *testing.T) {
	e := newLockEnv(t, 1)
	if _, err := NewUDRPCServer(nil, 1, e.srvMR); err == nil {
		t.Error("nil context must fail")
	}
	if _, err := NewUDRPCServer(e.server, 9, e.srvMR); err == nil {
		t.Error("bad port must fail")
	}
}

func TestUDRPCCallRoundTrip(t *testing.T) {
	e := newLockEnv(t, 2)
	srv, err := NewUDRPCServer(e.server, 1, e.srvMR)
	if err != nil {
		t.Fatal(err)
	}
	c0, err := srv.NewUDRPCClient(e.clients[0], 1, e.scrs[0])
	if err != nil {
		t.Fatal(err)
	}
	got, done, err := c0.Call(0, 16, 8, func(at sim.Time) uint64 {
		if at <= 0 {
			t.Fatal("handler must run at a positive time")
		}
		return 99
	})
	if err != nil {
		t.Fatal(err)
	}
	if got != 99 {
		t.Fatalf("handler result %d", got)
	}
	if done <= 0 {
		t.Fatal("call must take time")
	}
}

// The paper cites Kalia et al.: UD RPC outruns connected-transport RPC. The
// datagram exchange saves the RC acknowledgements in both directions.
func TestUDRPCFasterThanRCRPC(t *testing.T) {
	e := newLockEnv(t, 2)
	rcSrv, err := NewRPCServer(e.server, e.srvMR)
	if err != nil {
		t.Fatal(err)
	}
	rc, err := rcSrv.NewRPCClient(e.clients[0], 1, 1, e.scrs[0])
	if err != nil {
		t.Fatal(err)
	}
	udSrv, err := NewUDRPCServer(e.server, 1, e.srvMR)
	if err != nil {
		t.Fatal(err)
	}
	ud, err := udSrv.NewUDRPCClient(e.clients[1], 1, e.scrs[1])
	if err != nil {
		t.Fatal(err)
	}
	// Warm both paths, then compare steady-state latency.
	rc.Call(0, 16, 8, nil)
	ud.Call(0, 16, 8, nil)
	base := sim.Time(sim.Millisecond)
	_, rcDone, err := rc.Call(base, 16, 8, nil)
	if err != nil {
		t.Fatal(err)
	}
	_, udDone, err := ud.Call(base, 16, 8, nil)
	if err != nil {
		t.Fatal(err)
	}
	if udDone-base >= rcDone-base {
		t.Fatalf("UD RPC (%v) should beat RC RPC (%v)", udDone-base, rcDone-base)
	}
}

func TestUDRPCSequencer(t *testing.T) {
	e := newLockEnv(t, 2)
	srv, err := NewUDRPCServer(e.server, 1, e.srvMR)
	if err != nil {
		t.Fatal(err)
	}
	var counter uint64
	var seqs []*RPCSequencer
	for i := 0; i < 2; i++ {
		c, err := srv.NewUDRPCClient(e.clients[i], 1, e.scrs[i])
		if err != nil {
			t.Fatal(err)
		}
		seqs = append(seqs, NewRPCSequencer(c, &counter))
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
		t.Fatalf("ud rpc sequence %d,%d", v0, v1)
	}
}

func TestUDRPCLockMutualExclusion(t *testing.T) {
	e := newLockEnv(t, 3)
	srv, err := NewUDRPCServer(e.server, 1, e.srvMR)
	if err != nil {
		t.Fatal(err)
	}
	state := NewLockState()
	var locks []*RPCLock
	for i := 0; i < 3; i++ {
		c, err := srv.NewUDRPCClient(e.clients[i], 1, e.scrs[i])
		if err != nil {
			t.Fatal(err)
		}
		locks = append(locks, NewRPCLock(state, c, i))
	}
	type iv struct{ a, r sim.Time }
	var ivs []iv
	clients := make([]*sim.Client, 3)
	for i := 0; i < 3; i++ {
		lock := locks[i]
		clients[i] = &sim.Client{
			PostCost: 150, Window: 1, MaxOps: 10,
			Op: func(post sim.Time) sim.Time {
				at, err := lock.Acquire(post)
				if err != nil {
					t.Fatal(err)
				}
				rt, err := lock.Release(at + 100)
				if err != nil {
					t.Fatal(err)
				}
				ivs = append(ivs, iv{at, rt})
				return rt
			},
		}
	}
	if _, err := sim.RunClosedLoop(clients, sim.Second); err != nil {
		t.Fatal(err)
	}
	if len(ivs) != 30 {
		t.Fatalf("cycles=%d", len(ivs))
	}
	for i := range ivs {
		for j := i + 1; j < len(ivs); j++ {
			if ivs[i].a < ivs[j].r && ivs[j].a < ivs[i].r {
				t.Fatal("UD RPC lock critical sections overlap")
			}
		}
	}
}

// newLossyUDRPC builds a UD RPC server on machine 0 and one client on
// machine 1 of a cluster whose fabric drops each segment with probability
// drop.
func newLossyUDRPC(t *testing.T, drop float64) (*cluster.Cluster, *UDRPCClient) {
	t.Helper()
	cfg := cluster.DefaultConfig()
	cfg.Machines = 2
	cfg.Faults = &fabric.FaultPlan{Seed: 1, Drop: drop}
	cl, err := cluster.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	server, client := verbs.NewContext(cl.Machine(0)), verbs.NewContext(cl.Machine(1))
	srv, err := NewUDRPCServer(server, 1, server.MustRegisterMR(cl.Machine(0).MustAlloc(1, 4096, 0)))
	if err != nil {
		t.Fatal(err)
	}
	c, err := srv.NewUDRPCClient(client, 1, client.MustRegisterMR(cl.Machine(1).MustAlloc(1, 4096, 0)))
	if err != nil {
		t.Fatal(err)
	}
	return cl, c
}

// Under heavy loss every call still completes: lost requests and lost
// responses are both retransmitted, and the handler runs exactly once per
// call. An exhausted retry budget is a typed error.
func TestUDRPCRetransmitsUnderLoss(t *testing.T) {
	_, c := newLossyUDRPC(t, 0.2)
	const calls = 300
	handled, reqLost, respLost := 0, 0, 0
	now := sim.Time(0)
	for i := 0; i < calls; i++ {
		var ranAt sim.Time
		got, done, err := c.Call(now, 16, 8, func(at sim.Time) uint64 {
			handled++
			ranAt = at
			return uint64(i)
		})
		if err != nil {
			t.Fatalf("call %d: %v", i, err)
		}
		if got != uint64(i) || done <= now {
			t.Fatalf("call %d returned %d at %v (posted %v)", i, got, done, now)
		}
		// One exchange takes a few microseconds: a handler that ran a
		// timeout late means the first request was lost, and a call that
		// ended a timeout late after a prompt handler lost a response.
		switch retry := now + UDRPCTimeout; {
		case ranAt >= retry:
			reqLost++
		case done >= retry:
			respLost++
		}
		now = done
	}
	if handled != calls {
		t.Fatalf("handler ran %d times for %d calls", handled, calls)
	}
	if reqLost == 0 || respLost == 0 {
		t.Fatalf("the plan lost %d requests and %d responses; both legs must be exercised", reqLost, respLost)
	}

	_, dead := newLossyUDRPC(t, 1)
	ran := false
	_, at, err := dead.Call(0, 16, 8, func(sim.Time) uint64 { ran = true; return 0 })
	if !errors.Is(err, ErrUDRPCRetries) {
		t.Fatalf("err = %v, want ErrUDRPCRetries", err)
	}
	if ran || at != sim.Duration(UDRPCRetries+1)*UDRPCTimeout {
		t.Fatalf("handler ran=%v, gave up at %v", ran, at)
	}
}

// Interface check: both transports satisfy Caller.
var (
	_ Caller = (*RPCClient)(nil)
	_ Caller = (*UDRPCClient)(nil)
)
