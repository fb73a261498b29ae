package core

import (
	"testing"

	"rdmasem/internal/cluster"
	"rdmasem/internal/sim"
	"rdmasem/internal/topo"
	"rdmasem/internal/verbs"
)

// numaEnv builds a 3-machine cluster with contexts and per-socket MRs on the
// remote machines.
type numaEnv struct {
	cl    *cluster.Cluster
	local *verbs.Context
	peers []*verbs.Context
	// mrs[peer][socket]
	mrs    [][]*verbs.MR
	scrMR  *verbs.MR
	engine map[Mode]*Engine
}

func newNumaEnv(t *testing.T) *numaEnv {
	t.Helper()
	cfg := cluster.DefaultConfig()
	cfg.Machines = 3
	cl, err := cluster.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	e := &numaEnv{cl: cl, local: verbs.NewContext(cl.Machine(0)), engine: map[Mode]*Engine{}}
	for i := 1; i < 3; i++ {
		ctx := verbs.NewContext(cl.Machine(i))
		e.peers = append(e.peers, ctx)
		var socketMRs []*verbs.MR
		for s := 0; s < 2; s++ {
			socketMRs = append(socketMRs, ctx.MustRegisterMR(cl.Machine(i).MustAlloc(topo.SocketID(s), 1<<16, 0)))
		}
		e.mrs = append(e.mrs, socketMRs)
	}
	e.scrMR = e.local.MustRegisterMR(cl.Machine(0).MustAlloc(1, 1<<16, 0))
	return e
}

func (e *numaEnv) get(t *testing.T, m Mode) *Engine {
	t.Helper()
	if e.engine[m] == nil {
		eng, err := NewEngine(e.local, e.peers, m)
		if err != nil {
			t.Fatal(err)
		}
		e.engine[m] = eng
	}
	return e.engine[m]
}

// TestEngineQPCounts: both wirings connect one QP per (socket, peer), the
// s x 2m of Section III-D. Each Connect draws two QP numbers (one per side)
// from the cluster's allocator.
func TestEngineQPCounts(t *testing.T) {
	for _, m := range []Mode{Basic, Matched} {
		e := newNumaEnv(t)
		alloc := e.cl.Machine(0)
		before := alloc.NextQPID()
		e.get(t, m)
		// m=2 peers, s=2 sockets.
		if got := (alloc.NextQPID() - before - 1) / 2; got != 4 {
			t.Errorf("%v QPs=%d, want s*m=4", m, got)
		}
	}
}

func TestEngineWriteMovesDataAllModes(t *testing.T) {
	for name, m := range map[string]Mode{"basic": Basic, "matched+proxy": Matched} {
		t.Run(name, func(t *testing.T) {
			e := newNumaEnv(t)
			eng := e.get(t, m)
			copy(e.scrMR.Region().Bytes(), "numa-routed")
			sgl := []verbs.SGE{{Addr: e.scrMR.Addr(), Length: 11, MR: e.scrMR}}
			for peer := 0; peer < 2; peer++ {
				for s := 0; s < 2; s++ {
					dst := e.mrs[peer][s]
					if _, err := eng.Write(0, 0, sgl, peer, dst.Addr(), dst); err != nil {
						t.Fatal(err)
					}
					if string(dst.Region().Bytes()[:11]) != "numa-routed" {
						t.Fatalf("peer %d socket %d: data missing", peer, s)
					}
				}
			}
		})
	}
}

func TestEngineProxyChargesIPC(t *testing.T) {
	e := newNumaEnv(t)
	eng := e.get(t, Matched)
	sgl := []verbs.SGE{{Addr: e.scrMR.Addr(), Length: 32, MR: e.scrMR}}
	dst0 := e.mrs[0][0] // memory on remote socket 0
	dst1 := e.mrs[0][1]

	// Warm caches.
	eng.Write(0, 0, sgl, 0, dst0.Addr(), dst0)
	eng.Write(0, 1, sgl, 0, dst1.Addr(), dst1)

	base := sim.Time(sim.Millisecond)
	// Core 0 writing to remote socket 0: direct (matched).
	dDirect, err := eng.Write(base, 0, sgl, 0, dst0.Addr(), dst0)
	if err != nil {
		t.Fatal(err)
	}
	// Core 1 writing to remote socket 0: proxied through local socket 0.
	base2 := dDirect + sim.Millisecond
	dProxy, err := eng.Write(base2, 1, sgl, 0, dst0.Addr(), dst0)
	if err != nil {
		t.Fatal(err)
	}
	if dProxy-base2 <= dDirect-base {
		t.Fatalf("proxied write (%v) must cost more than direct (%v)", dProxy-base2, dDirect-base)
	}
	// The two writes took the two paths: direct from the matched socket,
	// the proxy hop from the other.
	if _, extra := eng.QP(0, 0, 0); extra != 0 {
		t.Fatalf("core 0 to remote socket 0 charged a %v proxy hop", extra)
	}
	if _, extra := eng.QP(1, 0, 0); extra == 0 {
		t.Fatal("core 1 to remote socket 0 must take the proxy hop")
	}
}

func TestEngineMatchedBeatsBasicOnCrossTraffic(t *testing.T) {
	// Core 1 hammers remote socket-0 memory. Basic posts from port 1, so
	// every responder DMA crosses QPI and inflates the responder engine;
	// Matched hands the request to the socket-0 proxy, paying only a
	// shared-memory hop. Under load the matched path sustains the full
	// per-QP rate while basic is responder-bound.
	run := func(mode Mode) float64 {
		e := newNumaEnv(t)
		eng := e.get(t, mode)
		buf := e.local.MustRegisterMR(e.cl.Machine(0).MustAlloc(1, 4096, 0))
		sgl := []verbs.SGE{{Addr: buf.Addr(), Length: 64, MR: buf}}
		dst := e.mrs[0][0]
		client := &sim.Client{
			PostCost: 150,
			Window:   16,
			Op: func(post sim.Time) sim.Time {
				d, err := eng.Write(post, 1, sgl, 0, dst.Addr(), dst)
				if err != nil {
					t.Fatal(err)
				}
				return d
			},
		}
		res, err := sim.RunClosedLoop([]*sim.Client{client}, 5*sim.Millisecond)
		if err != nil {
			t.Fatal(err)
		}
		return res.MOPS()
	}
	basic, matched := run(Basic), run(Matched)
	if matched <= basic*1.1 {
		t.Fatalf("matched (%.2f MOPS) should clearly beat basic (%.2f MOPS) on cross-socket traffic", matched, basic)
	}
}

func TestEngineReadAndFetchAdd(t *testing.T) {
	e := newNumaEnv(t)
	eng := e.get(t, Matched)
	dst := e.mrs[1][1]
	copy(dst.Region().Bytes()[128:], "read-back")
	sgl := []verbs.SGE{{Addr: e.scrMR.Addr(), Length: 9, MR: e.scrMR}}
	if _, err := eng.Read(0, 1, sgl, 1, dst.Addr()+128, dst); err != nil {
		t.Fatal(err)
	}
	if string(e.scrMR.Region().Bytes()[:9]) != "read-back" {
		t.Fatal("engine read did not fetch remote bytes")
	}
	scr := verbs.SGE{Addr: e.scrMR.Addr() + 64, Length: 8, MR: e.scrMR}
	old1, _, err := eng.FetchAdd(0, 1, scr, 1, dst.Addr(), dst, 5)
	if err != nil {
		t.Fatal(err)
	}
	old2, _, err := eng.FetchAdd(0, 1, scr, 1, dst.Addr(), dst, 5)
	if err != nil {
		t.Fatal(err)
	}
	if old1 != 0 || old2 != 5 {
		t.Fatalf("FAA sequence %d,%d, want 0,5", old1, old2)
	}
}

func TestEngineErrors(t *testing.T) {
	e := newNumaEnv(t)
	if _, err := NewEngine(nil, e.peers, Basic); err == nil {
		t.Error("nil local must fail")
	}
	if _, err := NewEngine(e.local, nil, Basic); err == nil {
		t.Error("no peers must fail")
	}
	eng := e.get(t, Matched)
	sgl := []verbs.SGE{{Addr: e.scrMR.Addr(), Length: 8, MR: e.scrMR}}
	if _, err := eng.Write(0, 0, sgl, 99, e.mrs[0][0].Addr(), e.mrs[0][0]); err == nil {
		t.Error("unknown peer must fail")
	}
	if _, err := eng.Write(0, 0, sgl, 0, 1, e.mrs[0][0]); err == nil {
		t.Error("unmapped remote address must fail")
	}
}
