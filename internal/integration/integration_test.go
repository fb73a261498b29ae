// Package integration_test exercises whole-system scenarios across modules:
// all four applications sharing one simulated eight-machine cluster,
// determinism across repeated runs, and cross-application resource
// interference.
package integration_test

import (
	"bytes"
	"fmt"
	"hash/fnv"
	"testing"

	"rdmasem/internal/apps/dlog"
	"rdmasem/internal/apps/hashtable"
	"rdmasem/internal/apps/join"
	"rdmasem/internal/apps/shuffle"
	"rdmasem/internal/cluster"
	"rdmasem/internal/core"
	"rdmasem/internal/mem"
	"rdmasem/internal/sim"
	"rdmasem/internal/topo"
	"rdmasem/internal/verbs"
	"rdmasem/internal/workload"
)

// TestFourApplicationsOnOneCluster deploys the paper's four case studies on
// a single shared testbed and verifies each one's data-level correctness.
// The applications share machines, NICs, links and the switch, so this also
// exercises cross-application queueing.
func TestFourApplicationsOnOneCluster(t *testing.T) {
	cl, err := cluster.New(cluster.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}

	// 1. Hashtable: backend on machine 0, one front-end on machine 1.
	dist := mustZipfDist(t, 1<<10)
	backend, err := hashtable.NewBackend(cl.Machine(0), hashtable.Config{
		Level: hashtable.Reorder, KeySpace: 1 << 10, ValueSize: 64,
		Theta: 4, HotKeys: dist.HotSet(128),
	})
	if err != nil {
		t.Fatal(err)
	}
	fe, err := hashtable.NewFrontEnd(0, cl.Machine(1), 1, backend)
	if err != nil {
		t.Fatal(err)
	}

	// 2. Log: global log on machine 2, engine on machine 3.
	lcfg := dlog.DefaultConfig()
	lcfg.Batch = 8
	gl, err := dlog.NewLog(cl.Machine(2), lcfg)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := dlog.NewEngine(0, cl.Machine(3), 1, gl)
	if err != nil {
		t.Fatal(err)
	}

	// 3. Shuffle: 8 executors across all machines.
	scfg := shuffle.DefaultConfig()
	scfg.Executors = 8
	scfg.Batch = 4
	sh, err := shuffle.New(cl, scfg)
	if err != nil {
		t.Fatal(err)
	}

	// Drive hashtable puts, log appends and shuffle entries concurrently in
	// one closed loop.
	val := make([]byte, 64)
	stream := workload.NewStream(mustUniform(t, 1<<30, 5), scfg.ValueSize)
	putKeys := dist.New(7)
	clients := []*sim.Client{
		{PostCost: 200, Window: 2, MaxOps: 400, Op: func(post sim.Time) sim.Time {
			k := putKeys.Next()
			workload.FillValue(val, k)
			d, err := fe.Put(post, k, val)
			if err != nil {
				t.Fatal(err)
			}
			return d
		}},
		{PostCost: 150, Window: 2, MaxOps: 100, Op: func(post sim.Time) sim.Time {
			_, d, err := eng.AppendBatch(post)
			if err != nil {
				t.Fatal(err)
			}
			return d
		}},
		{PostCost: 100, Window: 2, MaxOps: 500, Op: func(post sim.Time) sim.Time {
			d, err := sh.Executors()[0].Process(post, stream.Next())
			if err != nil {
				t.Fatal(err)
			}
			return d
		}},
	}
	res, err := sim.RunClosedLoop(clients, sim.Second)
	if err != nil {
		t.Fatal(err)
	}
	if res.Completed != 1000 {
		t.Fatalf("completed %d ops, want 1000", res.Completed)
	}

	// 4. Join on the same cluster afterwards.
	inner := workload.Relation(2048, 512, 3)
	outer := workload.Relation(2048, 512, 4)
	jr, err := join.Run(cl, join.DefaultConfig(), inner, outer)
	if err != nil {
		t.Fatal(err)
	}
	counts := map[uint64]int64{}
	for _, tp := range inner {
		counts[tp.Key]++
	}
	var want int64
	for _, tp := range outer {
		want += counts[tp.Key]
	}
	if jr.Matches != want {
		t.Fatalf("join matches %d, want %d", jr.Matches, want)
	}

	// Log records are intact after the mixed run.
	head, err := gl.Head()
	if err != nil {
		t.Fatal(err)
	}
	if head != 100*8 {
		t.Fatalf("log head %d, want 800", head)
	}
	for seq := uint64(0); seq < head; seq += 97 {
		rec, err := gl.Record(seq)
		if err != nil {
			t.Fatal(err)
		}
		if !workload.CheckValue(rec, seq) {
			t.Fatalf("log record %d corrupt", seq)
		}
	}
}

// TestWholeStackDeterminism runs an identical mixed workload twice and
// demands bit-identical results — every op's client, post and completion
// time, folded into one fingerprint — the property that makes every figure
// in the repository reproducible.
func TestWholeStackDeterminism(t *testing.T) {
	dist := mustZipfDist(t, 1<<12)
	run := func() string {
		cl, err := cluster.New(cluster.DefaultConfig())
		if err != nil {
			t.Fatal(err)
		}
		backend, err := hashtable.NewBackend(cl.Machine(0), hashtable.Config{
			Level: hashtable.Reorder, KeySpace: 1 << 12, ValueSize: 64,
			Theta: 8, HotKeys: dist.HotSet(512),
		})
		if err != nil {
			t.Fatal(err)
		}
		var clients []*sim.Client
		val := make([]byte, 64)
		ops := fnv.New64a()
		for i := 0; i < 6; i++ {
			fe, err := hashtable.NewFrontEnd(i, cl.Machine(1+i%7), topo.SocketID(i%2), backend)
			if err != nil {
				t.Fatal(err)
			}
			keys := dist.New(int64(100 + i))
			clients = append(clients, &sim.Client{
				PostCost: 200, Window: 4,
				Op: func(post sim.Time) sim.Time {
					d, err := fe.Put(post, keys.Next(), val)
					if err != nil {
						t.Fatal(err)
					}
					fmt.Fprintf(ops, "%d %d %d;", i, post, d)
					return d
				},
			})
		}
		res, err := sim.RunClosedLoop(clients, 2*sim.Millisecond)
		if err != nil {
			t.Fatal(err)
		}
		return fmt.Sprintf("%d %x", res.Completed, ops.Sum64())
	}
	a, b := run(), run()
	if a != b {
		t.Fatalf("nondeterministic runs:\n  %s\n  %s", a, b)
	}
}

// TestCrossTrafficSlowsSharedBackend verifies interference is real: a
// write stream to machine 0 slows when a second, unrelated stream hammers
// the same responder NIC.
func TestCrossTrafficSlowsSharedBackend(t *testing.T) {
	mops := func(withInterference bool) float64 {
		cl, err := cluster.New(cluster.DefaultConfig())
		if err != nil {
			t.Fatal(err)
		}
		server := verbs.NewContext(cl.Machine(0))
		srvMR := server.MustRegisterMR(cl.Machine(0).MustAlloc(1, 1<<20, 0))
		mk := func(m int) *sim.Client {
			ctx := verbs.NewContext(cl.Machine(m))
			qp, _, err := verbs.Connect(ctx, 1, server, 1, verbs.RC)
			if err != nil {
				t.Fatal(err)
			}
			mr := ctx.MustRegisterMR(cl.Machine(m).MustAlloc(1, 1<<16, 0))
			wr := &verbs.SendWR{
				Opcode:     verbs.OpWrite,
				SGL:        []verbs.SGE{{Addr: mr.Addr(), Length: 4096, MR: mr}},
				RemoteAddr: srvMR.Addr() + mem0(m*8192),
				RemoteKey:  srvMR.RKey(),
			}
			return &sim.Client{PostCost: 150, Window: 16, Op: func(post sim.Time) sim.Time {
				c, err := qp.PostSend(post, wr)
				if err != nil {
					t.Fatal(err)
				}
				return c.Done
			}}
		}
		clients := []*sim.Client{mk(1)}
		if withInterference {
			for m := 2; m <= 5; m++ {
				clients = append(clients, mk(m))
			}
		}
		res, err := sim.RunClosedLoop(clients, 5*sim.Millisecond)
		if err != nil {
			t.Fatal(err)
		}
		return float64(res.Clients[0].Completed) / 5e3 // client 0 only, MOPS
	}
	alone := mops(false)
	shared := mops(true)
	if shared >= alone*0.9 {
		t.Fatalf("interference missing: alone %.3f vs shared %.3f MOPS", alone, shared)
	}
}

// TestEngineModesAgreeOnData runs the same writes through both engine
// wirings and checks the remote bytes are identical — the NUMA modes differ
// only in time, never in effect.
func TestEngineModesAgreeOnData(t *testing.T) {
	var images [][]byte
	for _, mode := range []core.Mode{core.Basic, core.Matched} {
		cl, err := cluster.New(cluster.DefaultConfig())
		if err != nil {
			t.Fatal(err)
		}
		local := verbs.NewContext(cl.Machine(0))
		peer := verbs.NewContext(cl.Machine(1))
		dst := peer.MustRegisterMR(cl.Machine(1).MustAlloc(0, 1<<16, 0))
		src := local.MustRegisterMR(cl.Machine(0).MustAlloc(0, 1<<16, 0))
		eng, err := core.NewEngine(local, []*verbs.Context{peer}, mode)
		if err != nil {
			t.Fatal(err)
		}
		now := sim.Time(0)
		for i := 0; i < 64; i++ {
			workload.FillValue(src.Region().Bytes()[i*64:(i+1)*64], uint64(i))
			d, err := eng.Write(now, topo.SocketID(i%2),
				[]verbs.SGE{{Addr: src.Addr() + mem0(i*64), Length: 64, MR: src}},
				0, dst.Addr()+mem0(i*64), dst)
			if err != nil {
				t.Fatal(err)
			}
			now = d
		}
		images = append(images, append([]byte(nil), dst.Region().Bytes()[:64*64]...))
	}
	if !bytes.Equal(images[0], images[1]) {
		t.Fatal("engine modes disagree on written data")
	}
}

func mustZipfDist(t *testing.T, n uint64) *workload.ZipfDist {
	t.Helper()
	d, err := workload.NewZipfDist(n, 0.99)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func mustUniform(t *testing.T, n uint64, seed int64) *workload.Uniform {
	t.Helper()
	u, err := workload.NewUniform(n, seed)
	if err != nil {
		t.Fatal(err)
	}
	return u
}

func mem0(off int) mem.Addr { return mem.Addr(off) }
