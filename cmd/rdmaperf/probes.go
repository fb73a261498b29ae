package main

import (
	"flag"
	"fmt"
	"testing"

	"rdmasem/internal/apps/hashtable"
	"rdmasem/internal/cluster"
	"rdmasem/internal/core"
	"rdmasem/internal/fabric"
	"rdmasem/internal/mem"
	"rdmasem/internal/rnic"
	"rdmasem/internal/sim"
	"rdmasem/internal/telemetry"
	"rdmasem/internal/txn"
	"rdmasem/internal/verbs"
)

// probe times one public call into one layer with testing.Benchmark at a
// fixed iteration count, so its allocs per call repeat exactly.
type probe struct {
	name   string // metric stem: <name>_<unit>, and <name>_allocs
	unit   string // "ns" or "us" per call
	allocs bool
	iters  int
	run    func(b *testing.B)
}

var probes = []probe{
	{"sim.kernel_dispatch", "ns", true, 20, probeKernelDispatch},
	{"sim.resource_acquire", "ns", false, 1_000_000, probeResourceAcquire},
	{"rnic.lru_hit", "ns", false, 2_000_000, func(b *testing.B) { probeLRU(b, false) }},
	{"rnic.lru_miss", "ns", false, 2_000_000, func(b *testing.B) { probeLRU(b, true) }},
	{"fabric.send", "ns", false, 1_000_000, func(b *testing.B) { probeFabric(b, nil) }},
	{"fabric.deliver_lossy", "ns", false, 1_000_000, func(b *testing.B) {
		probeFabric(b, &fabric.FaultPlan{Seed: 1, Drop: 0.01})
	}},
	{"cluster.new", "us", true, 200, probeClusterNew},
	{"verbs.write64", "ns", true, 100_000, func(b *testing.B) { probePost(b, cluster.DefaultConfig(), verbs.OpWrite, 64) }},
	{"verbs.read256", "ns", true, 100_000, func(b *testing.B) { probePost(b, cluster.DefaultConfig(), verbs.OpRead, 256) }},
	{"verbs.faa", "ns", true, 100_000, func(b *testing.B) { probePost(b, cluster.DefaultConfig(), verbs.OpFetchAdd, 8) }},
	{"verbs.list16", "ns", true, 10_000, probePostList16},
	{"verbs.write8k_lossy", "ns", true, 50_000, func(b *testing.B) {
		cfg := cluster.DefaultConfig()
		cfg.Faults = &fabric.FaultPlan{Seed: 7, Drop: 0.05}
		probePost(b, cfg, verbs.OpWrite, 8192)
	}},
	{"verbs.write64_metrics", "ns", true, 100_000, func(b *testing.B) {
		cfg := cluster.DefaultConfig()
		cfg.Telemetry = telemetry.NewRegistry()
		probePost(b, cfg, verbs.OpWrite, 64)
	}},
	{"core.sgl16", "ns", true, 50_000, probeSGL16},
	{"apps.hashtable_get", "ns", true, 100_000, probeHashtableGet},
	{"txn.rmw_commit", "ns", true, 20_000, probeTxnCommit},
}

// runProbes runs every probe and returns its metrics, plus
// telemetry.overhead_x. Times are in reference-host units, like the
// end-to-end metrics. A probe that fails reports an error instead.
func runProbes() ([]metric, []error) {
	testing.Init()
	speed := refCPU0 / refCPU()
	var ms []metric
	var errs []error
	perCall := map[string]float64{}
	for _, p := range probes {
		if err := flag.Set("test.benchtime", fmt.Sprintf("%dx", p.iters)); err != nil {
			panic(err) // testing.Init registers the flag
		}
		r := testing.Benchmark(p.run)
		if r.N == 0 {
			errs = append(errs, fmt.Errorf("probe %s failed", p.name))
			continue
		}
		t := float64(r.T.Nanoseconds()) / float64(r.N) * speed
		perCall[p.name] = t
		if p.unit == "us" {
			t /= 1e3
		}
		ms = append(ms, metric{p.name + "_" + p.unit, p.unit, t})
		if p.allocs {
			ms = append(ms, metric{p.name + "_allocs", "allocs", float64(r.AllocsPerOp())})
		}
	}
	if plain, traced := perCall["verbs.write64"], perCall["verbs.write64_metrics"]; plain > 0 && traced > 0 {
		ms = append(ms, metric{"telemetry.overhead_x", "x", traced / plain})
	}
	return ms, errs
}

// probeKernelDispatch is pure scheduler cost: 16 clients with
// constant-latency ops and no shared resources, over 1 ms of virtual time.
func probeKernelDispatch(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		k := sim.NewKernel(1)
		for c := 0; c < 16; c++ {
			lat := sim.Duration(1500 + 100*c)
			k.Add(&sim.Client{Op: func(t sim.Time) sim.Time { return t + lat }, PostCost: 100, Window: 8})
		}
		k.Run(sim.Millisecond)
	}
}

func probeResourceAcquire(b *testing.B) {
	r := sim.NewResource("probe")
	for i := 0; i < b.N; i++ {
		r.Acquire(sim.Time(i*10), 5)
	}
}

// probeLRU accesses one resident key, or (miss) scans cap+1 keys
// cyclically so every access evicts.
func probeLRU(b *testing.B, miss bool) {
	const capacity = 1024
	c := rnic.NewLRU(capacity)
	keys := uint64(1)
	if miss {
		keys = capacity + 1
	}
	for k := uint64(0); k < keys; k++ {
		c.Access(k)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Access(uint64(i) % keys)
	}
}

// probeFabric sends 64 B segments between two ports, through Deliver when a
// fault plan is set.
func probeFabric(b *testing.B, plan *fabric.FaultPlan) {
	p := fabric.DefaultParams()
	p.Faults = plan
	f, err := fabric.New(p)
	if err != nil {
		b.Fatal(err)
	}
	from, to := f.RegisterAt("a", 0), f.RegisterAt("b", 1)
	now := sim.Time(0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if plan == nil {
			now = f.Send(now, from, to, 64)
		} else {
			now, _ = f.Deliver(now, from, to, 64)
		}
	}
}

func probeClusterNew(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := cluster.New(cluster.DefaultConfig()); err != nil {
			b.Fatal(err)
		}
	}
}

// pair is two machines of a cluster built from cfg, joined by an RC QP
// between their NIC-socket ports, each with a 1 MiB MR.
type pair struct {
	qp            *verbs.QP
	local, remote *verbs.MR
}

func newPair(b *testing.B, cfg cluster.Config) *pair {
	cfg.Machines = 2
	cl, err := cluster.New(cfg)
	if err != nil {
		b.Fatal(err)
	}
	ctxA, ctxB := verbs.NewContext(cl.Machine(0)), verbs.NewContext(cl.Machine(1))
	qp, _, err := verbs.Connect(ctxA, 1, ctxB, 1, verbs.RC)
	if err != nil {
		b.Fatal(err)
	}
	return &pair{
		qp:     qp,
		local:  ctxA.MustRegisterMR(cl.Machine(0).MustAlloc(1, 1<<20, 0)),
		remote: ctxB.MustRegisterMR(cl.Machine(1).MustAlloc(1, 1<<20, 0)),
	}
}

// wr returns a WR of op moving size bytes between the two MRs; for
// FETCH_ADD, size is the 8 B result buffer and the addend is 1.
func (p *pair) wr(op verbs.Opcode, size int) *verbs.SendWR {
	return &verbs.SendWR{
		Opcode:     op,
		SGL:        []verbs.SGE{{Addr: p.local.Addr(), Length: size, MR: p.local}},
		RemoteAddr: p.remote.Addr(),
		RemoteKey:  p.remote.RKey(),
		CompareAdd: 1,
	}
}

// probePost posts one WR per iteration, each at the previous completion.
// Like the verbs package benchmarks it never polls the CQ.
func probePost(b *testing.B, cfg cluster.Config, op verbs.Opcode, size int) {
	p := newPair(b, cfg)
	wr := p.wr(op, size)
	b.ReportAllocs()
	b.ResetTimer()
	now := sim.Time(0)
	for i := 0; i < b.N; i++ {
		c, err := p.qp.PostSend(now, wr)
		if err != nil {
			b.Fatal(err)
		}
		now = c.Done
	}
}

func probePostList16(b *testing.B) {
	p := newPair(b, cluster.DefaultConfig())
	wrs := make([]*verbs.SendWR, 16)
	for i := range wrs {
		wrs[i] = p.wr(verbs.OpWrite, 64)
	}
	b.ReportAllocs()
	b.ResetTimer()
	now := sim.Time(0)
	for i := 0; i < b.N; i++ {
		comps, err := p.qp.PostSendList(now, wrs)
		if err != nil {
			b.Fatal(err)
		}
		now = comps[len(comps)-1].Done
	}
}

// probeSGL16 writes 16 discontiguous 32 B fragments as one SGL WRITE.
func probeSGL16(b *testing.B) {
	p := newPair(b, cluster.DefaultConfig())
	bt, err := core.NewBatcher(core.SGL, p.qp, p.local, nil, p.remote)
	if err != nil {
		b.Fatal(err)
	}
	frags := make([]core.Fragment, 16)
	for i := range frags {
		frags[i] = core.Fragment{Addr: p.local.Addr() + mem.Addr(i*64), Length: 32}
	}
	b.ReportAllocs()
	b.ResetTimer()
	now := sim.Time(0)
	for i := 0; i < b.N; i++ {
		res, err := bt.WriteBatch(now, frags, p.remote.Addr())
		if err != nil {
			b.Fatal(err)
		}
		now = res.Done
	}
}

// probeHashtableGet reads cold entries of a basic (no NUMA, no
// consolidation) table: one RDMA READ of the whole entry per Get.
func probeHashtableGet(b *testing.B) {
	cfg := cluster.DefaultConfig()
	cfg.Machines = 2
	cl, err := cluster.New(cfg)
	if err != nil {
		b.Fatal(err)
	}
	const keys = 1 << 10
	be, err := hashtable.NewBackend(cl.Machine(0), hashtable.Config{Level: hashtable.Basic, KeySpace: keys, ValueSize: 64})
	if err != nil {
		b.Fatal(err)
	}
	fe, err := hashtable.NewFrontEnd(0, cl.Machine(1), 1, be)
	if err != nil {
		b.Fatal(err)
	}
	out := make([]byte, 64)
	b.ReportAllocs()
	b.ResetTimer()
	now := sim.Time(0)
	for i := 0; i < b.N; i++ {
		if now, err = fe.Get(now, uint64(i%keys), out); err != nil {
			b.Fatal(err)
		}
	}
}

// probeTxnCommit runs a 1-key read-modify-write transaction per iteration.
func probeTxnCommit(b *testing.B) {
	cfg := cluster.DefaultConfig()
	cfg.Machines = 2
	cl, err := cluster.New(cfg)
	if err != nil {
		b.Fatal(err)
	}
	s, err := txn.NewStore(cl.Machine(0), txn.DefaultConfig())
	if err != nil {
		b.Fatal(err)
	}
	c, err := txn.NewClient(0, cl.Machine(1), 0, s)
	if err != nil {
		b.Fatal(err)
	}
	buf, val := make([]byte, 64), make([]byte, 64)
	for i := range val {
		val[i] = byte(i)
	}
	body := func(tx *txn.Txn) error {
		if err := tx.Get(7, buf); err != nil {
			return err
		}
		return tx.Put(7, val)
	}
	b.ReportAllocs()
	b.ResetTimer()
	now := sim.Time(0)
	for i := 0; i < b.N; i++ {
		if now, err = c.Run(now, body); err != nil {
			b.Fatal(err)
		}
	}
}
