// This file is an external test (package verbs_test) so it can drive the
// connection-serving layer (internal/proxy, which imports verbs) through the
// same determinism property as the raw verbs traffic.
package verbs_test

import (
	"bytes"
	"errors"
	"reflect"
	"testing"

	"rdmasem/internal/adaptive"
	"rdmasem/internal/cluster"
	"rdmasem/internal/core"
	"rdmasem/internal/fabric"
	"rdmasem/internal/mem"
	"rdmasem/internal/proxy"
	"rdmasem/internal/rnic"
	"rdmasem/internal/sim"
	"rdmasem/internal/telemetry"
	"rdmasem/internal/verbs"
)

// observation is everything a run exposes: the closed-loop result, the
// per-op latencies of the recorded clients, the rendered telemetry
// snapshot, per-NIC stage and reliability counters, the fabric fault
// tallies, and the connection-serving layer's outcomes and SRQ traffic.
type observation struct {
	res     sim.Result
	lats    [][]sim.Duration
	metrics string
	nics    []rnic.StageCounters
	faults  fabric.FaultStats

	table                outcomes // the fifth pair's clients' post outcomes
	srqPosted, srqPolled uint64   // SRQ receives posted; receive CQEs the server polled
	poolMRMisses         uint64   // MR lookups the fifth pair's requester NIC missed

	// the flapping-link recovering pair (machines 10/11)
	rtable   outcomes
	rec      proxy.RecoveryStats
	ttrCount int64
	ttrSum   sim.Duration

	// the adaptive-runtime pair (machines 12/13): the runtime's entire
	// decision log plus its overflow count and final knob tuple
	decisions []adaptive.Record
	dropped   int
	final     adaptive.Record
}

// outcomes tallies a client group's post results by completion status.
type outcomes map[verbs.CompletionStatus]uint64

// runCrossLayerWorkload builds a fresh cluster under a seeded lossy, flapping
// fabric with telemetry attached — four machine pairs of mixed RC
// WRITE/READ traffic, a fifth pair serving twelve logical connections
// through an SRQ, a shared-pool connection table and a proxy daemon, a
// sixth pair whose pooled QPs die in flap windows and self-heal through the
// table's recovery layer, and a seventh pair routing mixed batch and small
// writes through a live adaptive runtime — drives it to the horizon, and
// returns the full observation.
func runCrossLayerWorkload(t *testing.T) observation {
	t.Helper()
	const pairs = 4
	reg := telemetry.NewRegistry()
	cfg := cluster.DefaultConfig()
	cfg.Machines = 2*pairs + 6
	// The plan flaps every link down for 4us of each 50us window on top of
	// the random loss. The raw pairs ride it out on the default retry policy
	// (16us base timeout: no two attempts land in one window); only the
	// recovering pair below runs a budget tight enough to die and heal.
	cfg.Faults = &fabric.FaultPlan{
		Seed: 5, Drop: 0.01, Corrupt: 0.005, DelayP: 0.02, Delay: 2000,
		FlapDown: 4 * sim.Microsecond, FlapPeriod: 50 * sim.Microsecond,
	}
	cfg.Telemetry = reg
	cl, err := cluster.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	obs := observation{table: outcomes{}, rtable: outcomes{}}
	var clients []*sim.Client
	// record wraps an op so each call logs complete - post into its own
	// slice of lats.
	var lats [][]sim.Duration
	record := func(op sim.Op) sim.Op {
		i := len(lats)
		lats = append(lats, nil)
		return func(post sim.Time) sim.Time {
			complete := op(post)
			lats[i] = append(lats[i], complete-post)
			return complete
		}
	}
	for p := 0; p < pairs; p++ {
		ma, mb := cl.Machine(2*p), cl.Machine(2*p+1)
		ctxA, ctxB := verbs.NewContext(ma), verbs.NewContext(mb)
		qp, _, err := verbs.Connect(ctxA, 1, ctxB, 1, verbs.RC)
		if err != nil {
			t.Fatal(err)
		}
		mrA := ctxA.MustRegisterMR(ma.MustAlloc(1, 1<<20, 0))
		mrB := ctxB.MustRegisterMR(mb.MustAlloc(1, 1<<20, 0))
		p := p
		write := &verbs.SendWR{
			Opcode:     verbs.OpWrite,
			SGL:        []verbs.SGE{{Addr: mrA.Addr(), Length: 256, MR: mrA}},
			RemoteAddr: mrB.Addr() + mem.Addr(p*4096),
			RemoteKey:  mrB.RKey(),
		}
		read := &verbs.SendWR{
			Opcode:     verbs.OpRead,
			SGL:        []verbs.SGE{{Addr: mrA.Addr() + 4096, Length: 128, MR: mrA}},
			RemoteAddr: mrB.Addr() + mem.Addr(p*4096+2048),
			RemoteKey:  mrB.RKey(),
		}
		writer := &sim.Client{PostCost: 200, Window: 2}
		writer.Op = record(func(post sim.Time) sim.Time {
			c, err := qp.PostSend(post, write)
			writer.Fail(err)
			return c.Done
		})
		clients = append(clients, writer)
		reader := &sim.Client{PostCost: 300, Window: 1}
		reader.Op = func(post sim.Time) sim.Time {
			c, err := qp.PostSend(post, read)
			reader.Fail(err)
			return c.Done
		}
		clients = append(clients, reader)
	}

	// Fifth pair: the connection-serving stack under the same lossy plan.
	// Twelve logical connections share a pool of four physical QPs behind a
	// table; the server drains every inbound SEND from one SRQ; a third of
	// the connections go through the proxy daemon. A pooled QP that exhausts
	// its retry budget flushes its own connections — the clients tolerate
	// ErrQPError and keep looping, and that error path must be just as
	// deterministic as the happy one.
	mc, md := cl.Machine(2*pairs), cl.Machine(2*pairs+1)
	ctxC, ctxD := verbs.NewContext(mc), verbs.NewContext(md)
	srq := verbs.NewSRQ(ctxD)
	pool := make([]*verbs.QP, 4)
	for i := range pool {
		qp, peer := verbs.MustConnect(ctxC, 1, ctxD, 1, verbs.RC)
		if err := peer.AttachSRQ(srq); err != nil {
			t.Fatal(err)
		}
		pool[i] = qp
	}
	table, err := proxy.NewTable(pool, 12)
	if err != nil {
		t.Fatal(err)
	}
	daemon, err := proxy.NewDaemon(table)
	if err != nil {
		t.Fatal(err)
	}
	mrC := ctxC.MustRegisterMR(mc.MustAlloc(1, 1<<20, 0))
	mrD := ctxD.MustRegisterMR(md.MustAlloc(1, 1<<20, 0))
	for cli := 0; cli < 3; cli++ {
		cli := cli
		conns := []int{cli * 4, cli*4 + 1, cli*4 + 2, cli*4 + 3}
		wr := &verbs.SendWR{
			Opcode: verbs.OpSend,
			SGL:    []verbs.SGE{{Addr: mrC.Addr() + mem.Addr(cli*256), Length: 96, MR: mrC}},
		}
		turn := 0
		client := &sim.Client{PostCost: 250, Window: 1}
		op := func(post sim.Time) sim.Time {
			conn := conns[turn%len(conns)]
			turn++
			if err := srq.PostRecv(verbs.RecvWR{SGE: verbs.SGE{
				Addr: mrD.Addr() + mem.Addr(conn*256), Length: 256, MR: mrD,
			}}); err != nil {
				client.Fail(err)
				return post
			}
			obs.srqPosted++
			var comp verbs.Completion
			var err error
			if cli == 2 {
				comp, err = daemon.Post(post, conn, wr)
			} else {
				comp, err = table.Post(post, conn, wr)
			}
			if err != nil && !errors.Is(err, verbs.ErrQPError) {
				client.Fail(err)
				return post
			}
			obs.table[comp.Status]++
			if comp.Done > post {
				return comp.Done
			}
			return post
		}
		if cli == 0 {
			op = record(op)
		}
		client.Op = op
		clients = append(clients, client)
	}

	// Sixth pair: self-healing connections on the flapping fabric. Two
	// pooled QPs with a hair-trigger retry budget serve four logical
	// connections with full recovery (reconnect + remap) armed: QPs die
	// inside down windows, episodes remap and replay across the pool, and
	// the whole churn — episode counts, reconnect walks on the CM
	// resources, TTR histograms — must repeat identically.
	me, mf := cl.Machine(2*pairs+2), cl.Machine(2*pairs+3)
	ctxE, ctxF := verbs.NewContext(me), verbs.NewContext(mf)
	rpool := make([]*verbs.QP, 2)
	for i := range rpool {
		qp, _ := verbs.MustConnect(ctxE, 1, ctxF, 1, verbs.RC)
		qp.SetRetryPolicy(verbs.RetryPolicy{RetryCount: 1, AckTimeout: 2 * sim.Microsecond})
		rpool[i] = qp
	}
	rtable, err := proxy.NewTable(rpool, 4)
	if err != nil {
		t.Fatal(err)
	}
	rtable.EnableRecovery(true)
	mrE := ctxE.MustRegisterMR(me.MustAlloc(1, 1<<20, 0))
	mrF := ctxF.MustRegisterMR(mf.MustAlloc(1, 1<<20, 0))
	for cli := 0; cli < 2; cli++ {
		cli := cli
		conns := []int{cli * 2, cli*2 + 1}
		wr := &verbs.SendWR{
			Opcode:     verbs.OpWrite,
			SGL:        []verbs.SGE{{Addr: mrE.Addr() + mem.Addr(cli*256), Length: 64, MR: mrE}},
			RemoteAddr: mrF.Addr() + mem.Addr(cli*256),
			RemoteKey:  mrF.RKey(),
		}
		turn := 0
		client := &sim.Client{PostCost: 250, Window: 1}
		client.Op = func(post sim.Time) sim.Time {
			conn := conns[turn%len(conns)]
			turn++
			comp, err := rtable.Post(post, conn, wr)
			if err != nil && !errors.Is(err, verbs.ErrQPError) {
				client.Fail(err)
				return post
			}
			obs.rtable[comp.Status]++
			next := comp.Done
			if next < post {
				next = post
			}
			if err != nil || comp.Status != verbs.StatusOK {
				next += 2 * sim.Microsecond // application-level retry pacing
			}
			return next
		}
		clients = append(clients, client)
	}

	// Seventh pair: a live adaptive runtime on the same lossy, flapping
	// fabric. The runtime closes virtual-time epochs, probes batch
	// strategies, and retunes the doorbell depth off this pair's completion
	// errors — its whole decision log must repeat identically.
	mg, mh := cl.Machine(2*pairs+4), cl.Machine(2*pairs+5)
	ctxG, ctxH := verbs.NewContext(mg), verbs.NewContext(mh)
	qpG, _ := verbs.MustConnect(ctxG, 1, ctxH, 1, verbs.RC)
	mrG := ctxG.MustRegisterMR(mg.MustAlloc(1, 1<<20, 0))
	mrH := ctxH.MustRegisterMR(mh.MustAlloc(1, 1<<20, 0))
	stG := ctxG.MustRegisterMR(mg.MustAlloc(1, 1<<18, 0))
	rt, err := adaptive.NewRuntime(adaptive.Config{
		QP: qpG, LocalMR: mrG, Staging: stG, RemoteMR: mrH, RemoteBase: mrH.Addr(),
		BlockSize: 1024, Theta: 8, MaxBlocks: 8,
		Params:   adaptive.Params{Epoch: 10 * sim.Microsecond},
		Strategy: core.SGL,
	})
	if err != nil {
		t.Fatal(err)
	}
	frG := make([]core.Fragment, 8)
	for i := range frG {
		frG[i] = core.Fragment{Addr: mrG.Addr() + mem.Addr(1<<16+i*256), Length: 128}
	}
	smallG := bytes.Repeat([]byte{0x5a}, 48)
	aTurn := 0
	adapt := &sim.Client{PostCost: 200, Window: 1}
	adapt.Op = func(post sim.Time) sim.Time {
		aTurn++
		if aTurn%3 == 0 {
			done, err := rt.SmallWrite(post, (aTurn%16)*48, smallG)
			adapt.Fail(err)
			return done
		}
		res, err := rt.WriteBatch(post, frG, mrH.Addr()+mem.Addr(1<<18))
		adapt.Fail(err)
		return res.Done
	}
	clients = append(clients, adapt)

	res, err := sim.RunClosedLoop(clients, 500*sim.Microsecond)
	if err != nil {
		t.Fatal(err)
	}
	obs.res, obs.lats = res, lats
	cl.FoldTelemetry(reg)
	var buf bytes.Buffer
	reg.Snapshot().Render(&buf)
	obs.metrics = buf.String()
	for i := 0; i < cl.Size(); i++ {
		obs.nics = append(obs.nics, cl.Machine(i).NIC().Counters())
	}
	obs.faults = cl.Machine(0).Fabric().FaultStats()
	for _, qp := range pool {
		for {
			if _, ok := qp.Peer().RecvCQ().PollOne(sim.MaxTime); !ok {
				break
			}
			obs.srqPolled++
		}
	}
	obs.poolMRMisses = mc.NIC().Counters().MRMisses
	obs.rec = rtable.RecoveryStats()
	obs.ttrCount, obs.ttrSum, _, _ = rtable.RecoveryTTR().Stats()
	obs.decisions = rt.Records()
	obs.dropped = rt.DroppedRecords()
	obs.final = rt.Decision()
	return obs
}

// TestCrossLayerDeterminism: two runs of the same workload, each on a fresh
// cluster with a lossy, flapping fabric and telemetry attached, agree on
// every observable — closed-loop results with latency records, telemetry
// snapshots, NIC stage and reliability counters, fault tallies, the
// SRQ/connection-table/proxy-daemon tallies, recovery tallies, and the
// adaptive controller's decision log.
func TestCrossLayerDeterminism(t *testing.T) {
	want := runCrossLayerWorkload(t)
	if want.res.Completed == 0 {
		t.Fatal("no ops completed")
	}
	for i, l := range want.lats {
		if len(l) == 0 {
			t.Fatalf("recorded client %d logged no latencies", i)
		}
	}
	if want.faults.Segments == 0 || want.faults.Drops == 0 {
		t.Fatalf("fault plan inactive (%+v); the property must hold under loss", want.faults)
	}
	if want.metrics == "" {
		t.Fatal("telemetry snapshot is empty")
	}
	anyRetrans := false
	for _, n := range want.nics {
		if n.Rel.Retransmits > 0 {
			anyRetrans = true
		}
	}
	if !anyRetrans {
		t.Fatal("no retransmissions: reliability layer not exercised")
	}
	if want.table[verbs.StatusOK] == 0 || want.rtable[verbs.StatusOK] == 0 {
		t.Fatalf("a connection table completed nothing: %v / %v", want.table, want.rtable)
	}
	if want.srqPolled == 0 || want.srqPolled > want.srqPosted {
		t.Fatalf("SRQ not exercised or over-drained: posted=%d polled=%d", want.srqPosted, want.srqPolled)
	}
	// The fifth pair's requester NIC looks up two registrations: the
	// clients' MR and, once the daemon stages a payload, its bounce MR.
	if n := want.poolMRMisses; n < 2 {
		t.Fatalf("fifth pair's NIC missed %d MR lookups: the proxy daemon staged nothing", n)
	}
	if want.faults.FlapDrops == 0 {
		t.Fatal("no flap drops: the link-flap model not exercised")
	}
	if want.rec.Episodes == 0 || want.rec.Reconnects == 0 {
		t.Fatalf("recovering pair never recovered: %+v", want.rec)
	}
	if want.ttrCount == 0 {
		t.Fatal("TTR histogram empty: no WR was recovered")
	}
	if len(want.decisions) == 0 {
		t.Fatal("adaptive controller made no decisions: the tuner was not exercised")
	}
	got := runCrossLayerWorkload(t)
	if !reflect.DeepEqual(want.res, got.res) {
		t.Fatal("second run: results diverged")
	}
	if !reflect.DeepEqual(want.lats, got.lats) {
		t.Fatal("second run: per-op latencies diverged")
	}
	if want.metrics != got.metrics {
		t.Fatal("second run: telemetry snapshots diverged")
	}
	if !reflect.DeepEqual(want.nics, got.nics) {
		t.Fatal("second run: NIC counters diverged")
	}
	if want.faults != got.faults {
		t.Fatalf("second run: fault stats diverged: %+v vs %+v", want.faults, got.faults)
	}
	if !reflect.DeepEqual(want.table, got.table) ||
		want.srqPosted != got.srqPosted || want.srqPolled != got.srqPolled {
		t.Fatal("second run: connection-serving tallies diverged")
	}
	if !reflect.DeepEqual(want.rtable, got.rtable) || want.rec != got.rec ||
		want.ttrCount != got.ttrCount || want.ttrSum != got.ttrSum {
		t.Fatalf("second run: recovery tallies diverged: %+v / %+v vs %+v / %+v",
			want.rec, want.ttrCount, got.rec, got.ttrCount)
	}
	if !reflect.DeepEqual(want.decisions, got.decisions) ||
		want.dropped != got.dropped || want.final != got.final {
		t.Fatalf("second run: adaptive decision logs diverged:\n%+v\nvs\n%+v",
			want.decisions, got.decisions)
	}
}
