package proxy_test

import (
	"bytes"
	"testing"

	"rdmasem/internal/cluster"
	"rdmasem/internal/proxy"
	"rdmasem/internal/telemetry"
	"rdmasem/internal/verbs"
)

// TestDaemonStagesSmallPayloads: SEND payloads up to MaxPayload are copied
// into the daemon's bounce MR (the NIC gathers daemon-owned memory), larger
// ones keep the client's own SGL, and the data still arrives intact.
func TestDaemonStagesSmallPayloads(t *testing.T) {
	e := newTableEnv(t, 2, 4)
	e.stock(t, 8)
	d, err := proxy.NewDaemon(e.table)
	if err != nil {
		t.Fatal(err)
	}
	msg := []byte("proxied through the daemon")
	copy(e.mrA.Region().Bytes(), msg)
	wr := e.sendWR(21, len(msg))
	nic := e.cl.Machine(0).NIC()
	base := nic.Counters()
	comp, err := d.Post(0, 1, wr)
	if err != nil {
		t.Fatal(err)
	}
	if comp.WRID != 21 || comp.Status != verbs.StatusOK {
		t.Fatalf("completion %+v", comp)
	}
	// The SRQ hands out its head entry (offset 0) regardless of connection.
	if !bytes.Equal(e.mrB.Region().Bytes()[:len(msg)], msg) {
		t.Fatal("staged payload missing at receiver")
	}
	if wr.SGL[0].MR != e.mrA {
		t.Fatal("caller's WR was mutated by staging")
	}
	// The requester NIC looked up one registration it had not seen: the
	// daemon's bounce MR.
	staged := nic.Counters()
	if staged.MRMisses != base.MRMisses+1 || staged.MRHits != base.MRHits {
		t.Fatalf("staged post: MR misses %d -> %d, hits %d -> %d, want one miss",
			base.MRMisses, staged.MRMisses, base.MRHits, staged.MRHits)
	}
	// An over-MaxPayload payload bypasses the bounce buffer and gathers
	// from the client's own registration.
	big := &verbs.SendWR{
		ID:         22,
		Opcode:     verbs.OpWrite,
		SGL:        []verbs.SGE{{Addr: e.mrA.Addr(), Length: proxy.MaxPayload + 64, MR: e.mrA}},
		RemoteAddr: e.mrB.Addr(),
		RemoteKey:  e.mrB.RKey(),
	}
	if _, err := d.Post(comp.Done, 1, big); err != nil {
		t.Fatal(err)
	}
	// A second new registration: the client's own MR, not the cached
	// bounce MR a staged post would hit.
	if c := nic.Counters(); c.MRMisses != staged.MRMisses+1 || c.MRHits != staged.MRHits {
		t.Fatalf("direct post: MR misses %d -> %d, hits %d -> %d, want one miss",
			staged.MRMisses, c.MRMisses, staged.MRHits, c.MRHits)
	}
}

// TestDaemonChargesHopAndQueue: the client-visible completion includes the
// IPC round trip on top of the table path, and concurrent requests queue on
// the daemon's serving core.
func TestDaemonChargesHopAndQueue(t *testing.T) {
	cfg := cluster.DefaultConfig()
	cfg.Telemetry = telemetry.NewRegistry()
	e := newTableEnvOn(t, cfg, 2, 2)
	e.stock(t, 8)
	d, err := proxy.NewDaemon(e.table)
	if err != nil {
		t.Fatal(err)
	}
	hop := proxy.HopCost(e.cl.Machine(0).Topology())
	direct, err := e.table.Post(0, 0, e.sendWR(1, 64))
	if err != nil {
		t.Fatal(err)
	}
	proxied, err := d.Post(0, 1, e.sendWR(2, 64))
	if err != nil {
		t.Fatal(err)
	}
	if proxied.Done < direct.Done+hop {
		t.Fatalf("proxied %v vs direct %v: missing the %v IPC round trip",
			proxied.Done, direct.Done, hop)
	}
	if served, _, _, _ := cfg.Telemetry.Hist("m0", "proxyd/ipc", "service").Stats(); served != 1 {
		t.Fatalf("daemon served %d, want 1", served)
	}
}

// TestDaemonTelemetry: on a telemetry-attached cluster the daemon's IPC
// queue reports under the proxyd/ipc component like any modelled resource.
func TestDaemonTelemetry(t *testing.T) {
	reg := telemetry.NewRegistry()
	cfg := cluster.DefaultConfig()
	cfg.Machines = 2
	cfg.Telemetry = reg
	cl, err := cluster.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ctxA, ctxB := verbs.NewContext(cl.Machine(0)), verbs.NewContext(cl.Machine(1))
	srq := verbs.NewSRQ(ctxB)
	qp, peer := verbs.MustConnect(ctxA, 1, ctxB, 1, verbs.RC)
	if err := peer.AttachSRQ(srq); err != nil {
		t.Fatal(err)
	}
	table, err := proxy.NewTable([]*verbs.QP{qp}, 2)
	if err != nil {
		t.Fatal(err)
	}
	d, err := proxy.NewDaemon(table)
	if err != nil {
		t.Fatal(err)
	}
	mrA := ctxA.MustRegisterMR(cl.Machine(0).MustAlloc(1, 4096, 0))
	mrB := ctxB.MustRegisterMR(cl.Machine(1).MustAlloc(1, 4096, 0))
	if err := srq.PostRecv(verbs.RecvWR{SGE: verbs.SGE{Addr: mrB.Addr(), Length: 256, MR: mrB}}); err != nil {
		t.Fatal(err)
	}
	if _, err := d.Post(0, 0, &verbs.SendWR{
		Opcode: verbs.OpSend,
		SGL:    []verbs.SGE{{Addr: mrA.Addr(), Length: 64, MR: mrA}},
	}); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	reg.Snapshot().Render(&buf)
	if !bytes.Contains(buf.Bytes(), []byte("proxyd/ipc")) {
		t.Fatalf("telemetry snapshot missing proxyd/ipc:\n%s", buf.String())
	}
}
