package proxy_test

import (
	"errors"
	"testing"

	"rdmasem/internal/cluster"
	"rdmasem/internal/mem"
	"rdmasem/internal/proxy"
	"rdmasem/internal/sim"
	"rdmasem/internal/verbs"
)

// tableEnv is a two-machine cluster with a pool of RC QPs behind a
// connection table, an SRQ draining the server side, and slab MRs at both
// ends.
type tableEnv struct {
	cl         *cluster.Cluster
	ctxA, ctxB *verbs.Context
	pool       []*verbs.QP
	srq        *verbs.SRQ
	table      *proxy.Table
	mrA, mrB   *verbs.MR
}

func newTableEnv(t *testing.T, poolSize, conns int) *tableEnv {
	t.Helper()
	return newTableEnvOn(t, cluster.DefaultConfig(), poolSize, conns)
}

// newTableEnvOn is newTableEnv on a two-machine cluster made from cfg.
func newTableEnvOn(t *testing.T, cfg cluster.Config, poolSize, conns int) *tableEnv {
	t.Helper()
	cfg.Machines = 2
	cl, err := cluster.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	e := &tableEnv{
		cl:   cl,
		ctxA: verbs.NewContext(cl.Machine(0)),
		ctxB: verbs.NewContext(cl.Machine(1)),
	}
	e.srq = verbs.NewSRQ(e.ctxB)
	e.pool = make([]*verbs.QP, poolSize)
	for i := range e.pool {
		qp, peer := verbs.MustConnect(e.ctxA, 1, e.ctxB, 1, verbs.RC)
		if err := peer.AttachSRQ(e.srq); err != nil {
			t.Fatal(err)
		}
		e.pool[i] = qp
	}
	e.table, err = proxy.NewTable(e.pool, conns)
	if err != nil {
		t.Fatal(err)
	}
	e.mrA = e.ctxA.MustRegisterMR(cl.Machine(0).MustAlloc(1, 1<<20, 0))
	e.mrB = e.ctxB.MustRegisterMR(cl.Machine(1).MustAlloc(1, 1<<20, 0))
	return e
}

// stock posts n receive buffers to the SRQ.
func (e *tableEnv) stock(t *testing.T, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		if err := e.srq.PostRecv(verbs.RecvWR{ID: uint64(i), SGE: verbs.SGE{
			Addr: e.mrB.Addr() + mem.Addr(i*256), Length: 256, MR: e.mrB,
		}}); err != nil {
			t.Fatal(err)
		}
	}
}

func (e *tableEnv) sendWR(id uint64, size int) *verbs.SendWR {
	return &verbs.SendWR{
		ID:     id,
		Opcode: verbs.OpSend,
		SGL:    []verbs.SGE{{Addr: e.mrA.Addr(), Length: size, MR: e.mrA}},
	}
}

func TestNewTableValidation(t *testing.T) {
	e := newTableEnv(t, 2, 4)
	if _, err := proxy.NewTable(nil, 4); err == nil {
		t.Fatal("empty pool must be rejected")
	}
	if _, err := proxy.NewTable(e.pool, 0); err == nil {
		t.Fatal("zero connections must be rejected")
	}
	// A pool spanning two different machine pairs is not one per-node table.
	cfg := cluster.DefaultConfig()
	cfg.Machines = 3
	cl, err := cluster.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ctx0, ctx1, ctx2 := verbs.NewContext(cl.Machine(0)), verbs.NewContext(cl.Machine(1)), verbs.NewContext(cl.Machine(2))
	qp01, _ := verbs.MustConnect(ctx0, 1, ctx1, 1, verbs.RC)
	qp02, _ := verbs.MustConnect(ctx0, 1, ctx2, 1, verbs.RC)
	if _, err := proxy.NewTable([]*verbs.QP{qp01, qp02}, 4); err == nil {
		t.Fatal("mixed-peer pool must be rejected")
	}
}

// TestTableDemuxRestoresIDs: completions come back to the posting
// connection with the caller's WR ID, and the WR itself is left untouched.
func TestTableDemuxRestoresIDs(t *testing.T) {
	e := newTableEnv(t, 2, 6)
	e.stock(t, 12)
	now := sim.Time(0)
	for conn := 0; conn < 6; conn++ {
		wr := e.sendWR(uint64(1000+conn), 64)
		comp, err := e.table.Post(now, conn, wr)
		if err != nil {
			t.Fatal(err)
		}
		if comp.WRID != uint64(1000+conn) {
			t.Fatalf("WRID %d, want %d", comp.WRID, 1000+conn)
		}
		if wr.ID != uint64(1000+conn) {
			t.Fatalf("caller's WR ID mutated to %d", wr.ID)
		}
		if comp.Status != verbs.StatusOK {
			t.Fatalf("status %v", comp.Status)
		}
		now = comp.Done
	}
	// Static mapping: conn c posts on pool[c%2].
	if e.table.ConnQP(0) != e.pool[0] || e.table.ConnQP(3) != e.pool[1] {
		t.Fatal("conn->pool mapping is not the static modulo")
	}
	if err := func() error {
		_, err := e.table.Post(now, 6, e.sendWR(1, 64))
		return err
	}(); err == nil {
		t.Fatal("out-of-range conn must be rejected")
	}
}

// TestPooledQPErrorFlushesOwnConnsOnly is the blast-radius property: a
// pooled QP in the error state flushes exactly its own connections' WRs
// with StatusFlushed; connections mapped to healthy pooled QPs complete
// normally in the same round of posts.
func TestPooledQPErrorFlushesOwnConnsOnly(t *testing.T) {
	e := newTableEnv(t, 2, 4)
	e.stock(t, 8)
	e.pool[0].ForceError()
	for conn := 0; conn < 4; conn++ {
		comp, err := e.table.Post(0, conn, e.sendWR(uint64(500+conn), 64))
		if comp.WRID != uint64(500+conn) {
			t.Fatalf("conn %d got completion %+v, want its own WRID", conn, comp)
		}
		if conn%2 == 0 { // mapped to the dead pool[0]
			if !errors.Is(err, verbs.ErrQPError) || comp.Status != verbs.StatusFlushed {
				t.Fatalf("dead-conn %d post: comp=%+v err=%v, want StatusFlushed with ErrQPError", conn, comp, err)
			}
		} else { // mapped to the healthy pool[1]
			if err != nil || comp.Status != verbs.StatusOK {
				t.Fatalf("live-conn %d post: comp=%+v err=%v, want StatusOK", conn, comp, err)
			}
		}
	}
}

// TestNilWRIsAnError: every post entry point rejects a nil work request
// with verbs.ErrNilWR and posts nothing.
func TestNilWRIsAnError(t *testing.T) {
	e := newTableEnv(t, 2, 4)
	e.stock(t, 4)
	d, err := proxy.NewDaemon(e.table)
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name string
		post func() error
	}{
		{"QP.PostSend", func() error { _, err := e.pool[0].PostSend(0, nil); return err }},
		{"QP.PostSendList", func() error {
			_, err := e.pool[0].PostSendList(0, []*verbs.SendWR{e.sendWR(1, 64), nil})
			return err
		}},
		{"Table.Post", func() error { _, err := e.table.Post(0, 0, nil); return err }},
		{"Daemon.Post", func() error { _, err := d.Post(0, 0, nil); return err }},
	}
	for _, c := range cases {
		if err := c.post(); !errors.Is(err, verbs.ErrNilWR) {
			t.Errorf("%s(nil) returned %v, want ErrNilWR", c.name, err)
		}
	}
	if db := e.cl.Machine(0).NIC().Counters().Doorbells; db != 0 {
		t.Fatalf("rejected posts rang %d doorbells", db)
	}
}
