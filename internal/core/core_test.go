package core

import (
	"bytes"
	"testing"

	"rdmasem/internal/cluster"
	"rdmasem/internal/mem"
	"rdmasem/internal/sim"
	"rdmasem/internal/verbs"
)

// env is the shared two-machine test harness.
type env struct {
	cl       *cluster.Cluster
	ctxA     *verbs.Context
	ctxB     *verbs.Context
	qpA      *verbs.QP
	mrA, mrB *verbs.MR
	staging  *verbs.MR
}

func newEnv(t *testing.T) *env {
	t.Helper()
	cfg := cluster.DefaultConfig()
	cfg.Machines = 2
	cl, err := cluster.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ctxA := verbs.NewContext(cl.Machine(0))
	ctxB := verbs.NewContext(cl.Machine(1))
	qpA, _, err := verbs.Connect(ctxA, 1, ctxB, 1, verbs.RC)
	if err != nil {
		t.Fatal(err)
	}
	mrA := ctxA.MustRegisterMR(cl.Machine(0).MustAlloc(1, 1<<20, 0))
	mrB := ctxB.MustRegisterMR(cl.Machine(1).MustAlloc(1, 1<<20, 0))
	staging := ctxA.MustRegisterMR(cl.Machine(0).MustAlloc(1, 1<<20, 0))
	return &env{cl: cl, ctxA: ctxA, ctxB: ctxB, qpA: qpA, mrA: mrA, mrB: mrB, staging: staging}
}

// frags fills n discontiguous fragments of the given size in mrA, each
// filled with a distinct letter, and returns their descriptors.
func frags(e *env, n, size int) []Fragment {
	out := make([]Fragment, n)
	b := e.mrA.Region().Bytes()
	for i := 0; i < n; i++ {
		off := i * 2 * size // every other slot: discontiguous
		for j := 0; j < size; j++ {
			b[off+j] = byte('a' + i%26)
		}
		out[i] = Fragment{Addr: e.mrA.Addr() + mem.Addr(off), Length: size}
	}
	return out
}

func wantBatch(n, size int) []byte {
	out := make([]byte, 0, n*size)
	for i := 0; i < n; i++ {
		for j := 0; j < size; j++ {
			out = append(out, byte('a'+i%26))
		}
	}
	return out
}

func TestBatcherAllStrategiesMoveData(t *testing.T) {
	for _, s := range []Strategy{SP, Doorbell, SGL} {
		t.Run(s.String(), func(t *testing.T) {
			e := newEnv(t)
			b, err := NewBatcher(s, e.qpA, e.mrA, e.staging, e.mrB)
			if err != nil {
				t.Fatal(err)
			}
			fs := frags(e, 4, 32)
			res, err := b.WriteBatch(0, fs, e.mrB.Addr()+64)
			if err != nil {
				t.Fatal(err)
			}
			got := e.mrB.Region().Bytes()[64 : 64+128]
			if !bytes.Equal(got, wantBatch(4, 32)) {
				t.Fatalf("%s: remote bytes %q", s, got[:16])
			}
			if res.Done <= 0 || res.CPU <= 0 {
				t.Fatalf("%s: suspicious result %+v", s, res)
			}
			wantReqs := 1
			if s == Doorbell {
				wantReqs = 4
			}
			if res.Requests != wantReqs {
				t.Fatalf("%s: %d requests, want %d", s, res.Requests, wantReqs)
			}
		})
	}
}

func TestBatcherSPCostsMoreCPUThanSGL(t *testing.T) {
	e := newEnv(t)
	sp, _ := NewBatcher(SP, e.qpA, e.mrA, e.staging, e.mrB)
	sgl, _ := NewBatcher(SGL, e.qpA, e.mrA, nil, e.mrB)
	fs := frags(e, 16, 256)
	rsp, err := sp.WriteBatch(0, fs, e.mrB.Addr())
	if err != nil {
		t.Fatal(err)
	}
	rsgl, err := sgl.WriteBatch(rsp.Done, fs, e.mrB.Addr())
	if err != nil {
		t.Fatal(err)
	}
	if rsp.CPU <= rsgl.CPU {
		t.Fatalf("SP CPU (%v) must exceed SGL CPU (%v): Figure 18", rsp.CPU, rsgl.CPU)
	}
}

func TestBatcherValidation(t *testing.T) {
	e := newEnv(t)
	if _, err := NewBatcher(SP, e.qpA, e.mrA, nil, e.mrB); err == nil {
		t.Error("SP without staging must fail")
	}
	if _, err := NewBatcher(SGL, nil, e.mrA, nil, e.mrB); err == nil {
		t.Error("nil QP must fail")
	}
	b, _ := NewBatcher(SGL, e.qpA, e.mrA, nil, e.mrB)
	if _, err := b.WriteBatch(0, nil, e.mrB.Addr()); err == nil {
		t.Error("empty batch must fail")
	}
}

func TestBatcherSPStagingOverflow(t *testing.T) {
	cfg := cluster.DefaultConfig()
	cfg.Machines = 2
	cl, _ := cluster.New(cfg)
	ctxA := verbs.NewContext(cl.Machine(0))
	ctxB := verbs.NewContext(cl.Machine(1))
	qpA, _, _ := verbs.Connect(ctxA, 1, ctxB, 1, verbs.RC)
	mrA := ctxA.MustRegisterMR(cl.Machine(0).MustAlloc(1, 1<<16, 0))
	mrB := ctxB.MustRegisterMR(cl.Machine(1).MustAlloc(1, 1<<16, 0))
	tiny := ctxA.MustRegisterMR(cl.Machine(0).MustAlloc(1, 64, 0))
	b, err := NewBatcher(SP, qpA, mrA, tiny, mrB)
	if err != nil {
		t.Fatal(err)
	}
	fs := []Fragment{{Addr: mrA.Addr(), Length: 128}}
	if _, err := b.WriteBatch(0, fs, mrB.Addr()); err == nil {
		t.Fatal("staging overflow must fail")
	}
}

func TestConsolidatorFlushesAtTheta(t *testing.T) {
	e := newEnv(t)
	c, err := NewConsolidator(ConsolidatorConfig{
		QP: e.qpA, LocalMR: e.staging, RemoteMR: e.mrB, RemoteBase: e.mrB.Addr(),
		BlockSize: 1024, Theta: 4, MaxBlocks: 8,
	})
	if err != nil {
		t.Fatal(err)
	}
	now := sim.Time(0)
	data := []byte("0123456789abcdef0123456789abcdef") // 32B
	for i := 0; i < 3; i++ {
		d, err := c.Write(now, i*32, data)
		if err != nil {
			t.Fatal(err)
		}
		if d-now > 500 { // absorbed writes are CPU-cheap, no network RTT
			t.Fatalf("absorbed write %d took %v", i, d-now)
		}
		now = d
	}
	if _, fl := c.Stats(); fl != 0 {
		t.Fatal("flush before theta reached")
	}
	d, err := c.Write(now, 3*32, data) // 4th write triggers the flush
	if err != nil {
		t.Fatal(err)
	}
	if d-now < 900 { // a real RDMA write costs ~1.2us
		t.Fatalf("theta-triggering write should pay the flush, took %v", d-now)
	}
	if w, fl := c.Stats(); w != 4 || fl != 1 {
		t.Fatalf("stats writes=%d flushes=%d, want 4/1", w, fl)
	}
	// Remote block 0 must now carry all four fragments.
	remote := e.mrB.Region().Bytes()
	for i := 0; i < 4; i++ {
		if !bytes.Equal(remote[i*32:i*32+32], data) {
			t.Fatalf("fragment %d missing at remote", i)
		}
	}
}

func TestConsolidatorReadYourWrites(t *testing.T) {
	e := newEnv(t)
	c, err := NewConsolidator(ConsolidatorConfig{
		QP: e.qpA, LocalMR: e.staging, RemoteMR: e.mrB, RemoteBase: e.mrB.Addr(),
		BlockSize: 1024, Theta: 100, MaxBlocks: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Write(0, 100, []byte("shadowed")); err != nil {
		t.Fatal(err)
	}
	out := make([]byte, 8)
	d, err := c.Read(1000, 100, 8, out)
	if err != nil {
		t.Fatal(err)
	}
	if string(out) != "shadowed" {
		t.Fatalf("read-your-writes got %q", out)
	}
	if d-1000 > 500 {
		t.Fatalf("shadow read should be CPU-cheap, took %v", d-1000)
	}
	// A read outside any pending block goes to the network.
	copy(e.mrB.Region().Bytes()[4096+8:], "remote!!")
	d2, err := c.Read(d, 4096+8, 8, out)
	if err != nil {
		t.Fatal(err)
	}
	if string(out) != "remote!!" {
		t.Fatalf("remote read got %q", out)
	}
	if d2-d < 1500 { // RDMA read costs ~2us
		t.Fatalf("remote read too cheap: %v", d2-d)
	}
}

func TestConsolidatorEvictsWhenFull(t *testing.T) {
	e := newEnv(t)
	c, err := NewConsolidator(ConsolidatorConfig{
		QP: e.qpA, LocalMR: e.staging, RemoteMR: e.mrB, RemoteBase: e.mrB.Addr(),
		BlockSize: 1024, Theta: 100, MaxBlocks: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	now := sim.Time(0)
	for blk := 0; blk < 3; blk++ { // third block evicts the first
		d, err := c.Write(now, blk*1024, []byte{byte('A' + blk)})
		if err != nil {
			t.Fatal(err)
		}
		now = d + 1
	}
	if _, fl := c.Stats(); fl != 1 {
		t.Fatalf("flushes=%d, want 1 eviction", func() int64 { _, f := c.Stats(); return f }())
	}
	if e.mrB.Region().Bytes()[0] != 'A' {
		t.Fatal("evicted block 0 did not land remotely")
	}
}

func TestConsolidatorFlushAll(t *testing.T) {
	e := newEnv(t)
	c, err := NewConsolidator(ConsolidatorConfig{
		QP: e.qpA, LocalMR: e.staging, RemoteMR: e.mrB, RemoteBase: e.mrB.Addr(),
		BlockSize: 512, Theta: 100, MaxBlocks: 8,
	})
	if err != nil {
		t.Fatal(err)
	}
	for blk := 0; blk < 5; blk++ {
		if _, err := c.Write(0, blk*512, []byte{byte('0' + blk)}); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := c.Flush(1000); err != nil {
		t.Fatal(err)
	}
	if _, fl := c.Stats(); fl != 5 {
		t.Fatalf("flushes=%d, want 5", fl)
	}
	for blk := 0; blk < 5; blk++ {
		if e.mrB.Region().Bytes()[blk*512] != byte('0'+blk) {
			t.Fatalf("block %d missing", blk)
		}
	}
}

func TestConsolidatorValidation(t *testing.T) {
	e := newEnv(t)
	if _, err := NewConsolidator(ConsolidatorConfig{}); err == nil {
		t.Error("empty config must fail")
	}
	if _, err := NewConsolidator(ConsolidatorConfig{
		QP: e.qpA, LocalMR: e.staging, RemoteMR: e.mrB,
		BlockSize: 1 << 22, Theta: 4, MaxBlocks: 8, // shadow too small
	}); err == nil {
		t.Error("oversized blocks must fail")
	}
	c, err := NewConsolidator(ConsolidatorConfig{
		QP: e.qpA, LocalMR: e.staging, RemoteMR: e.mrB, RemoteBase: e.mrB.Addr(),
		BlockSize: 1024, Theta: 4, MaxBlocks: 8,
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Write(0, 1000, make([]byte, 100)); err == nil {
		t.Error("block-straddling write must fail")
	}
	if _, err := c.Write(0, -1, []byte("x")); err == nil {
		t.Error("negative offset must fail")
	}
	if _, err := c.Read(0, 1000, 100, make([]byte, 100)); err == nil {
		t.Error("block-straddling read must fail")
	}
}

// wrTo builds a simple write WR from mrA's base to a remote heap address.
func wrTo(e *env, addr mem.Addr, size int) verbs.SendWR {
	return verbs.SendWR{
		Opcode:     verbs.OpWrite,
		SGL:        []verbs.SGE{{Addr: e.mrA.Addr(), Length: size, MR: e.mrA}},
		RemoteAddr: addr,
		RemoteKey:  e.mrB.RKey(),
	}
}

// TestConsolidatorReadMissChargesCopy pins the read-miss timing model: a
// miss pays the RDMA read into the scratch slot PLUS the CPU copy out to the
// caller's buffer — the same memcpy a shadow hit is charged. The miss is
// measured against a bare RDMA read of identical size on the same (warm) QP,
// so their difference isolates the copy term exactly.
func TestConsolidatorReadMissChargesCopy(t *testing.T) {
	e := newEnv(t)
	c, err := NewConsolidator(ConsolidatorConfig{
		QP: e.qpA, LocalMR: e.staging, RemoteMR: e.mrB, RemoteBase: e.mrB.Addr(),
		BlockSize: 1024, Theta: 100, MaxBlocks: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	const size = 512
	out := make([]byte, size)

	// Warm the QP/MR/translation caches so the measured pair sees identical
	// metadata behavior.
	if _, err := c.Read(0, 4*1024, size, out); err != nil {
		t.Fatal(err)
	}
	// The bare read lands in the same scratch slot the consolidator uses, so
	// both measured ops see identical translation-cache state.
	scratch := e.staging.Addr() + 4*1024 // scratchOff = BlockSize * MaxBlocks
	now := sim.Time(50 * sim.Microsecond)
	comp, err := e.qpA.PostSend(now, &verbs.SendWR{
		Opcode:     verbs.OpRead,
		SGL:        []verbs.SGE{{Addr: scratch, Length: size, MR: e.staging}},
		RemoteAddr: e.mrB.Addr() + 4*1024,
		RemoteKey:  e.mrB.RKey(),
	})
	if err != nil {
		t.Fatal(err)
	}
	rdma := comp.Done - now

	now = 100 * sim.Microsecond
	d, err := c.Read(now, 4*1024, size, out)
	if err != nil {
		t.Fatal(err)
	}
	miss := d - now

	tp := e.cl.Machine(0).Topology()
	wantCopy := tp.MemcpyTime(size, false)
	if wantCopy <= 0 {
		t.Fatal("test needs a nonzero memcpy cost")
	}
	if got := miss - rdma; got != wantCopy {
		t.Fatalf("miss charges %v beyond the RDMA read, want memcpy %v (miss=%v rdma=%v)",
			got, wantCopy, miss, rdma)
	}

	// And a shadow hit of the same size costs exactly the memcpy.
	if _, err := c.Write(200*sim.Microsecond, 0, make([]byte, size)); err != nil {
		t.Fatal(err)
	}
	now = 300 * sim.Microsecond
	d, err = c.Read(now, 0, size, out)
	if err != nil {
		t.Fatal(err)
	}
	if hit := d - now; hit != wantCopy {
		t.Fatalf("shadow hit cost %v, want memcpy %v", hit, wantCopy)
	}
}

// TestConsolidatorEvictionFIFO pins the eviction order: a full shadow
// retires the block created first, not the lowest block index and not the
// one created at the earliest virtual time. Block 5 enters before block 1;
// the third block must evict 5, whether block 1 was written at the same
// instant or at an earlier one.
func TestConsolidatorEvictionFIFO(t *testing.T) {
	for _, tc := range []struct {
		name        string
		first, then sim.Time // virtual times of the writes to blocks 5 and 1
	}{
		{"same instant", 0, 0},
		{"second created earlier", 10 * sim.Microsecond, 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			e := newEnv(t)
			c, err := NewConsolidator(ConsolidatorConfig{
				QP: e.qpA, LocalMR: e.staging, RemoteMR: e.mrB, RemoteBase: e.mrB.Addr(),
				BlockSize: 1024, Theta: 100, MaxBlocks: 2,
			})
			if err != nil {
				t.Fatal(err)
			}
			if _, err := c.Write(tc.first, 5*1024, []byte{'F'}); err != nil { // first in
				t.Fatal(err)
			}
			if _, err := c.Write(tc.then, 1*1024, []byte{'S'}); err != nil { // second in, lower index
				t.Fatal(err)
			}
			now := 20 * sim.Microsecond
			if _, err := c.Write(now, 3*1024, []byte{'T'}); err != nil { // forces one eviction
				t.Fatal(err)
			}
			if _, fl := c.Stats(); fl != 1 {
				t.Fatalf("flushes=%d, want exactly 1 eviction", fl)
			}
			remote := e.mrB.Region().Bytes()
			if remote[5*1024] != 'F' {
				t.Fatal("block 5 (first created) was not the eviction victim")
			}
			if remote[1*1024] == 'S' {
				t.Fatal("block 1 (created second) was evicted")
			}
			// The younger block still answers from the shadow.
			out := make([]byte, 1)
			if _, err := c.Read(now, 1*1024, 1, out); err != nil {
				t.Fatal(err)
			}
			if out[0] != 'S' {
				t.Fatalf("read-your-writes on surviving block got %q", out)
			}
		})
	}
}

// TestConsolidatorReadYourWritesSurvivesEviction drives a deterministic
// pseudo-random workload over more blocks than the shadow holds, so
// evict-triggered flushes interleave with absorbs, and checks after every
// operation that reads observe exactly what was last written — whether the
// block is live in the shadow, mid-theta, or long since flushed to the
// remote side. Writes cover whole blocks, the discipline the hot-entry area
// follows: a re-touched block gets a fresh shadow slot whose previous
// tenant's bytes would otherwise leak into the next flush.
func TestConsolidatorReadYourWritesSurvivesEviction(t *testing.T) {
	e := newEnv(t)
	const (
		blockSize = 512
		nBlocks   = 12
		maxBlocks = 3
		steps     = 400
	)
	c, err := NewConsolidator(ConsolidatorConfig{
		QP: e.qpA, LocalMR: e.staging, RemoteMR: e.mrB, RemoteBase: e.mrB.Addr(),
		BlockSize: blockSize, Theta: 4, MaxBlocks: maxBlocks,
	})
	if err != nil {
		t.Fatal(err)
	}
	model := make([]byte, nBlocks*blockSize)
	touched := make([]bool, nBlocks)
	rng := uint64(0x9e3779b97f4a7c15) // xorshift state; fixed seed, deterministic run
	next := func(n int) int {
		rng ^= rng << 13
		rng ^= rng >> 7
		rng ^= rng << 17
		return int(rng % uint64(n))
	}
	now := sim.Time(0)
	for step := 0; step < steps; step++ {
		blk := next(nBlocks)
		if !touched[blk] || next(2) == 0 {
			data := make([]byte, blockSize)
			for i := range data {
				data[i] = byte(step + i)
			}
			d, err := c.Write(now, blk*blockSize, data)
			if err != nil {
				t.Fatal(err)
			}
			copy(model[blk*blockSize:], data)
			touched[blk] = true
			now = d
		}
		// Read back a random touched extent and compare with the model.
		rblk := next(nBlocks)
		if !touched[rblk] {
			continue
		}
		off := next(blockSize - 16)
		size := 1 + next(15)
		out := make([]byte, size)
		d, err := c.Read(now, rblk*blockSize+off, size, out)
		if err != nil {
			t.Fatal(err)
		}
		now = d
		want := model[rblk*blockSize+off : rblk*blockSize+off+size]
		if !bytes.Equal(out, want) {
			t.Fatalf("step %d: read block %d [%d,+%d) = %x, want %x",
				step, rblk, off, size, out, want)
		}
	}
	if w, fl := c.Stats(); fl < int64(nBlocks-maxBlocks) || w == 0 {
		t.Fatalf("workload too tame: writes=%d flushes=%d (need evictions to exercise the property)", w, fl)
	}
}
