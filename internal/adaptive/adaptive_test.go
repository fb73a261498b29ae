package adaptive

import (
	"errors"
	"testing"

	"rdmasem/internal/cluster"
	"rdmasem/internal/core"
	"rdmasem/internal/fabric"
	"rdmasem/internal/mem"
	"rdmasem/internal/sim"
	"rdmasem/internal/verbs"
)

// testEnv is the usual two-machine rig: one RC QP, a 1MB local MR (fragments
// above 32KB, consolidator shadow below), a 1MB staging MR, a 1MB remote MR.
type testEnv struct {
	cl         *cluster.Cluster
	ctxA, ctxB *verbs.Context
	qpA        *verbs.QP
	mrA        *verbs.MR
	mrB        *verbs.MR
	staging    *verbs.MR
}

func newTestEnv(t testing.TB, faults *fabric.FaultPlan) *testEnv {
	t.Helper()
	cfg := cluster.DefaultConfig()
	cfg.Machines = 2
	cfg.Faults = faults
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
	return &testEnv{cl: cl, ctxA: ctxA, ctxB: ctxB, qpA: qpA, mrA: mrA, mrB: mrB, staging: staging}
}

// mkFrags lays out n discontiguous size-byte fragments in mrA starting at
// base (keep base >= 32KB so the consolidator shadow below stays untouched).
func mkFrags(e *testEnv, n, size, base int) []core.Fragment {
	out := make([]core.Fragment, n)
	b := e.mrA.Region().Bytes()
	for i := 0; i < n; i++ {
		off := base + i*2*size
		for j := 0; j < size; j++ {
			b[off+j] = byte('a' + i%26)
		}
		out[i] = core.Fragment{Addr: e.mrA.Addr() + mem.Addr(off), Length: size}
	}
	return out
}

func mkRuntime(t testing.TB, e *testEnv, p Params, static core.Strategy, useCons bool) *Runtime {
	t.Helper()
	rt, err := NewRuntime(Config{
		QP: e.qpA, LocalMR: e.mrA, Staging: e.staging,
		RemoteMR: e.mrB, RemoteBase: e.mrB.Addr(),
		BlockSize: 1024, Theta: 16, MaxBlocks: 8,
		Params: p, Strategy: static, UseCons: useCons,
	})
	if err != nil {
		t.Fatal(err)
	}
	return rt
}

// --- tuner state machine -------------------------------------------------

// synth drives a shadow runtime one epoch at a time with synthetic batch
// tallies written straight into its epoch accumulators: no post reaches the
// QP, so only the tuners move.
type synth struct {
	rt  *Runtime
	now sim.Time
}

func newSynth(t *testing.T) *synth {
	t.Helper()
	s := &synth{rt: mkRuntime(t, newTestEnv(t, nil), Params{Epoch: 1000, Shadow: true}, core.SGL, false)}
	s.rt.advance(0)
	s.epoch(0, 0, 0) // consume the discarded warm-up epoch
	return s
}

// epoch records ops batches of 16 fragments totalling bytes each, all at the
// given per-op latency, then crosses exactly one epoch boundary.
func (s *synth) epoch(ops, bytes int, lat sim.Duration) {
	r := s.rt
	r.batchOps += int64(ops)
	r.batchFrags += int64(16 * ops)
	r.batchBytes += int64(bytes * ops)
	r.batchLat += int64(lat) * int64(ops)
	s.now += r.cfg.Params.Epoch
	r.advance(s.now)
}

// probeLats holds the measured cost of each candidate; feeding the active
// candidate's entry emulates "running" it for an epoch.
func (s *synth) probe(lats [3]sim.Duration, bytes int) {
	s.epoch(4, bytes, lats[s.rt.batch.cand])
}

func TestTunerProbeLocksMeasuredBest(t *testing.T) {
	s := newSynth(t)
	lats := [3]sim.Duration{3000, 1000, 2000}
	for i := 0; i < 3; i++ {
		s.probe(lats, 1024)
	}
	if s.rt.batch.state != stLocked {
		t.Fatal("tuner should lock after scoring every candidate")
	}
	if got := s.rt.Decision().Batch; got != core.Doorbell {
		t.Fatalf("locked %v, want the measured-cheapest Doorbell", got)
	}
}

func TestTunerTieBreaksOnProbeOrder(t *testing.T) {
	s := newSynth(t)
	for i := 0; i < 3; i++ {
		s.probe([3]sim.Duration{1000, 1000, 1000}, 1024)
	}
	if got := s.rt.Decision().Batch; got != core.SP {
		t.Fatalf("tie locked %v, want the first candidate SP", got)
	}
}

// TestTunerOscillatingFingerprintNeverFlipFlops is the hysteresis contract:
// a workload that straddles a fingerprint boundary, alternating every epoch,
// must never re-open probing — the drift counter needs DefaultConfirm
// consecutive drifted epochs and the oscillation keeps resetting it.
func TestTunerOscillatingFingerprintNeverFlipFlops(t *testing.T) {
	s := newSynth(t)
	lats := [3]sim.Duration{3000, 1000, 2000}
	for i := 0; i < 3; i++ {
		s.probe(lats, 1024) // lg(1024)=11 fingerprint
	}
	s.epoch(4, 1024, 1000) // burn the dwell cooldown
	s.epoch(4, 1024, 1000)
	locked := len(s.rt.Records())
	for i := 0; i < 30; i++ {
		bytes := 1024
		if i%2 == 0 {
			bytes = 5000 // lg(5000)=13: drifted fingerprint
		}
		s.epoch(4, bytes, 1000)
	}
	if got := len(s.rt.Records()); got != locked {
		t.Fatalf("oscillating fingerprint produced %d decision changes, want 0", got-locked)
	}
	if got := s.rt.Decision().Batch; got != core.Doorbell {
		t.Fatalf("strategy flip-flopped to %v", got)
	}
	seen := map[int64]bool{}
	for _, r := range s.rt.Records() {
		if seen[r.Epoch] {
			t.Fatalf("two decision changes in epoch %d", r.Epoch)
		}
		seen[r.Epoch] = true
	}
}

// TestTunerSustainedDriftReprobes: the same drift held for DefaultConfirm
// epochs (after the DefaultDwell cooldown) re-opens probing, and the re-probe
// locks the candidate the new workload measures cheapest.
func TestTunerSustainedDriftReprobes(t *testing.T) {
	s := newSynth(t)
	oldLats := [3]sim.Duration{3000, 1000, 2000}
	for i := 0; i < 3; i++ {
		s.probe(oldLats, 1024)
	}
	if s.rt.Decision().Batch != core.Doorbell {
		t.Fatal("setup: expected Doorbell lock")
	}
	// The workload changes shape for good: the first two drifted epochs fall
	// in the dwell window (ignored), the next DefaultConfirm=2 arm the re-probe.
	newLats := [3]sim.Duration{500, 1000, 2000}
	before := len(s.rt.Records())
	for i := 0; i < 3; i++ {
		s.epoch(4, 64*1024, newLats[s.rt.batch.cand])
		if s.rt.batch.state != stLocked {
			t.Fatalf("re-probed after %d drifted epochs, dwell+confirm=4 required", i+1)
		}
	}
	s.epoch(4, 64*1024, newLats[s.rt.batch.cand]) // confirm reached: re-probe opens
	if s.rt.batch.state != stProbe {
		t.Fatal("sustained drift past dwell+confirm must re-open probing")
	}
	for i := 0; i < 3; i++ {
		s.epoch(4, 64*1024, newLats[s.rt.batch.cand])
	}
	if got := s.rt.Decision().Batch; got != core.SP {
		t.Fatalf("re-probe locked %v, want SP (cheapest under the new shape)", got)
	}
	if len(s.rt.Records()) <= before {
		t.Fatal("the re-probe cycle should have logged decision changes")
	}
}

func TestTunerFreezesOnIdleEpochs(t *testing.T) {
	s := newSynth(t)
	lats := [3]sim.Duration{3000, 1000, 2000}
	for i := 0; i < 3; i++ {
		s.probe(lats, 1024)
	}
	want := s.rt.Decision()
	for i := 0; i < 10; i++ {
		s.epoch(0, 0, 0) // no ops: nothing to measure, nothing may move
	}
	if got := s.rt.Decision(); got.Batch != want.Batch || got.Depth != want.Depth {
		t.Fatalf("idle epochs moved knobs: %+v -> %+v", want, got)
	}
}

// TestNewRuntimeValidation: every configuration the runtime cannot run is
// rejected with ErrBadConfig, including a missing SP staging buffer (SP is
// always a batch candidate).
func TestNewRuntimeValidation(t *testing.T) {
	e := newTestEnv(t, nil)
	base := Config{
		QP: e.qpA, LocalMR: e.mrA, Staging: e.staging,
		RemoteMR: e.mrB, RemoteBase: e.mrB.Addr(),
		BlockSize: 1024, Theta: 16, MaxBlocks: 8,
		Params: Params{Epoch: 10 * sim.Microsecond},
	}
	for _, tc := range []struct {
		name string
		edit func(*Config)
	}{
		{"nil QP", func(c *Config) { c.QP = nil }},
		{"nil staging", func(c *Config) { c.Staging = nil }},
		{"zero theta", func(c *Config) { c.Theta = 0 }},
		{"zero epoch", func(c *Config) { c.Params.Epoch = 0 }},
		// (2000+2) KiB of shadow and staging slots > the 1 MiB local MR
		{"local MR too small", func(c *Config) { c.MaxBlocks = 2000 }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := base
			tc.edit(&cfg)
			if _, err := NewRuntime(cfg); !errors.Is(err, ErrBadConfig) {
				t.Errorf("got %v, want ErrBadConfig", err)
			}
		})
	}
	if _, err := NewRuntime(base); err != nil {
		t.Fatalf("valid config rejected: %v", err)
	}
}

// TestSmallWriteRejectsOutOfBlockOnEveryPath: SmallWrite takes the same
// writes whichever path is switched in. Each bad write errors on the native
// and the consolidated path alike, and leaves the runtime (epoch, decision
// log) and the consolidator's tallies exactly where they were.
func TestSmallWriteRejectsOutOfBlockOnEveryPath(t *testing.T) {
	bad := []struct {
		name string
		off  int
		size int
	}{
		{"negative offset", -32, 32},
		{"empty", 64, 0},
		{"crosses a block boundary", 1000, 32},
		{"larger than a block", 0, 1025},
	}
	for _, useCons := range []bool{false, true} {
		for _, tc := range bad {
			e := newTestEnv(t, nil)
			rt := mkRuntime(t, e, Params{Epoch: 2 * sim.Microsecond, Shadow: true}, core.SGL, useCons)
			data := make([]byte, 32)
			now := sim.Time(0)
			for i := 0; i < 200; i++ {
				d, err := rt.SmallWrite(now, (i%32)*32, data)
				if err != nil {
					t.Fatal(err)
				}
				now = d
			}
			recs := append([]Record(nil), rt.Records()...)
			dec := rt.Decision()
			w, f := rt.cons.Stats()

			if _, err := rt.SmallWrite(now+100*sim.Microsecond, tc.off, make([]byte, tc.size)); err == nil {
				t.Errorf("cons=%v %s: write [%d,+%d) accepted", useCons, tc.name, tc.off, tc.size)
			}
			if got := rt.Decision(); got != dec {
				t.Errorf("cons=%v %s: rejected write moved the decision: %+v -> %+v", useCons, tc.name, dec, got)
			}
			if got := rt.Records(); len(got) != len(recs) {
				t.Errorf("cons=%v %s: rejected write logged %d decisions", useCons, tc.name, len(got)-len(recs))
			}
			if w2, f2 := rt.cons.Stats(); w2 != w || f2 != f {
				t.Errorf("cons=%v %s: rejected write moved consolidator stats %d/%d -> %d/%d", useCons, tc.name, w, f, w2, f2)
			}
		}
	}
}

// --- shadow passivity ----------------------------------------------------

// TestShadowRuntimeIsPassive pins the acceptance property golden #31 builds
// on: a shadow-mode runtime (tuners observing through the op path)
// produces exactly the timings of the bare static pipeline.
func TestShadowRuntimeIsPassive(t *testing.T) {
	eBare := newTestEnv(t, nil)
	eRt := newTestEnv(t, nil)
	bareB, err := core.NewBatcher(core.SGL, eBare.qpA, eBare.mrA, eBare.staging, eBare.mrB)
	if err != nil {
		t.Fatal(err)
	}
	bareC, err := core.NewConsolidator(core.ConsolidatorConfig{
		QP: eBare.qpA, LocalMR: eBare.mrA, RemoteMR: eBare.mrB,
		RemoteBase: eBare.mrB.Addr(), BlockSize: 1024, Theta: 16, MaxBlocks: 8,
	})
	if err != nil {
		t.Fatal(err)
	}
	rt := mkRuntime(t, eRt, Params{
		Epoch: 5 * sim.Microsecond, Shadow: true,
	}, core.SGL, true)

	frBare := mkFrags(eBare, 16, 64, 32768)
	frRt := mkFrags(eRt, 16, 64, 32768)
	small := []byte("0123456789abcdef0123456789abcdef")
	nowBare, nowRt := sim.Time(0), sim.Time(0)
	for i := 0; i < 200; i++ {
		rb, err := bareB.WriteBatch(nowBare, frBare, eBare.mrB.Addr()+65536)
		if err != nil {
			t.Fatal(err)
		}
		rr, err := rt.WriteBatch(nowRt, frRt, eRt.mrB.Addr()+65536)
		if err != nil {
			t.Fatal(err)
		}
		if rb.Done != rr.Done || rb.CPU != rr.CPU || rb.Requests != rr.Requests {
			t.Fatalf("iter %d: batch diverged: bare %+v, shadow runtime %+v", i, rb, rr)
		}
		db, err := bareC.Write(rb.Done, (i%32)*32, small)
		if err != nil {
			t.Fatal(err)
		}
		dr, err := rt.SmallWrite(rr.Done, (i%32)*32, small)
		if err != nil {
			t.Fatal(err)
		}
		if db != dr {
			t.Fatalf("iter %d: small write diverged: bare %v, shadow runtime %v", i, db, dr)
		}
		nowBare, nowRt = db, dr
	}
}

// --- live adaptation -----------------------------------------------------

func noDoubleMoves(t *testing.T, rt *Runtime) {
	t.Helper()
	seen := map[int64]bool{}
	for _, r := range rt.Records() {
		if seen[r.Epoch] {
			t.Fatalf("two decision changes in epoch %d", r.Epoch)
		}
		seen[r.Epoch] = true
	}
	if rt.DroppedRecords() != 0 {
		t.Fatalf("decision log overflowed: %d dropped", rt.DroppedRecords())
	}
}

// TestRuntimeAdaptsBatchStrategyAcrossPhases drives a live runtime
// through the fig3 phase change: 64B fragments (SP's regime) then 2KB
// fragments (Doorbell's regime). The runtime must lock the measured best
// in each phase and switch between them through the drift detector.
func TestRuntimeAdaptsBatchStrategyAcrossPhases(t *testing.T) {
	e := newTestEnv(t, nil)
	rt := mkRuntime(t, e, Params{Epoch: 10 * sim.Microsecond}, core.SGL, false)

	smallFr := mkFrags(e, 16, 64, 32768)
	now := sim.Time(0)
	for i := 0; i < 300; i++ {
		r, err := rt.WriteBatch(now, smallFr, e.mrB.Addr()+131072)
		if err != nil {
			t.Fatal(err)
		}
		now = r.Done
	}
	if rt.batch.state != stLocked {
		t.Fatal("phase 1 never locked")
	}
	if got := rt.Decision().Batch; got != core.SP {
		t.Fatalf("phase 1 (16x64B) locked %v, want SP (fig3's winner)", got)
	}

	bigFr := mkFrags(e, 16, 2048, 32768)
	for i := 0; i < 300; i++ {
		r, err := rt.WriteBatch(now, bigFr, e.mrB.Addr()+131072)
		if err != nil {
			t.Fatal(err)
		}
		now = r.Done
	}
	if got := rt.Decision().Batch; got != core.Doorbell {
		t.Fatalf("phase 2 (16x2KB) locked %v, want Doorbell (fig3's winner)", got)
	}
	noDoubleMoves(t, rt)
}

// TestRuntimeSmallWritePathAdapts: a block-hot write stream locks the
// consolidator in; when the working set outgrows the shadow (64 blocks
// through 8 slots, every new block evicts) the locality term drifts, the
// re-probe opens on the native path, and the consolidator loses its probe.
// Each switch off the consolidator drains its pending blocks first: the
// probe is the only way off it, and no native write may land beside a block
// still pending. The 50us epoch dilutes the free-slot start a drained
// shadow gives the consolidator's probe epoch; at 10us that start still
// wins it back (DESIGN §15).
func TestRuntimeSmallWritePathAdapts(t *testing.T) {
	e := newTestEnv(t, nil)
	rt := mkRuntime(t, e, Params{Epoch: 50 * sim.Microsecond}, core.SGL, false)
	data := []byte("0123456789abcdef0123456789abcdef")

	now := sim.Time(0)
	for i := 0; now < 400*sim.Microsecond; i++ { // hot: one block, sequential 32B slots
		d, err := rt.SmallWrite(now, (i%32)*32, data)
		if err != nil {
			t.Fatal(err)
		}
		now = d
	}
	if rt.small.state != stLocked || !rt.Decision().Cons {
		t.Fatalf("hot phase should lock the consolidator in, got %+v", rt.Decision())
	}
	hot := len(rt.Records())

	switches := 0
	for i := 0; now < 1200*sim.Microsecond; i++ { // scattered: 64 blocks through an 8-block shadow
		was := rt.Decision().Cons
		d, err := rt.SmallWrite(now, ((i*7)%64)*1024, data)
		if err != nil {
			t.Fatal(err)
		}
		if was && !rt.Decision().Cons {
			// The switch closed an epoch inside this op's advance, so the
			// drain has run: nothing may be left pending.
			switches++
			if f, err := rt.cons.Flush(d); err != nil || f != d {
				t.Fatalf("pending blocks survived the cons->direct switch (flush took %v, %v)", f-d, err)
			}
		}
		now = d
	}
	if rt.small.state != stLocked || rt.Decision().Cons {
		t.Fatalf("scattered phase should lock the native path, got %+v", rt.Decision())
	}
	if switches == 0 {
		t.Fatal("no switch off the consolidator was observed")
	}
	// The way off was a probe: a re-probe opening on native, the
	// consolidator's probe epoch, then the lock back on native.
	if got := len(rt.Records()) - hot; got < 3 {
		t.Fatalf("scattered phase logged %d decision changes, want a full re-probe (>= 3)", got)
	}
	noDoubleMoves(t, rt)
}

// TestFailedDrainFailsTheOp: when the drain that follows a switch off the
// consolidator fails, the op that triggered it fails with the QP's error
// and nothing is written natively; the drain stays armed, so the next op
// retries it rather than writing around the still-pending block.
func TestFailedDrainFailsTheOp(t *testing.T) {
	e := newTestEnv(t, nil)
	rt := mkRuntime(t, e, Params{Epoch: 10 * sim.Microsecond}, core.SGL, false)
	// Mid-probe on the consolidator, with the native path already scored
	// at 1ns/op: the next epoch close locks native.
	rt.small = tuner{n: 2, cand: candCons, scored: [3]bool{true}, scores: [3]int64{1}}
	rt.warmed = true
	data := make([]byte, 32)
	if _, err := rt.SmallWrite(0, 0, data); err != nil { // absorbed: block 0 pending
		t.Fatal(err)
	}
	e.qpA.ForceError()
	for i := 0; i < 2; i++ {
		_, err := rt.SmallWrite(sim.Time(10+i)*sim.Microsecond, 32, data)
		if !errors.Is(err, verbs.ErrQPError) {
			t.Fatalf("op %d after a failed drain: got %v, want ErrQPError", i, err)
		}
		if rt.Decision().Cons || !rt.needDrain || rt.directOps != 0 {
			t.Fatalf("op %d: cons=%v drain armed=%v native writes=%d, want native, armed, 0",
				i, rt.Decision().Cons, rt.needDrain, rt.directOps)
		}
	}
}

// TestRuntimeHalvesDoorbellDepthUnderLoss: on a lossy fabric the depth tuner
// sees retransmit deltas and walks the doorbell list depth down.
func TestRuntimeHalvesDoorbellDepthUnderLoss(t *testing.T) {
	e := newTestEnv(t, &fabric.FaultPlan{Seed: 3, Drop: 0.05})
	rt := mkRuntime(t, e, Params{Epoch: 20 * sim.Microsecond}, core.SGL, false)

	fr := mkFrags(e, 16, 256, 32768)
	now := sim.Time(0)
	for i := 0; i < 300; i++ {
		r, err := rt.WriteBatch(now, fr, e.mrB.Addr()+131072)
		if err != nil {
			t.Fatal(err)
		}
		now = r.Done
	}
	if s := e.qpA.Stats(); s.Retransmits == 0 {
		t.Fatal("fault plan inactive: no retransmits, the depth tuner was never tested")
	}
	minDepth := DefaultMaxDepth
	for _, r := range rt.Records() {
		if r.Depth < minDepth {
			minDepth = r.Depth
		}
	}
	if minDepth >= DefaultMaxDepth {
		t.Fatalf("depth never halved under 5%% loss (records: %+v)", rt.Records())
	}
	noDoubleMoves(t, rt)
}

// --- allocation ceilings -------------------------------------------------

// TestRuntimeWriteBatchAllocFree extends the PR 4 ceilings to the adaptive
// path: a live runtime (epochs closing mid-measurement) on the WriteBatch
// hot loop stays off the heap once warm.
func TestRuntimeWriteBatchAllocFree(t *testing.T) {
	e := newTestEnv(t, nil)
	rt := mkRuntime(t, e, Params{Epoch: 2 * sim.Microsecond}, core.SGL, false)
	fr := mkFrags(e, 16, 64, 32768)
	now := sim.Time(0)
	op := func() {
		r, err := rt.WriteBatch(now, fr, e.mrB.Addr()+131072)
		if err != nil {
			t.Fatal(err)
		}
		now = r.Done
	}
	for i := 0; i < 400; i++ { // warm: probe all strategies, grow scratch, lock
		op()
	}
	if rt.batch.state != stLocked {
		t.Fatal("warmup did not lock the batch tuner")
	}
	if allocs := testing.AllocsPerRun(200, op); allocs != 0 {
		t.Fatalf("adaptive WriteBatch allocates %.2f/op with the tuners live, want 0", allocs)
	}
}
