package shuffle

import (
	"encoding/binary"
	"errors"
	"slices"
	"testing"

	"rdmasem/internal/cluster"
	"rdmasem/internal/core"
	"rdmasem/internal/fabric"
	"rdmasem/internal/sim"
	"rdmasem/internal/verbs"
	"rdmasem/internal/workload"
)

func newCluster(t *testing.T, machines int) *cluster.Cluster {
	t.Helper()
	cfg := cluster.DefaultConfig()
	cfg.Machines = machines
	cl, err := cluster.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return cl
}

func TestConfigValidation(t *testing.T) {
	cl := newCluster(t, 2)
	cfg := DefaultConfig()
	cfg.Executors = 1
	if _, err := New(cl, cfg); err == nil {
		t.Error("single executor must fail")
	}
	cfg = DefaultConfig()
	cfg.Batch = 0
	if _, err := New(cl, cfg); err == nil {
		t.Error("zero batch must fail")
	}
	cfg = DefaultConfig()
	cfg.RingBytes = 64
	cfg.Batch = 16
	if _, err := New(cl, cfg); err == nil {
		t.Error("ring smaller than a batch must fail")
	}
	cfg = DefaultConfig()
	cfg.Executors = 5 // 2 machines x 2 sockets
	if _, err := New(cl, cfg); err == nil {
		t.Error("more executors than sockets must fail")
	}
}

// Every entry must land at the destination the shuffle rule chose, in its
// source's slice, byte-exact and in send order: each destination's received
// entries, same-machine deliveries included, are exactly what was sent to
// it. Before the end-of-stream drain, each remote pair's stage-sync counter
// equals its landed count.
func TestShuffleDeliversEverything(t *testing.T) {
	for _, strat := range []core.Strategy{core.SGL, core.SP} {
		t.Run(strat.String(), func(t *testing.T) {
			cl := newCluster(t, 4)
			cfg := DefaultConfig()
			cfg.Executors = 8
			cfg.Batch = 4
			cfg.Strategy = strat
			s, err := New(cl, cfg)
			if err != nil {
				t.Fatal(err)
			}
			const perExec = 64
			execs := s.Executors()
			want := make([][][]uint64, len(execs)) // [dst][src] keys in send order
			for dst := range want {
				want[dst] = make([][]uint64, len(execs))
			}
			now := sim.Time(0)
			for _, ex := range execs {
				u, _ := workload.NewUniform(1<<30, int64(ex.ID()+1))
				st := workload.NewStream(u, cfg.ValueSize)
				for i := 0; i < perExec; i++ {
					kv := st.Next()
					dst := s.destOf(kv.Key)
					want[dst][ex.ID()] = append(want[dst][ex.ID()], kv.Key)
					d, err := ex.Process(now, kv)
					if err != nil {
						t.Fatal(err)
					}
					now = d
				}
			}
			local := 0
			for _, dst := range execs {
				for src, ex := range execs {
					n := len(received(t, dst, src, cfg.ValueSize))
					// The stage-sync arrival counter src's flushes bumped.
					counted := binary.LittleEndian.Uint64(dst.counters.Region().Bytes()[src*8:])
					if ex.Local(dst.ID()) {
						local += n
						n = 0 // same-machine deliveries bump no counter
					}
					if counted != uint64(n) {
						t.Fatalf("dst %d src %d: counter %d, landed %d", dst.ID(), src, counted, n)
					}
				}
			}
			if local == 0 {
				t.Fatal("no same-machine deliveries observed")
			}
			for _, ex := range execs {
				if _, err := ex.FlushAll(now); err != nil {
					t.Fatal(err)
				}
			}
			for _, dst := range execs {
				for src := range execs {
					if got := received(t, dst, src, cfg.ValueSize); !slices.Equal(got, want[dst.ID()][src]) {
						t.Fatalf("dst %d src %d: received %d entries %v, sent %d %v",
							dst.ID(), src, len(got), got, len(want[dst.ID()][src]), want[dst.ID()][src])
					}
				}
			}
		})
	}
}

// received parses the entries src landed at dst, checking each value.
func received(t *testing.T, dst *Executor, src, valueSize int) []uint64 {
	t.Helper()
	var keys []uint64
	for b := dst.Received(src); len(b) > 0; b = b[8+valueSize:] {
		key := binary.LittleEndian.Uint64(b)
		if !workload.CheckValue(b[8:8+valueSize], key) {
			t.Fatalf("corrupt entry for key %d at dst %d from src %d", key, dst.ID(), src)
		}
		keys = append(keys, key)
	}
	return keys
}

// An entry that would overflow its slice of the destination's inbound ring
// is an error and lands nothing, on the RDMA path and on the same-machine
// path alike: the entries already delivered stay intact.
func TestOverflowIsAnError(t *testing.T) {
	for _, tc := range []struct {
		name string
		dst  int // executor 0 runs on machine 0, as does executor 4
	}{{"remote", 1}, {"local", 4}} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := DefaultConfig()
			cfg.Executors = 8
			cfg.RingBytes = 2 * cfg.entrySize() // two entries per slice
			s, err := New(newCluster(t, 4), cfg)
			if err != nil {
				t.Fatal(err)
			}
			ex := s.Executors()[0]
			var keys []uint64
			for k := uint64(0); len(keys) < 3; k++ {
				if s.destOf(k) == tc.dst {
					keys = append(keys, k)
				}
			}
			value := make([]byte, cfg.ValueSize)
			now := sim.Time(0)
			for i, k := range keys {
				workload.FillValue(value, k)
				d, err := ex.Process(now, workload.KV{Key: k, Value: value})
				if i < 2 && err != nil {
					t.Fatalf("entry %d: %v", i, err)
				}
				if i == 2 && err == nil {
					t.Fatal("third entry overflowed the slice without an error")
				}
				now = d
			}
			dst := s.Executors()[tc.dst]
			if got := received(t, dst, 0, cfg.ValueSize); !slices.Equal(got, keys[:2]) {
				t.Fatalf("slice holds %v, want the first two entries %v", got, keys[:2])
			}
		})
	}
}

// A batch whose write fails lands nothing: the receiver's landed count, and
// with it the slice tail, stays where it was.
func TestFailedWriteLandsNothing(t *testing.T) {
	ccfg := cluster.DefaultConfig()
	ccfg.Machines = 4
	ccfg.Faults = &fabric.FaultPlan{Seed: 1, Drop: 1}
	cl, err := cluster.New(ccfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	cfg.Executors = 8
	s, err := New(cl, cfg)
	if err != nil {
		t.Fatal(err)
	}
	ex, dst := s.Executors()[0], s.Executors()[1]
	k := uint64(0)
	for s.destOf(k) != dst.ID() {
		k++
	}
	value := make([]byte, cfg.ValueSize)
	workload.FillValue(value, k)
	if _, err := ex.Process(0, workload.KV{Key: k, Value: value}); !errors.Is(err, verbs.ErrQPError) {
		t.Fatalf("want a QP error on a fabric that drops everything, got %v", err)
	}
	if n := len(dst.Received(0)); n != 0 {
		t.Fatalf("a failed write landed %d bytes", n)
	}
}

func TestBatchingReducesFlushes(t *testing.T) {
	run := func(batch int) (entries, flushes int64) {
		cl := newCluster(t, 4)
		cfg := DefaultConfig()
		cfg.Executors = 8
		cfg.Batch = batch
		s, err := New(cl, cfg)
		if err != nil {
			t.Fatal(err)
		}
		ex := s.Executors()[0]
		u, _ := workload.NewUniform(1<<30, 7)
		st := workload.NewStream(u, cfg.ValueSize)
		now := sim.Time(0)
		for i := 0; i < 256; i++ {
			d, err := ex.Process(now, st.Next())
			if err != nil {
				t.Fatal(err)
			}
			now = d
		}
		e, f, _ := ex.Stats()
		return e, f
	}
	e1, f1 := run(1)
	e16, f16 := run(16)
	if e1 != 256 || e16 != 256 {
		t.Fatalf("entries %d/%d", e1, e16)
	}
	if f16*8 > f1 {
		t.Fatalf("batch 16 flushes (%d) should be far fewer than batch 1 (%d)", f16, f1)
	}
}

func TestSPBurnsMoreCPUThanSGL(t *testing.T) {
	run := func(strat core.Strategy) sim.Duration {
		cl := newCluster(t, 4)
		cfg := DefaultConfig()
		cfg.Executors = 8
		cfg.Batch = 16
		cfg.ValueSize = 1016 // 1KB entries: Figure 18's gap grows with size
		cfg.Strategy = strat
		s, err := New(cl, cfg)
		if err != nil {
			t.Fatal(err)
		}
		ex := s.Executors()[0]
		u, _ := workload.NewUniform(1<<30, 7)
		st := workload.NewStream(u, cfg.ValueSize)
		now := sim.Time(0)
		for i := 0; i < 512; i++ {
			d, err := ex.Process(now, st.Next())
			if err != nil {
				t.Fatal(err)
			}
			now = d
		}
		_, _, cpu := ex.Stats()
		return cpu
	}
	sp := run(core.SP)
	sgl := run(core.SGL)
	if sp <= sgl {
		t.Fatalf("SP CPU (%v) should exceed SGL CPU (%v): Figure 18", sp, sgl)
	}
}

// Figure 15's qualitative claim: batched strategies beat basic shuffle by a
// large factor at high executor counts.
func TestBatchingBoostsThroughput(t *testing.T) {
	run := func(batch int, strat core.Strategy) float64 {
		cl := newCluster(t, 8)
		cfg := DefaultConfig()
		cfg.Executors = 16
		cfg.Batch = batch
		cfg.Strategy = strat
		s, err := New(cl, cfg)
		if err != nil {
			t.Fatal(err)
		}
		var clients []*sim.Client
		for _, ex := range s.Executors() {
			ex := ex
			u, _ := workload.NewUniform(1<<30, int64(ex.ID()*3+1))
			st := workload.NewStream(u, cfg.ValueSize)
			clients = append(clients, &sim.Client{
				PostCost: 50,
				Window:   4,
				Op: func(post sim.Time) sim.Time {
					d, err := ex.Process(post, st.Next())
					if err != nil {
						t.Fatal(err)
					}
					return d
				},
			})
		}
		res, err := sim.RunClosedLoop(clients, sim.Millisecond)
		if err != nil {
			t.Fatal(err)
		}
		return res.MOPS()
	}
	basic := run(1, core.SGL)
	sgl16 := run(16, core.SGL)
	sp16 := run(16, core.SP)
	if sgl16 < 2.5*basic {
		t.Errorf("SGL-16 (%.1f) should be >2.5x basic (%.1f)", sgl16, basic)
	}
	if sp16 < 2.5*basic {
		t.Errorf("SP-16 (%.1f) should be >2.5x basic (%.1f)", sp16, basic)
	}
	t.Logf("basic=%.1f sgl16=%.1f sp16=%.1f MOPS", basic, sgl16, sp16)
}

// The Doorbell strategy also plugs into the shuffle (Table I's
// minimal-changes option): data still lands correctly, with one network op
// per entry but a single MMIO per batch.
func TestDoorbellStrategyDelivers(t *testing.T) {
	cl := newCluster(t, 4)
	cfg := DefaultConfig()
	cfg.Executors = 8
	cfg.Batch = 4
	cfg.Strategy = core.Doorbell
	s, err := New(cl, cfg)
	if err != nil {
		t.Fatal(err)
	}
	ex := s.Executors()[0]
	u, _ := workload.NewUniform(1<<30, 3)
	st := workload.NewStream(u, cfg.ValueSize)
	now := sim.Time(0)
	for i := 0; i < 64; i++ {
		d, err := ex.Process(now, st.Next())
		if err != nil {
			t.Fatal(err)
		}
		now = d
	}
	if _, err := ex.FlushAll(now); err != nil {
		t.Fatal(err)
	}
	// Every entry lands at some destination, parses and verifies.
	total := 0
	for _, dst := range s.Executors() {
		total += len(received(t, dst, 0, cfg.ValueSize))
	}
	if total != 64 {
		t.Fatalf("%d of 64 entries landed under Doorbell", total)
	}
}
