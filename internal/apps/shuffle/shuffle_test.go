package shuffle

import (
	"testing"

	"rdmasem/internal/cluster"
	"rdmasem/internal/core"
	"rdmasem/internal/sim"
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
}

// All entries pushed by every executor must arrive at the destination chosen
// by the shuffle rule, byte-exact, with matching arrival counters.
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
			want := map[int]map[uint64]int{} // dst -> key -> count
			now := sim.Time(0)
			for _, ex := range s.Executors() {
				u, _ := workload.NewUniform(1<<30, int64(ex.ID()+1))
				st := workload.NewStream(u, cfg.ValueSize)
				for i := 0; i < perExec; i++ {
					kv := st.Next()
					dst := s.destOf(kv.Key)
					if want[dst] == nil {
						want[dst] = map[uint64]int{}
					}
					want[dst][kv.Key]++
					d, err := ex.Process(now, kv)
					if err != nil {
						t.Fatal(err)
					}
					now = d
				}
				if _, err := ex.FlushAll(now); err != nil {
					t.Fatal(err)
				}
			}
			// Verify deliveries per (src,dst) pair using the counters.
			got := map[int]map[uint64]int{}
			for _, dst := range s.Executors() {
				got[dst.ID()] = map[uint64]int{}
				for src := range s.Executors() {
					if src == dst.ID() {
						continue
					}
					if s.Executor(src).ctx.Machine() == dst.ctx.Machine() {
						continue // local deliveries don't use the counter
					}
					n := int(dst.ReceivedCount(src))
					for _, kv := range dst.ReceivedEntries(src, n) {
						if !workload.CheckValue(kv.Value, kv.Key) {
							t.Fatalf("corrupt entry for key %d at dst %d", kv.Key, dst.ID())
						}
						got[dst.ID()][kv.Key]++
					}
				}
			}
			for dstID, keys := range want {
				for k, n := range keys {
					// Skip keys whose source shares the destination machine
					// (delivered locally, not counted here).
					gotN := got[dstID][k]
					if gotN > n {
						t.Fatalf("dst %d key %d: got %d > want %d", dstID, k, gotN, n)
					}
				}
			}
			// At least some remote deliveries must have happened.
			total := 0
			for _, keys := range got {
				for _, n := range keys {
					total += n
				}
			}
			if total == 0 {
				t.Fatal("no remote deliveries observed")
			}
		})
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
		ex := s.Executor(0)
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
		ex := s.Executor(0)
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
	ex := s.Executor(0)
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
	// Everything that arrived at any destination parses and verifies.
	total := 0
	for _, dst := range s.Executors() {
		if dst.ID() == 0 || dst.ctx.Machine() == ex.ctx.Machine() {
			continue
		}
		n := int(dst.ReceivedCount(0))
		for _, kv := range dst.ReceivedEntries(0, n) {
			if !workload.CheckValue(kv.Value, kv.Key) {
				t.Fatalf("corrupt entry under Doorbell at dst %d", dst.ID())
			}
			total++
		}
	}
	if total == 0 {
		t.Fatal("no deliveries observed")
	}
}
