package join

import (
	"slices"
	"testing"

	"rdmasem/internal/cluster"
	"rdmasem/internal/sim"
	"rdmasem/internal/workload"
)

func newCluster(t *testing.T) *cluster.Cluster {
	t.Helper()
	cl, err := cluster.New(cluster.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	return cl
}

// nestedLoop is the reference join (match count on keys).
func nestedLoop(inner, outer []workload.Tuple) int64 {
	counts := map[uint64]int64{}
	for _, t := range inner {
		counts[t.Key]++
	}
	var matches int64
	for _, t := range outer {
		matches += counts[t.Key]
	}
	return matches
}

func relations(n int, seed int64) (inner, outer []workload.Tuple) {
	// A small key space forces plenty of matches.
	return keyedRelations(n, uint64(n/4+16), seed)
}

func keyedRelations(n int, keys uint64, seed int64) (inner, outer []workload.Tuple) {
	return workload.Relation(n, keys, seed), workload.Relation(n, keys, seed+1)
}

// keySpaces are the reference tests' key spaces for n tuples: the default,
// and a duplicate-heavy one where each build key repeats about 8 times.
func keySpaces(n int) []uint64 { return []uint64{uint64(n/4 + 16), uint64(n / 8)} }

func TestValidation(t *testing.T) {
	cl := newCluster(t)
	inner, outer := relations(64, 1)
	if _, err := Run(cl, Config{Executors: 0}, inner, outer); err == nil {
		t.Error("zero executors must fail")
	}
	cfg := DefaultConfig()
	cfg.Batch = 0
	cfg.Executors = 4
	if _, err := Run(cl, cfg, inner, outer); err == nil {
		t.Error("zero batch must fail")
	}
	cfg = DefaultConfig()
	cfg.Executors = 64
	if _, err := Run(cl, cfg, inner, outer); err == nil {
		t.Error("too many executors must fail")
	}
}

func TestSingleMachineMatchesReference(t *testing.T) {
	for _, keys := range keySpaces(512) {
		cl := newCluster(t)
		inner, outer := keyedRelations(512, keys, 3)
		cfg := DefaultConfig()
		cfg.Executors = 1
		res, err := Run(cl, cfg, inner, outer)
		if err != nil {
			t.Fatal(err)
		}
		if want := nestedLoop(inner, outer); res.Matches != want {
			t.Fatalf("keys=%d: matches=%d, want %d", keys, res.Matches, want)
		}
		if res.Elapsed <= 0 {
			t.Fatal("single-machine join must take time")
		}
	}
}

func TestDistributedMatchesReference(t *testing.T) {
	for _, keys := range keySpaces(1024) {
		for _, execs := range []int{2, 4, 8} {
			for _, numa := range []bool{true, false} {
				cl := newCluster(t)
				inner, outer := keyedRelations(1024, keys, 7)
				cfg := DefaultConfig()
				cfg.Executors = execs
				cfg.NUMA = numa
				res, err := Run(cl, cfg, inner, outer)
				if err != nil {
					t.Fatalf("keys=%d execs=%d numa=%v: %v", keys, execs, numa, err)
				}
				if want := nestedLoop(inner, outer); res.Matches != want {
					t.Fatalf("keys=%d execs=%d numa=%v: matches=%d, want %d", keys, execs, numa, res.Matches, want)
				}
				if res.Partition <= 0 || res.Elapsed <= res.Partition {
					t.Fatalf("phases look wrong: %+v", res)
				}
			}
		}
	}
}

// TestRunLeavesRelationsUnchanged: Run only reads its relations, so the
// sweep points of one experiment can share them, concurrently.
func TestRunLeavesRelationsUnchanged(t *testing.T) {
	inner, outer := relations(2048, 23)
	wantInner, wantOuter := slices.Clone(inner), slices.Clone(outer)
	for _, execs := range []int{1, 4} {
		cfg := DefaultConfig()
		cfg.Executors = execs
		if _, err := Run(newCluster(t), cfg, inner, outer); err != nil {
			t.Fatalf("execs=%d: %v", execs, err)
		}
		if !slices.Equal(inner, wantInner) || !slices.Equal(outer, wantOuter) {
			t.Fatalf("execs=%d: Run modified its input relations", execs)
		}
	}
}

func TestMoreExecutorsAreFaster(t *testing.T) {
	inner, outer := relations(8192, 11)
	run := func(execs int) sim.Duration {
		cl := newCluster(t)
		cfg := DefaultConfig()
		cfg.Executors = execs
		cfg.Batch = 16
		res, err := Run(cl, cfg, inner, outer)
		if err != nil {
			t.Fatal(err)
		}
		return res.Elapsed
	}
	t4, t16 := run(4), run(16)
	if t16 >= t4 {
		t.Fatalf("16 executors (%v) should beat 4 (%v)", t16, t4)
	}
}

func TestBatchingSpeedsUpPartition(t *testing.T) {
	inner, outer := relations(8192, 13)
	run := func(batch int) sim.Duration {
		cl := newCluster(t)
		cfg := DefaultConfig()
		cfg.Executors = 4
		cfg.Batch = batch
		res, err := Run(cl, cfg, inner, outer)
		if err != nil {
			t.Fatal(err)
		}
		return res.Partition
	}
	b1, b16 := run(1), run(16)
	if b16 >= b1 {
		t.Fatalf("batch 16 partition (%v) should beat batch 1 (%v)", b16, b1)
	}
}

func TestNUMASpeedsUpJoin(t *testing.T) {
	inner, outer := relations(8192, 17)
	run := func(numa bool) sim.Duration {
		cl := newCluster(t)
		cfg := DefaultConfig()
		cfg.Executors = 4
		cfg.Batch = 4
		cfg.NUMA = numa
		res, err := Run(cl, cfg, inner, outer)
		if err != nil {
			t.Fatal(err)
		}
		return res.Elapsed
	}
	with, without := run(true), run(false)
	if with >= without {
		t.Fatalf("NUMA-aware (%v) should beat oblivious (%v)", with, without)
	}
}

func TestDistributedBeatsSingleMachine(t *testing.T) {
	inner, outer := relations(16384, 19)
	cl := newCluster(t)
	cfgS := DefaultConfig()
	cfgS.Executors = 1
	single, err := Run(cl, cfgS, inner, outer)
	if err != nil {
		t.Fatal(err)
	}
	cl2 := newCluster(t)
	cfgD := DefaultConfig()
	cfgD.Executors = 16
	cfgD.Batch = 16
	dist, err := Run(cl2, cfgD, inner, outer)
	if err != nil {
		t.Fatal(err)
	}
	speedup := float64(single.Elapsed) / float64(dist.Elapsed)
	if speedup < 3 {
		t.Fatalf("speedup %.2fx, want > 3x (paper: 5.3x)", speedup)
	}
	t.Logf("single=%v dist=%v speedup=%.2fx", single.Elapsed, dist.Elapsed, speedup)
}

// TestResultsPinned pins every Result field of three distributed runs, so a
// change to the partition phase (it runs on package shuffle's executors)
// cannot move the phase split or the CPU tally unnoticed.
func TestResultsPinned(t *testing.T) {
	inner, outer := relations(4096, 29)
	for _, tc := range []struct {
		execs, batch int
		numa         bool
		want         Result
	}{
		{4, 4, true, Result{Matches: 16073, Elapsed: 800884, Partition: 221230, CPU: 3240317}},
		{8, 16, false, Result{Matches: 16073, Elapsed: 385152, Partition: 93876, CPU: 2980187}},
		{16, 1, true, Result{Matches: 16073, Elapsed: 383509, Partition: 228955, CPU: 4254157}},
	} {
		cfg := DefaultConfig()
		cfg.Executors, cfg.Batch, cfg.NUMA = tc.execs, tc.batch, tc.numa
		res, err := Run(newCluster(t), cfg, inner, outer)
		if err != nil {
			t.Fatal(err)
		}
		if res != tc.want {
			t.Errorf("execs=%d batch=%d numa=%v: got %+v, want %+v", tc.execs, tc.batch, tc.numa, res, tc.want)
		}
	}
}
