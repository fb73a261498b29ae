package cluster

import (
	"errors"
	"maps"
	"testing"

	"rdmasem/internal/fabric"
	"rdmasem/internal/mem"
	"rdmasem/internal/rnic"
	"rdmasem/internal/sim"
	"rdmasem/internal/telemetry"
)

func newTestCluster(t *testing.T, machines int, mutate func(*Config)) *Cluster {
	t.Helper()
	cfg := DefaultConfig()
	cfg.Machines = machines
	if mutate != nil {
		mutate(&cfg)
	}
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// counters folds c into a fresh registry and returns its counters by key.
func counters(c *Cluster) map[telemetry.Key]int64 {
	reg := telemetry.NewRegistry()
	c.FoldTelemetry(reg)
	got := map[telemetry.Key]int64{}
	for _, e := range reg.Snapshot().Counters {
		got[e.Key] = e.Value
	}
	return got
}

func key(machine, component, stage string) telemetry.Key {
	return telemetry.Key{Machine: machine, Component: component, Stage: stage}
}

func TestFoldTelemetrySkipsZeroTallies(t *testing.T) {
	c := newTestCluster(t, 2, nil)
	if got := counters(c); len(got) != 0 {
		t.Fatalf("an idle cluster folded %v, want no counters", got)
	}
	c.Machine(1).NIC().FetchWQEs(0, 2)
	got := counters(c)
	want := map[telemetry.Key]int64{key("m1", "nic", "wqe-fetches"): 2}
	if !maps.Equal(got, want) {
		t.Fatalf("folded %v, want %v", got, want)
	}
}

func TestFoldTelemetryCounterNames(t *testing.T) {
	c := newTestCluster(t, 1, nil)
	nic := c.Machine(0).NIC()
	nic.Doorbell(0, 3, 0)
	nic.FetchWQEs(0, 3)
	nic.GatherDMA(0, 2, 100, 0, nil, 0)
	nic.ScatterDMA(0, 4, 200, 0, nil, 0)
	for i := 0; i < 2; i++ { // a miss, then a hit
		nic.Translate(0, 1)
		nic.TouchQP(7)
		nic.TouchMR(7)
	}
	nic.AddQP(&rnic.RelCounters{
		Segments: 1, Retransmits: 2, AckTimeouts: 3, NaksReceived: 4,
		RetriesExhausted: 5, FlushedWRs: 6, SilentDrops: 7, Reconnects: 8,
	})
	want := map[telemetry.Key]int64{
		key("m0", "nic", "doorbells"):             1,
		key("m0", "nic", "doorbell-wqes"):         3,
		key("m0", "nic", "wqe-fetches"):           3,
		key("m0", "nic", "gather-ops"):            1,
		key("m0", "nic", "gather-frags"):          2,
		key("m0", "nic", "gather-bytes"):          100,
		key("m0", "nic", "scatter-ops"):           1,
		key("m0", "nic", "scatter-frags"):         4,
		key("m0", "nic", "scatter-bytes"):         200,
		key("m0", "nic", "xlate-hits"):            1,
		key("m0", "nic", "xlate-misses"):          1,
		key("m0", "nic", "qp-hits"):               1,
		key("m0", "nic", "qp-misses"):             1,
		key("m0", "nic", "mr-hits"):               1,
		key("m0", "nic", "mr-misses"):             1,
		key("m0", "nic/rel", "segments"):          1,
		key("m0", "nic/rel", "retransmits"):       2,
		key("m0", "nic/rel", "ack-timeouts"):      3,
		key("m0", "nic/rel", "naks"):              4,
		key("m0", "nic/rel", "retries-exhausted"): 5,
		key("m0", "nic/rel", "flushed-wrs"):       6,
		key("m0", "nic/rel", "silent-drops"):      7,
		key("m0", "nic/rel", "reconnects"):        8,
	}
	got := counters(c)
	if len(got) != len(want) {
		t.Errorf("folded %d counters, want %d: %v", len(got), len(want), got)
	}
	for k, v := range want {
		if got[k] != v {
			t.Errorf("%s/%s/%s = %d, want %d", k.Machine, k.Component, k.Stage, got[k], v)
		}
	}
}

// TestFoldTelemetryFabricCounters: the fault tallies are the switch's, not
// any machine's, so they fold under machine "".
func TestFoldTelemetryFabricCounters(t *testing.T) {
	plan := &fabric.FaultPlan{
		Seed: 1, Drop: 0.2, Corrupt: 0.2, DelayP: 0.5, Delay: 1000,
		FlapDown: 1000, FlapPeriod: 10_000,
		Crashes: []fabric.CrashEvent{{Machine: 2, At: 0, Down: 1000}},
	}
	c := newTestCluster(t, 3, func(cfg *Config) { cfg.Faults = plan })
	fab := c.Machine(0).Fabric()
	from, to, down := c.Machine(0).Endpoint(0), c.Machine(1).Endpoint(0), c.Machine(2).Endpoint(0)
	fab.Deliver(0, from, down, 64)
	const segments = 400
	for i := 1; i < segments; i++ {
		fab.Deliver(2000+100*sim.Time(i), from, to, 64)
	}
	got := counters(c)
	if n := got[key("", "fabric", "segments")]; n != segments {
		t.Errorf("fabric segments = %d, want %d", n, segments)
	}
	for _, stage := range []string{"drops", "corrupts", "delays", "flap-drops", "crash-drops"} {
		if got[key("", "fabric", stage)] <= 0 {
			t.Errorf("fabric %s not folded: %v", stage, got)
		}
	}
	for k := range got {
		if k.Machine != "" || k.Component != "fabric" {
			t.Errorf("counter %v: want only fabric counters under machine \"\"", k)
		}
	}
}

// TestQueueTelemetryPerComponent: every queueing resource of a machine
// reports wait and service under its own component. Two equal placements
// at time 0 make the second wait exactly the first's service.
func TestQueueTelemetryPerComponent(t *testing.T) {
	reg := telemetry.NewRegistry()
	c := newTestCluster(t, 2, func(cfg *Config) { cfg.Telemetry = reg })
	m := c.Machine(0)
	if m.Telemetry() != reg {
		t.Fatal("machine must carry the cluster's registry")
	}
	for i := 0; i < 2; i++ {
		m.QPI().Transfer(0, 64)
		m.NIC().PCIeDown().Transfer(0, 64)
		m.NIC().PCIeUp().Transfer(0, 64)
		for p := 0; p < rnic.Ports; p++ {
			m.NIC().Port(p).Exec().Acquire(0, 100)
			m.NIC().Port(p).Atomic().Acquire(0, 100)
			m.Endpoint(p).Tx().Transfer(0, 64)
			m.Endpoint(p).Rx().Transfer(0, 64)
		}
	}
	components := []string{
		"qpi", "nic/pcie-rd", "nic/pcie-wr",
		"nic/port0/exec", "nic/port0/atomic", "nic/port1/exec", "nic/port1/atomic",
		"fab/p0/tx", "fab/p0/rx", "fab/p1/tx", "fab/p1/rx",
	}
	hists := map[telemetry.Key]telemetry.HistEntry{}
	for _, h := range reg.Snapshot().Hists {
		hists[h.Key] = h
	}
	if len(hists) != 2*len(components) {
		t.Errorf("%d histograms, want wait and service for %d components", len(hists), len(components))
	}
	for _, comp := range components {
		wait, service := hists[key("m0", comp, "wait")], hists[key("m0", comp, "service")]
		if wait.Count != 2 || service.Count != 2 {
			t.Errorf("%s: wait/service counts %d/%d, want 2/2", comp, wait.Count, service.Count)
			continue
		}
		if wait.Min != 0 || wait.Max != service.Max || service.Max <= 0 {
			t.Errorf("%s: wait [%d,%d] service max %d, want [0,service]", comp, wait.Min, wait.Max, service.Max)
		}
	}
}

func TestCMBuiltOnFirstUse(t *testing.T) {
	reg := telemetry.NewRegistry()
	c := newTestCluster(t, 1, func(cfg *Config) { cfg.Telemetry = reg })
	m := c.Machine(0)
	if m.cm != nil {
		t.Fatal("CM resource built before first use")
	}
	for _, h := range reg.Snapshot().Hists {
		if h.Component == "cm" {
			t.Fatalf("cm histogram %v before first use", h.Key)
		}
	}
	cm := m.CM()
	if cm != m.CM() {
		t.Fatal("CM must be built once")
	}
	cm.Acquire(0, 2000)
	var found bool
	for _, h := range reg.Snapshot().Hists {
		if h.Key == key("m0", "cm", "service") && h.Count == 1 && h.Max == 2000 {
			found = true
		}
	}
	if !found {
		t.Fatal("CM placement not reported under m0/cm")
	}
	// Without a registry the CM is detached, not broken.
	newTestCluster(t, 1, nil).Machine(0).CM().Acquire(0, 2000)
}

func TestCrashedAt(t *testing.T) {
	plan := &fabric.FaultPlan{Crashes: []fabric.CrashEvent{{Machine: 1, At: 100, Down: 50}}}
	c := newTestCluster(t, 2, func(cfg *Config) { cfg.Faults = plan })
	for _, tc := range []struct {
		machine int
		at      sim.Time
		want    bool
	}{
		{1, 99, false}, {1, 100, true}, {1, 149, true}, {1, 150, false}, {0, 120, false},
	} {
		if got := c.Machine(tc.machine).CrashedAt(tc.at); got != tc.want {
			t.Errorf("m%d.CrashedAt(%d) = %v, want %v", tc.machine, tc.at, got, tc.want)
		}
	}
	if newTestCluster(t, 2, nil).Machine(1).CrashedAt(120) {
		t.Error("a lossless cluster never crashes")
	}
}

func TestNextQPIDUniqueAcrossCluster(t *testing.T) {
	c := newTestCluster(t, 4, nil)
	seen := map[uint64]bool{}
	for i := 0; i < 12; i++ {
		id := c.Machine(i % 3).NextQPID()
		if id != uint64(i+1) || seen[id] {
			t.Fatalf("QP number %d at draw %d: want %d, unique across machines", id, i, i+1)
		}
		seen[id] = true
	}
	if id := newTestCluster(t, 1, nil).Machine(0).NextQPID(); id != 1 {
		t.Fatalf("a new cluster's first QP number is %d, want 1", id)
	}
}

func TestReleaseFailsLaterAccess(t *testing.T) {
	c := newTestCluster(t, 2, nil)
	var regions []*mem.Region
	for i := 0; i < c.Size(); i++ {
		r := c.Machine(i).MustAlloc(1, 4096, 0)
		if _, err := r.Slice(r.Addr(), 8); err != nil {
			t.Fatal(err)
		}
		regions = append(regions, r)
	}
	c.Release()
	for i, r := range regions {
		if _, err := r.Slice(r.Addr(), 8); !errors.Is(err, mem.ErrReleased) {
			t.Errorf("m%d: access after Release = %v, want mem.ErrReleased", i, err)
		}
	}
}
