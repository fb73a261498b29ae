package cluster

import (
	"testing"

	"rdmasem/internal/fabric"
	"rdmasem/internal/rnic"
)

func TestDefaultConfigBuildsPaperTestbed(t *testing.T) {
	c, err := New(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if c.Size() != 8 {
		t.Fatalf("machines=%d, want 8", c.Size())
	}
	// 16 ports total on the switch, one distinct endpoint per machine port.
	seen := map[*fabric.Endpoint]bool{}
	for i := 0; i < c.Size(); i++ {
		for p := 0; p < rnic.Ports; p++ {
			seen[c.Machine(i).Endpoint(p)] = true
		}
	}
	if got := len(seen); got != 16 {
		t.Fatalf("endpoints=%d, want 16", got)
	}
}

func TestNewRejectsEmptyCluster(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Machines = 0
	if _, err := New(cfg); err == nil {
		t.Fatal("expected error")
	}
}

func TestNewPropagatesBadSubConfigs(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Fabric.Faults = &fabric.FaultPlan{Drop: 1.5}
	if _, err := New(cfg); err == nil {
		t.Fatal("expected fabric validation error")
	}
	cfg = DefaultConfig()
	cfg.PerSocketMem = 17 // not page aligned
	if _, err := New(cfg); err == nil {
		t.Fatal("expected memory validation error")
	}
}

// TestNewRejectsNegativeTiming: a negative timing parameter in any layer is
// an error from New, not a run that completes ops at shifted times.
func TestNewRejectsNegativeTiming(t *testing.T) {
	cases := []struct {
		name   string
		mutate func(*Config)
		want   string
	}{
		{"mmio cost", func(c *Config) { c.NIC.MMIOCost = -1 }, "rnic: MMIOCost must be nonnegative"},
		{"qpi latency", func(c *Config) { c.Topo.QPILatency = -35 }, "topo: QPILatency must be nonnegative, got -35"},
	}
	for _, c := range cases {
		cfg := DefaultConfig()
		c.mutate(&cfg)
		if _, err := New(cfg); err == nil || err.Error() != c.want {
			t.Errorf("%s: New() error = %v, want %q", c.name, err, c.want)
		}
	}
}

func TestPortSocketBinding(t *testing.T) {
	c, err := New(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	m := c.Machine(0)
	if m.PortSocket(0) != 0 || m.PortSocket(1) != 1 {
		t.Fatal("ports must bind round-robin to sockets (Fig 9)")
	}
	if m.SocketPort(0) != 0 || m.SocketPort(1) != 1 {
		t.Fatal("SocketPort must invert PortSocket")
	}
}

func TestMachineAccessorsAndPanics(t *testing.T) {
	c, err := New(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if c.Machine(3).Label() != "m3" {
		t.Fatal("machine label mismatch")
	}
	if c.Size() != 8 {
		t.Fatal("cluster size")
	}
	if c.Machine(0).Fabric() != c.Machine(7).Fabric() {
		t.Fatal("machine must reference the shared fabric")
	}
	for _, fn := range []func(){
		func() { c.Machine(99) },
		func() { c.Machine(0).Endpoint(5) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected panic")
				}
			}()
			fn()
		}()
	}
}

func TestAllocRoutesToSocket(t *testing.T) {
	c, err := New(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	m := c.Machine(1)
	r0 := m.MustAlloc(0, 4096, 0)
	r1 := m.MustAlloc(1, 4096, 0)
	if r0.Socket() != 0 || r1.Socket() != 1 {
		t.Fatal("allocation socket mismatch")
	}
	if _, err := m.Alloc(9, 64, 0); err == nil {
		t.Fatal("expected bad-socket error")
	}
}
