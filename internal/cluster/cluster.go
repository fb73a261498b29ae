// Package cluster assembles machines — NUMA topology, memory space, RNIC —
// and plugs their ports into a shared fabric. The default configuration is
// the paper's testbed: eight dual-socket machines, one dual-port ConnectX-3
// style NIC each, one 40 Gbps switch.
package cluster

import (
	"fmt"

	"rdmasem/internal/fabric"
	"rdmasem/internal/mem"
	"rdmasem/internal/rnic"
	"rdmasem/internal/sim"
	"rdmasem/internal/telemetry"
	"rdmasem/internal/topo"
)

// Config describes a cluster to build.
type Config struct {
	Machines     int
	PerSocketMem uint64 // bytes of address space per socket
	Topo         topo.Params
	NIC          rnic.Params
	Fabric       fabric.Params
	// Faults optionally attaches a seeded lossy-fabric model (drops,
	// corruption, delay) to the switch. nil — the default — is a lossless
	// fabric and changes nothing. Shorthand for setting Fabric.Faults.
	Faults *fabric.FaultPlan
	// Telemetry optionally attaches a metrics registry. Every queueing
	// resource of the cluster — QPI, PCIe channels, port execution and
	// atomic units, fabric links, per-QP pipelines — then reports wait and
	// service histograms, and the verbs layer reports per-opcode stage
	// histograms. The NIC and fabric counters need no registry attached:
	// FoldTelemetry folds them into one. nil — the default — collects
	// nothing and changes nothing: telemetry is passive, so results are
	// byte-identical either way (the same contract Faults keeps). Registry
	// histograms take no lock: clusters that simulate concurrently need
	// separate registries (forks of one, see telemetry.Registry.Fork), while
	// one cluster's engine shards may share it, because every histogram key
	// names a machine and shards are machine-disjoint.
	Telemetry *telemetry.Registry
	// Timeline optionally records every operation's stage walk as Chrome
	// trace-event spans (one process group per cluster, one thread per QP).
	// Usable with or without Telemetry, and equally passive.
	Timeline *telemetry.Timeline
}

// DefaultConfig returns the paper's eight-machine testbed. Each socket gets
// 48 GB of address space (96 GB per machine), backed lazily.
func DefaultConfig() Config {
	return Config{
		Machines:     8,
		PerSocketMem: 48 << 30,
		Topo:         topo.DefaultParams(),
		NIC:          rnic.DefaultParams(),
		Fabric:       fabric.DefaultParams(),
	}
}

// Machine is one simulated host.
type Machine struct {
	id        int
	topology  *topo.Topology
	space     *mem.Space
	nic       *rnic.NIC
	qpi       *sim.Pipe
	fab       *fabric.Fabric
	endpoints []*fabric.Endpoint // one per NIC port
	qpSeq     *uint64            // cluster-wide QP number allocator
	cm        *sim.Resource      // connection manager (QP modify/reconnect), built on first use
	reg       *telemetry.Registry
	tl        *telemetry.Timeline
	tlPID     int64 // timeline process group shared by the cluster
}

// Cluster is a set of machines sharing one switch.
type Cluster struct {
	cfg      Config
	machines []*Machine
	fab      *fabric.Fabric
	qpSeq    uint64 // last QP number handed out on this cluster
}

// New builds a cluster from the configuration.
func New(cfg Config) (*Cluster, error) {
	if cfg.Machines < 1 {
		return nil, fmt.Errorf("cluster: need at least one machine, got %d", cfg.Machines)
	}
	if cfg.Faults != nil {
		cfg.Fabric.Faults = cfg.Faults
	}
	fab, err := fabric.New(cfg.Fabric)
	if err != nil {
		return nil, err
	}
	c := &Cluster{cfg: cfg, fab: fab}
	var tlPID int64
	if cfg.Timeline != nil {
		tlPID = cfg.Timeline.NewGroup("cluster")
	}
	for i := 0; i < cfg.Machines; i++ {
		t, err := topo.New(cfg.Topo)
		if err != nil {
			return nil, err
		}
		space, err := mem.NewSpace(t.Sockets(), cfg.PerSocketMem)
		if err != nil {
			return nil, err
		}
		nicName := fmt.Sprintf("m%d/nic", i)
		nic, err := rnic.New(nicName, cfg.NIC)
		if err != nil {
			return nil, err
		}
		m := &Machine{
			id:       i,
			topology: t,
			space:    space,
			nic:      nic,
			qpi:      sim.NewPipe(fmt.Sprintf("m%d/qpi", i), cfg.Topo.QPIBandwidth, 0),
			fab:      fab,
			qpSeq:    &c.qpSeq,
			reg:      cfg.Telemetry,
			tl:       cfg.Timeline,
			tlPID:    tlPID,
		}
		for p := 0; p < nic.Ports(); p++ {
			m.endpoints = append(m.endpoints, fab.RegisterAt(fmt.Sprintf("m%d/p%d", i, p), i))
		}
		if cfg.Telemetry != nil {
			m.attachTelemetry(cfg.Telemetry)
		}
		c.machines = append(c.machines, m)
	}
	return c, nil
}

// attachTelemetry hooks every queueing resource of the machine into the
// registry: each reports a wait-time histogram (queueing delay before
// service) and a service-time histogram (occupancy) under its component
// name. The hooks are pure readers of the placements the resources already
// compute, so timing is unchanged.
func (m *Machine) attachTelemetry(reg *telemetry.Registry) {
	label := m.Label()
	m.qpi.Observe(reg.QueueHook(label, "qpi"))
	m.nic.PCIeDown().Observe(reg.QueueHook(label, "nic/pcie-rd"))
	m.nic.PCIeUp().Observe(reg.QueueHook(label, "nic/pcie-wr"))
	for p := 0; p < m.nic.Ports(); p++ {
		m.nic.Port(p).Exec().Observe(reg.QueueHook(label, fmt.Sprintf("nic/port%d/exec", p)))
		m.nic.Port(p).Atomic().Observe(reg.QueueHook(label, fmt.Sprintf("nic/port%d/atomic", p)))
	}
	for p, ep := range m.endpoints {
		ep.Tx().Observe(reg.QueueHook(label, fmt.Sprintf("fab/p%d/tx", p)))
		ep.Rx().Observe(reg.QueueHook(label, fmt.Sprintf("fab/p%d/rx", p)))
	}
}

// FoldTelemetry folds the cluster's accumulated NIC stage counters and the
// fabric's fault tallies into reg as counters (zero-valued tallies are
// skipped to keep summaries compact). Call it when a measurement phase ends;
// the harness folds every cluster it settles into the run's registry, so
// these counters are the one path from the simulation's tallies to a
// report.
func (c *Cluster) FoldTelemetry(reg *telemetry.Registry) {
	for _, m := range c.machines {
		label := m.Label()
		count := func(stage string, v uint64) {
			if v != 0 {
				reg.Count(label, "nic", stage, int64(v))
			}
		}
		sc := m.nic.Counters()
		count("doorbells", sc.Doorbells)
		count("doorbell-wqes", sc.DoorbellWQEs)
		count("wqe-fetches", sc.WQEFetches)
		count("gather-ops", sc.GatherOps)
		count("gather-frags", sc.GatherFrags)
		count("gather-bytes", sc.GatherBytes)
		count("scatter-ops", sc.ScatterOps)
		count("scatter-frags", sc.ScatterFrags)
		count("scatter-bytes", sc.ScatterBytes)
		count("xlate-hits", sc.TranslationHits)
		count("xlate-misses", sc.TranslationMisses)
		count("qp-hits", sc.QPHits)
		count("qp-misses", sc.QPMisses)
		count("mr-hits", sc.MRHits)
		count("mr-misses", sc.MRMisses)
		rel := func(stage string, v uint64) {
			if v != 0 {
				reg.Count(label, "nic/rel", stage, int64(v))
			}
		}
		rel("segments", sc.Rel.Segments)
		rel("retransmits", sc.Rel.Retransmits)
		rel("ack-timeouts", sc.Rel.AckTimeouts)
		rel("naks", sc.Rel.NaksReceived)
		rel("rnr-naks", sc.Rel.RNRNaks)
		rel("retries-exhausted", sc.Rel.RetriesExhausted)
		rel("flushed-wrs", sc.Rel.FlushedWRs)
		rel("silent-drops", sc.Rel.SilentDrops)
		rel("reconnects", sc.Rel.Reconnects)
	}
	fs := c.fab.FaultStats()
	ffold := func(stage string, v uint64) {
		if v != 0 {
			reg.Count("", "fabric", stage, int64(v))
		}
	}
	ffold("segments", fs.Segments)
	ffold("drops", fs.Drops)
	ffold("corrupts", fs.Corrupts)
	ffold("delays", fs.Delays)
	ffold("flap-drops", fs.FlapDrops)
	ffold("crash-drops", fs.CrashDrops)
}

// Release hands back the host memory behind every machine's simulated
// memory (mem.Space.Release). Call it once nothing simulates the cluster any
// more; later accesses to its memory return mem.ErrReleased. A cluster that
// is dropped unreleased gives its memory back when the garbage collector
// finalizes its regions.
func (c *Cluster) Release() {
	for _, m := range c.machines {
		m.space.Release()
	}
}

// Config returns the cluster configuration.
func (c *Cluster) Config() Config { return c.cfg }

// Size returns the number of machines.
func (c *Cluster) Size() int { return len(c.machines) }

// Machine returns machine i.
func (c *Cluster) Machine(i int) *Machine {
	if i < 0 || i >= len(c.machines) {
		panic(fmt.Sprintf("cluster: no machine %d", i))
	}
	return c.machines[i]
}

// Machines returns all machines in id order.
func (c *Cluster) Machines() []*Machine {
	out := make([]*Machine, len(c.machines))
	copy(out, c.machines)
	return out
}

// Fabric returns the shared switch fabric.
func (c *Cluster) Fabric() *fabric.Fabric { return c.fab }

// ID returns the machine's index within its cluster.
func (m *Machine) ID() int { return m.id }

// Label returns the machine's telemetry label, e.g. "m0".
func (m *Machine) Label() string { return fmt.Sprintf("m%d", m.id) }

// Telemetry returns the attached metrics registry, or nil.
func (m *Machine) Telemetry() *telemetry.Registry { return m.reg }

// Timeline returns the attached span recorder, or nil.
func (m *Machine) Timeline() *telemetry.Timeline { return m.tl }

// TimelinePID returns the timeline process group of the machine's cluster
// (meaningful only when Timeline is non-nil).
func (m *Machine) TimelinePID() int64 { return m.tlPID }

// Topology returns the machine's NUMA layout.
func (m *Machine) Topology() *topo.Topology { return m.topology }

// Space returns the machine's memory.
func (m *Machine) Space() *mem.Space { return m.space }

// NIC returns the machine's RNIC.
func (m *Machine) NIC() *rnic.NIC { return m.nic }

// QPI returns the machine's inter-socket interconnect pipe.
func (m *Machine) QPI() *sim.Pipe { return m.qpi }

// Fabric returns the switch the machine's ports are plugged into.
func (m *Machine) Fabric() *fabric.Fabric { return m.fab }

// CM returns the machine's connection-manager resource: the serialized
// driver/firmware path that executes QP state transitions (ibv_modify_qp)
// during connection recovery. It is built on first use — a cluster that
// never reconnects has no CM resource and therefore byte-identical telemetry
// to builds without the recovery layer.
func (m *Machine) CM() *sim.Resource {
	if m.cm == nil {
		m.cm = sim.NewResource(fmt.Sprintf("m%d/cm", m.id))
		m.cm.Observe(m.reg.QueueHook(m.Label(), "cm"))
	}
	return m.cm
}

// CrashedAt reports whether the fault plan has this machine inside a crash
// window at time t (false without a plan).
func (m *Machine) CrashedAt(t sim.Time) bool {
	return m.fab.Params().Faults.MachineDown(m.id, t)
}

// NextQPID hands out the next QP number, unique across the whole cluster.
// The counter lives on the Cluster, not in package state, so concurrent
// simulations of disjoint clusters never share an allocator.
func (m *Machine) NextQPID() uint64 {
	*m.qpSeq++
	return *m.qpSeq
}

// Endpoint returns the fabric endpoint of NIC port p.
func (m *Machine) Endpoint(p int) *fabric.Endpoint {
	if p < 0 || p >= len(m.endpoints) {
		panic(fmt.Sprintf("cluster: machine %d has no port %d", m.id, p))
	}
	return m.endpoints[p]
}

// PortSocket returns the socket a NIC port is affiliated with. Ports are
// bound round-robin to sockets, mirroring the paper's Figure 9 where each
// port of the dual-port NIC serves a distinct socket.
func (m *Machine) PortSocket(p int) topo.SocketID {
	return topo.SocketID(p % m.topology.Sockets())
}

// SocketPort returns the NIC port affiliated with the given socket (the
// inverse of PortSocket for the default dual-socket/dual-port shape).
func (m *Machine) SocketPort(s topo.SocketID) int {
	return int(s) % m.nic.Ports()
}

// Alloc reserves memory on the given socket (page aligned by default).
func (m *Machine) Alloc(s topo.SocketID, size int, align uint64) (*mem.Region, error) {
	return m.space.Alloc(s, size, align)
}

// MustAlloc is Alloc that panics on failure, for test and benchmark setup.
func (m *Machine) MustAlloc(s topo.SocketID, size int, align uint64) *mem.Region {
	r, err := m.Alloc(s, size, align)
	if err != nil {
		panic(err)
	}
	return r
}
