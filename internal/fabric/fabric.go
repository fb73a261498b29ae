// Package fabric models the cluster interconnect: one InfiniScale-style
// switch with full-duplex links to every registered NIC port. Each port has
// independent transmit and receive pipes, so both outcast (a port fanning
// out) and incast (many ports converging on one) contention appear
// naturally.
package fabric

import (
	"fmt"

	"rdmasem/internal/sim"
)

// Params configures the interconnect. Defaults mirror the paper's testbed:
// 40 Gbps links and an 18-port Mellanox InfiniScale-IV switch.
type Params struct {
	LinkBandwidth float64      // bytes/s per direction per port
	Propagation   sim.Duration // cable + SerDes latency, one way
	SwitchLatency sim.Duration // cut-through forwarding latency
	FrameOverhead int          // per-message wire overhead bytes (headers/CRC)
	Faults        *FaultPlan   // optional lossy-fabric model; nil = lossless
}

// DefaultParams returns the 40 Gbps InfiniBand calibration.
func DefaultParams() Params {
	return Params{
		LinkBandwidth: 5.0e9, // 40 Gbps
		Propagation:   60,
		SwitchLatency: 30,
		FrameOverhead: 30, // LRH+BTH+RETH+ICRC-ish
	}
}

// Validate checks the parameters.
func (p Params) Validate() error {
	if p.LinkBandwidth <= 0 {
		return fmt.Errorf("fabric: link bandwidth must be positive")
	}
	if p.FrameOverhead < 0 {
		return fmt.Errorf("fabric: frame overhead must be nonnegative")
	}
	return p.Faults.Validate()
}

// Endpoint is one registered switch port (one NIC port plugged into the
// switch).
type Endpoint struct {
	name     string
	id       int // registration index; keys the fault stream
	machine  int // owning machine for crash windows; -1 = never crashes
	tx       *sim.Pipe
	rx       *sim.Pipe
	faultSeq uint64     // segments offered to the fault model on this link
	faults   FaultStats // this link's share of the fabric tallies (see Fabric.FaultStats)
	inbox    inbox      // merge witness for traffic landing on this port
}

// inbox orders the segments landing on an endpoint's receive link. Every
// delivery is merged in (arrival virtual time, source port, sequence) order
// — the order the rx pipe sees — and folded into a running hash. The hash
// is a pure observer: it never feeds back into timing, but it pins the
// fabric-boundary merge order bit-for-bit, so the determinism suite can
// assert that the sharded kernel reproduces the exact same cross-machine
// delivery sequence at every worker count.
type inbox struct {
	seq  uint64 // deliveries merged into this endpoint
	hash uint64 // word-wide FNV-style fold over (arrival, source, seq)
}

const fnvOffset64 = 14695981039346656037
const fnvPrime64 = 1099511628211

// merge folds one delivery into the witness: one xor-multiply step per
// word, not per byte. The witness only has to tell merge orders apart, so
// the byte-wise avalanche of FNV-1a buys nothing here.
func (in *inbox) merge(arrival sim.Time, src int) {
	in.seq++
	h := in.hash
	if h == 0 {
		h = fnvOffset64
	}
	h = (h ^ uint64(arrival)) * fnvPrime64
	h = (h ^ uint64(src)) * fnvPrime64
	h = (h ^ in.seq) * fnvPrime64
	in.hash = h
}

// Deliveries reports how many segments have been merged into this endpoint's
// inbox.
func (e *Endpoint) Deliveries() uint64 { return e.inbox.seq }

// MergeHash reports the running order-witness hash of the endpoint's inbox:
// identical traffic merged in identical (arrival, source, sequence) order
// yields an identical hash. The determinism tests compare it across kernel
// worker counts.
func (e *Endpoint) MergeHash() uint64 { return e.inbox.hash }

// Name returns the endpoint's diagnostic name.
func (e *Endpoint) Name() string { return e.name }

// Tx exposes the endpoint's transmit pipe (telemetry attachment and
// utilization reporting).
func (e *Endpoint) Tx() *sim.Pipe { return e.tx }

// Rx exposes the endpoint's receive pipe.
func (e *Endpoint) Rx() *sim.Pipe { return e.rx }

// TxUtilization reports the transmit-link busy fraction over the horizon.
func (e *Endpoint) TxUtilization(horizon sim.Time) float64 { return e.tx.Utilization(horizon) }

// RxUtilization reports the receive-link busy fraction over the horizon.
func (e *Endpoint) RxUtilization(horizon sim.Time) float64 { return e.rx.Utilization(horizon) }

// Fabric is the switch plus all registered endpoints. All mutable queueing
// and tally state lives on the endpoints, never on the Fabric itself, so
// kernel shards that own disjoint machine sets share the switch without
// sharing any mutable word — the invariant the sharded event kernel's
// determinism (and the race detector) relies on.
type Fabric struct {
	params    Params
	endpoints []*Endpoint
}

// New creates an empty fabric.
func New(p Params) (*Fabric, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	return &Fabric{params: p}, nil
}

// Params returns the fabric configuration.
func (f *Fabric) Params() Params { return f.params }

// Register plugs a new port into the switch and returns its endpoint. The
// port belongs to no machine: crash windows never cover it.
func (f *Fabric) Register(name string) *Endpoint {
	return f.RegisterAt(name, -1)
}

// RegisterAt plugs a new port into the switch as machine's port, so the
// fault plan's machine-scoped crash windows apply to it. Machine -1 means
// "no machine" (Register's behavior).
func (f *Fabric) RegisterAt(name string, machine int) *Endpoint {
	e := &Endpoint{
		name:    name,
		id:      len(f.endpoints),
		machine: machine,
		tx:      sim.NewPipe(name+"/tx", f.params.LinkBandwidth, 0),
		rx:      sim.NewPipe(name+"/rx", f.params.LinkBandwidth, 0),
	}
	f.endpoints = append(f.endpoints, e)
	return e
}

// Endpoints returns all registered endpoints in registration order.
func (f *Fabric) Endpoints() []*Endpoint {
	out := make([]*Endpoint, len(f.endpoints))
	copy(out, f.endpoints)
	return out
}

// Send moves one message of size payload bytes from one endpoint to another,
// returning the time the last byte lands in the destination NIC. The path
// is: serialize on the sender's tx link, cross the switch, contend on the
// receiver's rx link. Sending to the local endpoint is a loopback: it skips
// the tx link and the propagation delay but still pays switch latency and
// serializes the framed message on the port's rx pipe — self-partition
// traffic is not free and contends with genuine inbound traffic.
func (f *Fabric) Send(now sim.Time, from, to *Endpoint, payload int) sim.Time {
	if from == nil || to == nil {
		panic("fabric: nil endpoint")
	}
	if payload < 0 {
		panic("fabric: negative payload")
	}
	wire := payload + f.params.FrameOverhead
	if from == to {
		arrival := now + f.params.SwitchLatency
		to.inbox.merge(arrival, from.id)
		_, rxEnd := to.rx.Transfer(arrival, wire)
		return rxEnd
	}
	txStart, _ := from.tx.Transfer(now, wire)
	rxArrival := txStart + f.params.Propagation + f.params.SwitchLatency
	to.inbox.merge(rxArrival, from.id)
	_, rxEnd := to.rx.Transfer(rxArrival, wire)
	return rxEnd
}
