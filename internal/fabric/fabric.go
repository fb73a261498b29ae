// Package fabric models the cluster interconnect: one InfiniScale-style
// switch with full-duplex links to every registered NIC port. Each port has
// independent transmit and receive pipes, so both outcast (a port fanning
// out) and incast (many ports converging on one) contention appear
// naturally.
package fabric

import "rdmasem/internal/sim"

// The interconnect's costs mirror the paper's testbed: 40 Gbps InfiniBand
// links and an 18-port Mellanox InfiniScale-IV switch.
const (
	linkBandwidth              = 5.0e9 // bytes/s per direction per port (40 Gbps)
	propagation   sim.Duration = 60    // cable + SerDes latency, one way
	switchLatency sim.Duration = 30    // cut-through forwarding latency
	frameOverhead              = 30    // per-message wire overhead bytes (LRH+BTH+RETH+ICRC-ish)
)

// Params configures the interconnect: only its optional fault plan varies.
type Params struct {
	Faults *FaultPlan // optional lossy-fabric model; nil = lossless
}

// DefaultParams returns the lossless testbed fabric.
func DefaultParams() Params { return Params{} }

// Validate checks the parameters.
func (p Params) Validate() error { return p.Faults.Validate() }

// Endpoint is one registered switch port (one NIC port plugged into the
// switch).
type Endpoint struct {
	id       int // registration index; keys the fault stream
	machine  int // owning machine for crash windows; -1 = never crashes
	tx       *sim.Pipe
	rx       *sim.Pipe
	faultSeq uint64     // segments offered to the fault model on this link
	faults   FaultStats // this link's share of the fabric tallies (see Fabric.FaultStats)
}

// Tx exposes the endpoint's transmit pipe (telemetry attachment).
func (e *Endpoint) Tx() *sim.Pipe { return e.tx }

// Rx exposes the endpoint's receive pipe.
func (e *Endpoint) Rx() *sim.Pipe { return e.rx }

// Fabric is the switch plus all registered endpoints. All mutable queueing
// and tally state lives on the endpoints, never on the Fabric itself.
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

// RegisterAt plugs a new port into the switch as machine's port, so the
// fault plan's machine-scoped crash windows apply to it, and returns its
// endpoint. Machine -1 means "no machine": crash windows never cover it.
func (f *Fabric) RegisterAt(name string, machine int) *Endpoint {
	e := &Endpoint{
		id:      len(f.endpoints),
		machine: machine,
		tx:      sim.NewPipe(name+"/tx", linkBandwidth, 0),
		rx:      sim.NewPipe(name+"/rx", linkBandwidth, 0),
	}
	f.endpoints = append(f.endpoints, e)
	return e
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
	wire := payload + frameOverhead
	if from == to {
		_, rxEnd := to.rx.Transfer(now+switchLatency, wire)
		return rxEnd
	}
	txStart, _ := from.tx.Transfer(now, wire)
	rxArrival := txStart + propagation + switchLatency
	_, rxEnd := to.rx.Transfer(rxArrival, wire)
	return rxEnd
}
