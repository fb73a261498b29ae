package proxy

import (
	"fmt"

	"rdmasem/internal/sim"
	"rdmasem/internal/topo"
	"rdmasem/internal/verbs"
)

// Daemon is the per-node proxy process in front of a connection table: the
// one entity on the machine that owns the pooled QPs and (for small
// payloads) the memory registrations. Clients never post on the NIC
// themselves — they hand each request to the daemon over shared-memory
// queues, paying one IPC round trip plus a staging copy, and in exchange the
// NIC's metadata working set stays bounded by the daemon's pool no matter
// how many client endpoints exist on the node.
//
// It generalizes the per-socket proxy hop of internal/core/numa.go to
// per-node scope, and charges the same physics: HopCost for the request
// push / result pull, topo.Params.MemcpyTime for the staging copy, and a
// sim.Resource for the daemon's serving core so a hot daemon serializes and
// its queueing is visible to telemetry (component "proxyd/ipc").
type Daemon struct {
	table   *Table
	ipc     *sim.Resource
	hopHalf sim.Duration
	bounce  *verbs.MR
	tp      topo.Params

	// standby failover (see SetStandby / FailAt): when the daemon process is
	// modeled as dead, requests redirect to the standby daemon on the same
	// table; the first request to find the primary unresponsive pays the
	// detection timeout.
	standby   *Daemon
	failAt    sim.Time
	armed     bool
	detected  bool
	failovers uint64

	scratch verbs.SendWR
	sgl     [1]verbs.SGE
}

// FailoverTimeout is the modeled detection latency of a dead proxy daemon:
// how long the first client request waits on the primary's shared-memory
// queue before concluding the process is gone and re-enqueueing on the
// standby. Subsequent requests go straight to the standby.
const FailoverTimeout = 10 * sim.Microsecond

// NewDaemon starts a proxy daemon in front of the given table. The daemon's
// serving queue and bounce buffer live on the table's local machine, pinned
// to the pooled QPs' port socket so staged gathers never cross the
// interconnect. If the machine has telemetry attached, the daemon's IPC
// queue reports wait/service histograms like any other modelled resource.
func NewDaemon(table *Table) (*Daemon, error) {
	if table == nil {
		return nil, fmt.Errorf("proxy: nil table")
	}
	local, _ := table.Machines()
	ctx := table.pool[0].Context()
	sock := table.pool[0].PortSocket()
	region, err := local.Alloc(sock, MaxPayload, 0)
	if err != nil {
		return nil, err
	}
	bounce, err := ctx.RegisterMR(region)
	if err != nil {
		return nil, err
	}
	tp := local.Topology()
	d := &Daemon{
		table:   table,
		ipc:     sim.NewResource(local.Label() + "/proxyd"),
		hopHalf: HopCost(tp) / 2,
		bounce:  bounce,
		tp:      tp,
	}
	d.ipc.Observe(local.Telemetry().QueueHook(local.Label(), "proxyd/ipc"))
	return d, nil
}

// SetStandby registers a standby daemon that takes over when this one is
// modeled as dead (FailAt). Both daemons must front the same connection
// table: the table — pooled QPs, connection pinning, recovery bookkeeping —
// is the durable entity; the daemons are interchangeable serving processes.
func (d *Daemon) SetStandby(s *Daemon) error {
	if s == nil || s == d {
		return fmt.Errorf("proxy: standby must be a distinct daemon")
	}
	if s.table != d.table {
		return fmt.Errorf("proxy: standby daemon must serve the same table")
	}
	d.standby = s
	return nil
}

// FailAt marks the daemon process dead from the given virtual time on:
// every Post at or after it redirects to the standby (the first one paying
// FailoverTimeout for detection), or fails outright if none is registered.
func (d *Daemon) FailAt(t sim.Time) { d.failAt, d.armed = t, true }

// Failovers reports how many requests were redirected to the standby.
func (d *Daemon) Failovers() uint64 { return d.failovers }

// Post hands one logical connection's work request to the daemon and waits
// for the result. The timeline it charges:
//
//	now --half hop--> daemon dequeues --serve (copy/validate)--> NIC post
//	                                 ... completion ... --half hop--> client
//
// The daemon's serving core is a sim.Resource, so concurrent clients queue.
// SEND and WRITE payloads up to MaxPayload ride the request message into the
// daemon's bounce MR (the copy is charged as a cross-interconnect memcpy and
// the posted SGL points at daemon-owned memory — the NIC never sees a
// per-client registration); larger payloads keep the caller's SGL.
//
// The caller's WR is not mutated; staged posts build a private copy.
func (d *Daemon) Post(now sim.Time, conn int, wr *verbs.SendWR) (verbs.Completion, error) {
	if wr == nil {
		return verbs.Completion{}, verbs.ErrNilWR
	}
	if d.armed && now >= d.failAt {
		if d.standby == nil {
			return verbs.Completion{}, fmt.Errorf("proxy: daemon dead at %v with no standby", now)
		}
		at := now
		if !d.detected {
			d.detected = true
			at += FailoverTimeout
		}
		d.failovers++
		return d.standby.Post(at, conn, wr)
	}
	svc := topo.AtomicBounce // dequeue + validate: one shared line touched
	post := wr
	if wr.Opcode == verbs.OpSend || wr.Opcode == verbs.OpWrite {
		if total, ok := Stage(d.bounce, wr.SGL); ok {
			svc += d.tp.MemcpyTime(total, true)
			d.scratch = *wr
			d.sgl[0] = verbs.SGE{Addr: d.bounce.Addr(), Length: total, MR: d.bounce}
			d.scratch.SGL = d.sgl[:]
			post = &d.scratch
		}
	}
	start := d.ipc.Delay(now+d.hopHalf, svc)
	comp, err := d.table.Post(start, conn, post)
	if err != nil && comp.Status == verbs.StatusOK {
		return comp, err
	}
	comp.Done += d.hopHalf
	return comp, err
}

// Stage copies the SGL's payload into a bounce MR if it fits one proxy
// message (MaxPayload), returning the total length. The copy happens at call
// time (virtual time only orders it); a payload that does not fit is left to
// the NIC to gather from the client's own MR. Both proxy hops stage this
// way: the per-node daemon and the per-socket hop of internal/core.
func Stage(bounce *verbs.MR, sgl []verbs.SGE) (int, bool) {
	total := 0
	for _, s := range sgl {
		total += s.Length
	}
	if total > MaxPayload {
		return 0, false
	}
	dst := bounce.Region().Bytes()
	off := 0
	for _, s := range sgl {
		src, err := s.MR.Region().Slice(s.Addr, s.Length)
		if err != nil {
			return 0, false
		}
		copy(dst[off:], src)
		off += s.Length
	}
	return total, true
}
