// The op-pipeline engine: the one implementation of the requester/responder
// stage walk every verb takes (paper Sections III-A..III-E) —
//
//	doorbell MMIO -> WQE fetch -> gather DMA -> QP pipeline ->
//	execution unit -> wire -> responder -> CQE
//
// RC and UD queue pairs both post through postList/executeOne below; the
// transport only selects branch points inside the walk (which metadata is
// touched, how the pipeline stage is priced, when the requester considers
// the operation complete). RC hands the wire -> responder -> ACK phase to
// the reliability engine (reliability.go) on every fabric; a lossless
// fabric is its no-loss case, not a second copy of the walk. One
// stage recorder per QP (metrics.go) consumes the walk and fans each stage
// span out to the histograms and the timeline; neither forks the timing
// code.
package verbs

import (
	"encoding/binary"
	"fmt"

	"rdmasem/internal/cluster"
	"rdmasem/internal/fabric"
	"rdmasem/internal/rnic"
	"rdmasem/internal/sim"
	"rdmasem/internal/topo"
)

// qpRoute is everything the stage walk needs from a QP's machine and port,
// resolved once: a real RNIC binds this state when the QP is created and
// caches it, rather than looking it up on every doorbell. NewContext
// resolves one route per port, and every QP of that (Context, port) shares
// it by pointer, together with the walk's payload staging (routeScratch).
type qpRoute struct {
	ctx        *Context // the owning context, read by every QP of the port
	machine    *cluster.Machine
	nic        *rnic.NIC
	port       *rnic.Port
	fab        *fabric.Fabric
	ep         *fabric.Endpoint // the port's fabric endpoint
	qpi        *sim.Pipe
	qpiLatency sim.Duration
	socket     topo.SocketID // the port's socket
	scratch    routeScratch
}

// newRoute resolves the route of one NIC port of ctx's machine.
func newRoute(ctx *Context, port int) *qpRoute {
	m := ctx.machine
	return &qpRoute{
		ctx:        ctx,
		machine:    m,
		nic:        m.NIC(),
		port:       m.NIC().Port(port),
		fab:        m.Fabric(),
		ep:         m.Endpoint(port),
		qpi:        m.QPI(),
		qpiLatency: m.Topology().QPILatency,
		socket:     m.PortSocket(port),
	}
}

// qpState is the queue-pair state shared by connected (QP) and datagram
// (UDQP) queue pairs: identity, port/core binding and the stage recorder.
// Each side of a connection uses only one half of a QP, so the halves are
// separate objects made on first use: the send side (qpSend) on the first
// post, the receive side (qpRecv) on the first receive. The owning Context
// is the route's, the walk's payload staging belongs to the route too, and
// the reliability state (qpRel) exists once something writes it.
type qpState struct {
	route *qpRoute       // the port's context and machine resources; the walk reads nothing else
	send  *qpSend        // pipeline, CQE clamp and list completions; nil until first used (see sender)
	recv  *qpRecv        // receive queue and CQ, nil until first used (see receiver)
	srq   *SRQ           // shared receive queue; inbound SENDs drain it instead of recv.q
	rec   *stageRecorder // the stage walk's one consumer, else nil (no telemetry, no trace)
	rel   *qpRel         // reliability state, nil until first written (see reliability)

	// The header word: the QP number and the one-byte fields.
	id        uint32 // QP number, at most MaxQPN (24 bits on the wire)
	transport Transport
	core      uint8 // socket of the posting core (a topo.SocketID)
	state     State // READY until reliability retries exhaust (or ForceError)
	flags     qpFlags
}

// qpFlags are the fault-plan facts, read once at construction so the hot
// path pays one bit test each. qpLossy decides the only two points where
// the reliability engine's no-loss case differs from a quiet plan: PathMTU
// segmentation and the reliability tallies.
type qpFlags uint8

const (
	qpLossy     qpFlags = 1 << iota // a fault plan is attached to the fabric
	qpCrashable                     // the fault plan has crash windows: check at post
)

// lossy reports whether the QP's fabric has a fault plan attached.
func (s *qpState) lossy() bool { return s.flags&qpLossy != 0 }

// qpSend is a QP's send side: what only a posting QP touches.
type qpSend struct {
	pipeline sim.Resource // per-QP processing pipeline (Fig 1's 4.7 MOPS)
	lastCQE  sim.Time     // in-order clamp: the latest send CQE time so far

	// The completions of the last doorbell list, made on the first
	// PostSendList: a single-WR post completes into its caller's stack, so
	// a QP that never posts a list holds no buffer. Aliasing contract:
	// PostSendList hands them to its caller, and they stay valid only until
	// the next post on the same QP; callers that retain completions across
	// posts must copy them.
	comps *[]Completion
}

// sender returns the QP's send side, creating it on first use. It stays
// small enough to inline into every post.
func (s *qpState) sender() *qpSend {
	if s.send == nil {
		s.send = s.newSender()
	}
	return s.send
}

// newSender makes the QP's send side. Its pipeline reports to the machine's
// registry, if any; a QP with a telemetry sink makes its send side at
// construction, so the pipeline's histograms exist whether or not the QP
// posts.
func (s *qpState) newSender() *qpSend {
	name := "qp/pipeline"
	if s.transport == UD {
		name = "udqp/pipeline"
	}
	snd := &qpSend{pipeline: *sim.NewResource(name)}
	if reg := s.route.machine.Telemetry(); reg != nil {
		snd.pipeline.Observe(reg.QueueHook(s.route.machine.Label(), name))
	}
	return snd
}

// qpRecv is a QP's receive side: its own receive queue and the CQ its
// inbound SENDs complete on. A QP that only posts never needs either, so a
// QP carries none until the first PostRecv, the first SEND or datagram that
// lands on it, or the first RecvCQ call (see receiver).
type qpRecv struct {
	cq CQ
	q  recvQueue
}

// receiver returns the QP's receive side, creating it on first use.
func (s *qpState) receiver() *qpRecv {
	if s.recv == nil {
		s.recv = &qpRecv{}
	}
	return s.recv
}

// qpRel is a QP's reliability state: its knobs, its tally, and what
// connection recovery remembers (see recovery.go). On a lossless fabric all
// of it is inert or zero, so a QP there carries none until something writes
// it: SetRetryPolicy, a flush, a successful Reconnect or PostReplay. A QP on
// a lossy fabric gets one at construction.
type qpRel struct {
	policy        RetryPolicy      // reliability knobs
	stats         rnic.RelCounters // reliability tally, registered with the NIC
	replay        replaySeed       // transient: what the WR PostReplay reposts already did
	failedApplied bool             // the last failed WR had executed at the responder
}

// replaySeed is what a replayed WR carries over from its failure: whether
// the responder had executed it, and the atomic old value it returned then.
type replaySeed struct {
	applied bool
	old     uint64
}

// reliability returns the QP's reliability state, creating it on first use.
// Creating it registers its tally with the NIC, which sums it into
// Counters().Rel; a QP that never writes one registers nothing.
func (s *qpState) reliability() *qpRel {
	if s.rel == nil {
		s.rel = &qpRel{policy: DefaultRetryPolicy()}
		s.route.nic.AddQP(&s.rel.stats)
	}
	return s.rel
}

// routeScratch is the stage walk's payload staging, one buffer per route.
// The simulation kernel posts one WR at a time per cluster, and no walk
// posts again before it returns, so the buffer is free at the start of a
// walk. Within one walk only the responder stages data movement in it
// (apply{Write,Read,Send}), even when requester and responder share a route
// (a loopback pair). It never reaches a caller.
type routeScratch struct {
	payload []byte
}

// bytes returns a reusable byte slice of length n (contents undefined).
func (s *routeScratch) bytes(n int) []byte {
	if cap(s.payload) < n {
		s.payload = make([]byte, n)
	}
	return s.payload[:n]
}

// crossSGEs counts the SGL's buffers that live on a socket other than the
// route's port: each adds an interconnect hop to the gather or scatter DMA.
func (r *qpRoute) crossSGEs(sgl []SGE) int {
	n := 0
	for _, s := range sgl {
		if s.MR.region.Socket() != r.socket {
			n++
		}
	}
	return n
}

// newQPState initialises the shared queue-pair state, drawing the QP number
// from the machine's cluster-wide allocator; past MaxQPN it fails with
// ErrQPNExhausted. The QP's kind names it in telemetry ("qp" or "udqp").
func newQPState(ctx *Context, t Transport, port int) (qpState, error) {
	kind := "qp"
	if t == UD {
		kind = "udqp"
	}
	id := ctx.machine.NextQPID()
	if id > MaxQPN {
		return qpState{}, fmt.Errorf("%w: QP number %d on %s", ErrQPNExhausted, id, ctx.machine.Label())
	}
	r := ctx.routes[port]
	s := qpState{
		id:        uint32(id),
		route:     r,
		transport: t,
		core:      uint8(r.socket),
	}
	if r.fab.FaultsEnabled() {
		s.flags |= qpLossy
		s.reliability()
	}
	if r.fab.Params().Faults.HasCrashes() {
		s.flags |= qpCrashable
	}
	if reg, tl := ctx.machine.Telemetry(), ctx.machine.Timeline(); reg != nil || tl != nil {
		label := ctx.machine.Label()
		s.rec = newStageRecorder(reg, tl, label, ctx.machine.TimelinePID(), id, kind)
		s.sender()
	}
	return s, nil
}

// observe hands a stage transition to the stage recorder, if any.
func (s *qpState) observe(st Stage, at sim.Time) {
	if s.rec != nil {
		s.rec.stage(st, at)
	}
}

// recBegin opens the recorder's bracket for one WR (no-op without one).
func (s *qpState) recBegin(op Opcode, at sim.Time) {
	if s.rec != nil {
		s.rec.begin(op, at)
	}
}

// recEnd closes the recorder's bracket at the WR's completion time.
func (s *qpState) recEnd(at sim.Time) {
	if s.rec != nil {
		s.rec.end(at)
	}
}

// ID returns the QP number.
func (s *qpState) ID() uint64 { return uint64(s.id) }

// Context returns the owning context.
func (s *qpState) Context() *Context { return s.route.ctx }

// PortSocket returns the socket affiliated with the QP's port.
func (s *qpState) PortSocket() topo.SocketID { return s.route.socket }

// Core returns the socket of the posting core.
func (s *qpState) Core() topo.SocketID { return topo.SocketID(s.core) }

// BindCore pins the posting core to a socket (NUMA experiments). The QP
// stores the socket in one byte.
func (s *qpState) BindCore(sock topo.SocketID) {
	if sock < 0 || sock > 255 {
		panic(fmt.Sprintf("verbs: socket %d out of range", sock))
	}
	s.core = uint8(sock)
}

// RecvCQ returns the receive completion queue, creating the QP's receive
// side if it has none yet.
func (s *qpState) RecvCQ() *CQ { return &s.receiver().cq }

// PostRecv posts a receive buffer for incoming SEND/datagram traffic. On an
// SRQ-attached QP receives must be posted to the SRQ instead.
func (s *qpState) PostRecv(wr RecvWR) error {
	if s.srq != nil {
		return fmt.Errorf("%w: QP %d drains an SRQ; post receives there", ErrBadSGL, s.id)
	}
	if wr.SGE.MR == nil || wr.SGE.MR.ctx != s.route.ctx {
		return fmt.Errorf("%w: receive buffer must be a local MR", ErrBadSGL)
	}
	if err := wr.SGE.MR.contains(wr.SGE.Addr, wr.SGE.Length); err != nil {
		return err
	}
	s.receiver().q.push(wr)
	return nil
}

// remoteSpan is the number of remote bytes the WR touches.
func remoteSpan(wr *SendWR) int {
	if wr.Opcode == OpCompSwap || wr.Opcode == OpFetchAdd {
		return 8
	}
	return wr.TotalLength()
}

// postList walks an already-validated doorbell list through the pipeline:
// one MMIO for the whole batch (Kalia et al.'s Doorbell mechanism, Section
// III-A), then each WR proceeds as an independent network operation against
// dst. It appends the completions to comps, which the caller hands in with
// length 0, and returns the result. On a mid-list error the completions of
// the WRs that fully executed — the completed prefix — are returned
// alongside the error; the failed WR and everything after it have no data
// effects and no CQEs.
//
// The returned dropped flag reports a UD datagram discarded on the wire or
// because the receiver had no posted buffer (a UD list is the one datagram
// UDQP.Send posts); it is always false for connected transports, which
// surface that condition as ErrRNR instead.
//
// A QP in the error state — entered when the reliability layer exhausts a
// retry budget, or via ForceError — executes nothing: every WR is flushed
// with a StatusFlushed completion and the post returns ErrQPError. A WR
// whose retries exhaust mid-list completes with its error status and the
// remainder of the list flushes behind it.
func postList(src, dst *qpState, now sim.Time, wrs []*SendWR, comps []Completion) ([]Completion, bool, error) {
	if src.flags&qpCrashable != 0 && src.state != StateError && src.route.machine.CrashedAt(now) {
		// The posting machine is inside a crash window: its HCA is gone and
		// every QP it owns is broken. The first post during the outage
		// surfaces the crash as an error-state flush.
		src.state = StateError
	}
	src.sender()
	if src.state == StateError {
		for _, wr := range wrs {
			comps = append(comps, flushWR(src, now, wr))
		}
		return comps, false, ErrQPError
	}
	nic := src.route.nic
	// A UD datagram rides inside its WQE (UDQP.Send caps it at MaxInline),
	// so the doorbell's MMIO carries it and there is nothing to fetch.
	// Connected QPs never post inline: they fetch the whole doorbell list.
	ud := src.transport == UD
	inlineBytes := 0
	if ud {
		inlineBytes = wrs[0].TotalLength()
	}
	// The first WR of the list owns the list-shared stages (doorbell MMIO,
	// batched WQE fetch) in the stage decomposition; later WRs open their
	// bracket at the per-WR loop below.
	src.recBegin(wrs[0].Opcode, now)
	t := nic.Doorbell(now, len(wrs), inlineBytes)
	src.observe(StagePosted, t)
	if !ud {
		t = nic.FetchWQEs(t, len(wrs))
		src.observe(StageWQEFetched, t)
	}

	dropped := false
	for i, wr := range wrs {
		if i > 0 {
			src.recBegin(wr.Opcode, t)
		}
		c, d, err := executeOne(src, dst, t, wr)
		if err != nil {
			return comps, false, err
		}
		src.recEnd(c.Done)
		comps = append(comps, c)
		dropped = d
		if src.state == StateError {
			// The reliability layer gave up on this WR: flush the rest of
			// the doorbell list at the error completion's time.
			for _, rest := range wrs[i+1:] {
				comps = append(comps, flushWR(src, c.Done, rest))
			}
			return comps, false, ErrQPError
		}
	}
	return comps, dropped, nil
}

// signal delivers a signaled send completion. Hardware makes CQEs visible in
// order within a queue, so the completion's time is clamped to be no earlier
// than the QP's previous CQE. In a synchronous simulator the returned
// completion is the poll: nothing is queued, and only the clamp is kept.
// Only a post signals, and postList has made the send side by then.
func (s *qpState) signal(c Completion) Completion {
	if c.Done < s.send.lastCQE {
		c.Done = s.send.lastCQE
	}
	s.send.lastCQE = c.Done
	return c
}

// flushWR completes one WR with StatusFlushed (no wire, no data effects) on
// a QP in the error state. Flushed completions are always signaled, as on
// real hardware, so pollers observe the drain.
func flushWR(src *qpState, at sim.Time, wr *SendWR) Completion {
	rel := src.reliability()
	rel.stats.FlushedWRs++
	// A flushed WR never reached the responder — unless it is itself a
	// replayed applied failure flushed by a second connection loss.
	rel.failedApplied = rel.replay.applied
	return src.signal(Completion{WRID: wr.ID, Opcode: wr.Opcode, Done: at, Status: StatusFlushed})
}

// executeOne walks one WR (already doorbelled at time t) through the
// requester NIC, the wire, and the responder, applying its data effects and
// returning the completion. The dropped flag is only ever true for UD.
func executeOne(src, dst *qpState, t sim.Time, wr *SendWR) (Completion, bool, error) {
	r := src.route
	nic := r.nic
	total := wr.TotalLength()
	ud := src.transport == UD

	// Requester-side metadata: QP context, per-SGE MR records + translations.
	// A UD WQE carries its payload inline and so no lkey references.
	meta := nic.TouchQP(uint64(src.id))
	if !ud {
		for _, s := range wr.SGL {
			meta = meta.Add(nic.TouchMR(s.MR.id))
			meta = meta.Add(nic.Translate(s.Addr, s.Length))
		}
	}

	// Posting-core NUMA penalty: MMIO and CQE polling cross QPI when the
	// core is not on the port's socket (Table III's "alt core" rows). For
	// connected transports the crossing also serializes in the chipset,
	// inflating the per-QP pipeline occupancy; UD's connectionless doorbell
	// only pays the wire-visible latency.
	var numaSvc sim.Duration
	if src.Core() != r.socket {
		t += 4 * r.qpiLatency
		if !ud {
			numaSvc += 2 * r.qpiLatency
		}
	}

	// Payload gather (skipped for UD's inline datagrams and for verbs with
	// no outbound payload).
	if !ud && (wr.Opcode == OpWrite || wr.Opcode == OpSend) {
		cross := r.crossSGEs(wr.SGL)
		if cross > 0 {
			numaSvc += r.qpiLatency
		}
		t = nic.GatherDMA(t, len(wr.SGL), total, cross, r.qpi, r.qpiLatency)
		src.observe(StageGathered, t)
	}

	// Per-QP pipeline, then the port execution unit (with metadata-induced
	// service inflation). UD keeps no connection state, so its pipeline
	// stage is cheaper than the connected transports'.
	var qpSvc, exSvc sim.Duration
	switch {
	case ud:
		qpSvc, exSvc = rnic.QPWrite*3/4, rnic.ExecSend
	case wr.Opcode == OpWrite:
		qpSvc, exSvc = rnic.QPWrite, rnic.ExecWrite
	case wr.Opcode == OpRead:
		qpSvc, exSvc = rnic.QPRead, rnic.ExecRead
	case wr.Opcode == OpSend:
		qpSvc, exSvc = rnic.QPWrite, rnic.ExecSend
	default: // atomics share the read-style request pipeline
		qpSvc, exSvc = rnic.QPWrite, rnic.ExecRead
	}
	t = src.send.pipeline.Delay(t+meta.Latency, qpSvc+numaSvc)
	src.observe(StagePipelined, t)
	t = r.port.Execute(t, exSvc, meta.Service)
	src.observe(StageExecuted, t)

	// Request bytes on the wire to the responder.
	outbound := 0
	switch wr.Opcode {
	case OpWrite, OpSend:
		outbound = total
	case OpCompSwap:
		outbound = 16
	case OpFetchAdd:
		outbound = 8
	}
	if ud {
		// An unreliable datagram completes locally once it is on the wire;
		// no acknowledgement will ever come back. A lossy fabric may eat it
		// in flight; UD has no recovery, so the loss is silent. Each
		// datagram is offered to the fabric exactly once — UD can drop,
		// never duplicate.
		comp := src.signal(Completion{Opcode: OpSend, Done: t + CQECost, Bytes: total})
		src.noteSegment(false)
		arrive, v := r.fab.Deliver(t, r.ep, dst.route.ep, outbound)
		src.observe(StageArrived, arrive)
		if v != fabric.Delivered {
			src.noteSilentDrop()
			return comp, true, nil
		}
		delivered, dropped, err := deliverDatagram(src, dst, arrive, wr, total)
		if err != nil {
			return Completion{}, false, err
		}
		src.observe(StageResponded, delivered)
		return comp, dropped, nil
	}

	// The wire -> responder -> ACK phase runs under the reliability engine
	// on every fabric.
	done, old, status, err := executeReliable(src, dst, t, wr, total, outbound)
	if err != nil {
		return Completion{}, false, err
	}
	// A retry-exhausted WR completes with an error CQE (the QP is now in the
	// error state; postList flushes whatever follows). Its OldValue is the
	// responder's if the request executed before the failure.
	return src.signal(Completion{WRID: wr.ID, Opcode: wr.Opcode, Done: done + CQECost, Bytes: total, OldValue: old, Status: status}), false, nil
}

// deliverDatagram models the receiver of a UD send: there is no
// acknowledgement, so with no posted buffer the datagram is silently
// dropped (unreliable!) where RC would return ErrRNR. It returns the
// delivery time (receive-side DMA end) and the drop flag.
func deliverDatagram(src, dst *qpState, arrive sim.Time, wr *SendWR, total int) (sim.Time, bool, error) {
	r := dst.route
	rmeta := r.nic.TouchQP(uint64(dst.id))
	rt := r.port.Execute(arrive+rmeta.Latency, rnic.RespWrite, rmeta.Service)
	if dst.recvEmpty() {
		return rt, true, nil
	}
	recv := dst.frontRecv()
	if recv.SGE.Length < total {
		return 0, false, fmt.Errorf("%w: receive buffer %d < datagram %d", ErrBadSGL, recv.SGE.Length, total)
	}
	dst.popRecv()
	rcross := 0
	if recv.SGE.MR.region.Socket() != r.socket {
		rcross = 1
	}
	dmaEnd := r.nic.ScatterDMA(rt, 1, total, rcross, r.qpi, r.qpiLatency)
	if err := applySend(dst, wr, recv); err != nil {
		return 0, false, err
	}
	dst.receiver().cq.push(CQE{WRID: recv.ID, Opcode: OpSend, Time: dmaEnd + CQECost, Bytes: total})
	return dmaEnd, false, nil
}

// applyWrite gathers the SGL and stores it contiguously at the remote
// address, in the target MR's region.
func applyWrite(dst *qpState, rmr *MR, wr *SendWR) error {
	buf, err := gather(dst, wr)
	if err != nil {
		return err
	}
	target, err := rmr.region.Slice(wr.RemoteAddr, len(buf))
	if err != nil {
		return err
	}
	copy(target, buf)
	return nil
}

// applyRead loads the remote bytes from the target MR's region and scatters
// them into the SGL, staging through the responder route's scratch.
func applyRead(dst *qpState, rmr *MR, wr *SendWR) error {
	buf := dst.route.scratch.bytes(wr.TotalLength())
	remote, err := rmr.region.Slice(wr.RemoteAddr, len(buf))
	if err != nil {
		return err
	}
	copy(buf, remote)
	off := 0
	for _, s := range wr.SGL {
		b, err := s.MR.region.Slice(s.Addr, s.Length)
		if err != nil {
			return err
		}
		copy(b, buf[off:off+s.Length])
		off += s.Length
	}
	return nil
}

// applyAtomic performs the 8-byte read-modify-write in the target MR's
// region and stores the old value into the local SGE. RDMA atomics are
// big-endian on the wire but operate on host-order integers; we use
// little-endian throughout for simplicity.
func applyAtomic(rmr *MR, wr *SendWR) (uint64, error) {
	b, err := rmr.region.Slice(wr.RemoteAddr, 8)
	if err != nil {
		return 0, err
	}
	old := binary.LittleEndian.Uint64(b)
	switch wr.Opcode {
	case OpCompSwap:
		if old == wr.CompareAdd {
			binary.LittleEndian.PutUint64(b, wr.Swap)
		}
	case OpFetchAdd:
		binary.LittleEndian.PutUint64(b, old+wr.CompareAdd)
	}
	// Store the old value into the local completion buffer.
	s := wr.SGL[0]
	local, err := s.MR.region.Slice(s.Addr, 8)
	if err != nil {
		return 0, err
	}
	binary.LittleEndian.PutUint64(local, old)
	return old, nil
}

// applySend copies the gathered payload into the posted receive buffer.
func applySend(dst *qpState, wr *SendWR, recv RecvWR) error {
	buf, err := gather(dst, wr)
	if err != nil {
		return err
	}
	rbuf, err := recv.SGE.MR.region.Slice(recv.SGE.Addr, len(buf))
	if err != nil {
		return err
	}
	copy(rbuf, buf)
	return nil
}

// gather concatenates the SGL's bytes, staging them in the responder route's
// scratch.
func gather(dst *qpState, wr *SendWR) ([]byte, error) {
	buf := dst.route.scratch.bytes(wr.TotalLength())[:0]
	for _, s := range wr.SGL {
		b, err := s.MR.region.Slice(s.Addr, s.Length)
		if err != nil {
			return nil, err
		}
		buf = append(buf, b...)
	}
	return buf, nil
}
