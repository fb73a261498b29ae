// The op-pipeline engine: the one implementation of the requester/responder
// stage walk every verb takes (paper Sections III-A..III-E) —
//
//	doorbell MMIO -> WQE fetch -> gather DMA -> QP pipeline ->
//	execution unit -> wire -> responder -> CQE
//
// RC, UC and UD queue pairs all post through postList/executeOne below; the
// transport only selects branch points inside the walk (which metadata is
// touched, how the pipeline stage is priced, when the requester considers
// the operation complete). Connected transports hand the wire -> responder
// -> ACK phase to the reliability engine (reliability.go) on every fabric; a
// lossless fabric is its no-loss case, not a second copy of the walk. One
// stage recorder per QP (metrics.go) consumes the walk and fans each stage
// span out to the histograms, the timeline and a traced post's Trace; none
// of them forks the timing code.
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

// PostObserver receives one notification per doorbell list after the list
// finishes executing: the posting time, the list's WR count and total payload
// bytes, and the completion time of its last WR. Like the stage recorder it
// is strictly passive — it must not mutate simulation state, and the walk's
// timing and allocations are identical with or without one attached. This is
// the measurement feed the adaptive per-QP controllers hang off the post
// path.
type PostObserver interface {
	ObservePost(post sim.Time, wrs, bytes int, done sim.Time)
}

// qpRoute is everything the stage walk needs from a QP's machine and port,
// resolved once: a real RNIC binds this state when the QP is created and
// caches it, rather than looking it up on every doorbell. NewContext
// resolves one route per port, and every QP of that (Context, port) shares
// it by pointer.
type qpRoute struct {
	machine    *cluster.Machine
	nic        *rnic.NIC
	port       *rnic.Port
	params     *rnic.Params // the NIC's configuration, read in place
	fab        *fabric.Fabric
	ep         *fabric.Endpoint // the port's fabric endpoint
	qpi        *sim.Pipe
	qpiLatency sim.Duration
	socket     topo.SocketID // the port's socket
}

// newRoute resolves the route of one NIC port of m.
func newRoute(m *cluster.Machine, port int) *qpRoute {
	return &qpRoute{
		machine:    m,
		nic:        m.NIC(),
		port:       m.NIC().Port(port),
		params:     m.NIC().Params(),
		fab:        m.Fabric(),
		ep:         m.Endpoint(port),
		qpi:        m.QPI(),
		qpiLatency: m.Topology().Params.QPILatency,
		socket:     m.PortSocket(port),
	}
}

// qpState is the queue-pair state shared by connected (QP) and datagram
// (UDQP) queue pairs: identity, port/core binding, the per-QP processing
// pipeline, the send-completion clamp, the receive queues, and the stage
// recorder.
type qpState struct {
	id        uint64
	ctx       *Context
	route     *qpRoute // the port's machine resources; the walk reads nothing else
	transport Transport
	core      topo.SocketID // socket of the posting core
	pipeline  *sim.Resource // per-QP processing pipeline (Fig 1's 4.7 MOPS)
	lastCQE   sim.Time      // send-side in-order clamp: the latest CQE time so far
	recvCQ    *CQ
	recvQ     recvQueue
	srq       *SRQ           // shared receive queue; inbound SENDs drain it instead of recvQ
	post      PostObserver   // per-post listener (adaptive controller), else nil
	rec       *stageRecorder // the stage walk's one consumer, else nil (no telemetry, no trace)
	state     State          // READY until reliability retries exhaust (or ForceError)
	policy    RetryPolicy    // reliability knobs; inert on a lossless fabric
	stats     QPStats        // reliability tally; all zero on a lossless fabric
	scratch   opScratch      // per-QP freelists for the allocation-free hot path

	// Fault-plan facts, read once at construction so the hot path pays one
	// boolean test each. lossy decides the only three points where the
	// reliability engine's no-loss case differs from a quiet plan: PathMTU
	// segmentation, the reliability tallies, and RNR back-off (a lossless RC
	// SEND into an empty receive queue returns ErrRNR instead).
	lossy     bool // a fault plan is attached to the fabric
	crashable bool // fault plan has crash windows: check at post

	// Connection-recovery state (see recovery.go).
	logReplay     bool          // capture failed WRs for replay
	replayLog     []replayEntry // failed WRs awaiting replay, in failure order
	replayApplied bool          // transient: next WR replays an applied failure
	failedApplied bool          // transient: last failed WR had applied effects
}

// opScratch holds the per-QP reusable buffers of the op-pipeline hot path.
// The simulation kernel is single threaded per cluster, so at most one post
// is in flight per QP and every buffer is reset (re-sliced to length zero)
// at the next post. Aliasing contract: slices handed to callers out of this
// pool — the completions PostSendList returns — stay valid only until the
// next post on the same QP; callers that retain them must copy.
type opScratch struct {
	wrList   [1]*SendWR   // singleton doorbell list (UDQP.Send)
	sendWR   SendWR       // the datagram WR UDQP.Send rebuilds per send
	sges     []SGE        // SGL copy backing sendWR, so callers' SGLs stay on their stacks
	comps    []Completion // completions of the in-flight doorbell list
	drops    []bool       // UD drop flags, parallel to comps
	sizes    []int        // per-SGE size vectors for gather/scatter DMA
	payload  []byte       // staging for apply{Write,Read,Send} data movement
	segs     []int        // reliability-layer request segmentation
	respSegs []int        // reliability-layer response segmentation
}

// sgl returns a reusable length-n SGE slice (contents undefined).
func (s *opScratch) sgl(n int) []SGE {
	if cap(s.sges) < n {
		s.sges = make([]SGE, n)
	}
	return s.sges[:n]
}

// ints returns a reusable length-n int slice (contents undefined).
func (s *opScratch) ints(n int) []int {
	if cap(s.sizes) < n {
		s.sizes = make([]int, n)
	}
	return s.sizes[:n]
}

// bytes returns a reusable byte slice with length 0 and capacity >= n.
func (s *opScratch) bytes(n int) []byte {
	if cap(s.payload) < n {
		s.payload = make([]byte, 0, n)
	}
	return s.payload[:0]
}

// bytesN returns a reusable byte slice of length n (contents undefined).
func (s *opScratch) bytesN(n int) []byte {
	if cap(s.payload) < n {
		s.payload = make([]byte, 0, n)
	}
	return s.payload[:n]
}

// segments returns a reusable length-n int slice for request wire
// segmentation, distinct from sizes because the reliability engine holds its
// request segmentation across recovery rounds while DMA size vectors come
// and go.
func (s *opScratch) segments(n int) []int {
	if cap(s.segs) < n {
		s.segs = make([]int, n)
	}
	return s.segs[:n]
}

// respSegments is the response-leg counterpart of segments: the ACK/response
// segmentation must not alias the request segmentation, which the requester
// still holds for possible retransmission rounds (a loopback QP pair would
// otherwise clobber it).
func (s *opScratch) respSegments(n int) []int {
	if cap(s.respSegs) < n {
		s.respSegs = make([]int, n)
	}
	return s.respSegs[:n]
}

// newQPState initialises the shared queue-pair state, drawing the QP number
// from the machine's cluster-wide allocator.
func newQPState(ctx *Context, t Transport, port int, kind string) qpState {
	id := ctx.machine.NextQPID()
	r := ctx.routes[port]
	s := qpState{
		id:        id,
		ctx:       ctx,
		route:     r,
		transport: t,
		core:      r.socket,
		pipeline:  sim.NewResource(fmt.Sprintf("%s%d/pipeline", kind, id)),
		recvCQ:    NewCQ(),
		policy:    DefaultRetryPolicy(),
		lossy:     r.fab.FaultsEnabled(),
		crashable: r.fab.Params().Faults.HasCrashes(),
	}
	if reg, tl := ctx.machine.Telemetry(), ctx.machine.Timeline(); reg != nil || tl != nil {
		label := ctx.machine.Label()
		s.rec = newStageRecorder(reg, tl, label, ctx.machine.TimelinePID(), id, kind)
		s.pipeline.Observe(reg.QueueHook(label, kind+"/pipeline"))
	}
	return s
}

// register hands the QP's reliability tally to its NIC, which sums it into
// Counters().Rel. Call it once the QP has its final heap address.
func (s *qpState) register() { s.route.nic.AddQP(&s.stats.RelCounters) }

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

// SetPostObserver attaches (or, with nil, detaches) a per-post listener. The
// observer sees every successfully executed doorbell list posted on this QP
// until detached; it has no effect on timing.
func (s *qpState) SetPostObserver(o PostObserver) { s.post = o }

// ID returns the QP number.
func (s *qpState) ID() uint64 { return s.id }

// Context returns the owning context.
func (s *qpState) Context() *Context { return s.ctx }

// Transport returns the QP's transport type.
func (s *qpState) Transport() Transport { return s.transport }

// Port returns the local NIC port index the QP is bound to.
func (s *qpState) Port() int { return s.route.port.Index() }

// PortSocket returns the socket affiliated with the QP's port.
func (s *qpState) PortSocket() topo.SocketID { return s.route.socket }

// Core returns the socket of the posting core.
func (s *qpState) Core() topo.SocketID { return s.core }

// BindCore pins the posting core to a socket (NUMA experiments).
func (s *qpState) BindCore(sock topo.SocketID) { s.core = sock }

// RecvCQ returns the receive completion queue.
func (s *qpState) RecvCQ() *CQ { return s.recvCQ }

// Pipeline exposes the per-QP pipeline resource (ablation benchmarks).
func (s *qpState) Pipeline() *sim.Resource { return s.pipeline }

// PostRecv posts a receive buffer for incoming SEND/datagram traffic. On an
// SRQ-attached QP receives must be posted to the SRQ instead.
func (s *qpState) PostRecv(wr RecvWR) error {
	if s.srq != nil {
		return fmt.Errorf("%w: QP %d drains an SRQ; post receives there", ErrBadSGL, s.id)
	}
	if wr.SGE.MR == nil || wr.SGE.MR.ctx != s.ctx {
		return fmt.Errorf("%w: receive buffer must be a local MR", ErrBadSGL)
	}
	if err := wr.SGE.MR.contains(wr.SGE.Addr, wr.SGE.Length); err != nil {
		return err
	}
	s.recvQ.push(wr)
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
// dst. On a mid-list error the completions of the WRs that fully executed —
// the completed prefix — are returned alongside the error; the failed WR
// and everything after it have no data effects and no CQEs.
//
// The returned drops slice is parallel to the completions and marks UD
// datagrams discarded because the receiver had no posted buffer; it is nil
// for connected transports, which surface that condition as ErrRNR instead.
//
// A QP in the error state — entered when the reliability layer exhausts a
// retry budget, or via ForceError — executes nothing: every WR is flushed
// with a StatusFlushed completion and the post returns ErrQPError. A WR
// whose retries exhaust mid-list completes with its error status and the
// remainder of the list flushes behind it.
//
// The returned slices are backed by src's per-QP scratch pool: they remain
// valid until the next post on the same QP (see opScratch).
func postList(src, dst *qpState, now sim.Time, wrs []*SendWR) ([]Completion, []bool, error) {
	if src.crashable && src.state != StateError && src.route.machine.CrashedAt(now) {
		// The posting machine is inside a crash window: its HCA is gone and
		// every QP it owns is broken. The first post during the outage
		// surfaces the crash as an error-state flush.
		src.state = StateError
	}
	if src.state == StateError {
		comps := src.scratch.comps[:0]
		drops := src.scratch.drops[:0]
		for _, wr := range wrs {
			comps = append(comps, flushWR(src, now, wr))
			if src.transport == UD {
				drops = append(drops, false)
			}
		}
		src.scratch.comps, src.scratch.drops = comps, drops
		if src.transport != UD {
			drops = nil
		}
		return comps, drops, ErrQPError
	}
	nic := src.route.nic
	inlineBytes := 0
	totalBytes := 0
	allInline := true
	for _, wr := range wrs {
		if wr.Inline {
			inlineBytes += wr.TotalLength()
		} else {
			allInline = false
		}
		if src.post != nil {
			totalBytes += wr.TotalLength()
		}
	}
	// The first WR of the list owns the list-shared stages (doorbell MMIO,
	// batched WQE fetch) in the stage decomposition; later WRs open their
	// bracket at the per-WR loop below.
	src.recBegin(wrs[0].Opcode, now)
	t := nic.Doorbell(now, len(wrs), inlineBytes)
	src.observe(StagePosted, t)
	if src.transport != UD && !allInline {
		// Connected QPs fetch the whole doorbell list up front; UD fetches
		// its single WQE inside executeOne, after the posting-core penalty.
		t = nic.FetchWQEs(t, len(wrs))
		src.observe(StageWQEFetched, t)
	}

	comps := src.scratch.comps[:0]
	drops := src.scratch.drops[:0]
	// Keep the (possibly grown) backing arrays for the next post; the slice
	// headers above are re-derived from them after every append below.
	defer func() {
		src.scratch.comps = comps[:0]
		src.scratch.drops = drops[:0]
	}()
	if src.transport != UD {
		drops = nil
	}
	for i, wr := range wrs {
		if i > 0 {
			src.recBegin(wr.Opcode, t)
		}
		c, dropped, err := executeOne(src, dst, t, wr)
		if err != nil {
			return comps, drops, err
		}
		src.recEnd(c.Done)
		comps = append(comps, c)
		if src.transport == UD {
			drops = append(drops, dropped)
		}
		if src.state == StateError {
			// The reliability layer gave up on this WR: flush the rest of
			// the doorbell list at the error completion's time.
			for _, rest := range wrs[i+1:] {
				comps = append(comps, flushWR(src, c.Done, rest))
				if src.transport == UD {
					drops = append(drops, false)
				}
			}
			return comps, drops, ErrQPError
		}
	}
	if src.post != nil && len(comps) > 0 {
		src.post.ObservePost(now, len(wrs), totalBytes, comps[len(comps)-1].Done)
	}
	return comps, drops, nil
}

// signal delivers a signaled send completion. Hardware makes CQEs visible in
// order within a queue, so the completion's time is clamped to be no earlier
// than the QP's previous CQE. In a synchronous simulator the returned
// completion is the poll: nothing is queued, and only the clamp is kept.
func (s *qpState) signal(c Completion) Completion {
	if c.Done < s.lastCQE {
		c.Done = s.lastCQE
	}
	s.lastCQE = c.Done
	return c
}

// flushWR completes one WR with StatusFlushed (no wire, no data effects) on
// a QP in the error state. Flushed completions are always signaled, as on
// real hardware, so pollers observe the drain.
func flushWR(src *qpState, at sim.Time, wr *SendWR) Completion {
	src.stats.FlushedWRs++
	// A flushed WR never reached the responder — unless it is itself a
	// replayed applied failure flushed by a second connection loss, in which
	// case the transient replay flag preserves its applied-ness in the log.
	src.logFailed(wr, src.replayApplied)
	src.replayApplied = false
	return src.signal(Completion{WRID: wr.ID, Opcode: wr.Opcode, Done: at, Status: StatusFlushed})
}

// executeOne walks one WR (already doorbelled at time t) through the
// requester NIC, the wire, and the responder, applying its data effects and
// returning the completion. The dropped flag is only ever true for UD.
func executeOne(src, dst *qpState, t sim.Time, wr *SendWR) (Completion, bool, error) {
	r := src.route
	nic := r.nic
	p := r.params
	total := wr.TotalLength()
	ud := src.transport == UD

	// Requester-side metadata: QP context, per-SGE MR records + translations.
	// A UD WQE carries no lkey references when the payload is inline, so its
	// SGL metadata is only touched on the (non-inline) gather path below.
	meta := nic.TouchQP(src.id)
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
	if src.core != r.socket {
		t += 4 * r.qpiLatency
		if !ud {
			numaSvc += 2 * r.qpiLatency
		}
	}

	if ud && !wr.Inline {
		t = nic.FetchWQEs(t, 1)
		src.observe(StageWQEFetched, t)
	}

	// Payload gather (skipped for inline and for verbs with no outbound
	// payload).
	needGather := !wr.Inline && (wr.Opcode == OpWrite || wr.Opcode == OpSend)
	if needGather {
		sizes := src.scratch.ints(len(wr.SGL))
		cross := 0
		for i, s := range wr.SGL {
			sizes[i] = s.Length
			if ud {
				meta = meta.Add(nic.TouchMR(s.MR.id))
				meta = meta.Add(nic.Translate(s.Addr, s.Length))
			}
			if s.MR.region.Socket() != r.socket {
				cross++
			}
		}
		if !ud && cross > 0 {
			numaSvc += r.qpiLatency
		}
		t = nic.GatherDMA(t, sizes, cross, r.qpi, r.qpiLatency)
		src.observe(StageGathered, t)
	}

	// Per-QP pipeline, then the port execution unit (with metadata-induced
	// service inflation). UD keeps no connection state, so its pipeline
	// stage is cheaper than the connected transports'.
	var qpSvc, exSvc sim.Duration
	switch {
	case ud:
		qpSvc, exSvc = p.QPWrite*3/4, p.ExecSend
	case wr.Opcode == OpWrite:
		qpSvc, exSvc = p.QPWrite, p.ExecWrite
	case wr.Opcode == OpRead:
		qpSvc, exSvc = p.QPRead, p.ExecRead
	case wr.Opcode == OpSend:
		qpSvc, exSvc = p.QPWrite, p.ExecSend
	default: // atomics share the read-style request pipeline
		qpSvc, exSvc = p.QPWrite, p.ExecRead
	}
	t = src.pipeline.Delay(t+meta.Latency, qpSvc+numaSvc)
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
	// on every fabric. An unreliable connection has no acknowledgement, so
	// the send completes locally as soon as the message is on the wire; the
	// responder-side costs are still charged (the data lands), the
	// requester just does not wait for them.
	done, old := t, uint64(0)
	if src.transport == UC {
		if err := executeUC(src, dst, t, wr, outbound); err != nil {
			return Completion{}, false, err
		}
	} else {
		var status CompletionStatus
		var err error
		done, old, status, err = executeReliable(src, dst, t, wr, total, outbound)
		if err != nil {
			return Completion{}, false, err
		}
		if status != StatusOK {
			// Retry budget exhausted: the WR completes with an error CQE
			// (always signaled, even if posted unsignaled) and the QP is
			// now in the error state; postList flushes whatever follows.
			src.logFailed(wr, src.failedApplied)
			return src.signal(Completion{WRID: wr.ID, Opcode: wr.Opcode, Done: done + CQECost, Bytes: total, Status: status}), false, nil
		}
	}

	if wr.Unsignaled {
		// Selective signaling: no CQE is generated, saving its DMA. The
		// returned completion still reports when the operation finished so
		// callers can chain timings; ordering within the QP ensures a later
		// signaled WR's CQE implies this one completed.
		return Completion{WRID: wr.ID, Opcode: wr.Opcode, Done: done, Bytes: total, OldValue: old}, false, nil
	}
	return src.signal(Completion{WRID: wr.ID, Opcode: wr.Opcode, Done: done + CQECost, Bytes: total, OldValue: old}), false, nil
}

// deliverDatagram models the receiver of a UD send: there is no
// acknowledgement and no RNR back-pressure — with no posted buffer the
// datagram is silently dropped (unreliable!). It returns the delivery time
// (receive-side DMA end) and the drop flag.
func deliverDatagram(src, dst *qpState, arrive sim.Time, wr *SendWR, total int) (sim.Time, bool, error) {
	r := dst.route
	rmeta := r.nic.TouchQP(dst.id)
	rt := r.port.Execute(arrive+rmeta.Latency, r.params.RespWrite, rmeta.Service)
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
	dmaEnd := r.nic.ScatterDMA(rt, []int{total}, rcross, r.qpi, r.qpiLatency)
	if err := applySend(dst, wr, recv); err != nil {
		return 0, false, err
	}
	dst.recvCQ.push(CQE{WRID: recv.ID, Opcode: OpSend, Time: dmaEnd + CQECost, Bytes: total})
	return dmaEnd, false, nil
}

// applyWrite gathers the first n SGL bytes — the whole payload, or the
// prefix a torn UC WRITE landed — and stores them contiguously at the remote
// address, in the target MR's region. The staging buffer comes from the
// responder QP's scratch pool.
func applyWrite(dst *qpState, rmr *MR, wr *SendWR, n int) error {
	buf := dst.scratch.bytes(n)
	for _, s := range wr.SGL {
		if len(buf) >= n {
			break
		}
		b, err := s.MR.region.Slice(s.Addr, s.Length)
		if err != nil {
			return err
		}
		buf = append(buf, b[:min(s.Length, n-len(buf))]...)
	}
	target, err := rmr.region.Slice(wr.RemoteAddr, len(buf))
	if err != nil {
		return err
	}
	copy(target, buf)
	return nil
}

// applyRead loads the remote bytes from the target MR's region and scatters
// them into the SGL, staging through the responder QP's scratch pool.
func applyRead(dst *qpState, rmr *MR, wr *SendWR) error {
	buf := dst.scratch.bytesN(wr.TotalLength())
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

// applySend copies the gathered payload into the posted receive buffer,
// staging through the receiving QP's scratch pool.
func applySend(dst *qpState, wr *SendWR, recv RecvWR) error {
	buf := dst.scratch.bytes(wr.TotalLength())
	for _, s := range wr.SGL {
		b, err := s.MR.region.Slice(s.Addr, s.Length)
		if err != nil {
			return err
		}
		buf = append(buf, b...)
	}
	rbuf, err := recv.SGE.MR.region.Slice(recv.SGE.Addr, len(buf))
	if err != nil {
		return err
	}
	copy(rbuf, buf)
	return nil
}
