// The connected-transport reliability engine: the wire -> responder -> ACK
// phase of every RC work request, on every fabric. It is what makes
// the R in "Reliable Connection" real when the fabric is lossy:
//
//   - messages are segmented at PathMTU; a segment's packet sequence
//     number (PSN) is its position in the message, so no per-QP counter is
//     kept;
//   - the responder detects a gap and answers with a go-back-N NAK for
//     the first missing segment; the requester retransmits from there;
//   - lost tails (or lost ACKs/NAKs) are recovered by an ACK timeout with
//     exponential backoff, driven entirely by the sim clock;
//   - when the retry budget is exhausted the QP transitions to the error
//     state and the WR completes with an error status — every later WR on
//     the QP is flushed (StatusFlushed) without touching the wire;
//   - duplicate segments from a retransmission round never re-apply data
//     effects (the applied flag marks a request the responder executed, and
//     acks are regenerated instead), so a successful completion always
//     implies exactly-once memory effects.
//
// A SEND that finds no posted receive WR returns ErrRNR to the poster on
// every fabric: every experiment posts each receive before the SEND that
// consumes it, so the receiver-not-ready back-off of real RC is not modeled.
//
// A lossless fabric (no FaultPlan attached) is the engine's no-loss case:
// every frame arrives, so one round runs and no recovery path is taken. The
// QP's lossy flag, read once at construction, decides the only two points
// where that case differs from an attached plan that never fires: each
// message is one frame (no PathMTU segmentation), and the reliability
// tallies stay zero.
//
// UD has no reliability machinery, as the spec requires: a datagram draws
// the same fault stream, but a lost one vanishes silently without consuming
// a receive WR (pipeline.go).
package verbs

import (
	"fmt"

	"rdmasem/internal/fabric"
	"rdmasem/internal/rnic"
	"rdmasem/internal/sim"
)

// PathMTU is the wire segment size of connected transports on a lossy
// fabric: messages larger than this are split into multiple packets, each
// drawing its own fate from the fault plan.
const PathMTU = 4096

// CompletionStatus reports how a work request finished. The zero value is
// success, the only status a lossless fabric produces.
type CompletionStatus int

// Completion statuses, mirroring the ibverbs wc_status values the paper's
// testbed would surface.
const (
	StatusOK            CompletionStatus = iota
	StatusRetryExceeded                  // transport retry budget exhausted (lost data or acks)
	StatusFlushed                        // WR flushed: the QP was already in the error state
)

func (s CompletionStatus) String() string {
	switch s {
	case StatusOK:
		return "OK"
	case StatusRetryExceeded:
		return "RETRY_EXC"
	default:
		return "FLUSH"
	}
}

// State is the queue-pair state machine surface. The model only
// distinguishes operational from broken: a QP in StateError flushes every
// posted WR until torn down.
type State uint8

// QP states.
const (
	StateReady State = iota
	StateError
)

func (s State) String() string {
	if s == StateReady {
		return "READY"
	}
	return "ERROR"
}

// RetryPolicy is the per-QP reliability configuration, the knobs ibv_modify_qp
// sets on real hardware.
type RetryPolicy struct {
	RetryCount int          // recovery rounds (NAK or timeout) before the QP errors out
	AckTimeout sim.Duration // base ACK timeout; doubles per consecutive timeout
}

// DefaultRetryPolicy mirrors common ConnectX defaults: retry_cnt=7 and a
// 16us base timeout.
func DefaultRetryPolicy() RetryPolicy {
	return RetryPolicy{
		RetryCount: 7,
		AckTimeout: 16 * sim.Microsecond,
	}
}

// maxBackoffShift caps the exponential ACK-timeout backoff at 2^6 = 64x.
const maxBackoffShift = 6

// Stats returns the QP's reliability tally: zero until the QP has
// reliability state. It is the only tally of each wire and recovery event;
// the QP's NIC sums its QPs' tallies into rnic.StageCounters.Rel.
func (s *qpState) Stats() rnic.RelCounters {
	if s.rel == nil {
		return rnic.RelCounters{}
	}
	return s.rel.stats
}

// State returns the QP's state-machine state.
func (s *qpState) State() State { return s.state }

// RetryPolicy returns the QP's reliability configuration:
// DefaultRetryPolicy until SetRetryPolicy replaces it.
func (s *qpState) RetryPolicy() RetryPolicy {
	if s.rel == nil {
		return DefaultRetryPolicy()
	}
	return s.rel.policy
}

// SetRetryPolicy replaces the QP's reliability configuration (the model's
// ibv_modify_qp). A negative budget or a non-positive timeout panics: either
// makes the recovery loop meaningless.
func (s *qpState) SetRetryPolicy(p RetryPolicy) {
	if p.RetryCount < 0 {
		panic("verbs: negative retry budget")
	}
	if p.AckTimeout <= 0 {
		panic("verbs: retry timer must be positive")
	}
	s.reliability().policy = p
}

// ForceError moves the QP to the error state (the model's ibv_modify_qp to
// IBV_QPS_ERR, used to drain a connection). Subsequent posts flush.
func (s *qpState) ForceError() { s.state = StateError }

// segments is the number of wire frames a message of outbound payload bytes
// takes: PathMTU segments on a lossy fabric, a single frame on a lossless
// one. Every message is at least one frame (READ requests and 0-byte
// ACK-only wires still put a frame on the wire).
func (s *qpState) segments(outbound int) int {
	if s.lossy() && outbound > PathMTU {
		return (outbound + PathMTU - 1) / PathMTU
	}
	return 1
}

// segmentSize is the size of frame i of a message of outbound bytes cut
// into n frames: PathMTU for every frame but the last, which carries the
// rest.
func segmentSize(i, n, outbound int) int {
	if i < n-1 {
		return PathMTU
	}
	return outbound - (n-1)*PathMTU
}

// noteSegment tallies one wire segment at the requester (lossy fabrics only).
func (s *qpState) noteSegment(retransmit bool) {
	if !s.lossy() {
		return
	}
	st := &s.reliability().stats
	st.Segments++
	if retransmit {
		st.Retransmits++
	}
}

// noteSilentDrop tallies one UD datagram lost on the wire, which UD never
// recovers (lossy fabrics only).
func (s *qpState) noteSilentDrop() {
	if s.lossy() {
		s.reliability().stats.SilentDrops++
	}
}

// executeReliable runs the wire -> responder -> ACK phase of one RC work
// request, starting when the requester's execution unit emits the first
// segment. It returns the requester-side completion-condition time
// (pre-CQE), the atomic old value, and the completion status, recovering
// losses as described in the package comment. The request records the
// arrived stage the first time it is wholly at the responder, and the
// responded stage when its ACK or response lands.
//
// A returned error is a hard modelling failure (e.g. an undersized receive
// buffer, or ErrRNR).
func executeReliable(src, dst *qpState, emit sim.Time, wr *SendWR, total, outbound int) (sim.Time, uint64, CompletionStatus, error) {
	fab, srcEP, dstEP := src.route.fab, src.route.ep, dst.route.ep
	pol := src.RetryPolicy()

	nseg := src.segments(outbound)

	attempts := 0       // recovery rounds consumed (NAK + timeout)
	consecTimeouts := 0 // consecutive timeout recoveries, drives backoff
	firstUnacked := 0   // go-back-N resend point
	round := 0          // transmission rounds completed
	arrived := false    // the arrived stage is recorded
	// applied: the responder has executed the request, and old is what it
	// returned. A replayed WR whose effects already landed before its
	// connection died (see recovery.go) seeds both, so the whole replay runs
	// as a duplicate round — the responder regenerates its response and
	// never re-touches memory.
	var applied bool
	var old uint64
	if src.rel != nil {
		applied, old = src.rel.replay.applied, src.rel.replay.old
	}
	var rmr *MR // the target MR, once the responder has executed the request

	t := emit
	for {
		// Transmission round: segments firstUnacked..nseg-1, back to back.
		// The tx pipe serializes them; each draws its own fate.
		lost := -1
		lastOK := t
		nakTime := sim.Time(0)
		nakDelivered := false
		for i := firstUnacked; i < nseg; i++ {
			src.noteSegment(round > 0)
			arr, v := fab.Deliver(t, srcEP, dstEP, segmentSize(i, nseg, outbound))
			if v != fabric.Delivered {
				if lost < 0 {
					lost = i
				}
				continue
			}
			if lost < 0 {
				lastOK = arr
				continue
			}
			// Out-of-order arrival behind a gap: the responder NAKs the
			// first missing segment, once per round. The NAK itself can drop.
			if !nakDelivered {
				nArr, nv := fab.Deliver(arr, dstEP, srcEP, 0)
				if nv == fabric.Delivered {
					nakDelivered, nakTime = true, nArr
				}
			}
		}
		round++

		if lost < 0 {
			// Every outstanding segment arrived in order.
			if !arrived {
				src.observe(StageArrived, lastOK)
				arrived = true
			}
			// In a pure duplicate round the responder recognises a request
			// it already executed, discards the payload and regenerates its
			// response at once; otherwise it executes the request.
			resp := response{at: lastOK}
			if !applied {
				r, err := executeResponder(dst, lastOK, wr, total)
				if err != nil {
					return 0, 0, StatusOK, err
				}
				applied = true
				resp, old, rmr = r, r.old, r.mr
			}

			// Response / ACK leg. READs and atomics carry payload back;
			// WRITE and SEND draw a bare ACK.
			done, delivered := deliverResponse(src, dst, resp, wr, total)
			if delivered {
				if wr.Opcode == OpRead {
					if rmr == nil {
						// A replayed duplicate never ran the responder
						// in this call: look its target MR up.
						var err error
						if rmr, err = dst.route.ctx.LookupMR(wr.RemoteKey); err != nil {
							return 0, 0, StatusOK, err
						}
					}
					if err := applyRead(dst, rmr, wr); err != nil {
						return 0, 0, StatusOK, err
					}
				}
				src.observe(StageResponded, done)
				return done, old, StatusOK, nil
			}
			// Lost ACK/response: fall through to timeout recovery; the
			// requester resends from the first unacked segment and the
			// responder will see duplicates.
			lastOK = done
		}

		// Recovery round: compute when and where the retransmission
		// restarts, then charge it against the retry budget. The final
		// failing round still pays its timeout, so the error completion
		// lands when the requester actually gave up. Forward progress —
		// the resend point advancing past segments the responder has now
		// accepted — restores the retry budget, as real NICs do: the
		// counter bounds retries *without* progress, not total recoveries
		// on a large message.
		if lost > firstUnacked {
			attempts = 0
		}
		if nakDelivered {
			consecTimeouts = 0
			src.reliability().stats.NaksReceived++
			t = nakTime
			firstUnacked = lost
		} else {
			shift := min(consecTimeouts, maxBackoffShift)
			consecTimeouts++
			src.reliability().stats.AckTimeouts++
			t = lastOK + pol.AckTimeout<<shift
			if lost >= 0 {
				firstUnacked = lost
			}
		}
		attempts++
		if attempts > pol.RetryCount {
			src.state = StateError
			rel := src.reliability()
			rel.stats.RetriesExhausted++
			// Remember whether the effects landed, for exactly-once replay;
			// the error completion carries old.
			rel.failedApplied = applied
			return t, old, StatusRetryExceeded, nil
		}
	}
}

// deliverResponse moves the responder's answer back to the requester: the
// read payload (segmented), the 8-byte atomic response, or a bare ACK. It
// returns the requester-side completion-condition time and whether every
// segment survived the fabric. The response's lag is added after the last
// segment lands, and for READs the requester-side scatter DMA is charged on
// success.
func deliverResponse(src, dst *qpState, resp response, wr *SendWR, total int) (sim.Time, bool) {
	r := src.route
	dstEP := dst.route.ep

	respBytes := 0
	switch wr.Opcode {
	case OpRead:
		respBytes = total
	case OpCompSwap, OpFetchAdd:
		respBytes = 8
	}
	t := resp.at
	nseg := src.segments(respBytes)
	for i := 0; i < nseg; i++ {
		arr, v := r.fab.Deliver(t, dstEP, r.ep, segmentSize(i, nseg, respBytes))
		if v != fabric.Delivered {
			return arr + resp.lag, false
		}
		t = arr
	}
	if wr.Opcode == OpRead {
		t = r.nic.ScatterDMA(t, len(wr.SGL), total, r.crossSGEs(wr.SGL), r.qpi, r.qpiLatency)
	}
	return t + resp.lag, true
}

// response is the responder's answer to one fully received request.
type response struct {
	at  sim.Time     // the ACK, NAK or response leaves the responder NIC
	lag sim.Duration // wait after the ACK lands: a cross-socket WRITE's QPI hop
	old uint64       // the atomic's old value
	mr  *MR          // a one-sided request's target MR (READ lands its data later)
}

// executeResponder is the responder NIC's execution of one request whose
// total payload bytes all arrived: its costs and its data effects, which
// happen exactly once, on this call. The ACK/response wire leg belongs to
// the caller, because it can be lost.
func executeResponder(dst *qpState, arrive sim.Time, wr *SendWR, total int) (response, error) {
	r := dst.route
	rnicDev, rport := r.nic, r.port

	// Responder metadata: the peer QP context plus the target MR/pages.
	meta := rnicDev.TouchQP(uint64(dst.id))
	cross := 0 // 1 when a one-sided target sits across QPI from the port
	var rmr *MR
	if wr.Opcode.OneSided() {
		var err error
		if rmr, err = dst.route.ctx.LookupMR(wr.RemoteKey); err != nil {
			return response{}, err
		}
		meta = meta.Add(rnicDev.TouchMR(rmr.id))
		meta = meta.Add(rnicDev.Translate(wr.RemoteAddr, total))
		// Validation placed the access inside the MR, and the MR's region
		// lives in this machine's memory (RegisterMR), so the region is
		// the one the address resolves to.
		if rmr.region.Socket() != r.socket {
			// Cross-socket DMA at the responder serializes on the
			// interconnect path and occupies the responder engine longer.
			cross = 1
			meta.Service += 3 * r.qpiLatency
		}
	}

	switch wr.Opcode {
	case OpWrite:
		t := rport.Execute(arrive+meta.Latency, rnic.RespWrite, meta.Service)
		// The ACK leaves once the NIC has accepted the payload; the DMA to
		// host memory still occupies the PCIe/QPI pipes (contention) but
		// completes asynchronously with respect to the requester. A
		// cross-socket target holds the completion one QPI hop after the
		// ACK lands.
		rnicDev.ScatterDMA(t, 1, total, cross, r.qpi, r.qpiLatency)
		return response{at: t, lag: sim.Duration(cross) * r.qpiLatency}, applyWrite(dst, rmr, wr)

	case OpRead:
		// Translation-miss handling overlaps the long host DMA read on the
		// response path, so only half the miss occupancy hits the engine.
		t := rport.Execute(arrive+meta.Latency, rnic.RespRead, meta.Service/2)
		// DMA read from host DRAM: high latency, pipelined occupancy.
		t = rnicDev.GatherDMA(t, 1, total, cross, r.qpi, r.qpiLatency) + rnic.PCIeReadLatency
		return response{at: t, mr: rmr}, nil

	case OpCompSwap, OpFetchAdd:
		t := rport.ExecuteAtomic(arrive + meta.Latency)
		// Locked PCIe read-modify-write against host memory.
		t = rnicDev.GatherDMA(t, 1, 8, cross, r.qpi, r.qpiLatency) + rnic.PCIeReadLatency
		rnicDev.ScatterDMA(t, 1, 8, cross, r.qpi, r.qpiLatency)
		old, err := applyAtomic(rmr, wr)
		return response{at: t, old: old}, err

	case OpSend:
		if dst.recvEmpty() {
			// An exhausted SRQ is the same receiver-not-ready condition as
			// an empty per-QP receive queue.
			return response{}, ErrRNR
		}
		recv := dst.frontRecv()
		if recv.SGE.Length < total {
			return response{}, fmt.Errorf("%w: receive buffer %d < payload %d", ErrBadSGL, recv.SGE.Length, total)
		}
		dst.popRecv()
		t := rport.Execute(arrive+meta.Latency, rnic.RespWrite, meta.Service)
		rcross := 0
		if recv.SGE.MR.region.Socket() != r.socket {
			rcross = 1
		}
		dmaEnd := rnicDev.ScatterDMA(t, 1, total, rcross, r.qpi, r.qpiLatency)
		if err := applySend(dst, wr, recv); err != nil {
			return response{}, err
		}
		dst.receiver().cq.push(CQE{WRID: recv.ID, Opcode: OpSend, Time: dmaEnd + CQECost, Bytes: total})
		return response{at: t}, nil
	}
	return response{}, fmt.Errorf("verbs: unknown opcode %v", wr.Opcode)
}
