// The connected-transport reliability engine: the wire -> responder -> ACK
// phase of every RC and UC work request, on every fabric. It is what makes
// the R in "Reliable Connection" real when the fabric is lossy:
//
//   - messages are segmented at PathMTU and stamped with per-QP packet
//     sequence numbers (PSNs);
//   - the responder detects PSN gaps and answers with a go-back-N NAK for
//     the first missing PSN; the requester retransmits from there;
//   - lost tails (or lost ACKs/NAKs) are recovered by an ACK timeout with
//     exponential backoff, driven entirely by the sim clock;
//   - a SEND arriving with no posted receive WR draws an RNR NAK and is
//     retried after the RNR timer;
//   - when the retry budget is exhausted the QP transitions to the error
//     state and the WR completes with an error status — every later WR on
//     the QP is flushed (StatusFlushed) without touching the wire;
//   - duplicate segments from a retransmission round are detected by PSN
//     and never re-apply data effects (acks are regenerated instead), so a
//     successful completion always implies exactly-once memory effects.
//
// A lossless fabric (no FaultPlan attached) is the engine's no-loss case:
// every frame arrives, so one round runs and no recovery path is taken. The
// QP's lossy flag, read once at construction, decides the only three points
// where that case differs from an attached plan that never fires: each
// message is one frame (no PathMTU segmentation), the reliability tallies
// stay zero, and an RC SEND into an empty receive queue returns ErrRNR to
// the poster instead of backing off.
//
// UC and UD have no reliability machinery, as the spec requires: their
// segments draw the same fault stream but losses are silent — a torn UC
// WRITE applies only the contiguous prefix that arrived, a UC/UD SEND with
// any lost segment vanishes without consuming a receive WR.
package verbs

import (
	"fmt"

	"rdmasem/internal/fabric"
	"rdmasem/internal/rnic"
	"rdmasem/internal/sim"
)

// PathMTU is the wire segment size of connected transports on a lossy
// fabric: messages larger than this are split into multiple packets, each
// drawing its own fate from the fault plan. It matches UDMTU, the datagram
// limit.
const PathMTU = 4096

// CompletionStatus reports how a work request finished. The zero value is
// success, the only status a lossless fabric produces.
type CompletionStatus int

// Completion statuses, mirroring the ibverbs wc_status values the paper's
// testbed would surface.
const (
	StatusOK               CompletionStatus = iota
	StatusRetryExceeded                     // transport retry budget exhausted (lost data or acks)
	StatusRNRRetryExceeded                  // receiver-not-ready retry budget exhausted
	StatusFlushed                           // WR flushed: the QP was already in the error state
)

func (s CompletionStatus) String() string {
	switch s {
	case StatusOK:
		return "OK"
	case StatusRetryExceeded:
		return "RETRY_EXC"
	case StatusRNRRetryExceeded:
		return "RNR_RETRY_EXC"
	default:
		return "FLUSH"
	}
}

// State is the queue-pair state machine surface. The model only
// distinguishes operational from broken: a QP in StateError flushes every
// posted WR until torn down.
type State int

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
	RetryCount    int          // recovery rounds (NAK or timeout) before the QP errors out
	RNRRetryCount int          // receiver-not-ready retries before the QP errors out
	AckTimeout    sim.Duration // base ACK timeout; doubles per consecutive timeout
	RNRTimer      sim.Duration // wait after an RNR NAK before retrying
}

// DefaultRetryPolicy mirrors common ConnectX defaults: retry_cnt=7,
// rnr_retry=7, a 16us base timeout and a 64us RNR timer.
func DefaultRetryPolicy() RetryPolicy {
	return RetryPolicy{
		RetryCount:    7,
		RNRRetryCount: 7,
		AckTimeout:    16 * sim.Microsecond,
		RNRTimer:      64 * sim.Microsecond,
	}
}

// maxBackoffShift caps the exponential ACK-timeout backoff at 2^6 = 64x.
const maxBackoffShift = 6

// QPStats is the per-QP reliability tally. All fields are zero on a
// lossless fabric. The embedded RelCounters is the only tally of each wire
// and recovery event: the QP's NIC sums its QPs' blocks into
// rnic.StageCounters.Rel.
type QPStats struct {
	SendPSN           uint64 // next packet sequence number to assign
	ExpectedPSN       uint64 // next PSN the responder side expects
	rnic.RelCounters         // wire and recovery events, summed by the NIC
	ReconnectFailures uint64 // Reconnect walks that found a host still down
	Replayed          uint64 // failed WRs reposted through PostReplay
}

// Stats returns the QP's reliability tally.
func (s *qpState) Stats() QPStats { return s.stats }

// State returns the QP's state-machine state.
func (s *qpState) State() State { return s.state }

// RetryPolicy returns the QP's reliability configuration.
func (s *qpState) RetryPolicy() RetryPolicy { return s.policy }

// SetRetryPolicy replaces the QP's reliability configuration (the model's
// ibv_modify_qp). Negative budgets and non-positive timers panic: they make
// the recovery loop meaningless.
func (s *qpState) SetRetryPolicy(p RetryPolicy) {
	if p.RetryCount < 0 || p.RNRRetryCount < 0 {
		panic("verbs: negative retry budget")
	}
	if p.AckTimeout <= 0 || p.RNRTimer <= 0 {
		panic("verbs: retry timers must be positive")
	}
	s.policy = p
}

// ForceError moves the QP to the error state (the model's ibv_modify_qp to
// IBV_QPS_ERR, used to drain a connection). Subsequent posts flush.
func (s *qpState) ForceError() { s.state = StateError }

// segmentSizes splits outbound payload bytes into the message's wire frames:
// PathMTU segments on a lossy fabric, a single frame on a lossless one. Every
// message is at least one frame (READ requests and 0-byte ACK-only wires
// still put a frame on the wire). The result lives in the QP's scratch pool —
// the request buffer normally, the response buffer when resp is set, because
// the requester holds its request segmentation across recovery rounds while
// response legs come and go (and on a loopback pair the two directions share
// one pool). A request segmentation also assigns the message's PSN window.
func (s *qpState) segmentSizes(outbound int, resp bool) []int {
	n := 1
	if s.lossy && outbound > PathMTU {
		n = (outbound + PathMTU - 1) / PathMTU
	}
	var sizes []int
	if resp {
		sizes = s.scratch.respSegments(n)
	} else {
		sizes = s.scratch.segments(n)
		if s.lossy {
			s.stats.SendPSN += uint64(n)
		}
	}
	for i := 0; i < n-1; i++ {
		sizes[i] = PathMTU
	}
	sizes[n-1] = outbound - (n-1)*PathMTU
	return sizes
}

// noteSegment tallies one wire segment at the requester (lossy fabrics only).
func (s *qpState) noteSegment(retransmit bool) {
	if !s.lossy {
		return
	}
	s.stats.Segments++
	if retransmit {
		s.stats.Retransmits++
	}
}

// noteSilentDrop tallies one UC/UD message lost with no recovery (lossy
// fabrics only).
func (s *qpState) noteSilentDrop() {
	if s.lossy {
		s.stats.SilentDrops++
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
// buffer, or ErrRNR on a lossless fabric).
func executeReliable(src, dst *qpState, emit sim.Time, wr *SendWR, total, outbound int) (sim.Time, uint64, CompletionStatus, error) {
	fab, srcEP, dstEP := src.route.fab, src.route.ep, dst.route.ep
	pol := src.policy

	sizes := src.segmentSizes(outbound, false)
	nseg := len(sizes)

	attempts := 0       // recovery rounds consumed (NAK + timeout)
	rnrAttempts := 0    // RNR recovery rounds consumed
	consecTimeouts := 0 // consecutive timeout recoveries, drives backoff
	firstUnacked := 0   // go-back-N resend point
	round := 0          // transmission rounds completed
	arrived := false    // the arrived stage is recorded
	// applied: the responder has executed the request. A replayed WR whose
	// effects already landed before its connection died (see recovery.go)
	// seeds this true, so the whole replay runs as a duplicate round — the
	// responder regenerates its acknowledgement and never re-touches memory.
	applied := src.replayApplied
	src.replayApplied = false
	var old uint64
	var rmr *MR // the target MR, once the responder has executed the request

	t := emit
	fail := func(at sim.Time, status CompletionStatus) (sim.Time, uint64, CompletionStatus, error) {
		src.state = StateError
		src.stats.RetriesExhausted++
		// Remember whether the effects landed, for exactly-once replay.
		src.failedApplied = applied
		return at, old, status, nil
	}
	timeout := func(last sim.Time) sim.Time {
		shift := consecTimeouts
		if shift > maxBackoffShift {
			shift = maxBackoffShift
		}
		consecTimeouts++
		src.stats.AckTimeouts++
		return last + pol.AckTimeout<<shift
	}

	for {
		// Transmission round: segments firstUnacked..nseg-1, back to back.
		// The tx pipe serializes them; each draws its own fate.
		lost := -1
		lastOK := t
		nakTime := sim.Time(0)
		nakDelivered := false
		for i := firstUnacked; i < nseg; i++ {
			src.noteSegment(round > 0)
			arr, v := fab.Deliver(t, srcEP, dstEP, sizes[i])
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
			// first missing PSN, once per round. The NAK itself can drop.
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
			// In a pure duplicate round the responder recognises the PSNs,
			// discards the payload and regenerates its response at once;
			// otherwise it executes the request.
			resp := response{at: lastOK}
			if !applied {
				dst.stats.ExpectedPSN = src.stats.SendPSN
				r, err := executeResponder(src, dst, lastOK, wr, total)
				if err != nil {
					return 0, 0, StatusOK, err
				}
				if r.rnr {
					// Receiver not ready: RNR NAK back to the requester.
					rnrAttempts++
					if rnrAttempts > pol.RNRRetryCount {
						return fail(r.at, StatusRNRRetryExceeded)
					}
					nArr, nv := fab.Deliver(r.at, dstEP, srcEP, 0)
					if nv == fabric.Delivered {
						src.stats.RNRNaks++
						t = nArr + pol.RNRTimer
					} else {
						// Lost RNR NAK: recover by timeout like a lost ACK.
						t = timeout(lastOK)
					}
					firstUnacked = 0 // the whole message is retried
					continue
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
						if rmr, err = dst.ctx.LookupMR(wr.RemoteKey); err != nil {
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
			// requester resends from the first unacked PSN and the
			// responder will see duplicates.
			lastOK = done
		}

		// Recovery round: compute when and where the retransmission
		// restarts, then charge it against the retry budget. The final
		// failing round still pays its timeout, so the error completion
		// lands when the requester actually gave up. Forward progress —
		// the resend point advancing past PSNs the responder has now
		// accepted — restores the retry budget, as real NICs do: the
		// counter bounds retries *without* progress, not total recoveries
		// on a large message.
		if lost > firstUnacked {
			attempts = 0
		}
		if nakDelivered {
			consecTimeouts = 0
			src.stats.NaksReceived++
			t = nakTime
			firstUnacked = lost
		} else {
			t = timeout(lastOK)
			if lost >= 0 {
				firstUnacked = lost
			}
		}
		attempts++
		if attempts > pol.RetryCount {
			return fail(t, StatusRetryExceeded)
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
	for _, size := range src.segmentSizes(respBytes, true) {
		arr, v := r.fab.Deliver(t, dstEP, r.ep, size)
		if v != fabric.Delivered {
			return arr + resp.lag, false
		}
		t = arr
	}
	if wr.Opcode == OpRead {
		// Scatter into the local SGL buffers. READ has no gather phase, so
		// the requester's size-vector scratch is free.
		sizes := src.scratch.ints(len(wr.SGL))
		cross := 0
		for i, s := range wr.SGL {
			sizes[i] = s.Length
			if s.MR.region.Socket() != r.socket {
				cross++
			}
		}
		t = r.nic.ScatterDMA(t, sizes, cross, r.qpi, r.qpiLatency)
	}
	return t + resp.lag, true
}

// response is the responder's answer to one fully received request.
type response struct {
	at  sim.Time     // the ACK, NAK or response leaves the responder NIC
	lag sim.Duration // wait after the ACK lands: a cross-socket WRITE's QPI hop
	old uint64       // the atomic's old value
	mr  *MR          // a one-sided request's target MR (READ lands its data later)
	rnr bool         // a SEND found no posted receive WR
}

// executeResponder is the responder NIC's execution of one request whose
// first n payload bytes arrived (the whole message, or a torn UC WRITE's
// prefix): its costs and its data effects, which happen exactly once, on
// this call. The ACK/response wire leg belongs to the caller, because it can
// be lost.
func executeResponder(src, dst *qpState, arrive sim.Time, wr *SendWR, n int) (response, error) {
	r := dst.route
	rnicDev, rport, rp := r.nic, r.port, r.params

	// Responder metadata: the peer QP context plus the target MR/pages.
	meta := rnicDev.TouchQP(dst.id)
	cross := 0 // 1 when a one-sided target sits across QPI from the port
	var rmr *MR
	if wr.Opcode.OneSided() {
		var err error
		if rmr, err = dst.ctx.LookupMR(wr.RemoteKey); err != nil {
			return response{}, err
		}
		meta = meta.Add(rnicDev.TouchMR(rmr.id))
		meta = meta.Add(rnicDev.Translate(wr.RemoteAddr, n))
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
		t := rport.Execute(arrive+meta.Latency, rp.RespWrite, meta.Service)
		// The ACK leaves once the NIC has accepted the payload; the DMA to
		// host memory still occupies the PCIe/QPI pipes (contention) but
		// completes asynchronously with respect to the requester. A
		// cross-socket target holds the completion one QPI hop after the
		// ACK lands.
		rnicDev.ScatterDMA(t, []int{n}, cross, r.qpi, r.qpiLatency)
		return response{at: t, lag: sim.Duration(cross) * r.qpiLatency}, applyWrite(dst, rmr, wr, n)

	case OpRead:
		// Translation-miss handling overlaps the long host DMA read on the
		// response path, so only half the miss occupancy hits the engine.
		t := rport.Execute(arrive+meta.Latency, rp.RespRead, meta.Service/2)
		// DMA read from host DRAM: high latency, pipelined occupancy.
		t = rnicDev.GatherDMA(t, []int{n}, cross, r.qpi, r.qpiLatency) + rp.PCIeReadLatency
		return response{at: t, mr: rmr}, nil

	case OpCompSwap, OpFetchAdd:
		t := rport.ExecuteAtomic(arrive + meta.Latency)
		// Locked PCIe read-modify-write against host memory.
		t = rnicDev.GatherDMA(t, []int{8}, cross, r.qpi, r.qpiLatency) + rp.PCIeReadLatency
		rnicDev.ScatterDMA(t, []int{8}, cross, r.qpi, r.qpiLatency)
		old, err := applyAtomic(rmr, wr)
		return response{at: t, old: old}, err

	case OpSend:
		if dst.recvEmpty() {
			if src.transport == RC && !src.lossy {
				return response{}, ErrRNR
			}
			// The RNR NAK (or UC's silent discard) comes after the
			// responder engine has looked at the request. An exhausted SRQ
			// is the same receiver-not-ready condition as an empty per-QP
			// receive queue: RC backs off and retries, it never drops.
			t := rport.Execute(arrive+meta.Latency, rp.RespWrite, meta.Service)
			return response{at: t, rnr: true}, nil
		}
		recv := dst.frontRecv()
		if recv.SGE.Length < n {
			return response{}, fmt.Errorf("%w: receive buffer %d < payload %d", ErrBadSGL, recv.SGE.Length, n)
		}
		dst.popRecv()
		t := rport.Execute(arrive+meta.Latency, rp.RespWrite, meta.Service)
		rcross := 0
		if recv.SGE.MR.region.Socket() != r.socket {
			rcross = 1
		}
		dmaEnd := rnicDev.ScatterDMA(t, []int{n}, rcross, r.qpi, r.qpiLatency)
		if err := applySend(dst, wr, recv); err != nil {
			return response{}, err
		}
		dst.recvCQ.push(CQE{WRID: recv.ID, Opcode: OpSend, Time: dmaEnd + CQECost, Bytes: n})
		return response{at: t}, nil
	}
	return response{}, fmt.Errorf("verbs: unknown opcode %v", wr.Opcode)
}

// executeUC is the unreliable-connection wire phase: segments are sent
// exactly once, losses are silent, and nothing ever comes back, so the
// requester completes locally at emit whatever happens. A torn WRITE applies
// only the contiguous prefix of segments that arrived before the first loss
// (the responder loses message sync at the gap); a SEND with any lost
// segment, or with no posted receive WR, vanishes without a receive
// completion.
func executeUC(src, dst *qpState, emit sim.Time, wr *SendWR, outbound int) error {
	fab, srcEP, dstEP := src.route.fab, src.route.ep, dst.route.ep

	sizes := src.segmentSizes(outbound, false)
	arrived := 0
	prefixBytes := 0
	var lastArr sim.Time
	for _, size := range sizes {
		src.noteSegment(false)
		arr, v := fab.Deliver(emit, srcEP, dstEP, size)
		if v != fabric.Delivered {
			break
		}
		arrived++
		prefixBytes += size
		lastArr = arr
	}
	intact := arrived == len(sizes)
	if !intact {
		src.noteSilentDrop()
	}
	if arrived == 0 || (wr.Opcode == OpSend && !intact) {
		return nil
	}
	src.observe(StageArrived, lastArr)
	if src.lossy {
		dst.stats.ExpectedPSN += uint64(arrived)
	}
	r, err := executeResponder(src, dst, lastArr, wr, prefixBytes)
	if err != nil {
		return err
	}
	if r.rnr {
		// No posted receive: the message is silently discarded.
		src.noteSilentDrop()
	}
	src.observe(StageResponded, r.at)
	return nil
}
