package verbs

import (
	"fmt"
	"io"

	"rdmasem/internal/sim"
)

// Stage identifies one step of an operation's path through the model.
type Stage int

// Pipeline stages, in path order.
const (
	StagePosted     Stage = iota // doorbell rung (MMIO landed)
	StageWQEFetched              // WQE DMA'd onto the NIC
	StageGathered                // payload gather DMA finished
	StagePipelined               // per-QP processing pipeline cleared
	StageExecuted                // port execution unit cleared
	StageArrived                 // last byte at the responder NIC
	StageResponded               // responder processing (or atomic unit) done
	StageCompleted               // CQE visible at the requester
)

func (s Stage) String() string {
	switch s {
	case StagePosted:
		return "posted"
	case StageWQEFetched:
		return "wqe-fetched"
	case StageGathered:
		return "gathered"
	case StagePipelined:
		return "qp-pipelined"
	case StageExecuted:
		return "executed"
	case StageArrived:
		return "arrived"
	case StageResponded:
		return "responded"
	default:
		return "completed"
	}
}

// TraceSpan is one stage of a traced op: the stage that ended, when the
// previous stage ended, and how long this one took. They are the spans the
// timeline records for the same op.
type TraceSpan struct {
	Stage Stage
	Start sim.Time
	Dur   sim.Duration
}

// Trace records the stage timeline of one work request. Obtain one with
// QP.PostSendTraced; it is the tool behind the paper's Section III-D
// decomposition T(RNIC->Socket) + T(Socket->Memory) + T(Network). A Trace is
// a sink of the QP's stage recorder (metrics.go): it holds the spans the
// recorder accepted, plus the completion time the requester saw.
type Trace struct {
	Start  sim.Time
	End    sim.Time // the completion time (Completion.Done)
	Opcode Opcode
	Spans  []TraceSpan
}

// At returns the time a stage ended, or false if it never ran (e.g. no
// gather on an inline write). StageCompleted is always the completion time.
func (t *Trace) At(stage Stage) (sim.Time, bool) {
	if stage == StageCompleted {
		return t.End, true
	}
	for _, s := range t.Spans {
		if s.Stage == stage {
			return s.Start + s.Dur, true
		}
	}
	return 0, false
}

// Total returns the end-to-end latency.
func (t *Trace) Total() sim.Duration { return t.End - t.Start }

// Breakdown is the paper's Section III-D latency decomposition.
type Breakdown struct {
	RNICToSocket   sim.Duration // posting + WQE fetch + gather (host <-> NIC)
	Network        sim.Duration // NIC processing + wire, both directions
	SocketToMemory sim.Duration // responder-side handling and DMA
	Completion     sim.Duration // CQE generation
}

// Decompose sums the span durations into the paper's three terms (plus CQE
// cost). Stages that did not run contribute zero.
func (t *Trace) Decompose() Breakdown {
	var b Breakdown
	for _, s := range t.Spans {
		switch s.Stage {
		case StagePosted, StageWQEFetched, StageGathered:
			b.RNICToSocket += s.Dur
		case StagePipelined, StageExecuted, StageArrived:
			b.Network += s.Dur
		case StageResponded:
			b.SocketToMemory += s.Dur
		default:
			b.Completion += s.Dur
		}
	}
	return b
}

// Render prints the timeline with per-stage deltas.
func (t *Trace) Render(w io.Writer) {
	fmt.Fprintf(w, "%s trace (total %v)\n", t.Opcode, t.Total())
	for _, s := range t.Spans {
		fmt.Fprintf(w, "  %-13s +%-8v @%v\n", s.Stage, s.Dur, s.Start+s.Dur)
	}
}

// attachTrace makes tr the stage recorder's trace sink and returns the
// function that detaches it. A QP without telemetry gets a recorder with only
// the trace sink, dropped again on detach.
func (s *qpState) attachTrace(tr *Trace) (detach func()) {
	saved := s.rec
	if saved == nil {
		s.rec = &stageRecorder{}
	}
	s.rec.tr = tr
	return func() {
		s.rec.tr = nil
		s.rec = saved
	}
}

// PostSendTraced posts one work request and additionally returns its stage
// timeline. Tracing does not change timing.
func (q *QP) PostSendTraced(now sim.Time, wr *SendWR) (Completion, *Trace, error) {
	if wr == nil {
		return Completion{}, nil, ErrNilWR
	}
	tr := &Trace{Start: now, Opcode: wr.Opcode}
	defer q.attachTrace(tr)()
	comp, err := q.PostSend(now, wr)
	if err != nil {
		return Completion{}, nil, err
	}
	return comp, tr, nil
}
