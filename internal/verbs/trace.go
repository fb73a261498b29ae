package verbs

import "rdmasem/internal/sim"

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

// Breakdown is the paper's Section III-D latency decomposition
// T(RNIC->Socket) + T(Network) + T(Socket->Memory), plus the CQE cost. The
// stage recorder's spans tile an op's end-to-end latency, so charging each of
// them with Add yields terms that sum to that latency exactly.
type Breakdown struct {
	RNICToSocket   sim.Duration // posting + WQE fetch + gather (host <-> NIC)
	Network        sim.Duration // NIC processing + wire, both directions
	SocketToMemory sim.Duration // responder-side handling and DMA
	Completion     sim.Duration // CQE generation
}

// Add charges one stage's span to its III-D term.
func (b *Breakdown) Add(st Stage, d sim.Duration) {
	switch st {
	case StagePosted, StageWQEFetched, StageGathered:
		b.RNICToSocket += d
	case StagePipelined, StageExecuted, StageArrived:
		b.Network += d
	case StageResponded:
		b.SocketToMemory += d
	default:
		b.Completion += d
	}
}
