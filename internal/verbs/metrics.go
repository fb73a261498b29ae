// The stage recorder of the op-pipeline engine: the one consumer of the
// stage walk. A QP carries a stageRecorder when its cluster has a metrics
// registry or timeline attached (cluster.Config.Telemetry / Config.Timeline).
// The recorder brackets each WR, drops out-of-order stage crossings, and
// hands every accepted stage as one span to its two optional sinks: the
// registry's per-opcode stage histograms and the Chrome trace-event Timeline.
// Neither influences the walk.
package verbs

import (
	"fmt"

	"rdmasem/internal/sim"
	"rdmasem/internal/telemetry"
)

// stageRecorder turns one QP's stage walks into spans. The engine brackets
// each WR with begin/end (postList), and every observe() between the
// brackets lands one span (start = previous boundary, dur = time since it)
// in each attached sink — so the spans of an op tile its end-to-end latency
// exactly.
type stageRecorder struct {
	reg     *telemetry.Registry // stage and e2e histograms, else nil
	tl      *telemetry.Timeline // Chrome trace-event spans, else nil
	machine string
	pid     int64
	tid     int64

	opcode Opcode
	opSeq  int64
	start  sim.Time
	prev   sim.Time
	active bool

	// Histogram streams interned by (opcode, stage): a direct array lookup
	// on the hot path instead of a map hash per stage crossing. The extra
	// column past the last pipeline stage holds the per-opcode e2e stream.
	hists [int(OpSend) + 1][int(StageCompleted) + 2]*telemetry.Histogram
}

// e2eSlot is the hists column of the end-to-end stream, one past the
// pipeline stages.
const e2eSlot = StageCompleted + 1

// verbsComponents interns the "verbs/<opcode>" telemetry component names so
// resolving a stream never concatenates (a test pins them to Opcode.String).
var verbsComponents = [int(OpSend) + 1]string{
	OpWrite:    "verbs/WRITE",
	OpRead:     "verbs/READ",
	OpCompSwap: "verbs/CMP_SWAP",
	OpFetchAdd: "verbs/FETCH_ADD",
	OpSend:     "verbs/SEND",
}

// newStageRecorder builds the recorder for one QP. Either of reg and tl may
// be nil; the corresponding sink is skipped.
func newStageRecorder(reg *telemetry.Registry, tl *telemetry.Timeline, machine string, pid int64, qp uint64, kind string) *stageRecorder {
	m := &stageRecorder{
		reg:     reg,
		tl:      tl,
		machine: machine,
		pid:     pid,
		tid:     int64(qp),
	}
	if tl != nil {
		tl.NameThread(m.pid, m.tid, fmt.Sprintf("%s%d %s", kind, qp, machine))
	}
	return m
}

// hist resolves (and caches) the histogram for one (opcode, stage) stream.
// st is the stage, or e2eSlot for the end-to-end stream; the stream's name
// is resolved only on a cache miss.
func (m *stageRecorder) hist(op Opcode, st Stage) *telemetry.Histogram {
	h := m.hists[op][st]
	if h == nil {
		name := "e2e"
		if st != e2eSlot {
			name = st.String()
		}
		h = m.reg.Hist(m.machine, verbsComponents[op], name)
		m.hists[op][st] = h
	}
	return h
}

// begin opens the bracket for one WR posted at the given time. The first WR
// of a doorbell list owns the list-shared stages (doorbell MMIO, batched WQE
// fetch); later WRs begin after them.
func (m *stageRecorder) begin(op Opcode, at sim.Time) {
	m.opcode = op
	m.opSeq++
	m.start = at
	m.prev = at
	m.active = true
}

// stage records one stage boundary as a span covering the time since the
// previous boundary. Out-of-order timestamps (e.g. UD's local completion
// racing the remote delivery) are skipped rather than recorded as negative.
func (m *stageRecorder) stage(st Stage, at sim.Time) {
	if !m.active || at < m.prev {
		return
	}
	dur := at - m.prev
	if m.reg != nil {
		m.hist(m.opcode, st).Observe(dur)
	}
	if m.tl != nil {
		m.tl.Record(telemetry.Span{
			Name:  st.String(),
			Cat:   m.opcode.String(),
			PID:   m.pid,
			TID:   m.tid,
			Start: m.prev,
			Dur:   dur,
			Op:    m.opSeq,
		})
	}
	m.prev = at
}

// end closes the bracket at the WR's completion time: the tail (CQE
// generation) becomes the final span and the whole walk lands in the e2e
// histogram.
func (m *stageRecorder) end(at sim.Time) {
	if !m.active {
		return
	}
	m.stage(StageCompleted, at)
	if m.reg != nil && at >= m.start {
		m.hist(m.opcode, e2eSlot).Observe(at - m.start)
	}
	m.active = false
}
