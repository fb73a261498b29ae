package verbs

import (
	"fmt"

	"rdmasem/internal/mem"
	"rdmasem/internal/sim"
)

// Opcode identifies the verb of a work request.
type Opcode int

// Work request opcodes. The first four are the memory-semantic (one-sided)
// verbs the paper studies; Send is the channel-semantic verb used by the
// RPC baselines.
const (
	OpWrite Opcode = iota
	OpRead
	OpCompSwap
	OpFetchAdd
	OpSend
)

func (o Opcode) String() string {
	switch o {
	case OpWrite:
		return "WRITE"
	case OpRead:
		return "READ"
	case OpCompSwap:
		return "CMP_SWAP"
	case OpFetchAdd:
		return "FETCH_ADD"
	default:
		return "SEND"
	}
}

// OneSided reports whether the opcode is a memory-semantic verb.
func (o Opcode) OneSided() bool { return o != OpSend }

// SGE is one scatter/gather element: a slice of a local MR.
type SGE struct {
	Addr   mem.Addr
	Length int
	MR     *MR
}

// SendWR is a work request posted to a QP's send queue. For WRITE, the SGL
// is gathered and written contiguously at RemoteAddr (the SGL mechanism of
// Section III-A); for READ, RemoteAddr is read and scattered into the SGL;
// for atomics the SGL names the 8-byte local buffer receiving the old value.
type SendWR struct {
	ID         uint64 // caller-chosen work request id, echoed in the CQE
	Opcode     Opcode
	SGL        []SGE
	RemoteAddr mem.Addr
	RemoteKey  RKey

	// Atomic operands.
	CompareAdd uint64 // compare value (CAS) or addend (FAA)
	Swap       uint64 // swap value (CAS)
}

// TotalLength sums the SGL lengths.
func (wr *SendWR) TotalLength() int {
	n := 0
	for _, s := range wr.SGL {
		n += s.Length
	}
	return n
}

// RecvWR is a posted receive buffer for SEND traffic.
type RecvWR struct {
	ID  uint64
	SGE SGE
}

// CQE is one receive completion entry: a landed SEND.
type CQE struct {
	WRID   uint64
	Opcode Opcode
	Time   sim.Time // when the completion became visible
	Bytes  int
}

// CQ is a receive completion queue: entries accumulate as inbound SENDs land
// in virtual time and are drained with PollOne. Hardware delivers CQEs in order
// within a queue, so push clamps each entry's visibility time to be no
// earlier than its predecessor's. Send completions are not queued: PostSend
// returns them, and each QP keeps only this in-order clamp for them.
type CQ struct {
	entries  []CQE
	lastTime sim.Time
}

// push appends an entry, enforcing in-order visibility.
func (q *CQ) push(e CQE) {
	if e.Time < q.lastTime {
		e.Time = q.lastTime
	}
	q.lastTime = e.Time
	q.entries = append(q.entries, e)
}

// PollOne removes and returns the oldest entry if its completion time is at
// or before now. It never allocates, so per-op polling loops (the RPC
// engines) stay off the heap.
func (q *CQ) PollOne(now sim.Time) (CQE, bool) {
	if len(q.entries) == 0 || q.entries[0].Time > now {
		return CQE{}, false
	}
	e := q.entries[0]
	q.dequeue(1)
	return e, true
}

// dequeue drops the first n entries, sliding the remainder down so the
// backing array is reused instead of leaked (re-slicing forward would force
// push to grow a fresh array every cycle).
func (q *CQ) dequeue(n int) {
	if n <= 0 {
		return
	}
	m := copy(q.entries, q.entries[n:])
	q.entries = q.entries[:m]
}

// Completion describes the outcome of one posted work request.
type Completion struct {
	WRID     uint64
	Opcode   Opcode
	Done     sim.Time // CQE visibility time at the requester
	Bytes    int
	OldValue uint64           // atomics: value before the operation
	Status   CompletionStatus // zero (StatusOK) except under reliability failures
}

// Err returns nil for a successful completion and an ErrQPError-wrapping
// error describing the failure otherwise, so callers can bubble a
// reliability failure up their existing error paths.
func (c Completion) Err() error {
	if c.Status == StatusOK {
		return nil
	}
	return fmt.Errorf("%w: WR %d (%v) completed with status %v", ErrQPError, c.WRID, c.Opcode, c.Status)
}
