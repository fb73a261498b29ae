package core

import (
	"fmt"

	"rdmasem/internal/mem"
	"rdmasem/internal/sim"
	"rdmasem/internal/topo"
	"rdmasem/internal/verbs"
)

// LockState is the shared state of one lock word in virtual time: it records
// until when the word is held. All handles to the same lock share one
// LockState; the data-plane CAS traffic still flows through the verbs stack
// so contention on the RNIC atomic unit is real.
type LockState struct {
	freeAt       sim.Time
	holder       int
	lastHolder   int // most recent holder (cache-line residency)
	participants int // registered local handles (coherence-storm scaling)
}

// NewLockState returns an unlocked lock.
func NewLockState() *LockState { return &LockState{holder: -1, lastHolder: -1} }

// tryAt attempts to take the lock at virtual time t.
func (s *LockState) tryAt(t sim.Time, who int) bool {
	if s.freeAt <= t {
		s.freeAt = sim.MaxTime
		s.holder = who
		return true
	}
	return false
}

// releaseAt releases the lock at virtual time t.
func (s *LockState) releaseAt(t sim.Time, who int) error {
	if s.holder != who {
		return fmt.Errorf("core: release by %d but holder is %d", who, s.holder)
	}
	s.lastHolder = s.holder
	s.holder = -1
	s.freeAt = t
	return nil
}

// RemoteLock is a spinlock backed by RDMA compare-and-swap.
type RemoteLock struct {
	state   *LockState
	qp      *verbs.QP
	scratch verbs.SGE // local 8-byte buffer for the returned old value
	rmr     *verbs.MR
	addr    mem.Addr
	id      int
	backoff *sim.Backoff // nil = naive spinning

	// Reusable CAS work requests, so spinning under contention stays off the
	// heap: casWR tries 0 -> id+1, relWR reverses it.
	casWR verbs.SendWR
	relWR verbs.SendWR
}

// NewRemoteLock creates one client's handle to a shared remote lock word.
func NewRemoteLock(state *LockState, qp *verbs.QP, scratch verbs.SGE, rmr *verbs.MR, addr mem.Addr, clientID int, backoff *sim.Backoff) (*RemoteLock, error) {
	if state == nil || qp == nil || rmr == nil {
		return nil, fmt.Errorf("core: remote lock needs state, qp and remote MR")
	}
	if scratch.Length != 8 {
		return nil, fmt.Errorf("core: lock scratch buffer must be 8 bytes")
	}
	l := &RemoteLock{state: state, qp: qp, scratch: scratch, rmr: rmr, addr: addr, id: clientID, backoff: backoff}
	l.casWR = verbs.SendWR{
		Opcode:     verbs.OpCompSwap,
		SGL:        []verbs.SGE{scratch},
		RemoteAddr: addr,
		RemoteKey:  rmr.RKey(),
		CompareAdd: 0,
		Swap:       uint64(clientID) + 1,
	}
	l.relWR = verbs.SendWR{
		Opcode:     verbs.OpCompSwap,
		SGL:        []verbs.SGE{scratch},
		RemoteAddr: addr,
		RemoteKey:  rmr.RKey(),
		CompareAdd: uint64(clientID) + 1,
		Swap:       0,
	}
	return l, nil
}

// cas issues one CAS attempt through the verbs stack and returns its
// completion time (the attempt's cost and its contention on the remote
// atomic unit are fully charged regardless of success).
func (l *RemoteLock) cas(now sim.Time) (sim.Time, error) {
	comp, err := l.qp.PostSend(now, &l.casWR)
	if err != nil {
		return 0, err
	}
	return comp.Done, nil
}

// Acquire spins until the lock is held, returning the acquisition time.
func (l *RemoteLock) Acquire(now sim.Time) (sim.Time, error) {
	delay := sim.Duration(0)
	if l.backoff != nil {
		delay = l.backoff.Base
	}
	for {
		t, err := l.cas(now)
		if err != nil {
			return 0, err
		}
		if l.state.tryAt(t, l.id) {
			return t, nil
		}
		now = t
		if l.backoff != nil {
			now += delay
			delay = l.backoff.Next(delay)
		}
	}
}

// Release clears the lock word with a CAS(owner -> 0). Using an atomic for
// the release serializes it behind the competitors' queued CAS attempts at
// the responder's atomic unit — exactly the hand-over delay that makes the
// naive remote spinlock collapse under contention in Figure 10(a), and that
// exponential back-off relieves.
func (l *RemoteLock) Release(now sim.Time) (sim.Time, error) {
	comp, err := l.qp.PostSend(now, &l.relWR)
	if err != nil {
		return 0, err
	}
	if err := l.state.releaseAt(comp.Done, l.id); err != nil {
		return 0, err
	}
	return comp.Done, nil
}

// LocalLock is the GCC __sync_compare_and_swap baseline: all threads bounce
// one cache line.
type LocalLock struct {
	state *LockState
	line  *sim.Resource // the contended cache line
	id    int
}

// NewLocalLockLine creates the shared cache-line resource for a lock word.
func NewLocalLockLine() *sim.Resource { return sim.NewResource("local-lock/line") }

// NewLocalLock creates one thread's handle to a shared local lock. Each
// handle registers as a participant: every spinning thread's failed CAS
// invalidates the line in all others, so the line-transfer cost under
// contention grows with the number of spinners.
func NewLocalLock(state *LockState, line *sim.Resource, threadID int) *LocalLock {
	state.participants++
	return &LocalLock{state: state, line: line, id: threadID}
}

// Acquire spins on the cache line until the lock is held. Each probe's cost
// scales with the number of registered spinners: every failing CAS
// invalidates the line in all other participants, so the coherence storm
// grows with contention — the mechanism behind the local spinlock's
// collapse to ~1% in Figure 10(a).
func (l *LocalLock) Acquire(now sim.Time) sim.Time {
	for {
		// Under contention every probe triggers failed speculation and
		// invalidation storms on top of the raw line transfer; 2x the
		// per-participant bounce matches the paper's local convergence
		// (~0.33 MOPS at 8 threads).
		cost := 2 * topo.AtomicBounce * sim.Duration(l.state.participants)
		if l.state.lastHolder == l.id && l.state.participants == 1 {
			cost = topo.AtomicHit
		}
		t := l.line.Delay(now, cost)
		if l.state.tryAt(t, l.id) {
			return t
		}
		now = t
	}
}

// Release clears the lock word; the store must win the line against the
// spinners, so it pays the same storm-scaled cost.
func (l *LocalLock) Release(now sim.Time) sim.Time {
	cost := topo.AtomicHit
	if l.state.participants > 1 {
		cost = 2 * topo.AtomicBounce * sim.Duration(l.state.participants)
	}
	t := l.line.Delay(now, cost)
	if err := l.state.releaseAt(t, l.id); err != nil {
		panic(err)
	}
	return t
}

// RPCLock is the channel-semantic baseline: the lock lives at a server that
// grants or denies it over send/recv round trips.
type RPCLock struct {
	state  *LockState
	client Caller
	id     int
}

// NewRPCLock creates one client's handle to a server-managed lock; the
// Caller may be an RC or a UD endpoint.
func NewRPCLock(state *LockState, client Caller, clientID int) *RPCLock {
	return &RPCLock{state: state, client: client, id: clientID}
}

// Acquire retries lock RPCs until the server grants the lock.
func (l *RPCLock) Acquire(now sim.Time) (sim.Time, error) {
	for {
		granted := uint64(0)
		_, done, err := l.client.Call(now, 16, 8, func(at sim.Time) uint64 {
			if l.state.tryAt(at, l.id) {
				granted = 1
			}
			return granted
		})
		if err != nil {
			return 0, err
		}
		if granted == 1 {
			return done, nil
		}
		now = done
	}
}

// Release sends the unlock RPC.
func (l *RPCLock) Release(now sim.Time) (sim.Time, error) {
	var rerr error
	_, done, err := l.client.Call(now, 16, 8, func(at sim.Time) uint64 {
		rerr = l.state.releaseAt(at, l.id)
		return 0
	})
	if err != nil {
		return 0, err
	}
	if rerr != nil {
		return 0, rerr
	}
	return done, nil
}
