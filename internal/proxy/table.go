package proxy

import (
	"errors"
	"fmt"

	"rdmasem/internal/cluster"
	"rdmasem/internal/sim"
	"rdmasem/internal/telemetry"
	"rdmasem/internal/verbs"
)

// Table is a per-node connection table: it maps logical client connections
// onto a small pool of physical QPs and confines the blast radius of a
// broken pooled QP to the connections mapped to it.
//
// The mapping is static — connection c posts on pool[c % len(pool)] — so a
// given logical connection always sees the in-order completion guarantees of
// one QP, and a pooled QP entering the error state flushes exactly its own
// connections' work requests (pinned by TestPooledQPErrorFlushesOwnConnsOnly).
// A post completes inside the call that makes it, so the completion needs no
// routing: Post hands it straight back to the connection that posted.
type Table struct {
	pool  []*verbs.QP
	conns []int // the pool index each logical connection posts on

	// recovery state, unset until EnableRecovery (see recovery.go).
	recovering bool
	remap      bool
	recStats   RecoveryStats
	recQP      []poolRecState
	ttr        *telemetry.Histogram // per-table TTR, always private
	ttrReg     *telemetry.Histogram // mirrored registry stream, nil without -metrics
}

// NewTable builds a connection table over the given QP pool serving the
// given number of logical connections. All pooled QPs must be connected and
// share one (local, remote) machine pair — the per-node table serves one
// peer node; build one table per peer.
func NewTable(pool []*verbs.QP, conns int) (*Table, error) {
	if len(pool) == 0 {
		return nil, fmt.Errorf("proxy: empty QP pool")
	}
	if conns < 1 {
		return nil, fmt.Errorf("proxy: need at least one connection, got %d", conns)
	}
	local, remote := pool[0].Machines()
	for _, qp := range pool {
		if qp == nil || qp.Peer() == nil {
			return nil, fmt.Errorf("proxy: pool QPs must be connected")
		}
		l, r := qp.Machines()
		if l != local || r != remote {
			return nil, fmt.Errorf("proxy: pool QPs must share one machine pair (%s->%s vs %s->%s)",
				l.Label(), r.Label(), local.Label(), remote.Label())
		}
	}
	t := &Table{pool: pool, conns: make([]int, conns)}
	for c := range t.conns {
		t.conns[c] = c % len(pool)
	}
	return t, nil
}

// ConnQP returns the pooled QP the given logical connection posts on.
func (t *Table) ConnQP(conn int) *verbs.QP { return t.pool[t.conns[conn]] }

// Machines returns the hosts every operation through the table touches: the
// shared local (posting) machine first, then the remote peer's.
func (t *Table) Machines() (local, remote *cluster.Machine) {
	return t.pool[0].Machines()
}

// Post posts one logical connection's work request at the given virtual time
// on the pooled QP the connection is pinned to, and returns its completion.
// The WR is posted unchanged, so the completion carries the caller's WR ID.
//
// Error semantics mirror verbs.QP.PostSend: a flushed or retry-exhausted WR
// returns its completion (whose Status is authoritative) alongside
// verbs.ErrQPError; validation errors return no completion. With recovery
// armed (EnableRecovery) the QP-error path instead runs a recovery episode:
// a successfully replayed WR returns its recovered completion and a nil
// error, and verbs.ErrQPError only surfaces when recovery gave up.
func (t *Table) Post(now sim.Time, conn int, wr *verbs.SendWR) (verbs.Completion, error) {
	if conn < 0 || conn >= len(t.conns) {
		return verbs.Completion{}, fmt.Errorf("proxy: connection %d out of range [0,%d)", conn, len(t.conns))
	}
	if wr == nil {
		return verbs.Completion{}, verbs.ErrNilWR
	}
	qi := t.connQP(now, conn)
	comp, err := t.pool[qi].PostSend(now, wr)
	if t.recovering && errors.Is(err, verbs.ErrQPError) {
		return t.recover(qi, conn, wr, comp)
	}
	return comp, err
}
