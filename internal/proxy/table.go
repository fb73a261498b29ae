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
// onto a small pool of physical QPs, tags every posted work request so its
// completion demuxes back to the owning connection, and confines the blast
// radius of a broken pooled QP to the connections mapped to it.
//
// The mapping is static — connection c posts on pool[c % len(pool)] — so a
// given logical connection always sees the in-order completion guarantees of
// one QP, and a pooled QP entering the error state flushes exactly its own
// connections' work requests (verified by the table's demux bookkeeping and
// pinned by TestPooledQPErrorFlushesOwnConnsOnly).
type Table struct {
	pool    []*verbs.QP
	conns   []connState
	pending map[uint64]pendingWR
	stats   TableStats

	// recovery state, nil/empty until EnableRecovery (see recovery.go).
	rec      *RecoveryPolicy
	recStats RecoveryStats
	recQP    []poolRecState
	ttr      *telemetry.Histogram // per-table TTR, always private
	ttrReg   *telemetry.Histogram // mirrored registry stream, nil without -metrics
}

// connState is the table's view of one logical connection.
type connState struct {
	qp  int    // pool index the connection is pinned to
	seq uint32 // per-connection tag sequence
}

// pendingWR records a posted-but-undelivered work request: which connection
// owns it and the caller-visible WR ID the tag temporarily replaced.
type pendingWR struct {
	conn   int
	userID uint64
}

// TableStats tallies the table's demux activity.
type TableStats struct {
	Posted    uint64 // WRs handed to the table
	Delivered uint64 // completions demuxed back to their owners
	Flushed   uint64 // of those, completions with StatusFlushed
}

// Delivery is one completion routed back to its owning logical connection.
// The completion's WRID is the caller's original ID, not the wire tag.
type Delivery struct {
	Conn       int
	Completion verbs.Completion
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
	t := &Table{
		pool:    pool,
		conns:   make([]connState, conns),
		pending: make(map[uint64]pendingWR),
	}
	for c := range t.conns {
		t.conns[c].qp = c % len(pool)
	}
	return t, nil
}

// PoolSize returns the number of physical QPs.
func (t *Table) PoolSize() int { return len(t.pool) }

// Conns returns the number of logical connections served.
func (t *Table) Conns() int { return len(t.conns) }

// ConnQP returns the pooled QP the given logical connection posts on.
func (t *Table) ConnQP(conn int) *verbs.QP { return t.pool[t.conns[conn].qp] }

// Stats returns the demux tallies.
func (t *Table) Stats() TableStats { return t.stats }

// Machines returns the hosts every operation through the table touches: the
// shared local (posting) machine first, then the remote peer's.
func (t *Table) Machines() (local, remote *cluster.Machine) {
	return t.pool[0].Machines()
}

// stamp assigns the next wire tag for a connection and records the pending
// demux entry. Tags encode the owner (conn+1 in the high 32 bits, so a tag
// is never zero and never collides across connections) plus a per-connection
// sequence; the pending map carries the caller's WR ID back out.
func (t *Table) stamp(conn int, userID uint64) uint64 {
	c := &t.conns[conn]
	c.seq++
	tag := uint64(conn+1)<<32 | uint64(c.seq)
	t.pending[tag] = pendingWR{conn: conn, userID: userID}
	t.stats.Posted++
	return tag
}

// deliver demuxes one completion: the tag must be pending and its encoded
// owner must match the recorded one (a mismatch would be a cross-delivery
// and is reported as a hard error, never silently misrouted).
func (t *Table) deliver(comp verbs.Completion) (Delivery, error) {
	p, ok := t.pending[comp.WRID]
	if !ok {
		return Delivery{}, fmt.Errorf("proxy: completion carries unknown tag %#x", comp.WRID)
	}
	if owner := int(comp.WRID>>32) - 1; owner != p.conn {
		return Delivery{}, fmt.Errorf("proxy: tag %#x owned by conn %d delivered for conn %d", comp.WRID, p.conn, owner)
	}
	delete(t.pending, comp.WRID)
	comp.WRID = p.userID
	t.stats.Delivered++
	if comp.Status == verbs.StatusFlushed {
		t.stats.Flushed++
	}
	return Delivery{Conn: p.conn, Completion: comp}, nil
}

// unstamp forgets a pending entry whose WR never reached the wire (a
// validation failure leaves no effects, so there is nothing to deliver).
func (t *Table) unstamp(tag uint64) {
	delete(t.pending, tag)
	t.stats.Posted--
}

// Post posts one logical connection's work request at the given virtual time
// and demuxes its completion. The WR's ID is preserved: the wire tag is
// stamped for the PostSend call and the caller's ID restored on the way out.
//
// Error semantics mirror verbs.QP.PostSend: a flushed or retry-exhausted WR
// returns its completion (whose Status is authoritative) alongside
// verbs.ErrQPError; validation errors return no delivery. With a recovery
// policy armed (EnableRecovery) the QP-error path instead runs a recovery
// episode: a successfully replayed WR returns its recovered completion and a
// nil error, and verbs.ErrQPError only surfaces when recovery gave up.
func (t *Table) Post(now sim.Time, conn int, wr *verbs.SendWR) (Delivery, error) {
	if conn < 0 || conn >= len(t.conns) {
		return Delivery{}, fmt.Errorf("proxy: connection %d out of range [0,%d)", conn, len(t.conns))
	}
	if wr == nil {
		return Delivery{}, verbs.ErrNilWR
	}
	qi := t.connQP(now, conn)
	qp := t.pool[qi]
	userID := wr.ID
	tag := t.stamp(conn, userID)
	wr.ID = tag
	comp, err := qp.PostSend(now, wr)
	wr.ID = userID
	if err != nil && !errors.Is(err, verbs.ErrQPError) {
		t.unstamp(tag)
		return Delivery{}, err
	}
	if err != nil && t.rec != nil {
		del, rerr := t.recover(qi, comp)
		if rerr != nil {
			return Delivery{}, rerr
		}
		if del.Completion.Status != verbs.StatusOK {
			return del, verbs.ErrQPError
		}
		return del, nil
	}
	del, derr := t.deliver(comp)
	if derr != nil {
		return Delivery{}, derr
	}
	return del, err
}
