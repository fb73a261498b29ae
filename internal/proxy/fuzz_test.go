package proxy_test

import (
	"errors"
	"testing"

	"rdmasem/internal/sim"
	"rdmasem/internal/verbs"
)

// FuzzConnTableDemux drives an arbitrary interleaving of single posts and
// pooled-QP failures through a connection table and checks the invariants
// that make QP sharing safe:
//
//   - exactly-once: every Post returns exactly one completion, carrying the
//     caller's WR ID, and leaves the caller's WR untouched; the server
//     polls exactly one receive CQE per completed SEND and none per flushed
//     one;
//   - blast radius: a connection mapped to a dead pooled QP sees
//     StatusFlushed with verbs.ErrQPError, every other connection StatusOK.
//
// Byte protocol: 0xFF errors out the next pooled QP (round robin), 0xFE is
// a no-op, and any other byte posts one WR on the connection its low bits
// pick.
func FuzzConnTableDemux(f *testing.F) {
	f.Add([]byte{0, 1, 2, 3, 4, 5, 6, 7})
	f.Add([]byte{0x80, 0x81, 0xFE, 0, 1, 2, 0xFE})
	f.Add([]byte{0, 1, 0xFF, 2, 3, 0xFE, 0x84, 0xFF, 5, 6, 0xFE})
	f.Add([]byte{7, 7, 7, 0xFF, 7, 0x87, 0xFE})
	f.Add([]byte{0xFF, 0xFF, 0xFF, 0, 0xFE})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 || len(data) > 256 {
			return
		}
		const poolSize, conns = 3, 8
		e := newTableEnv(t, poolSize, conns)
		e.stock(t, len(data))

		dead := make([]bool, poolSize)
		nextDead := 0
		var id, completed uint64
		for _, b := range data {
			switch {
			case b == 0xFF:
				e.pool[nextDead%poolSize].ForceError()
				dead[nextDead%poolSize] = true
				nextDead++
			case b == 0xFE: // no-op
			default:
				conn := int(b) % conns
				id++
				wr := e.sendWR(id, 32)
				comp, err := e.table.Post(0, conn, wr)
				if err != nil && !errors.Is(err, verbs.ErrQPError) {
					t.Fatalf("post: %v", err)
				}
				if comp.WRID != id || wr.ID != id {
					t.Fatalf("conn %d posted WR %d: completion carries %d, WR now %d", conn, id, comp.WRID, wr.ID)
				}
				if dead[conn%poolSize] {
					if !errors.Is(err, verbs.ErrQPError) || comp.Status != verbs.StatusFlushed {
						t.Fatalf("conn %d on a dead QP: status %v err %v, want StatusFlushed with ErrQPError", conn, comp.Status, err)
					}
					continue
				}
				if err != nil || comp.Status != verbs.StatusOK {
					t.Fatalf("conn %d on a live QP: status %v err %v, want StatusOK", conn, comp.Status, err)
				}
				completed++
			}
		}
		var polled uint64
		for _, qp := range e.pool {
			for {
				if _, ok := qp.Peer().RecvCQ().PollOne(sim.MaxTime); !ok {
					break
				}
				polled++
			}
		}
		if polled != completed {
			t.Fatalf("server polled %d receive CQEs for %d completed SENDs", polled, completed)
		}
	})
}
