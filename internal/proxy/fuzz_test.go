package proxy_test

import (
	"errors"
	"testing"

	"rdmasem/internal/proxy"
	"rdmasem/internal/verbs"
)

// FuzzConnTableDemux drives an arbitrary interleaving of single posts and
// pooled-QP failures through a connection table and checks the demux
// invariants that make QP sharing safe:
//
//   - exactly-once: every posted WR produces exactly one delivery, flushed
//     or completed — none lost, none duplicated;
//   - no cross-delivery: a delivery's connection always matches the WR ID
//     the owning connection posted (the ID encodes the origin);
//   - per-connection order: each connection sees its completions in its
//     posting order, across pooled-QP failures.
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

		seq := make([]uint64, conns)   // per-conn posted sequence
		got := make([][]uint64, conns) // per-conn delivered WR IDs, in order
		deadQP := 0
		var posted, delivered uint64

		checkDel := func(d proxy.Delivery) {
			if d.Conn < 0 || d.Conn >= conns {
				t.Fatalf("delivery for unknown conn %d", d.Conn)
			}
			if origin := int(d.Completion.WRID >> 32); origin != d.Conn {
				t.Fatalf("cross-delivery: conn %d got WR posted by conn %d", d.Conn, origin)
			}
			got[d.Conn] = append(got[d.Conn], d.Completion.WRID)
			delivered++
		}
		makeWR := func(conn int) *verbs.SendWR {
			id := uint64(conn)<<32 | seq[conn]
			seq[conn]++
			posted++
			wr := e.sendWR(id, 32)
			return wr
		}
		for _, b := range data {
			switch {
			case b == 0xFF:
				e.pool[deadQP%poolSize].ForceError()
				deadQP++
			case b == 0xFE: // no-op
			default:
				conn := int(b) % conns
				del, err := e.table.Post(0, conn, makeWR(conn))
				if err != nil && !errors.Is(err, verbs.ErrQPError) {
					t.Fatalf("post: %v", err)
				}
				checkDel(del)
			}
		}

		if posted != delivered {
			t.Fatalf("posted %d, delivered %d: completions lost or duplicated", posted, delivered)
		}
		for conn, ids := range got {
			for i, id := range ids {
				if want := uint64(conn)<<32 | uint64(i); id != want {
					t.Fatalf("conn %d delivery %d has WR ID %#x, want %#x: order broken", conn, i, id, want)
				}
			}
		}
		if st := e.table.Stats(); st.Posted != posted || st.Delivered != delivered {
			t.Fatalf("table stats %+v disagree with posted=%d delivered=%d", st, posted, delivered)
		}
	})
}
