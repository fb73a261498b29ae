package bench

import (
	"errors"
	"fmt"
	"math/rand"

	"rdmasem/internal/cluster"
	"rdmasem/internal/fabric"
	"rdmasem/internal/sim"
	"rdmasem/internal/stats"
	"rdmasem/internal/topo"
	"rdmasem/internal/txn"
	"rdmasem/internal/workload"
)

func init() { register("txn", txnConflicts) }

// The fabric arms the txn experiment compares. Order is the plotting order.
var txnModes = []string{"lossless", "lossy"}

// txnConflictShares is the swept share of transactions aimed at the hot key
// set, in percent.
var txnConflictShares = []int{0, 25, 50, 75, 100}

// txnResult is one (fabric mode, conflict share) measurement.
type txnResult struct {
	stats    txn.Stats
	attempts int64   // commit attempts = commits + aborts
	mops     float64 // committed transactions per microsecond
}

func (r txnResult) abortPct() float64 {
	if r.attempts == 0 {
		return 0
	}
	return 100 * float64(r.stats.Aborts) / float64(r.attempts)
}

// txnFaultPlanFor maps a fabric mode to its plan (nil = lossless).
func txnFaultPlanFor(mode string) *fabric.FaultPlan {
	if mode == "lossy" {
		return &fabric.FaultPlan{Seed: 11, Drop: 0.01}
	}
	return nil
}

// txnConflicts is the transactional-KV conflict sweep (golden #32): eight
// clients run split-phase optimistic transactions (two reads, two writes)
// against one store, with a growing share of transactions aimed at a
// four-key hot set so their lock CASes collide. Committed throughput falls
// and the abort rate climbs as the conflict share grows; the lossy arm
// repeats the sweep over a 1%-drop fabric, where retransmission latency
// stretches every phase (and with it the conflict window), so lossy
// throughput stays at or below lossless at every point.
func txnConflicts(r *run) (*Report, error) {
	h := r.horizon(2 * sim.Millisecond)
	n := len(txnConflictShares)
	pts, err := points(r, len(txnModes)*n, func(r *run, i int) (txnResult, error) {
		return txnConflictPoint(r, txnModes[i/n], txnConflictShares[i%n], h)
	})
	if err != nil {
		return nil, err
	}

	fig := stats.NewFigure("Transactional KV: committed throughput vs conflict share (8 clients, 2-key txns)", "conflict share (%)", "committed MTPS")
	abortFig := stats.NewFigure("Transactional KV: abort rate vs conflict share", "conflict share (%)", "aborted commit attempts (%)")
	for mi, mode := range txnModes {
		for pi, pct := range txnConflictShares {
			p := pts[mi*n+pi]
			fig.Line(mode).Add(float64(pct), p.mops)
			abortFig.Line(mode).Add(float64(pct), p.abortPct())
		}
	}

	top := txnConflictShares[n-1]
	tb := stats.NewTable(fmt.Sprintf("Conflict share %d%%: transaction outcomes by fabric", top))
	tb.Row("fabric", "commits", "aborts", "retries", "read retries", "abort %", "committed MTPS")
	for mi, mode := range txnModes {
		p := pts[mi*n+n-1]
		tb.Row(mode,
			fmt.Sprintf("%d", p.stats.Commits),
			fmt.Sprintf("%d", p.stats.Aborts),
			fmt.Sprintf("%d", p.stats.Retries),
			fmt.Sprintf("%d", p.stats.ReadRetries),
			fmt.Sprintf("%.1f", p.abortPct()),
			fmt.Sprintf("%.4f", p.mops))
	}

	return &Report{
		ID:      "txn",
		Figures: []*stats.Figure{fig, abortFig},
		Tables:  []*stats.Table{tb},
		Notes: []string{
			"each transaction reads and writes one sweep-directed key (hot with the swept probability) plus one client-private key",
			"a conflict is a lock CAS observing a version newer than the optimistic read; the loser aborts cleanly and retries from a fresh read",
			"the commit point is the redo append through the remote sequencer, so exactly-once atomics keep aborts clean even under retransmission",
			"fault arms are the experiment's own (the bench-wide -faults plan does not compose with this sweep)",
		},
	}, nil
}

// txnConflictPoint measures one (fabric mode, conflict share) point: its own
// cluster, one store on machine 0, eight split-phase clients spread over the
// other machines.
func txnConflictPoint(r *run, mode string, pct int, h sim.Duration) (txnResult, error) {
	const (
		keySpace = 1 << 12
		hotKeys  = 4
		clients  = 8
	)
	cfg := cluster.DefaultConfig()
	cfg.Faults = txnFaultPlanFor(mode)
	cl, err := r.build(cfg)
	if err != nil {
		return txnResult{}, err
	}
	store, err := txn.NewStore(cl.Machine(0), txn.Config{
		KeySpace: keySpace, ValueSize: 64, MaxWrites: 2,
	})
	if err != nil {
		return txnResult{}, err
	}
	var loop []*sim.Client
	tclients := make([]*txn.Client, clients)
	for i := 0; i < clients; i++ {
		m := cl.Machine(1 + i%7)
		c, err := txn.NewClient(i, m, topo.SocketID(i%2), store)
		if err != nil {
			return txnResult{}, err
		}
		tclients[i] = c
		hot, err := workload.NewUniform(hotKeys, int64(300+i))
		if err != nil {
			return txnResult{}, err
		}
		uni, err := workload.NewUniform(keySpace-hotKeys, int64(600+i))
		if err != nil {
			return txnResult{}, err
		}
		rng := rand.New(rand.NewSource(int64(900 + i)))
		private := uint64(keySpace - clients + i) // disjoint per-client key
		buf := make([]byte, 64)
		val := make([]byte, 64)
		var tx *txn.Txn
		var k1 uint64
		// Split-phase transactions: reads and the commit run in separate
		// scheduler steps, so transactions genuinely overlap in virtual time
		// and hot-key lock CASes can observe a competitor's commit.
		client := &sim.Client{PostCost: 200, Window: 1}
		client.Op = func(post sim.Time) sim.Time {
			if tx == nil {
				if rng.Intn(100) < pct {
					k1 = hot.Next()
				} else {
					k1 = hotKeys + uni.Next()
				}
				tx = c.Begin(post)
				for _, k := range []uint64{k1, private} {
					if err := tx.Get(k, buf); err != nil {
						client.Fail(err)
						return post
					}
					workload.FillValue(val, k)
					if err := tx.Put(k, val); err != nil {
						client.Fail(err)
						return post
					}
				}
				return tx.Now()
			}
			tx.AdvanceTo(post)
			done, err := tx.Commit()
			if errors.Is(err, txn.ErrConflict) {
				c.NoteRetry()
			} else {
				client.Fail(err)
			}
			tx = nil
			return done
		}
		loop = append(loop, client)
	}
	if _, err := sim.RunClosedLoop(loop, h); err != nil {
		return txnResult{}, err
	}

	var res txnResult
	for _, c := range tclients {
		c.FoldTelemetry(r.reg)
		st := c.Stats()
		res.stats.Commits += st.Commits
		res.stats.Aborts += st.Aborts
		res.stats.Retries += st.Retries
		res.stats.ReadRetries += st.ReadRetries
		res.stats.Strands += st.Strands
	}
	res.attempts = res.stats.Commits + res.stats.Aborts
	res.mops = float64(res.stats.Commits) * float64(sim.Microsecond) / float64(h)
	return res, nil
}
