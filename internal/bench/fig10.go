package bench

import (
	"rdmasem/internal/cluster"
	"rdmasem/internal/core"
	"rdmasem/internal/sim"
	"rdmasem/internal/stats"
	"rdmasem/internal/verbs"
)

func init() {
	register("fig10a", fig10aSpinlock)
	register("fig10b", fig10bSequencer)
}

// lockCluster builds n client machines plus one home machine for the lock
// word / counter / RPC server.
type lockCluster struct {
	cl     *cluster.Cluster
	home   *verbs.Context
	homeMR *verbs.MR
	ctxs   []*verbs.Context
	qps    []*verbs.QP
	scrs   []*verbs.MR
}

func newLockCluster(r *run, n int) (*lockCluster, error) {
	cfg := cluster.DefaultConfig()
	cfg.Machines = n + 1
	cl, err := r.newCluster(cfg)
	if err != nil {
		return nil, err
	}
	lc := &lockCluster{cl: cl, home: verbs.NewContext(cl.Machine(0))}
	hm, err := cl.Machine(0).Alloc(1, 4096, 0)
	if err != nil {
		return nil, err
	}
	lc.homeMR = lc.home.MustRegisterMR(hm)
	for i := 0; i < n; i++ {
		ctx := verbs.NewContext(cl.Machine(i + 1))
		qp, _, err := verbs.Connect(ctx, 1, lc.home, 1, verbs.RC)
		if err != nil {
			return nil, err
		}
		sr, err := cl.Machine(i+1).Alloc(1, 4096, 0)
		if err != nil {
			return nil, err
		}
		lc.ctxs = append(lc.ctxs, ctx)
		lc.qps = append(lc.qps, qp)
		lc.scrs = append(lc.scrs, ctx.MustRegisterMR(sr))
	}
	return lc, nil
}

// remoteLockMOPS measures aggregate lock+unlock cycles per second.
func remoteLockMOPS(r *run, n int, backoff *sim.Backoff, h sim.Duration) (float64, error) {
	lc, err := newLockCluster(r, n)
	if err != nil {
		return 0, err
	}
	state := core.NewLockState()
	var clients []*sim.Client
	for i := 0; i < n; i++ {
		lock, err := core.NewRemoteLock(state, lc.qps[i],
			verbs.SGE{Addr: lc.scrs[i].Addr(), Length: 8, MR: lc.scrs[i]},
			lc.homeMR, lc.homeMR.Addr(), i, backoff)
		if err != nil {
			return 0, err
		}
		client := &sim.Client{PostCost: 150, Window: 1}
		client.Op = func(post sim.Time) sim.Time {
			at, err := lock.Acquire(post)
			if err != nil {
				client.Fail(err)
				return post
			}
			rt, err := lock.Release(at)
			client.Fail(err)
			return rt
		}
		clients = append(clients, client)
	}
	res, err := sim.RunClosedLoop(clients, h)
	return res.MOPS(), err
}

// localLockMOPS measures the GCC-builtin local spinlock baseline.
func localLockMOPS(n int, h sim.Duration) (float64, error) {
	state := core.NewLockState()
	line := core.NewLocalLockLine()
	var clients []*sim.Client
	for i := 0; i < n; i++ {
		lock := core.NewLocalLock(state, line, i)
		clients = append(clients, &sim.Client{
			PostCost: 4,
			Window:   1,
			Op: func(post sim.Time) sim.Time {
				at := lock.Acquire(post)
				return lock.Release(at)
			},
		})
	}
	res, err := sim.RunClosedLoop(clients, h)
	return res.MOPS(), err
}

// rpcLockMOPS measures the channel-semantic lock baseline.
func rpcLockMOPS(r *run, n int, h sim.Duration) (float64, error) {
	lc, err := newLockCluster(r, n)
	if err != nil {
		return 0, err
	}
	srv, err := core.NewRPCServer(lc.home, lc.homeMR)
	if err != nil {
		return 0, err
	}
	state := core.NewLockState()
	var clients []*sim.Client
	for i := 0; i < n; i++ {
		rc, err := srv.NewRPCClient(lc.ctxs[i], 1, 1, lc.scrs[i])
		if err != nil {
			return 0, err
		}
		lock := core.NewRPCLock(state, rc, i)
		client := &sim.Client{PostCost: 150, Window: 1}
		client.Op = func(post sim.Time) sim.Time {
			at, err := lock.Acquire(post)
			if err != nil {
				client.Fail(err)
				return post
			}
			rt, err := lock.Release(at)
			client.Fail(err)
			return rt
		}
		clients = append(clients, client)
	}
	res, err := sim.RunClosedLoop(clients, h)
	return res.MOPS(), err
}

// fig10aSpinlock reproduces Figure 10(a): local vs remote vs RPC spinlocks
// over thread count, plus the exponential back-off variant of the remote
// lock.
func fig10aSpinlock(r *run) (*Report, error) {
	fig := stats.NewFigure("Fig 10a: spinlock throughput (lock+unlock cycles)", "threads", "throughput (MOPS)")
	h := r.horizon(10 * sim.Millisecond)
	bo := sim.DefaultBackoff()
	threads := []int{1, 2, 4, 6, 8, 10, 12, 14}
	variants := []struct {
		label string
		mops  func(r *run, n int) (float64, error)
	}{
		{"Local", func(_ *run, n int) (float64, error) { return localLockMOPS(n, h) }},
		{"Remote", func(r *run, n int) (float64, error) { return remoteLockMOPS(r, n, nil, h) }},
		{"Remote(backoff)", func(r *run, n int) (float64, error) { return remoteLockMOPS(r, n, &bo, h) }},
		{"RPC-based", func(r *run, n int) (float64, error) { return rpcLockMOPS(r, n, h) }},
	}
	ms, err := points(r, len(threads)*len(variants), func(r *run, i int) (float64, error) {
		return variants[i%len(variants)].mops(r, threads[i/len(variants)])
	})
	if err != nil {
		return nil, err
	}
	for ti, n := range threads {
		for vi, v := range variants {
			fig.Line(v.label).Add(float64(n), ms[ti*len(variants)+vi])
		}
	}
	return &Report{
		ID:      "fig10a",
		Figures: []*stats.Figure{fig},
		Notes: []string{
			"paper: local collapses to ~1.2% of its 1-thread peak; remote converges (~0.31-0.36 MOPS at 8 threads) retaining ~14%;",
			"remote beats RPC by 1.54-2.80x; with back-off the remote lock leads local and RPC at 14 threads",
		},
	}, nil
}

// localSequencerMOPS: all threads FAA one cache line.
func localSequencerMOPS(n int, h sim.Duration) (float64, error) {
	seqLocal := core.NewLocalSequencer()
	var locals []*sim.Client
	for i := 0; i < n; i++ {
		i := i
		seqLocal.Register()
		locals = append(locals, &sim.Client{
			PostCost: 4,
			Window:   1,
			Op: func(post sim.Time) sim.Time {
				_, t := seqLocal.Next(post, i)
				return t
			},
		})
	}
	res, err := sim.RunClosedLoop(locals, h)
	return res.MOPS(), err
}

// remoteSequencerMOPS: FAA against the home machine.
func remoteSequencerMOPS(r *run, n int, h sim.Duration) (float64, error) {
	lc, err := newLockCluster(r, n)
	if err != nil {
		return 0, err
	}
	var clients []*sim.Client
	for i := 0; i < n; i++ {
		seq, err := core.NewRemoteSequencer(lc.qps[i],
			verbs.SGE{Addr: lc.scrs[i].Addr(), Length: 8, MR: lc.scrs[i]},
			lc.homeMR, lc.homeMR.Addr())
		if err != nil {
			return 0, err
		}
		client := &sim.Client{PostCost: 150, Window: 4}
		client.Op = func(post sim.Time) sim.Time {
			_, t, err := seq.Next(post, 1)
			client.Fail(err)
			return t
		}
		clients = append(clients, client)
	}
	res, err := sim.RunClosedLoop(clients, h)
	return res.MOPS(), err
}

// rpcSequencerMOPS: a counter behind a server, called over RC or, with ud,
// over UD datagrams.
func rpcSequencerMOPS(r *run, n int, ud bool, h sim.Duration) (float64, error) {
	lc, err := newLockCluster(r, n)
	if err != nil {
		return 0, err
	}
	var newCaller func(i int) (core.Caller, error)
	if ud {
		srv, err := core.NewUDRPCServer(lc.home, 1, lc.homeMR)
		if err != nil {
			return 0, err
		}
		newCaller = func(i int) (core.Caller, error) { return srv.NewUDRPCClient(lc.ctxs[i], 1, lc.scrs[i]) }
	} else {
		srv, err := core.NewRPCServer(lc.home, lc.homeMR)
		if err != nil {
			return 0, err
		}
		newCaller = func(i int) (core.Caller, error) { return srv.NewRPCClient(lc.ctxs[i], 1, 1, lc.scrs[i]) }
	}
	var counter uint64
	var clients []*sim.Client
	for i := 0; i < n; i++ {
		caller, err := newCaller(i)
		if err != nil {
			return 0, err
		}
		seq := core.NewRPCSequencer(caller, &counter)
		client := &sim.Client{PostCost: 150, Window: 1}
		client.Op = func(post sim.Time) sim.Time {
			_, t, err := seq.Next(post)
			client.Fail(err)
			return t
		}
		clients = append(clients, client)
	}
	res, err := sim.RunClosedLoop(clients, h)
	return res.MOPS(), err
}

// fig10bSequencer reproduces Figure 10(b): local vs remote vs RPC
// sequencers over thread count.
func fig10bSequencer(r *run) (*Report, error) {
	fig := stats.NewFigure("Fig 10b: sequencer throughput", "threads", "throughput (MOPS)")
	h := r.horizon(10 * sim.Millisecond)
	threads := []int{1, 2, 4, 6, 8, 10, 12, 14, 16}
	variants := []struct {
		label string
		mops  func(r *run, n int) (float64, error)
	}{
		{"Local Sequencer", func(_ *run, n int) (float64, error) { return localSequencerMOPS(n, h) }},
		{"Remote Sequencer", func(r *run, n int) (float64, error) { return remoteSequencerMOPS(r, n, h) }},
		{"RPC Sequencer", func(r *run, n int) (float64, error) { return rpcSequencerMOPS(r, n, false, h) }},
		// UD RPC: the Herd/FaSST-style datagram variant Section III-E cites
		// as the faster two-sided implementation.
		{"UD RPC Sequencer", func(r *run, n int) (float64, error) { return rpcSequencerMOPS(r, n, true, h) }},
	}
	ms, err := points(r, len(threads)*len(variants), func(r *run, i int) (float64, error) {
		return variants[i%len(variants)].mops(r, threads[i/len(variants)])
	})
	if err != nil {
		return nil, err
	}
	for ti, n := range threads {
		for vi, v := range variants {
			fig.Line(v.label).Add(float64(n), ms[ti*len(variants)+vi])
		}
	}
	return &Report{
		ID:      "fig10b",
		Figures: []*stats.Figure{fig},
		Notes: []string{
			"paper: remote sequencer stable ~2.6 MOPS beyond 5 threads, 1.87-2.25x the RPC sequencer; local starts ~100 MOPS and degrades under contention",
			"extension: the UD RPC series is the Kalia et al. datagram design III-E credits with outrunning connected-transport RPC",
		},
	}, nil
}
