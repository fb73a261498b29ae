// Package join implements the paper's third case study (Section IV-D): a
// distributed hash join in two phases. The partition phase shuffles both
// relations to their owner executors over the RDMA shuffle operator (SGL
// batching, Section IV-C); the build-probe phase builds a hash table from
// the inner relation's partition and probes it with the outer relation's
// tuples. The paper uses a TBB concurrent_hash_map; here each executor
// builds a private Go map of key -> count in its own goroutine, because no
// two executors ever share a table and the join reports only match counts.
//
// Execution time is virtual: the partition phase runs on the simulated
// cluster, the build-probe phase is charged per tuple from the local-memory
// cost model, not from the Go map. The data movement is real, so the join
// result can be checked against a nested-loop reference. Run only reads its
// relations, so concurrent runs may share them.
package join

import (
	"encoding/binary"
	"fmt"
	"sync"

	"rdmasem/internal/cluster"
	"rdmasem/internal/core"
	"rdmasem/internal/mem"
	"rdmasem/internal/sim"
	"rdmasem/internal/topo"
	"rdmasem/internal/verbs"
	"rdmasem/internal/workload"
)

// Config describes a distributed join run.
type Config struct {
	Executors int  // θ in Figure 16/17 (1 = single-machine baseline)
	Batch     int  // λ: SGL batch size of the partition phase
	NUMA      bool // NUMA-aware executor/port placement

	// Per-tuple local costs, calibrated so the single-machine baseline on
	// 16M tuples lands near the paper's 6.46 s.
	PartitionCost sim.Duration // hash + dispatch per tuple
	BuildCost     sim.Duration // hash map insert per tuple
	ProbeCost     sim.Duration // hash map lookup per tuple
}

// DefaultConfig returns the Figure 16 calibration.
func DefaultConfig() Config {
	return Config{
		Executors:     4,
		Batch:         4,
		NUMA:          true,
		PartitionCost: 45,
		BuildCost:     210,
		ProbeCost:     150,
	}
}

// tupleBytes is the wire size of one tuple (key + payload).
const tupleBytes = 16

// Result reports one join execution.
type Result struct {
	Matches   int64        // number of matching (inner, outer) pairs
	Elapsed   sim.Duration // virtual end-to-end execution time
	Partition sim.Duration // partition-phase portion
	CPU       sim.Duration // total requester CPU charged
}

// Run executes the join of inner and outer on the cluster and returns the
// result. The executor count must not exceed machines x sockets.
func Run(cl *cluster.Cluster, cfg Config, inner, outer []workload.Tuple) (Result, error) {
	if cfg.Executors < 1 {
		return Result{}, fmt.Errorf("join: need at least one executor")
	}
	if cfg.Executors == 1 {
		return runSingle(cl, cfg, inner, outer), nil
	}
	if cfg.Batch < 1 {
		return Result{}, fmt.Errorf("join: batch must be >= 1")
	}
	return runDistributed(cl, cfg, inner, outer)
}

// runSingle is the native single-machine baseline: one thread partitions,
// builds and probes locally.
func runSingle(cl *cluster.Cluster, cfg Config, inner, outer []workload.Tuple) Result {
	tp := cl.Machine(0).Topology().Params
	// Partitioning degenerates to a scan, but the hash map work stands.
	elapsed := sim.Duration(len(inner)+len(outer)) * cfg.PartitionCost
	counts := make(map[uint64]int32, len(inner))
	for _, t := range inner {
		counts[t.Key]++
	}
	var matches int64
	for _, t := range outer {
		matches += int64(counts[t.Key])
	}
	elapsed += sim.Duration(len(inner))*buildCost(cfg, tp) + sim.Duration(len(outer))*probeCost(cfg, tp)
	return Result{Matches: matches, Elapsed: elapsed, CPU: elapsed}
}

// buildCost is the virtual cost of inserting one tuple into the hash table.
func buildCost(cfg Config, tp topo.Params) sim.Duration {
	return cfg.BuildCost + tp.LocalAccessTime(topo.Write, topo.Rand, tupleBytes, false)
}

// probeCost is the virtual cost of probing the hash table with one tuple.
func probeCost(cfg Config, tp topo.Params) sim.Duration {
	return cfg.ProbeCost + tp.LocalAccessTime(topo.Read, topo.Rand, tupleBytes, false)
}

// ownerOf routes a key to its owning executor.
func ownerOf(key uint64, executors int) int {
	return int((key * 0x9E3779B97F4A7C15 >> 21) % uint64(executors))
}

// executorState is the per-executor partition-phase machinery.
type executorState struct {
	id      int
	socket  topo.SocketID // socket holding the executor's buffers
	coreSck topo.SocketID // socket the executor's thread runs on
	ctx     *verbs.Context
	engine  *core.Engine
	peerIdx []int

	outMR    *verbs.MR
	outHead  int
	staging  *verbs.MR
	inMR     *verbs.MR // per-source slices
	batchers []*core.Batcher
	proxy    []sim.Duration
	pend     [][]core.Fragment
	offs     []int
	recvCnt  []int // tuples received per source (tracked locally for parse)

	cpu  sim.Duration
	last sim.Time // completion of this executor's latest partition action
}

// runDistributed runs the partition phase on the simulated fabric and then
// the build-probe phase on the received partitions.
func runDistributed(cl *cluster.Cluster, cfg Config, inner, outer []workload.Tuple) (Result, error) {
	sockets := cl.Machine(0).Topology().Sockets()
	if cfg.Executors > cl.Size()*sockets {
		return Result{}, fmt.Errorf("join: %d executors exceed cluster capacity %d", cfg.Executors, cl.Size()*sockets)
	}
	ringBytes := ringSizeFor(len(inner)+len(outer), cfg.Executors)
	ctxs := map[*cluster.Machine]*verbs.Context{}
	ctxFor := func(m *cluster.Machine) *verbs.Context {
		if ctxs[m] == nil {
			ctxs[m] = verbs.NewContext(m)
		}
		return ctxs[m]
	}

	execs := make([]*executorState, cfg.Executors)
	for i := range execs {
		m := cl.Machine(i % cl.Size())
		var socket, coreSck topo.SocketID
		if cfg.NUMA {
			// Machines first, then sockets; thread, buffers and port agree.
			socket = topo.SocketID((i / cl.Size()) % sockets)
			coreSck = socket
		} else {
			// NUMA-oblivious: buffers land on whichever socket the allocator
			// picks while the thread stays wherever the scheduler put it, so
			// about half the DMA traffic crosses QPI.
			socket = topo.SocketID(i % sockets)
			coreSck = 0
		}
		ex := &executorState{id: i, socket: socket, coreSck: coreSck, ctx: ctxFor(m)}
		in, err := m.Alloc(socket, cfg.Executors*ringBytes, 0)
		if err != nil {
			return Result{}, err
		}
		ex.inMR = ex.ctx.MustRegisterMR(in)
		out, err := m.Alloc(socket, 1<<20, 0)
		if err != nil {
			return Result{}, err
		}
		ex.outMR = ex.ctx.MustRegisterMR(out)
		stg, err := m.Alloc(socket, 1<<16, 0)
		if err != nil {
			return Result{}, err
		}
		ex.staging = ex.ctx.MustRegisterMR(stg)
		ex.pend = make([][]core.Fragment, cfg.Executors)
		ex.offs = make([]int, cfg.Executors)
		ex.recvCnt = make([]int, cfg.Executors)
		execs[i] = ex
	}
	// Connect engines/batchers.
	mode := core.Basic
	if cfg.NUMA {
		mode = core.Matched
	}
	for _, ex := range execs {
		var peers []*verbs.Context
		seen := map[*verbs.Context]int{}
		ex.peerIdx = make([]int, cfg.Executors)
		for j, other := range execs {
			if other.ctx == ex.ctx {
				ex.peerIdx[j] = -1
				continue
			}
			pi, ok := seen[other.ctx]
			if !ok {
				pi = len(peers)
				peers = append(peers, other.ctx)
				seen[other.ctx] = pi
			}
			ex.peerIdx[j] = pi
		}
		if len(peers) > 0 {
			eng, err := core.NewEngine(ex.ctx, peers, mode)
			if err != nil {
				return Result{}, err
			}
			ex.engine = eng
		}
		ex.batchers = make([]*core.Batcher, cfg.Executors)
		ex.proxy = make([]sim.Duration, cfg.Executors)
		for j, other := range execs {
			if ex.peerIdx[j] < 0 {
				continue
			}
			qp, extra := ex.engine.QP(ex.coreSck, ex.peerIdx[j], other.socket)
			b, err := core.NewBatcher(core.SGL, qp, ex.outMR, ex.staging, other.inMR)
			if err != nil {
				return Result{}, err
			}
			ex.batchers[j] = b
			ex.proxy[j] = extra
		}
	}

	// Partition phase: each executor streams its slice of both relations.
	// Executors run as closed-loop clients, registered in executor order;
	// each op partitions one tuple. A failed post (say, a QP gone to its
	// error state) stops the phase, and the error names the executor as the
	// client's registration index.
	perExec := func(rel []workload.Tuple, e int) []workload.Tuple {
		n := len(rel)
		lo, hi := e*n/cfg.Executors, (e+1)*n/cfg.Executors
		return rel[lo:hi]
	}
	var clients []*sim.Client
	for _, ex := range execs {
		ex := ex
		innerPart, outerPart := perExec(inner, ex.id), perExec(outer, ex.id)
		pos := 0
		client := &sim.Client{
			PostCost: 50,
			Window:   4,
			MaxOps:   int64(len(innerPart) + len(outerPart)),
		}
		client.Op = func(post sim.Time) sim.Time {
			isInner := pos < len(innerPart)
			var t workload.Tuple
			if isInner {
				t = innerPart[pos]
			} else {
				t = outerPart[pos-len(innerPart)]
			}
			pos++
			d, err := ex.partitionOne(post, cfg, ringBytes, execs, t, isInner)
			if err != nil {
				client.Fail(err)
				return post
			}
			if d > ex.last {
				ex.last = d
			}
			return d
		}
		clients = append(clients, client)
	}
	if _, err := sim.RunClosedLoop(clients, sim.MaxTime/4); err != nil {
		return Result{}, fmt.Errorf("join: partition phase: %w", err)
	}
	// Drain pending batches.
	var partitionEnd sim.Time
	for _, ex := range execs {
		d, err := ex.flushAll(ex.last, cfg, ringBytes, execs)
		if err != nil {
			return Result{}, err
		}
		if d > partitionEnd {
			partitionEnd = d
		}
	}

	// Build-probe phase: parallel across executors; the phase ends when the
	// slowest executor finishes (Figure 16b's scalability view).
	tp := cl.Machine(0).Topology().Params
	var wg sync.WaitGroup
	times := make([]sim.Duration, len(execs))
	matches := make([]int64, len(execs))
	for i, ex := range execs {
		wg.Add(1)
		go func(i int, ex *executorState) {
			defer wg.Done()
			times[i], matches[i] = ex.buildProbe(cfg, tp, ringBytes)
		}(i, ex)
	}
	wg.Wait()
	var total Result
	var worst sim.Duration
	for i := range execs {
		total.Matches += matches[i]
		if times[i] > worst {
			worst = times[i]
		}
		total.CPU += execs[i].cpu + times[i]
	}
	total.Partition = sim.Duration(partitionEnd)
	total.Elapsed = sim.Duration(partitionEnd) + worst
	return total, nil
}

// ringSizeFor sizes the per-(src,dst) ring to hold a whole partition.
func ringSizeFor(tuples, executors int) int {
	per := (tuples/executors + executors) * tupleBytes * 2
	// Round to pages.
	return (per + 4095) &^ 4095
}

// partitionOne routes one tuple: serialize into the arrival ring, batch per
// destination, flush full batches via SGL.
func (ex *executorState) partitionOne(now sim.Time, cfg Config, ringBytes int, execs []*executorState, t workload.Tuple, isInner bool) (sim.Time, error) {
	ex.cpu += cfg.PartitionCost
	now += cfg.PartitionCost
	dst := ownerOf(t.Key, len(execs))
	// Wire format: key with the low bit of payload marking inner/outer.
	if ex.outHead+tupleBytes > ex.outMR.Region().Size() {
		ex.outHead = 0
	}
	buf := ex.outMR.Region().Bytes()[ex.outHead : ex.outHead+tupleBytes]
	binary.LittleEndian.PutUint64(buf, t.Key)
	tag := t.Payload &^ 1
	if isInner {
		tag |= 1
	}
	binary.LittleEndian.PutUint64(buf[8:], tag)
	frag := core.Fragment{Addr: ex.outMR.Addr() + mem.Addr(ex.outHead), Length: tupleBytes}
	ex.outHead += tupleBytes

	if dst == ex.id || ex.peerIdx[dst] < 0 {
		// Local partition: deliver through memory.
		dex := execs[dst]
		cost := dex.deliverLocal(ex, buf, ringBytes)
		ex.cpu += cost
		return now + cost, nil
	}
	ex.pend[dst] = append(ex.pend[dst], frag)
	if len(ex.pend[dst]) < cfg.Batch {
		return now, nil
	}
	return ex.flushDst(now, cfg, ringBytes, execs, dst)
}

func (ex *executorState) flushDst(now sim.Time, cfg Config, ringBytes int, execs []*executorState, dst int) (sim.Time, error) {
	frags := ex.pend[dst]
	ex.pend[dst] = ex.pend[dst][:0]
	bytes := len(frags) * tupleBytes
	dex := execs[dst]
	base := ex.id * ringBytes
	if ex.offs[dst]+bytes > ringBytes {
		return 0, fmt.Errorf("join: ring overflow for dst %d", dst)
	}
	remote := dex.inMR.Addr() + mem.Addr(base+ex.offs[dst])
	ex.offs[dst] += bytes
	res, err := ex.batchers[dst].WriteBatch(now+ex.proxy[dst], frags, remote)
	if err != nil {
		return 0, err
	}
	ex.cpu += res.CPU
	dex.recvCnt[ex.id] += len(frags)
	return res.Done, nil
}

func (ex *executorState) flushAll(now sim.Time, cfg Config, ringBytes int, execs []*executorState) (sim.Time, error) {
	done := now
	for dst := range ex.pend {
		if len(ex.pend[dst]) == 0 {
			continue
		}
		d, err := ex.flushDst(now, cfg, ringBytes, execs, dst)
		if err != nil {
			return 0, err
		}
		if d > done {
			done = d
		}
	}
	return done, nil
}

// deliverLocal stores a tuple arriving from a same-context source.
func (ex *executorState) deliverLocal(src *executorState, entry []byte, ringBytes int) sim.Duration {
	base := src.id * ringBytes
	off := ex.recvCnt[src.id] * tupleBytes
	copy(ex.inMR.Region().Bytes()[base+off:], entry)
	ex.recvCnt[src.id]++
	// Same-machine handoff cost.
	return 80
}

// buildProbe builds the executor's private key -> count table from the
// received inner tuples and probes it with the outer keys, returning the
// phase's virtual duration and match count.
func (ex *executorState) buildProbe(cfg Config, tp topo.Params, ringBytes int) (sim.Duration, int64) {
	received := 0
	for _, n := range ex.recvCnt {
		received += n
	}
	counts := make(map[uint64]int32, received)
	outers := make([]uint64, 0, received)
	ring := ex.inMR.Region().Bytes()
	for src, n := range ex.recvCnt {
		b := ring[src*ringBytes:]
		for i := 0; i < n; i++ {
			key := binary.LittleEndian.Uint64(b[i*tupleBytes:])
			if binary.LittleEndian.Uint64(b[i*tupleBytes+8:])&1 == 1 {
				counts[key]++
			} else {
				outers = append(outers, key)
			}
		}
	}
	var matches int64
	for _, key := range outers {
		matches += int64(counts[key])
	}
	inners := received - len(outers)
	elapsed := sim.Duration(inners)*buildCost(cfg, tp) + sim.Duration(len(outers))*probeCost(cfg, tp)
	return elapsed, matches
}
