// Package shuffle implements the paper's second case study (Section IV-C): a
// push-based distributed shuffle. Each executor consumes a key-value stream,
// decides the destination executor by key hash, buffers entries per
// destination, and pushes batches into the destination's registered ring
// with one-sided RDMA writes. Stage synchronization uses RDMA fetch-and-add
// on per-destination counters, because one-sided writes are invisible to the
// next stage's executors.
//
// The batch strategies of Section III-A apply directly: SGL lets the RNIC
// gather the arrival-order-scattered same-destination entries, SP gathers
// them with a CPU memcpy; Basic (batch size 1) writes each entry separately.
//
// The exchange underneath Process (Send, FlushAll, Received) is also the
// distributed join's partition phase (Section IV-D, package join): the
// caller picks each entry's destination and serializes it, and every
// (source, destination) pair lands in its own slice of the destination's
// inbound ring, same-machine deliveries included. Process adds the shuffle's
// own parts on top: the key hash, the memcpy cost of a same-machine
// delivery, and the fetch-and-add stage sync after each flush.
package shuffle

import (
	"encoding/binary"
	"fmt"

	"rdmasem/internal/cluster"
	"rdmasem/internal/core"
	"rdmasem/internal/mem"
	"rdmasem/internal/sim"
	"rdmasem/internal/topo"
	"rdmasem/internal/verbs"
	"rdmasem/internal/workload"
)

// Config describes a shuffle deployment: its shape and batching. The
// per-entry CPU cost of Process is the constant perEntry.
type Config struct {
	Executors int           // executors, placed round-robin over machines x sockets
	ValueSize int           // value bytes per entry (key adds 8)
	Batch     int           // entries per same-destination flush (1 = basic)
	Strategy  core.Strategy // SP or SGL (ignored when Batch == 1)
	NUMA      bool          // NUMA-aware placement + matched QPs vs oblivious + one QP
	RingBytes int           // per (src,dst) receive ring slice
}

// DefaultConfig mirrors the paper's Figure 15 setup.
func DefaultConfig() Config {
	return Config{
		Executors: 8,
		ValueSize: 56, // 64-byte entries
		Batch:     1,
		Strategy:  core.SGL,
		NUMA:      true,
		RingBytes: 1 << 20,
	}
}

// perEntry is Process's CPU cost to hash and dispatch one entry.
const perEntry sim.Duration = 60

// entrySize is the wire size of one entry.
func (c Config) entrySize() int { return 8 + c.ValueSize }

// Shuffle is a running deployment: executors spread over the cluster.
type Shuffle struct {
	cfg   Config
	execs []*Executor
	ctxs  map[*cluster.Machine]*verbs.Context // one opened device per machine
}

// ctxFor returns the machine's shared verbs context.
func (s *Shuffle) ctxFor(m *cluster.Machine) *verbs.Context {
	if s.ctxs == nil {
		s.ctxs = make(map[*cluster.Machine]*verbs.Context)
	}
	if s.ctxs[m] == nil {
		s.ctxs[m] = verbs.NewContext(m)
	}
	return s.ctxs[m]
}

// Executor is one shuffle worker, pinned to a machine socket.
type Executor struct {
	id      int
	shuffle *Shuffle
	ctx     *verbs.Context
	socket  topo.SocketID // socket holding the executor's buffers
	thread  topo.SocketID // socket the executor's thread posts from
	engine  *core.Engine
	peerIdx []int // engine peer index per executor id (-1 = same machine)

	// Outgoing: an arrival ring that entries of all destinations share, so
	// same-destination entries are genuinely scattered, plus per-dst
	// pending fragment lists and batchers.
	outMR    *verbs.MR
	outHead  int
	staging  *verbs.MR // SP staging
	pending  [][]core.Fragment
	batchers []*core.Batcher
	proxy    []sim.Duration // per-dst proxy-IPC cost (matched mode)
	wire     []byte         // Process's serialized entry

	// Incoming: one ring slice per source, the entries landed in each, and
	// the stage-sync arrival counters.
	inMR     *verbs.MR
	landed   []int
	counters *verbs.MR

	entries int64
	flushes int64
	cpu     sim.Duration
}

// New builds a shuffle deployment on the cluster. Executor i runs on
// machine i%machines; the executor count must not exceed machines x
// sockets.
func New(cl *cluster.Cluster, cfg Config) (*Shuffle, error) {
	if cfg.Executors < 2 {
		return nil, fmt.Errorf("shuffle: need at least 2 executors")
	}
	if cfg.Batch < 1 || cfg.RingBytes < cfg.Batch*cfg.entrySize() {
		return nil, fmt.Errorf("shuffle: bad batch/ring sizing")
	}
	if cfg.Executors > cl.Size()*topo.Sockets {
		return nil, fmt.Errorf("shuffle: %d executors exceed cluster capacity %d", cfg.Executors, cl.Size()*topo.Sockets)
	}
	s := &Shuffle{cfg: cfg}
	for i := 0; i < cfg.Executors; i++ {
		m := cl.Machine(i % cl.Size())
		ex := &Executor{id: i, shuffle: s, ctx: s.ctxFor(m), wire: make([]byte, cfg.entrySize())}
		if cfg.NUMA {
			// Machines first, then sockets, as the paper's deployment
			// does; thread, buffers and port agree.
			ex.socket = topo.SocketID((i / cl.Size()) % topo.Sockets)
			ex.thread = ex.socket
		} else {
			// NUMA-oblivious: buffers land on whichever socket the
			// allocator picks while the thread stays wherever the scheduler
			// put it, so about half the DMA traffic crosses QPI.
			ex.socket = topo.SocketID(i % topo.Sockets)
		}
		regions := []struct {
			mr   **verbs.MR
			size int
		}{
			{&ex.inMR, cfg.Executors * cfg.RingBytes}, // one slice per source
			{&ex.outMR, 1 << 20},
			{&ex.staging, 1 << 16},
			{&ex.counters, 4096},
		}
		for _, r := range regions {
			reg, err := m.Alloc(ex.socket, r.size, 0)
			if err != nil {
				return nil, err
			}
			*r.mr = ex.ctx.MustRegisterMR(reg)
		}
		ex.landed = make([]int, cfg.Executors)
		s.execs = append(s.execs, ex)
	}
	// Wire engines and batchers now that all executors exist.
	for _, ex := range s.execs {
		if err := ex.connect(); err != nil {
			return nil, err
		}
	}
	return s, nil
}

// connect builds the executor's engine toward every other executor's
// machine and a batcher per remote destination.
func (ex *Executor) connect() error {
	s := ex.shuffle
	mode := core.Basic
	if s.cfg.NUMA {
		mode = core.Matched
	}
	var peers []*verbs.Context
	ex.peerIdx = make([]int, len(s.execs))
	seen := map[*cluster.Machine]int{}
	for j, other := range s.execs {
		if other.ctx.Machine() == ex.ctx.Machine() {
			ex.peerIdx[j] = -1 // local destination: direct memory, no RDMA
			continue
		}
		pi, ok := seen[other.ctx.Machine()]
		if !ok {
			pi = len(peers)
			peers = append(peers, other.ctx)
			seen[other.ctx.Machine()] = pi
		}
		ex.peerIdx[j] = pi
	}
	if len(peers) > 0 {
		eng, err := core.NewEngine(ex.ctx, peers, mode)
		if err != nil {
			return err
		}
		ex.engine = eng
	}
	ex.pending = make([][]core.Fragment, len(s.execs))
	ex.batchers = make([]*core.Batcher, len(s.execs))
	ex.proxy = make([]sim.Duration, len(s.execs))
	for j, other := range s.execs {
		if ex.Local(j) {
			continue
		}
		qp, extra := ex.engine.QP(ex.thread, ex.peerIdx[j], other.socket)
		b, err := core.NewBatcher(s.cfg.Strategy, qp, ex.outMR, ex.staging, other.inMR)
		if err != nil {
			return err
		}
		ex.batchers[j] = b
		ex.proxy[j] = extra
	}
	return nil
}

// destOf routes a key to an executor.
func (s *Shuffle) destOf(key uint64) int {
	return int((key * 0x9E3779B97F4A7C15 >> 17) % uint64(len(s.execs)))
}

// Process consumes one entry at the given virtual time: route it by key
// hash, Send it, and bump the destination's arrival counter after a flush.
// It returns the entry's completion time. The value is copied before Process
// returns, so the caller may reuse its buffer (workload.Stream does).
func (ex *Executor) Process(now sim.Time, kv workload.KV) (sim.Time, error) {
	cfg := ex.shuffle.cfg
	if len(kv.Value) != cfg.ValueSize {
		return 0, fmt.Errorf("shuffle: entry value %d bytes, want %d", len(kv.Value), cfg.ValueSize)
	}
	binary.LittleEndian.PutUint64(ex.wire, kv.Key)
	copy(ex.wire[8:], kv.Value)
	dst := ex.shuffle.destOf(kv.Key)
	ex.cpu += perEntry
	now += perEntry
	if ex.Local(dst) {
		tp := ex.ctx.Machine().Topology()
		cost := tp.MemcpyTime(len(ex.wire), ex.socket != ex.shuffle.execs[dst].socket)
		ex.cpu += cost
		now += cost
	}
	t, n, err := ex.Send(now, dst, ex.wire)
	if err != nil || n == 0 {
		return t, err
	}
	// Stage sync: bump dst's per-source arrival counter.
	dex := ex.shuffle.execs[dst]
	scr := verbs.SGE{Addr: ex.staging.Addr() + mem.Addr(ex.staging.Region().Size()-8), Length: 8, MR: ex.staging}
	_, t, err = ex.engine.FetchAdd(t, ex.thread, scr, ex.peerIdx[dst],
		dex.counters.Addr()+mem.Addr(ex.id*8), dex.counters, uint64(n))
	return t, err
}

// Local reports whether dst shares the executor's machine. Send delivers
// to such a destination through memory at once; the caller charges that
// handoff.
func (ex *Executor) Local(dst int) bool { return ex.peerIdx[dst] < 0 }

// Send pushes one serialized entry to executor dst at virtual time now. The
// entry is copied into the arrival ring; a remote destination's entries wait
// in its pending list and go out as one batched write once Batch of them
// are pending. Send returns the completion time and the number of entries a
// flush landed at dst (0 when none did). An entry that would overflow its
// slice of dst's inbound ring returns an error and lands nothing.
func (ex *Executor) Send(now sim.Time, dst int, entry []byte) (sim.Time, int, error) {
	cfg := ex.shuffle.cfg
	es := cfg.entrySize()
	if len(entry) != es {
		return 0, 0, fmt.Errorf("shuffle: entry is %d bytes, want %d", len(entry), es)
	}
	if ex.outHead+es > ex.outMR.Region().Size() {
		ex.outHead = 0
	}
	copy(ex.outMR.Region().Bytes()[ex.outHead:], entry)
	frag := core.Fragment{Addr: ex.outMR.Addr() + mem.Addr(ex.outHead), Length: es}
	ex.outHead += es
	ex.entries++

	if ex.Local(dst) {
		dex := ex.shuffle.execs[dst]
		off, err := dex.tail(ex.id, es)
		if err != nil {
			return 0, 0, err
		}
		copy(dex.inMR.Region().Bytes()[off:], entry)
		dex.landed[ex.id]++
		return now, 0, nil
	}
	ex.pending[dst] = append(ex.pending[dst], frag)
	if len(ex.pending[dst]) < cfg.Batch {
		return now, 0, nil
	}
	return ex.flush(now, dst)
}

// tail returns the inbound-ring offset where src's next n bytes land, or an
// error when they would overflow src's slice.
func (ex *Executor) tail(src, n int) (int, error) {
	cfg := ex.shuffle.cfg
	used := ex.landed[src] * cfg.entrySize()
	if used+n > cfg.RingBytes {
		return 0, fmt.Errorf("shuffle: executor %d's slice for source %d overflows: %d + %d of %d bytes",
			ex.id, src, used, n, cfg.RingBytes)
	}
	return src*cfg.RingBytes + used, nil
}

// flush pushes the pending batch for dst as one batched RDMA write and
// returns its completion time and entry count.
func (ex *Executor) flush(now sim.Time, dst int) (sim.Time, int, error) {
	frags := ex.pending[dst]
	ex.pending[dst] = frags[:0]
	dex := ex.shuffle.execs[dst]
	off, err := dex.tail(ex.id, len(frags)*ex.shuffle.cfg.entrySize())
	if err != nil {
		return 0, 0, err
	}
	res, err := ex.batchers[dst].WriteBatch(now+ex.proxy[dst], frags, dex.inMR.Addr()+mem.Addr(off))
	if err != nil {
		// The landed count did not advance, so the receiver cannot observe
		// a partial batch.
		return 0, 0, fmt.Errorf("shuffle: batch to executor %d: %w", dst, err)
	}
	ex.cpu += res.CPU
	ex.flushes++
	dex.landed[ex.id] += len(frags)
	return res.Done, len(frags), nil
}

// FlushAll drains every pending list (end of stream) without a stage-sync
// bump; a reader after the drain consults Received.
func (ex *Executor) FlushAll(now sim.Time) (sim.Time, error) {
	done := now
	for dst := range ex.pending {
		if len(ex.pending[dst]) == 0 {
			continue
		}
		t, _, err := ex.flush(now, dst)
		if err != nil {
			return 0, err
		}
		if t > done {
			done = t
		}
	}
	return done, nil
}

// Executors returns the deployment's executors in id order.
func (s *Shuffle) Executors() []*Executor { return s.execs }

// ID returns the executor's index.
func (ex *Executor) ID() int { return ex.id }

// Stats reports processed entries, issued flushes, and CPU time burned.
func (ex *Executor) Stats() (entries, flushes int64, cpu sim.Duration) {
	return ex.entries, ex.flushes, ex.cpu
}

// Received returns the entries src has landed in my ring slice, in landing
// order, as the ring's own bytes.
func (ex *Executor) Received(src int) []byte {
	base := src * ex.shuffle.cfg.RingBytes
	return ex.inMR.Region().Bytes()[base : base+ex.landed[src]*ex.shuffle.cfg.entrySize()]
}
