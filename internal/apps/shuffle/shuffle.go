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
package shuffle

import (
	"fmt"

	"rdmasem/internal/cluster"
	"rdmasem/internal/core"
	"rdmasem/internal/mem"
	"rdmasem/internal/sim"
	"rdmasem/internal/topo"
	"rdmasem/internal/verbs"
	"rdmasem/internal/workload"
)

// Config describes a shuffle deployment.
type Config struct {
	Executors int           // executors, placed round-robin over machines x sockets
	ValueSize int           // value bytes per entry (key adds 8)
	Batch     int           // entries per same-destination flush (1 = basic)
	Strategy  core.Strategy // SP or SGL (ignored when Batch == 1)
	NUMA      bool          // matched per-socket QPs vs one unmatched QP
	RingBytes int           // per (src,dst) receive ring slice
	PerEntry  sim.Duration  // CPU cost to hash/dispatch one entry
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
		PerEntry:  60,
	}
}

// entrySize is the wire size of one entry.
func (c Config) entrySize() int { return 8 + c.ValueSize }

// Shuffle is a running deployment: executors spread over the cluster.
type Shuffle struct {
	cfg   Config
	cl    *cluster.Cluster
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
	socket  topo.SocketID
	engine  *core.Engine
	peerIdx []int // engine peer index per executor id (-1 = self)

	// Outgoing: an arrival ring that entries of all destinations share, so
	// same-destination entries are genuinely scattered, plus per-dst
	// pending fragment lists and batchers.
	outMR    *verbs.MR
	outHead  int
	staging  *verbs.MR // SP staging
	pending  [][]core.Fragment
	batchers []*core.Batcher
	proxy    []sim.Duration // per-dst proxy-IPC cost (matched mode)

	// Incoming: one ring slice per source, plus arrival counters.
	inMR      *verbs.MR
	counters  *verbs.MR
	writeOffs []int // per-dst write offset into my slice of dst's ring

	entries int64
	flushes int64
	cpu     sim.Duration
}

// New builds a shuffle deployment on the cluster. Executor i runs on
// machine i/socketsPerMachine (wrapping) socket i%sockets.
func New(cl *cluster.Cluster, cfg Config) (*Shuffle, error) {
	if cfg.Executors < 2 {
		return nil, fmt.Errorf("shuffle: need at least 2 executors")
	}
	if cfg.Batch < 1 || cfg.RingBytes < cfg.Batch*cfg.entrySize() {
		return nil, fmt.Errorf("shuffle: bad batch/ring sizing")
	}
	s := &Shuffle{cfg: cfg, cl: cl}
	sockets := cl.Machine(0).Topology().Sockets()
	for i := 0; i < cfg.Executors; i++ {
		// Spread executors across machines first, then sockets, as the
		// paper's deployment does.
		m := cl.Machine(i % cl.Size())
		ex := &Executor{
			id:      i,
			shuffle: s,
			ctx:     s.ctxFor(m),
			socket:  topo.SocketID((i / cl.Size()) % sockets),
		}
		// Inbound ring: one slice per source executor, on my socket.
		in, err := m.Alloc(ex.socket, cfg.Executors*cfg.RingBytes, 0)
		if err != nil {
			return nil, err
		}
		ex.inMR = ex.ctx.MustRegisterMR(in)
		cnt, err := m.Alloc(ex.socket, 4096, 0)
		if err != nil {
			return nil, err
		}
		ex.counters = ex.ctx.MustRegisterMR(cnt)
		out, err := m.Alloc(ex.socket, 1<<20, 0)
		if err != nil {
			return nil, err
		}
		ex.outMR = ex.ctx.MustRegisterMR(out)
		stg, err := m.Alloc(ex.socket, 1<<16, 0)
		if err != nil {
			return nil, err
		}
		ex.staging = ex.ctx.MustRegisterMR(stg)
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
// machine and a batcher per destination.
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
	ex.writeOffs = make([]int, len(s.execs))
	for j, other := range s.execs {
		if ex.peerIdx[j] < 0 || j == ex.id {
			continue
		}
		qp, extra := ex.engine.QP(ex.socket, ex.peerIdx[j], other.socket)
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

// Process consumes one entry at the given virtual time: append it to the
// arrival ring, and flush its destination's pending list when the batch
// threshold is reached. It returns the entry's completion time. The value
// is copied into the ring before Process returns, so the caller may reuse
// its buffer (workload.Stream does).
func (ex *Executor) Process(now sim.Time, kv workload.KV) (sim.Time, error) {
	cfg := ex.shuffle.cfg
	es := cfg.entrySize()
	if len(kv.Value) != cfg.ValueSize {
		return 0, fmt.Errorf("shuffle: entry value %d bytes, want %d", len(kv.Value), cfg.ValueSize)
	}
	// Serialize into the arrival ring.
	if ex.outHead+es > ex.outMR.Region().Size() {
		ex.outHead = 0
	}
	buf := ex.outMR.Region().Bytes()[ex.outHead : ex.outHead+es]
	putU64(buf, kv.Key)
	copy(buf[8:], kv.Value)
	frag := core.Fragment{Addr: ex.outMR.Addr() + mem.Addr(ex.outHead), Length: es}
	ex.outHead += es

	dst := ex.shuffle.destOf(kv.Key)
	ex.entries++
	ex.cpu += cfg.PerEntry
	now += cfg.PerEntry

	if dst == ex.id || ex.peerIdx[dst] < 0 {
		// Local destination: deliver through memory.
		dex := ex.shuffle.execs[dst]
		tp := ex.ctx.Machine().Topology().Params
		cost := tp.MemcpyTime(es, ex.socket != dex.socket)
		dex.deliverLocal(buf)
		ex.cpu += cost
		return now + cost, nil
	}

	ex.pending[dst] = append(ex.pending[dst], frag)
	if len(ex.pending[dst]) < cfg.Batch {
		return now, nil
	}
	return ex.flush(now, dst)
}

// flush pushes the pending batch for dst as one batched RDMA write plus the
// fetch-and-add stage-sync bump.
func (ex *Executor) flush(now sim.Time, dst int) (sim.Time, error) {
	cfg := ex.shuffle.cfg
	frags := ex.pending[dst]
	ex.pending[dst] = ex.pending[dst][:0]
	bytes := 0
	for _, f := range frags {
		bytes += f.Length
	}
	dex := ex.shuffle.execs[dst]
	// My slice of dst's ring starts at srcID*RingBytes.
	sliceBase := ex.id * cfg.RingBytes
	if ex.writeOffs[dst]+bytes > cfg.RingBytes {
		ex.writeOffs[dst] = 0
	}
	remote := dex.inMR.Addr() + mem.Addr(sliceBase+ex.writeOffs[dst])
	ex.writeOffs[dst] += bytes

	res, err := ex.batchers[dst].WriteBatch(now+ex.proxy[dst], frags, remote)
	if err != nil {
		// The ring slot was never advanced, so the receiver cannot observe
		// a partial batch.
		return 0, fmt.Errorf("shuffle: batch to executor %d: %w", dst, err)
	}
	ex.cpu += res.CPU
	ex.flushes++

	// Stage sync: bump dst's per-source arrival counter.
	scr := verbs.SGE{Addr: ex.staging.Addr() + mem.Addr(ex.staging.Region().Size()-8), Length: 8, MR: ex.staging}
	_, t, err := ex.engine.FetchAdd(res.Done, ex.socket, scr, ex.peerIdx[dst],
		dex.counters.Addr()+mem.Addr(ex.id*8), dex.counters, uint64(len(frags)))
	if err != nil {
		return 0, err
	}
	return t, nil
}

// FlushAll drains every pending list (end of stream).
func (ex *Executor) FlushAll(now sim.Time) (sim.Time, error) {
	done := now
	for dst := range ex.pending {
		if len(ex.pending[dst]) == 0 {
			continue
		}
		t, err := ex.flush(now, dst)
		if err != nil {
			return 0, err
		}
		if t > done {
			done = t
		}
	}
	return done, nil
}

// deliverLocal appends an entry arriving from a same-machine source.
func (ex *Executor) deliverLocal(entry []byte) {
	// Local deliveries reuse the self slice of the inbound ring.
	base := ex.id * ex.shuffle.cfg.RingBytes
	off := ex.writeOffs[ex.id]
	if off+len(entry) > ex.shuffle.cfg.RingBytes {
		off = 0
	}
	copy(ex.inMR.Region().Bytes()[base+off:], entry)
	ex.writeOffs[ex.id] = off + len(entry)
}

// Executor accessors for the harness.
func (s *Shuffle) Executors() []*Executor { return s.execs }

// Executor returns executor i.
func (s *Shuffle) Executor(i int) *Executor { return s.execs[i] }

// ID returns the executor's index.
func (ex *Executor) ID() int { return ex.id }

// Socket returns the executor's pinned socket.
func (ex *Executor) Socket() topo.SocketID { return ex.socket }

// Stats reports processed entries, issued flushes, and CPU time burned.
func (ex *Executor) Stats() (entries, flushes int64, cpu sim.Duration) {
	return ex.entries, ex.flushes, ex.cpu
}

// ReceivedCount reads the arrival counter for a given source (stage sync).
func (ex *Executor) ReceivedCount(src int) uint64 {
	b := ex.counters.Region().Bytes()[src*8 : src*8+8]
	return getU64(b)
}

// ReceivedEntries parses the entries a source wrote into my ring slice.
func (ex *Executor) ReceivedEntries(src, n int) []workload.KV {
	es := ex.shuffle.cfg.entrySize()
	base := src * ex.shuffle.cfg.RingBytes
	out := make([]workload.KV, 0, n)
	for i := 0; i < n; i++ {
		b := ex.inMR.Region().Bytes()[base+i*es : base+(i+1)*es]
		kv := workload.KV{Key: getU64(b), Value: append([]byte(nil), b[8:]...)}
		out = append(out, kv)
	}
	return out
}

func putU64(b []byte, v uint64) {
	for i := 0; i < 8; i++ {
		b[i] = byte(v >> (8 * i))
	}
}

func getU64(b []byte) uint64 {
	var v uint64
	for i := 0; i < 8; i++ {
		v |= uint64(b[i]) << (8 * i)
	}
	return v
}
