// Package dlog implements the paper's fourth case study (Section IV-E): a
// distributed log for transaction engines. The whole append path is
// one-sided: an engine reserves consecutive space in the global log with
// RDMA fetch-and-add (the remote sequencer of Section III-E), then writes
// its records into the reserved extent with a single SGL write that gathers
// them straight out of the data tables (Section III-A).
//
// With NUMA awareness (Section III-D), records living in the alternate
// socket's data table are first staged into a NUMA-friendly buffer with a
// CPU copy so the NIC's gather never crosses QPI.
//
// A data table spans 1 MiB of simulated memory, and every record has a home
// slot in it at a real address, but the table holds only the batch in
// flight: nothing reads a record after the append that gathers it, so the
// host bytes behind the slots form a batch-sized ring (see NewEngine).
package dlog

import (
	"encoding/binary"
	"errors"
	"fmt"

	"rdmasem/internal/cluster"
	"rdmasem/internal/core"
	"rdmasem/internal/mem"
	"rdmasem/internal/sim"
	"rdmasem/internal/topo"
	"rdmasem/internal/verbs"
	"rdmasem/internal/workload"
)

// tableBytes is the virtual span of each per-socket data table, and
// stagingBytes the size of an engine's NUMA-friendly staging buffer.
const (
	tableBytes   = 1 << 20
	stagingBytes = 1 << 16
)

// ErrBadConfig reports a configuration the log or an engine cannot run.
var ErrBadConfig = errors.New("dlog: bad configuration")

// Config describes a distributed-log deployment.
type Config struct {
	RecordSize int  // bytes per record
	Batch      int  // records appended per reservation
	NUMA       bool // stage alternate-socket records before the gather
	LogBytes   int  // capacity of the global log
}

// DefaultConfig mirrors the Figure 19 setup.
func DefaultConfig() Config {
	return Config{RecordSize: 64, Batch: 1, NUMA: true, LogBytes: 64 << 20}
}

// Log is the global append-only log living on one machine.
type Log struct {
	cfg   Config
	ctx   *verbs.Context
	logMR *verbs.MR
	seqMR *verbs.MR
}

// NewLog places the global log on the machine's NIC socket.
func NewLog(m *cluster.Machine, cfg Config) (*Log, error) {
	if cfg.RecordSize <= 0 || cfg.Batch < 1 || cfg.LogBytes < cfg.RecordSize {
		return nil, fmt.Errorf("%w: record size %d, batch %d, log %d bytes", ErrBadConfig, cfg.RecordSize, cfg.Batch, cfg.LogBytes)
	}
	// One append's records must have distinct slot homes (slotFor), or a
	// later record overwrites an earlier one before the gather.
	if slots := tableBytes / cfg.RecordSize; cfg.Batch > slots {
		return nil, fmt.Errorf("%w: a batch of %d records of %d bytes overflows the %d-slot data table", ErrBadConfig, cfg.Batch, cfg.RecordSize, slots)
	}
	ctx := verbs.NewContext(m)
	lr, err := m.Alloc(topo.NICSocket, cfg.LogBytes, 0)
	if err != nil {
		return nil, err
	}
	sr, err := m.Alloc(topo.NICSocket, 4096, 0)
	if err != nil {
		return nil, err
	}
	return &Log{cfg: cfg, ctx: ctx, logMR: ctx.MustRegisterMR(lr), seqMR: ctx.MustRegisterMR(sr)}, nil
}

// Record returns the record stored at the given sequence number (test
// helper; reads backend memory directly).
func (l *Log) Record(seq uint64) ([]byte, error) {
	off := int(seq) * l.cfg.RecordSize
	if off+l.cfg.RecordSize > l.cfg.LogBytes {
		return nil, fmt.Errorf("dlog: sequence %d beyond capacity", seq)
	}
	out := make([]byte, l.cfg.RecordSize)
	err := l.ctx.Machine().Space().ReadAt(l.logMR.Addr()+mem.Addr(off), out)
	return out, err
}

// Head reads the current sequence counter (reservations handed out so far).
// A failed read propagates: silently reporting head 0 would make a recovery
// replay conclude the log is empty.
func (l *Log) Head() (uint64, error) {
	var b [8]byte
	if err := l.ctx.Machine().Space().ReadAt(l.seqMR.Addr(), b[:]); err != nil {
		return 0, fmt.Errorf("dlog: reading sequence counter: %w", err)
	}
	return binary.LittleEndian.Uint64(b[:]), nil
}

// Engine is one transaction engine appending records to the global log.
type Engine struct {
	id     int
	log    *Log
	cfg    Config
	socket topo.SocketID
	qp     *verbs.QP
	seq    *core.RemoteSequencer

	// Data tables on both sockets of the engine's machine: committed
	// transactions leave their records here, and the log append gathers
	// them in place. A table holds only the batch in flight: its slot
	// homes alias a ring of host bytes (NewEngine).
	tables  []*verbs.MR
	staging *verbs.MR // NUMA-friendly buffer on the engine's socket
	scratch *verbs.MR

	// wr and sgl are reused across AppendBatch and AppendPayload posts
	// (PostSend keeps neither past the call), so both append paths stay
	// allocation-free once sgl has grown to a batch.
	wr  verbs.SendWR
	sgl []verbs.SGE
}

// SetRetryPolicy applies a reliability configuration to the engine's QP;
// fault scenarios tighten the budget so a dead log host surfaces within the
// test horizon.
func (e *Engine) SetRetryPolicy(p verbs.RetryPolicy) { e.qp.SetRetryPolicy(p) }

// NewEngine creates a transaction engine on the machine's socket.
//
// Each data table is a sparse region: a full 1 MiB virtual span (so the
// addresses, MR extents and pages the NIC sees are those of a dense table)
// backed by (k+1)·RecordSize host bytes, where k = ringSlots(S, Batch) for
// the table's S slots. An R-byte access at offset o lands on host offset
// o mod (backing−R), so slot home s lands on (s mod k)·R, and two homes
// share bytes only if their sequence numbers agree mod k. An append's Batch
// consecutive sequence numbers never do, since k ≥ Batch and k divides S
// (so slotFor's wrap keeps the residues). Every record is gathered into the
// log by the append that wrote it, before any later append reuses its
// bytes, so the log receives exactly what a dense table would send. When
// no divisor below S qualifies, the table is dense.
func NewEngine(id int, m *cluster.Machine, socket topo.SocketID, l *Log) (*Engine, error) {
	cfg := l.cfg
	if socket < 0 || int(socket) >= topo.Sockets {
		return nil, fmt.Errorf("%w: socket %d out of range [0,%d)", ErrBadConfig, socket, topo.Sockets)
	}
	// Records alternate over the per-socket tables; with NUMA on, a batch's
	// alternate-socket records are staged contiguously.
	if own := (cfg.Batch + topo.Sockets - 1 - int(socket)) / topo.Sockets; cfg.NUMA && (cfg.Batch-own)*cfg.RecordSize > stagingBytes {
		return nil, fmt.Errorf("%w: %d alternate-socket records of %d bytes overflow the %d-byte staging buffer", ErrBadConfig, cfg.Batch-own, cfg.RecordSize, stagingBytes)
	}
	ctx := verbs.NewContext(m)
	port := m.SocketPort(socket)
	qp, _, err := verbs.Connect(ctx, port, l.ctx, l.ctx.Machine().SocketPort(topo.NICSocket), verbs.RC)
	if err != nil {
		return nil, err
	}
	e := &Engine{id: id, log: l, cfg: cfg, socket: socket, qp: qp}
	slots := tableBytes / cfg.RecordSize
	k := ringSlots(slots, cfg.Batch)
	for s := 0; s < topo.Sockets; s++ {
		var r *mem.Region
		if k < slots {
			r, err = m.Space().AllocSparse(topo.SocketID(s), tableBytes, (k+1)*cfg.RecordSize)
		} else {
			r, err = m.Alloc(topo.SocketID(s), tableBytes, 0)
		}
		if err != nil {
			return nil, err
		}
		e.tables = append(e.tables, ctx.MustRegisterMR(r))
	}
	stg, err := m.Alloc(socket, stagingBytes, 0)
	if err != nil {
		return nil, err
	}
	e.staging = ctx.MustRegisterMR(stg)
	scr, err := m.Alloc(socket, 4096, 0)
	if err != nil {
		return nil, err
	}
	e.scratch = ctx.MustRegisterMR(scr)
	seq, err := core.NewRemoteSequencer(qp,
		verbs.SGE{Addr: e.scratch.Addr(), Length: 8, MR: e.scratch},
		l.seqMR, l.seqMR.Addr())
	if err != nil {
		return nil, err
	}
	e.seq = seq
	return e, nil
}

// ringSlots returns the smallest divisor of slots that is at least batch and
// below slots, or slots when there is none.
func ringSlots(slots, batch int) int {
	for k := batch; k <= slots/2; k++ {
		if slots%k == 0 {
			return k
		}
	}
	return slots
}

// slotFor maps a sequence number to its record-aligned home slot in a data
// table. The wrap is by whole record index: the earlier byte-level modulus
// ((seqNo*RecordSize) % (size-RecordSize)) is only record-aligned when
// RecordSize happens to divide the modulus (true for the default 64 B,
// false in general), so a wrapped record would shear across two live
// neighbouring slots.
func (e *Engine) slotFor(seqNo uint64, table *verbs.MR) int {
	slots := uint64(table.Region().Size() / e.cfg.RecordSize)
	return int(seqNo%slots) * e.cfg.RecordSize
}

// AppendBatch reserves Batch consecutive slots and writes Batch records in
// one SGL write. Records alternate between the engine's two data tables
// (modeling transactions touching both sockets) and are stamped with their
// sequence number for end-to-end verification. It returns the first
// reserved sequence number and the completion time.
func (e *Engine) AppendBatch(now sim.Time) (uint64, sim.Time, error) {
	cfg := e.cfg
	tp := e.qp.Context().Machine().Topology()

	// Stage 1: reserve space (remote sequencer).
	first, t, err := e.seq.Next(now, uint64(cfg.Batch))
	if err != nil {
		return 0, 0, err
	}
	if (int(first)+cfg.Batch)*cfg.RecordSize > cfg.LogBytes {
		return 0, 0, fmt.Errorf("dlog: log full at sequence %d", first)
	}

	// Stage 2: materialize records in the data tables and assemble the SGL.
	sgl := e.sgl[:0]
	stageOff := 0
	for i := 0; i < cfg.Batch; i++ {
		seqNo := first + uint64(i)
		table := e.tables[i%len(e.tables)]
		slot := e.slotFor(seqNo, table)
		rec, err := table.Region().Slice(table.Addr()+mem.Addr(slot), cfg.RecordSize)
		if err != nil {
			return 0, 0, fmt.Errorf("dlog: record %d: %w", seqNo, err)
		}
		workload.FillValue(rec, seqNo)
		cross := table.Region().Socket() != e.socket
		t += 100
		if cfg.NUMA && cross {
			// Stage the alternate-socket record into the NUMA-friendly
			// buffer (SP-style CPU copy), so the gather stays local.
			dst := e.staging.Region().Bytes()[stageOff : stageOff+cfg.RecordSize]
			copy(dst, rec)
			t += tp.MemcpyTime(cfg.RecordSize, true)
			sgl = append(sgl, verbs.SGE{Addr: e.staging.Addr() + mem.Addr(stageOff), Length: cfg.RecordSize, MR: e.staging})
			stageOff += cfg.RecordSize
		} else {
			sgl = append(sgl, verbs.SGE{Addr: table.Addr() + mem.Addr(slot), Length: cfg.RecordSize, MR: table})
		}
	}

	// Stage 3: one SGL write into the reserved extent.
	e.sgl = sgl
	e.wr = verbs.SendWR{
		Opcode:     verbs.OpWrite,
		SGL:        sgl,
		RemoteAddr: e.log.logMR.Addr() + mem.Addr(int(first)*cfg.RecordSize),
		RemoteKey:  e.log.logMR.RKey(),
	}
	comp, err := e.qp.PostSend(t, &e.wr)
	if err == nil {
		err = comp.Err()
	}
	if err != nil {
		// The reserved extent stays unfilled; readers must stop at the
		// last successfully appended record.
		return 0, 0, fmt.Errorf("dlog: append of batch at %d failed: %w", first, err)
	}
	return first, comp.Done, nil
}

// AppendPayload reserves len(payloads) consecutive slots and writes the
// caller's records into the reserved extent in one SGL write — the
// redo-append primitive of the transactional dataplane (internal/txn).
// Records are staged contiguously through the engine's NUMA-friendly
// buffer (an SP-style CPU copy per record); each payload must fit a record
// and shorter payloads are zero-padded. The WR, scatter list and staging
// area are all reused, so the commit hot path stays allocation-free. It
// returns the first reserved sequence number and the completion time.
func (e *Engine) AppendPayload(now sim.Time, payloads [][]byte) (uint64, sim.Time, error) {
	cfg := e.cfg
	n := len(payloads)
	if n == 0 {
		return 0, now, nil
	}
	if n*cfg.RecordSize > e.staging.Region().Size() {
		return 0, 0, fmt.Errorf("dlog: payload batch of %d records exceeds the staging buffer", n)
	}
	tp := e.qp.Context().Machine().Topology()

	// Stage 1: reserve space (remote sequencer).
	first, t, err := e.seq.Next(now, uint64(n))
	if err != nil {
		return 0, 0, err
	}
	if (int(first)+n)*cfg.RecordSize > cfg.LogBytes {
		return 0, 0, fmt.Errorf("dlog: log full at sequence %d", first)
	}

	// Stage 2: stage the records contiguously on the engine's socket.
	dst := e.staging.Region().Bytes()
	off := 0
	for _, p := range payloads {
		if len(p) > cfg.RecordSize {
			return 0, 0, fmt.Errorf("dlog: payload of %d bytes exceeds the record size %d", len(p), cfg.RecordSize)
		}
		copy(dst[off:], p)
		for i := off + len(p); i < off+cfg.RecordSize; i++ {
			dst[i] = 0
		}
		t += tp.MemcpyTime(cfg.RecordSize, true)
		off += cfg.RecordSize
	}

	// Stage 3: one write into the reserved extent.
	e.sgl = append(e.sgl[:0], verbs.SGE{Addr: e.staging.Addr(), Length: off, MR: e.staging})
	e.wr = verbs.SendWR{
		Opcode:     verbs.OpWrite,
		SGL:        e.sgl,
		RemoteAddr: e.log.logMR.Addr() + mem.Addr(int(first)*cfg.RecordSize),
		RemoteKey:  e.log.logMR.RKey(),
	}
	comp, err := e.qp.PostSend(t, &e.wr)
	if err == nil {
		err = comp.Err()
	}
	if err != nil {
		// The reserved extent stays unfilled; the txn layer treats this as
		// an abort before the commit point.
		return 0, 0, fmt.Errorf("dlog: append of batch at %d failed: %w", first, err)
	}
	return first, comp.Done, nil
}
