package dlog

import (
	"bytes"
	"encoding/binary"
	"errors"
	"testing"

	"rdmasem/internal/cluster"
	"rdmasem/internal/mem"
	"rdmasem/internal/sim"
	"rdmasem/internal/topo"
	"rdmasem/internal/workload"
)

func newCluster(t *testing.T, machines int) *cluster.Cluster {
	t.Helper()
	cfg := cluster.DefaultConfig()
	cfg.Machines = machines
	cl, err := cluster.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return cl
}

func mustHead(t *testing.T, l *Log) uint64 {
	t.Helper()
	h, err := l.Head()
	if err != nil {
		t.Fatal(err)
	}
	return h
}

// newEngine builds a log on machine 0 and one engine on machine 1's socket,
// returning the first error either constructor reports.
func newEngine(cl *cluster.Cluster, cfg Config, socket topo.SocketID) (*Log, *Engine, error) {
	l, err := NewLog(cl.Machine(0), cfg)
	if err != nil {
		return nil, nil, err
	}
	e, err := NewEngine(0, cl.Machine(1), socket, l)
	return l, e, err
}

// presetHead sets the log's sequence counter, as if head records had been
// reserved already.
func presetHead(t *testing.T, l *Log, head uint64) {
	t.Helper()
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], head)
	if err := l.ctx.Machine().Space().WriteAt(l.seqMR.Addr(), b[:]); err != nil {
		t.Fatal(err)
	}
}

// checkHome reports whether a record's home slot in the table holds the
// record FillValue wrote for seq.
func checkHome(t *testing.T, e *Engine, table int, seq uint64) bool {
	t.Helper()
	mr := e.tables[table]
	home, err := mr.Region().Slice(mr.Addr()+mem.Addr(e.slotFor(seq, mr)), e.cfg.RecordSize)
	if err != nil {
		t.Fatal(err)
	}
	return workload.CheckValue(home, seq)
}

// TestValidation: configurations the log or an engine cannot run are
// rejected with ErrBadConfig, never by a panic in AppendBatch.
func TestValidation(t *testing.T) {
	cl := newCluster(t, 2)
	for _, tc := range []struct {
		name   string
		cfg    Config
		socket topo.SocketID
		ok     bool
	}{
		{"empty", Config{}, 0, false},
		// slotFor's slot count would be 0.
		{"record beyond the data table", Config{RecordSize: tableBytes + 1, Batch: 1, LogBytes: 2 * tableBytes}, 0, false},
		{"record filling the data table", Config{RecordSize: tableBytes, Batch: 1, LogBytes: 2 * tableBytes}, 0, true},
		// Two 512 KiB slots: the third record would overwrite the first.
		{"batch beyond the table's slots", Config{RecordSize: tableBytes / 2, Batch: 3, LogBytes: 4 * tableBytes}, 0, false},
		{"batch filling the table's slots", Config{RecordSize: tableBytes / 2, Batch: 2, LogBytes: 4 * tableBytes}, 0, true},
		// 2048 alternate-socket records of 64 B: 128 KiB of staging.
		{"staged records beyond the staging buffer", Config{RecordSize: 64, Batch: 4096, NUMA: true, LogBytes: 64 << 20}, 1, false},
		{"staged records filling the staging buffer", Config{RecordSize: 64, Batch: 2048, NUMA: true, LogBytes: 64 << 20}, 1, true},
		{"unstaged records beyond the staging buffer", Config{RecordSize: 64, Batch: 4096, LogBytes: 64 << 20}, 1, true},
		{"socket out of range", DefaultConfig(), 2, false},
	} {
		l, e, err := newEngine(cl, tc.cfg, tc.socket)
		if !tc.ok {
			if !errors.Is(err, ErrBadConfig) {
				t.Errorf("%s: err=%v, want ErrBadConfig", tc.name, err)
			}
			continue
		}
		if err != nil {
			t.Errorf("%s: %v", tc.name, err)
			continue
		}
		first, _, err := e.AppendBatch(0)
		if err != nil {
			t.Errorf("%s: append: %v", tc.name, err)
			continue
		}
		for i := uint64(0); i < uint64(tc.cfg.Batch); i++ {
			if rec, err := l.Record(first + i); err != nil || !workload.CheckValue(rec, first+i) {
				t.Errorf("%s: log record %d corrupt (err=%v)", tc.name, first+i, err)
				break
			}
		}
	}
}

// TestDataTableFootprint: a fig19-shaped engine's tables keep their 1 MiB
// span (addresses, MR extents and pages as before) but back it with only
// the batch in flight, k+1 records for the ring of k = 32 slots.
func TestDataTableFootprint(t *testing.T) {
	cl := newCluster(t, 2)
	cfg := DefaultConfig()
	cfg.Batch = 32
	_, e, err := newEngine(cl, cfg, 0)
	if err != nil {
		t.Fatal(err)
	}
	for s, mr := range e.tables {
		if got := mr.Region().Size(); got != tableBytes {
			t.Errorf("table %d spans %d bytes, want %d", s, got, tableBytes)
		}
		if got, limit := len(mr.Region().Bytes()), 33*cfg.RecordSize; got > limit {
			t.Errorf("table %d is backed by %d host bytes, want at most %d", s, got, limit)
		}
	}
}

// TestAppendStraddlingWrapIntact pins the ring's sizing rule. An append of 5
// records from seq S-2 (S = 16384 slots of 64 B) puts seqs S-2, S and S+2
// in table 0 at slot homes S-2, 0 and 2. A ring of k = Batch = 5 slots would
// land homes S-2 and 2 on the same bytes (both 2 mod 5) before the gather;
// the ring of k = 8, the smallest divisor of S not below 5, keeps them apart.
// The engine is on socket 0, so table 0's records are gathered in place with
// NUMA on as well as off.
func TestAppendStraddlingWrapIntact(t *testing.T) {
	for _, numa := range []bool{true, false} {
		cl := newCluster(t, 2)
		cfg := DefaultConfig()
		cfg.Batch = 5
		cfg.NUMA = numa
		l, e, err := newEngine(cl, cfg, 0)
		if err != nil {
			t.Fatal(err)
		}
		slots := uint64(tableBytes / cfg.RecordSize)
		presetHead(t, l, slots-2)
		first, _, err := e.AppendBatch(0)
		if err != nil {
			t.Fatal(err)
		}
		if first != slots-2 {
			t.Fatalf("numa=%v: first=%d, want %d", numa, first, slots-2)
		}
		for seq := first; seq < first+uint64(cfg.Batch); seq++ {
			rec, err := l.Record(seq)
			if err != nil {
				t.Fatal(err)
			}
			if !workload.CheckValue(rec, seq) {
				t.Errorf("numa=%v: log record %d corrupt", numa, seq)
			}
		}
	}
}

// FuzzAppendIntegrity: for any record size, batch, NUMA setting, engine
// socket, starting sequence number and number of appends, either the
// configuration is rejected with ErrBadConfig or every record the log holds
// is intact, whatever its slot homes alias in the tables' rings. An append
// may fail only because the 4 MiB log is full.
func FuzzAppendIntegrity(f *testing.F) {
	f.Add(uint32(64), uint16(32), true, uint8(0), uint32(0), uint8(4))
	f.Add(uint32(64), uint16(5), true, uint8(0), uint32(16382), uint8(2))
	f.Add(uint32(96), uint16(3), false, uint8(1), uint32(10920), uint8(3))
	f.Add(uint32(64), uint16(4095), true, uint8(1), uint32(0), uint8(1))
	f.Add(uint32(tableBytes+1), uint16(0), false, uint8(0), uint32(0), uint8(1))
	// Two-slot tables: a batch of 2 fits; a batch of 4 would shear
	// table-mates, so NewLog rejects it.
	f.Add(uint32(tableBytes/2-1), uint16(1), false, uint8(0), uint32(0), uint8(2))
	f.Add(uint32(tableBytes/2-1), uint16(3), false, uint8(0), uint32(0), uint8(2))
	f.Fuzz(func(t *testing.T, recSize uint32, batch uint16, numa bool, socket uint8, preset uint32, appends uint8) {
		const logBytes = 4 << 20
		cfg := Config{
			RecordSize: 1 + int(recSize%(tableBytes+4096)),
			Batch:      1 + int(batch%4096),
			NUMA:       numa,
			LogBytes:   logBytes,
		}
		cl := newCluster(t, 2)
		defer cl.Release()
		l, e, err := newEngine(cl, cfg, topo.SocketID(socket%3))
		if err != nil {
			if !errors.Is(err, ErrBadConfig) {
				t.Fatalf("config %+v socket %d: %v", cfg, socket%3, err)
			}
			return
		}
		head := uint64(preset) % uint64(logBytes/cfg.RecordSize+1)
		presetHead(t, l, head)
		now := sim.Time(0)
		for i := 0; i <= int(appends%8); i++ {
			first, done, err := e.AppendBatch(now)
			if err != nil {
				if head+uint64(cfg.Batch) <= uint64(logBytes/cfg.RecordSize) {
					t.Fatalf("append %d at %d (config %+v): %v", i, head, cfg, err)
				}
				break
			}
			for seq := first; seq < first+uint64(cfg.Batch); seq++ {
				rec, err := l.Record(seq)
				if err != nil {
					t.Fatal(err)
				}
				if !workload.CheckValue(rec, seq) {
					t.Fatalf("log record %d corrupt (config %+v, first %d)", seq, cfg, first)
				}
			}
			head, now = first+uint64(cfg.Batch), done
		}
	})
}

// TestAppendAllocFree: once warm, a batch append (records from both
// sockets, so the SGL mixes in-place and staged entries) and a payload
// append each post without allocating; fig19 runs one per simulated
// transaction batch. The warm-up runs each path long enough for every
// queueing resource's interval list to reach its folded ceiling.
func TestAppendAllocFree(t *testing.T) {
	cl := newCluster(t, 2)
	cfg := DefaultConfig()
	cfg.Batch = 8
	l, err := NewLog(cl.Machine(0), cfg)
	if err != nil {
		t.Fatal(err)
	}
	e, err := NewEngine(1, cl.Machine(1), 1, l)
	if err != nil {
		t.Fatal(err)
	}
	payloads := [][]byte{[]byte("redo-a"), []byte("redo-b")}
	var now sim.Time
	var aerr error
	for _, tc := range []struct {
		name   string
		append func()
	}{
		{"AppendBatch", func() { _, now, aerr = e.AppendBatch(now) }},
		{"AppendPayload", func() { _, now, aerr = e.AppendPayload(now, payloads) }},
	} {
		for i := 0; i < 2*256; i++ {
			tc.append()
		}
		if avg := testing.AllocsPerRun(100, tc.append); aerr != nil || avg != 0 {
			t.Errorf("%s: %v allocs/op (err=%v), want 0", tc.name, avg, aerr)
		}
	}
}

func TestAppendRoundTrip(t *testing.T) {
	cl := newCluster(t, 2)
	cfg := DefaultConfig()
	cfg.Batch = 4
	l, err := NewLog(cl.Machine(0), cfg)
	if err != nil {
		t.Fatal(err)
	}
	e, err := NewEngine(1, cl.Machine(1), 1, l)
	if err != nil {
		t.Fatal(err)
	}
	first, done, err := e.AppendBatch(0)
	if err != nil {
		t.Fatal(err)
	}
	if first != 0 {
		t.Fatalf("first reservation should be 0, got %d", first)
	}
	if done < 3000 {
		t.Fatalf("append (FAA + write) completed suspiciously fast: %v", done)
	}
	for i := uint64(0); i < 4; i++ {
		rec, err := l.Record(i)
		if err != nil {
			t.Fatal(err)
		}
		if !workload.CheckValue(rec, i) {
			t.Fatalf("record %d corrupt", i)
		}
	}
	if h := mustHead(t, l); h != 4 {
		t.Fatalf("head=%d, want 4", h)
	}
}

func TestConcurrentEnginesNeverOverlap(t *testing.T) {
	const engines = 6
	cl := newCluster(t, engines+1)
	cfg := DefaultConfig()
	cfg.Batch = 8
	l, err := NewLog(cl.Machine(0), cfg)
	if err != nil {
		t.Fatal(err)
	}
	var clients []*sim.Client
	reserved := map[uint64]int{} // first seq -> engine
	for i := 0; i < engines; i++ {
		e, err := NewEngine(i, cl.Machine(i+1), topo.SocketID(i%2), l)
		if err != nil {
			t.Fatal(err)
		}
		i := i
		clients = append(clients, &sim.Client{
			PostCost: 150,
			Window:   1,
			MaxOps:   20,
			Op: func(post sim.Time) sim.Time {
				first, done, err := e.AppendBatch(post)
				if err != nil {
					t.Fatal(err)
				}
				if prev, dup := reserved[first]; dup {
					t.Fatalf("engines %d and %d both reserved %d", prev, i, first)
				}
				reserved[first] = i
				return done
			},
		})
	}
	if _, err := sim.RunClosedLoop(clients, sim.Second); err != nil {
		t.Fatal(err)
	}
	if len(reserved) != engines*20 {
		t.Fatalf("reservations=%d, want %d", len(reserved), engines*20)
	}
	// Reservations must tile [0, head) in steps of Batch.
	if h := mustHead(t, l); h != uint64(engines*20*8) {
		t.Fatalf("head=%d, want %d", h, engines*20*8)
	}
	for first := range reserved {
		if first%8 != 0 {
			t.Fatalf("reservation %d not batch-aligned", first)
		}
	}
	// Every record in every reserved extent is intact.
	for first := range reserved {
		for i := uint64(0); i < 8; i++ {
			rec, err := l.Record(first + i)
			if err != nil {
				t.Fatal(err)
			}
			if !workload.CheckValue(rec, first+i) {
				t.Fatalf("record %d corrupt", first+i)
			}
		}
	}
}

func TestBatchingImprovesThroughput(t *testing.T) {
	run := func(batch int, numa bool) float64 {
		const engines = 7
		cl := newCluster(t, 8)
		cfg := DefaultConfig()
		cfg.Batch = batch
		cfg.NUMA = numa
		l, err := NewLog(cl.Machine(0), cfg)
		if err != nil {
			t.Fatal(err)
		}
		var clients []*sim.Client
		for i := 0; i < engines; i++ {
			e, err := NewEngine(i, cl.Machine(i%7+1), topo.SocketID(i%2), l)
			if err != nil {
				t.Fatal(err)
			}
			clients = append(clients, &sim.Client{
				PostCost: 150,
				Window:   2,
				Op: func(post sim.Time) sim.Time {
					_, done, err := e.AppendBatch(post)
					if err != nil {
						t.Fatal(err)
					}
					return done
				},
			})
		}
		res, err := sim.RunClosedLoop(clients, 10*sim.Millisecond)
		if err != nil {
			t.Fatal(err)
		}
		return float64(res.Completed) * float64(batch) / 10e6 * 1000 // records MOPS
	}
	b1 := run(1, true)
	b32 := run(32, true)
	if b32 < 4*b1 {
		t.Errorf("batch 32 (%.2f MOPS) should be >4x batch 1 (%.2f MOPS); paper: 9.1x", b32, b1)
	}
	t.Logf("batch1=%.2f batch32=%.2f MOPS (%.1fx)", b1, b32, b32/b1)
}

func TestNUMAStagingReducesLatencyUnderCrossTraffic(t *testing.T) {
	run := func(numa bool) sim.Time {
		cl := newCluster(t, 2)
		cfg := DefaultConfig()
		cfg.Batch = 16
		cfg.NUMA = numa
		l, err := NewLog(cl.Machine(0), cfg)
		if err != nil {
			t.Fatal(err)
		}
		e, err := NewEngine(0, cl.Machine(1), 1, l)
		if err != nil {
			t.Fatal(err)
		}
		// Warm up, then measure a steady append.
		if _, _, err := e.AppendBatch(0); err != nil {
			t.Fatal(err)
		}
		base := sim.Time(sim.Millisecond)
		_, done, err := e.AppendBatch(base)
		if err != nil {
			t.Fatal(err)
		}
		return done - base
	}
	// The staged copy trades CPU for avoiding QPI on the gather; both paths
	// must work and produce close latencies, with the direct gather paying
	// the interconnect.
	with, without := run(true), run(false)
	if with <= 0 || without <= 0 {
		t.Fatal("appends must take time")
	}
	t.Logf("numa-staged=%v direct-gather=%v", with, without)
}

func TestLogFull(t *testing.T) {
	cl := newCluster(t, 2)
	cfg := DefaultConfig()
	cfg.LogBytes = 4096
	cfg.RecordSize = 1024
	cfg.Batch = 4
	l, err := NewLog(cl.Machine(0), cfg)
	if err != nil {
		t.Fatal(err)
	}
	e, err := NewEngine(0, cl.Machine(1), 1, l)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := e.AppendBatch(0); err != nil {
		t.Fatal(err)
	}
	if _, _, err := e.AppendBatch(0); err == nil {
		t.Fatal("second batch must overflow the 4-record log")
	}
	if _, err := l.Record(99); err == nil {
		t.Fatal("out-of-range record read must fail")
	}
}

func TestSlotWraparoundRecordAligned(t *testing.T) {
	cl := newCluster(t, 2)
	cfg := DefaultConfig()
	cfg.RecordSize = 96
	cfg.LogBytes = 4 << 20
	l, err := NewLog(cl.Machine(0), cfg)
	if err != nil {
		t.Fatal(err)
	}
	e, err := NewEngine(0, cl.Machine(1), 1, l)
	if err != nil {
		t.Fatal(err)
	}
	table := e.tables[0]
	slots := table.Region().Size() / cfg.RecordSize // 1 MiB / 96 = 10922
	for _, seq := range []uint64{0, 1, uint64(slots) - 1, uint64(slots), uint64(slots) + 1, 2 * uint64(slots), 123456789} {
		slot := e.slotFor(seq, table)
		if slot%cfg.RecordSize != 0 {
			t.Fatalf("seq %d: slot %d not record-aligned", seq, slot)
		}
		if slot+cfg.RecordSize > table.Region().Size() {
			t.Fatalf("seq %d: slot %d runs past the table", seq, slot)
		}
	}
	// Two sequence numbers map either to the same whole slot or to disjoint
	// extents — never to a partial overlap (the old formula mapped seq
	// 10922 to byte 32, shearing the homes of seqs 0 and 1).
	a, b := e.slotFor(uint64(slots), table), e.slotFor(0, table)
	if a != b {
		t.Fatalf("wrap must reuse slot homes exactly: slotFor(%d)=%d, slotFor(0)=%d", slots, a, b)
	}
	if d := e.slotFor(uint64(slots)+1, table) - e.slotFor(1, table); d != 0 {
		t.Fatalf("second wrapped slot drifted by %d bytes", d)
	}
}

// End-to-end wraparound at RecordSize 96: append past the table capacity and
// verify both the log extent and that each append's record reads back whole
// through its slot home, with no shear into a neighbouring slot.
func TestAppendWraparoundNonDefaultRecordSize(t *testing.T) {
	cl := newCluster(t, 2)
	cfg := DefaultConfig()
	cfg.RecordSize = 96
	cfg.Batch = 1
	cfg.LogBytes = 4 << 20
	l, err := NewLog(cl.Machine(0), cfg)
	if err != nil {
		t.Fatal(err)
	}
	e, err := NewEngine(0, cl.Machine(1), 1, l)
	if err != nil {
		t.Fatal(err)
	}
	slots := uint64(tableBytes / cfg.RecordSize)
	total := slots + 8 // a few records past the wrap
	now := sim.Time(0)
	for i := uint64(0); i < total; i++ {
		first, d, err := e.AppendBatch(now)
		if err != nil {
			t.Fatal(err)
		}
		// Batch 1 always materializes in table 0.
		if !checkHome(t, e, 0, first) {
			t.Fatalf("slot home of seq %d sheared", first)
		}
		now = d
	}
	if h := mustHead(t, l); h != total {
		t.Fatalf("head=%d, want %d", h, total)
	}
	// The gathered log records are intact across the wrap.
	for seq := total - 8; seq < total; seq++ {
		rec, err := l.Record(seq)
		if err != nil {
			t.Fatal(err)
		}
		if !workload.CheckValue(rec, seq) {
			t.Fatalf("log record %d corrupt across the wrap", seq)
		}
	}
}

// AppendPayload is the redo-append primitive of the txn layer: caller bytes,
// zero-padded to a record, land in a reserved extent in one write.
func TestAppendPayload(t *testing.T) {
	cl := newCluster(t, 2)
	cfg := DefaultConfig()
	cfg.RecordSize = 96
	l, err := NewLog(cl.Machine(0), cfg)
	if err != nil {
		t.Fatal(err)
	}
	e, err := NewEngine(0, cl.Machine(1), 1, l)
	if err != nil {
		t.Fatal(err)
	}
	p0 := make([]byte, 96)
	p1 := make([]byte, 40) // short: must be zero-padded
	workload.FillValue(p0, 900)
	workload.FillValue(p1, 901)
	first, done, err := e.AppendPayload(0, [][]byte{p0, p1})
	if err != nil {
		t.Fatal(err)
	}
	if first != 0 || done <= 0 {
		t.Fatalf("first=%d done=%v", first, done)
	}
	r0, err := l.Record(0)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(r0, p0) {
		t.Fatal("payload 0 not durable")
	}
	r1, err := l.Record(1)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(r1[:40], p1) {
		t.Fatal("payload 1 not durable")
	}
	for _, b := range r1[40:] {
		if b != 0 {
			t.Fatal("short payload not zero-padded")
		}
	}
	if h := mustHead(t, l); h != 2 {
		t.Fatalf("head=%d, want 2", h)
	}
	// Appends interleave with AppendBatch through the same sequencer.
	bf, _, err := e.AppendBatch(done)
	if err != nil {
		t.Fatal(err)
	}
	if bf != 2 {
		t.Fatalf("batch reservation=%d, want 2", bf)
	}
	// Validation: oversized payloads and oversized batches are rejected;
	// the empty batch is a no-op.
	if _, _, err := e.AppendPayload(0, [][]byte{make([]byte, 97)}); err == nil {
		t.Fatal("oversized payload must fail")
	}
	huge := make([][]byte, e.staging.Region().Size()/cfg.RecordSize+1)
	for i := range huge {
		huge[i] = p1
	}
	if _, _, err := e.AppendPayload(0, huge); err == nil {
		t.Fatal("batch beyond the staging buffer must fail")
	}
	if _, d, err := e.AppendPayload(7, nil); err != nil || d != 7 {
		t.Fatalf("empty append: d=%v err=%v", d, err)
	}
}
