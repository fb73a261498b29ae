package verbs

import (
	"bytes"
	"encoding/binary"
	"testing"

	"rdmasem/internal/cluster"
	"rdmasem/internal/fabric"
	"rdmasem/internal/mem"
	"rdmasem/internal/sim"
)

// Sizes of the one-sided fuzz target's regions: the requester's local
// buffer, a dense target, and a sparse target whose virtual span wraps onto
// a small backing.
const (
	fuzzLocalSize   = 16 << 10
	fuzzDenseSize   = 64 << 10
	fuzzSparseSpan  = 4 << 20
	fuzzSparseBack  = 8 << 10
	fuzzMaxLength   = 2 * PathMTU // segmented on a lossy fabric; fits the sparse backing
	fuzzOpBytes     = 8
	fuzzMaxOpsInput = 64
)

// spaceModel mirrors one machine's regions in a private mem.Space, built by
// the same allocation calls so every region sits at the same address. The
// model applies each verb's effect with Space.ReadAt and Space.WriteAt, the
// address-resolving path the verbs layer does not use.
type spaceModel struct {
	space   *mem.Space
	regions []*mem.Region // mirrors, in allocation order
}

func newSpaceModel(t *testing.T, m *cluster.Machine) *spaceModel {
	t.Helper()
	s, err := mem.NewSpace(cluster.DefaultConfig().PerSocketMem)
	if err != nil {
		t.Fatal(err)
	}
	return &spaceModel{space: s}
}

// mirror records that the model region r shadows the machine's region own.
func (sm *spaceModel) mirror(t *testing.T, own, r *mem.Region, err error) {
	t.Helper()
	if err != nil {
		t.Fatal(err)
	}
	if r.Addr() != own.Addr() || r.Size() != own.Size() {
		t.Fatalf("model region [%#x,+%d) does not shadow [%#x,+%d)", r.Addr(), r.Size(), own.Addr(), own.Size())
	}
	sm.regions = append(sm.regions, r)
}

func (sm *spaceModel) read(t *testing.T, addr mem.Addr, n int) []byte {
	t.Helper()
	b := make([]byte, n)
	if err := sm.space.ReadAt(addr, b); err != nil {
		t.Fatal(err)
	}
	return b
}

func (sm *spaceModel) write(t *testing.T, addr mem.Addr, b []byte) {
	t.Helper()
	if err := sm.space.WriteAt(addr, b); err != nil {
		t.Fatal(err)
	}
}

// equal fails unless every byte of every mirrored region — the whole
// backing, for a sparse one — matches the machine's, both read through
// Space.ReadAt.
func (sm *spaceModel) equal(t *testing.T, m *cluster.Machine, step int) {
	t.Helper()
	for _, r := range sm.regions {
		n := len(r.Bytes()) // the backing: a read of exactly that size starts at its first byte
		got := make([]byte, n)
		if err := m.Space().ReadAt(r.Addr(), got); err != nil {
			t.Fatal(err)
		}
		if want := sm.read(t, r.Addr(), n); !bytes.Equal(got, want) {
			i := 0
			for got[i] == want[i] {
				i++
			}
			t.Fatalf("op %d: %s region %#x byte %d = %#x, model %#x", step, m.Label(), r.Addr(), i, got[i], want[i])
		}
	}
}

// FuzzOneSidedMatchesSpace posts random one-sided verbs — posting QP,
// opcode, target MR (dense or sparse), remote offset, length and SGL split
// all drawn from the input — and after each one checks every byte of both
// machines' regions, and each atomic's old value, against a reference model
// that applies the same effect through Space.ReadAt and Space.WriteAt. The
// posting QP is one of three pairs sharing the requester's routes (two on
// port 1, one on port 0), so the routes' payload staging passes between
// QPs, and each input runs on a lossless fabric and under
// seed=1,drop=0.01, where messages above PathMTU are segmented.
func FuzzOneSidedMatchesSpace(f *testing.F) {
	f.Add([]byte{0, 0, 0, 0, 64, 0, 0, 0})
	f.Add([]byte{1, 1, 0xff, 0xff, 0xff, 0x0f, 3, 1, 2, 0, 8, 0, 0, 0, 0, 0})
	f.Add([]byte{
		0, 1, 0x10, 0x20, 0x30, 0x40, 0x50, 0x60, // WRITE, sparse, split SGL
		1, 1, 0x10, 0x20, 0x30, 0x40, 0x50, 0x60, // READ it back
		2, 0, 0x08, 0, 0, 0, 0, 0x80, // CAS that matches
		3, 0, 0x08, 0, 0, 0, 0, 0, // FAA on the same word
		2, 1, 0x33, 0x44, 0, 0, 0x05, 0x01, // CAS that misses
		4, 0, 0xf8, 0xff, 0xf0, 0x0f, 0x77, 0x81, // WRITE, dense, split SGL
	})
	f.Add([]byte{
		0, 2, 0x00, 0x10, 0xff, 0x1f, 0x10, 0x85, // WRITE of 8 KiB on the second port-1 pair
		1, 4, 0x00, 0x10, 0xff, 0x1f, 0x10, 0x85, // READ it back on the port-0 pair
		0, 0, 0x40, 0x00, 0x01, 0x11, 0x20, 0x00, // 4.3 KiB WRITE on the first pair
	})
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, plan := range []*fabric.FaultPlan{nil, {Seed: 1, Drop: 0.01}} {
			fuzzOneSided(t, data, plan)
		}
	})
}

// fuzzOneSided runs one FuzzOneSidedMatchesSpace input on a cluster with
// the given fault plan (nil: lossless).
func fuzzOneSided(t *testing.T, data []byte, plan *fabric.FaultPlan) {
	fabricName := "lossless"
	if plan != nil {
		fabricName = plan.String()
	}
	cfg := cluster.DefaultConfig()
	cfg.Machines = 2
	cfg.Faults = plan
	cl, err := cluster.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Release()
	ma, mb := cl.Machine(0), cl.Machine(1)
	modelA, modelB := newSpaceModel(t, ma), newSpaceModel(t, mb)
	defer modelA.space.Release()
	defer modelB.space.Release()

	local := ma.MustAlloc(0, fuzzLocalSize, 0)
	r, err := modelA.space.Alloc(0, fuzzLocalSize, 0)
	modelA.mirror(t, local, r, err)
	dense := mb.MustAlloc(0, fuzzDenseSize, 0)
	r, err = modelB.space.Alloc(0, fuzzDenseSize, 0)
	modelB.mirror(t, dense, r, err)
	sparse, err := mb.Space().AllocSparse(1, fuzzSparseSpan, fuzzSparseBack)
	if err != nil {
		t.Fatal(err)
	}
	r, err = modelB.space.AllocSparse(1, fuzzSparseSpan, fuzzSparseBack)
	modelB.mirror(t, sparse, r, err)

	ctxA, ctxB := NewContext(ma), NewContext(mb)
	lmr := ctxA.MustRegisterMR(local)
	targets := [2]*MR{ctxB.MustRegisterMR(dense), ctxB.MustRegisterMR(sparse)}
	var qps [3]*QP
	for i, ports := range [3][2]int{{1, 0}, {1, 1}, {0, 0}} {
		if qps[i], _, err = Connect(ctxA, ports[0], ctxB, ports[1], RC); err != nil {
			t.Fatal(err)
		}
	}

	now := sim.Time(0)
	for step := 0; step < fuzzMaxOpsInput && len(data) >= fuzzOpBytes; step++ {
		op := data[:fuzzOpBytes]
		data = data[fuzzOpBytes:]
		tmr := targets[op[1]&1]
		span := tmr.Region().Size()
		if op[1]&1 == 1 {
			span = fuzzSparseSpan
		}
		length := 1 + int(binary.LittleEndian.Uint16(op[4:6]))%fuzzMaxLength
		atomic := op[0]%4 >= 2
		if atomic {
			length = 8
		}
		roff := int(binary.LittleEndian.Uint32(op[2:6])) % (span - length + 1)
		loff := int(op[6]) * 48 % (fuzzLocalSize - length + 1)
		if atomic {
			roff &^= 7
			loff &^= 7
		}
		raddr := tmr.Addr() + mem.Addr(roff)
		laddr := lmr.Addr() + mem.Addr(loff)
		sgl := []SGE{{Addr: laddr, Length: length, MR: lmr}}
		if split := int(op[7]) % length; !atomic && split > 0 && op[7]&0x80 != 0 {
			// Two SGEs over the same local span, so gather and scatter
			// walk a real list.
			sgl = []SGE{{Addr: laddr, Length: split, MR: lmr}, {Addr: laddr + mem.Addr(split), Length: length - split, MR: lmr}}
		}
		wr := &SendWR{ID: uint64(step), SGL: sgl, RemoteAddr: raddr, RemoteKey: tmr.RKey()}
		var wantOld uint64
		switch op[0] % 4 {
		case 0: // WRITE a fresh pattern out of the local buffer
			payload := make([]byte, length)
			for i := range payload {
				payload[i] = byte(step*31+i) ^ op[7]
			}
			if err := ma.Space().WriteAt(laddr, payload); err != nil {
				t.Fatal(err)
			}
			modelA.write(t, laddr, payload)
			wr.Opcode = OpWrite
			modelB.write(t, raddr, payload)
		case 1:
			wr.Opcode = OpRead
			modelA.write(t, laddr, modelB.read(t, raddr, length))
		case 2, 3:
			wantOld = binary.LittleEndian.Uint64(modelB.read(t, raddr, 8))
			next := wantOld + uint64(op[7])
			if op[0]%4 == 2 {
				wr.Opcode, wr.CompareAdd, wr.Swap = OpCompSwap, uint64(op[6]), uint64(step)<<8|uint64(op[7])
				if op[7]&1 == 0 {
					wr.CompareAdd = wantOld // a compare that matches
				}
				next = wantOld
				if wantOld == wr.CompareAdd {
					next = wr.Swap
				}
			} else {
				wr.Opcode, wr.CompareAdd = OpFetchAdd, uint64(op[7])
			}
			var b [8]byte
			binary.LittleEndian.PutUint64(b[:], next)
			modelB.write(t, raddr, b[:])
			binary.LittleEndian.PutUint64(b[:], wantOld)
			modelA.write(t, laddr, b[:])
		}
		qa := qps[int(op[1]>>1)%len(qps)]
		c, err := qa.PostSend(now, wr)
		if err == nil {
			err = c.Err()
		}
		if err != nil {
			t.Fatalf("%s: op %d (%v at %#x+%d on QP %d): %v", fabricName, step, wr.Opcode, raddr, length, qa.ID(), err)
		}
		now = c.Done
		if atomic && c.OldValue != wantOld {
			t.Fatalf("%s: op %d: %v old value %d, model %d", fabricName, step, wr.Opcode, c.OldValue, wantOld)
		}
		modelA.equal(t, ma, step)
		modelB.equal(t, mb, step)
	}
}
