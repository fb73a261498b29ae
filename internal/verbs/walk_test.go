package verbs

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"sort"
	"strings"
	"testing"

	"rdmasem/internal/cluster"
	"rdmasem/internal/mem"
	"rdmasem/internal/sim"
	"rdmasem/internal/topo"
)

// walkCell is one cell of the stage-walk characterization table: which port
// the QPs use, whether the posting core sits on that port's socket, where the
// target MR lives, and which verb is posted.
type walkCell struct {
	port      int
	otherCore bool
	mrSocket  topo.SocketID
	sparse    bool
	op        string // WRITE, READ, CAS, FAA, SEND or UD
}

func (c walkCell) String() string {
	core, kind := "same", "dense"
	if c.otherCore {
		core = "other"
	}
	if c.sparse {
		kind = "sparse"
	}
	return fmt.Sprintf("p%d/%s/s%d/%s/%s", c.port, core, c.mrSocket, kind, c.op)
}

// walkOffsets are the target offsets of a cell's three posts: the first
// misses every metadata cache, the second lands on a new page of the same
// MR, the third on a third page. All are 8-byte aligned for the atomics.
var walkOffsets = [3]int{0, mem.PageSize + 64, 2*mem.PageSize + 8}

// runWalkCell drives one cell's three posts on a fresh cluster and returns
// their pinned facts: each completion time, each atomic old value and each
// receive CQE time. It fails the test if the bytes that landed, read back
// through the machines' Space.ReadAt, differ from what the verb must leave.
func runWalkCell(t *testing.T, c walkCell) string {
	t.Helper()
	cfg := cluster.DefaultConfig()
	cfg.Machines = 2
	cl, err := cluster.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Release()
	ma, mb := cl.Machine(0), cl.Machine(1)
	ctxA, ctxB := NewContext(ma), NewContext(mb)
	lmr := ctxA.MustRegisterMR(ma.MustAlloc(0, 1<<20, 0))
	var tr *mem.Region
	base := 0
	if c.sparse {
		tr, err = mb.Space().AllocSparse(c.mrSocket, 64<<20, 64<<10)
		if err != nil {
			t.Fatal(err)
		}
		base = 5<<20 + 192 // deep into the span: the bytes alias the backing
	} else {
		tr = mb.MustAlloc(c.mrSocket, 1<<20, 0)
	}
	rmr := ctxB.MustRegisterMR(tr)
	core := ma.PortSocket(c.port)
	if c.otherCore {
		core = 1 - core
	}

	var facts []string
	note := func(format string, args ...any) { facts = append(facts, fmt.Sprintf(format, args...)) }
	readB := func(addr mem.Addr, n int) []byte {
		b := make([]byte, n)
		if err := mb.Space().ReadAt(addr, b); err != nil {
			t.Fatal(err)
		}
		return b
	}
	pattern := func(n int, seed byte) []byte {
		b := make([]byte, n)
		for i := range b {
			b[i] = seed + byte(i*7)
		}
		return b
	}

	if c.op == "UD" {
		qa, err := NewUDQP(ctxA, c.port)
		if err != nil {
			t.Fatal(err)
		}
		qb, err := NewUDQP(ctxB, c.port)
		if err != nil {
			t.Fatal(err)
		}
		qa.BindCore(core)
		now := sim.Time(0)
		for i, off := range walkOffsets {
			msg := pattern(MaxInline, byte(i+1)) // a datagram rides inline
			copy(lmr.Region().Bytes(), msg)
			dst := tr.Addr() + mem.Addr(base+off)
			if err := qb.PostRecv(RecvWR{ID: uint64(i), SGE: SGE{Addr: dst, Length: 256, MR: rmr}}); err != nil {
				t.Fatal(err)
			}
			comp, dropped, err := qa.Send(now, qb.Handle(), []SGE{{Addr: lmr.Addr(), Length: len(msg), MR: lmr}})
			if err != nil || dropped {
				t.Fatalf("%v: post %d: dropped=%v err=%v", c, i, dropped, err)
			}
			cqe, ok := qb.RecvCQ().PollOne(sim.Time(1 << 60))
			if !ok {
				t.Fatalf("%v: post %d: no receive CQE", c, i)
			}
			if got := readB(dst, len(msg)); !bytes.Equal(got, msg) {
				t.Fatalf("%v: post %d: received bytes differ", c, i)
			}
			note("%d/%d", comp.Done, cqe.Time)
			now = comp.Done
		}
		return strings.Join(facts, " ")
	}

	qa, qb, err := Connect(ctxA, c.port, ctxB, c.port, RC)
	if err != nil {
		t.Fatal(err)
	}
	qa.BindCore(core)
	now := sim.Time(0)
	for i, off := range walkOffsets {
		dst := tr.Addr() + mem.Addr(base+off)
		wr := &SendWR{ID: uint64(i), RemoteAddr: dst, RemoteKey: rmr.RKey()}
		local := lmr.Addr() + mem.Addr(i*512)
		var want []byte // the bytes that must be at dst afterwards
		var wantOld uint64
		switch c.op {
		case "WRITE":
			want = pattern(200, byte(i+1))
			copy(lmr.Region().Bytes()[i*512:], want)
			wr.Opcode, wr.SGL = OpWrite, []SGE{{Addr: local, Length: len(want), MR: lmr}}
		case "READ":
			want = pattern(256, byte(i+9))
			if err := mb.Space().WriteAt(dst, want); err != nil {
				t.Fatal(err)
			}
			wr.Opcode, wr.SGL = OpRead, []SGE{{Addr: local, Length: len(want), MR: lmr}}
		case "CAS", "FAA":
			wantOld = 1000 + uint64(i)
			var b [8]byte
			binary.LittleEndian.PutUint64(b[:], wantOld)
			if err := mb.Space().WriteAt(dst, b[:]); err != nil {
				t.Fatal(err)
			}
			wr.SGL = []SGE{{Addr: local, Length: 8, MR: lmr}}
			next := wantOld + 7
			if c.op == "CAS" {
				wr.Opcode, wr.CompareAdd, wr.Swap = OpCompSwap, wantOld, 77
				next = 77
				if i == 1 { // a failing compare leaves memory alone
					wr.CompareAdd = 5
					next = wantOld
				}
			} else {
				wr.Opcode, wr.CompareAdd = OpFetchAdd, 7
			}
			binary.LittleEndian.PutUint64(b[:], next)
			want = b[:]
		case "SEND":
			want = pattern(200, byte(i+17))
			copy(lmr.Region().Bytes()[i*512:], want)
			if err := qb.PostRecv(RecvWR{ID: uint64(i), SGE: SGE{Addr: dst, Length: 256, MR: rmr}}); err != nil {
				t.Fatal(err)
			}
			wr.Opcode, wr.SGL = OpSend, []SGE{{Addr: local, Length: len(want), MR: lmr}}
		default:
			t.Fatalf("unknown op %q", c.op)
		}
		comp, err := qa.PostSend(now, wr)
		if err != nil {
			t.Fatalf("%v: post %d: %v", c, i, err)
		}
		now = comp.Done
		switch c.op {
		case "READ":
			got := make([]byte, len(want))
			if err := ma.Space().ReadAt(local, got); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("%v: post %d: read bytes differ", c, i)
			}
		case "CAS", "FAA":
			if comp.OldValue != wantOld {
				t.Fatalf("%v: post %d: old value %d, want %d", c, i, comp.OldValue, wantOld)
			}
			got := make([]byte, 8)
			if err := ma.Space().ReadAt(local, got); err != nil {
				t.Fatal(err)
			}
			if binary.LittleEndian.Uint64(got) != wantOld {
				t.Fatalf("%v: post %d: local old value %d, want %d", c, i, binary.LittleEndian.Uint64(got), wantOld)
			}
		}
		if got := readB(dst, len(want)); !bytes.Equal(got, want) {
			t.Fatalf("%v: post %d: target bytes % x, want % x", c, i, got, want)
		}
		switch c.op {
		case "CAS", "FAA":
			note("%d/old=%d", comp.Done, comp.OldValue)
		case "SEND":
			cqe, ok := qb.RecvCQ().PollOne(sim.Time(1 << 60))
			if !ok {
				t.Fatalf("%v: post %d: no receive CQE", c, i)
			}
			note("%d/%d", comp.Done, cqe.Time)
		default:
			note("%d", comp.Done)
		}
	}
	return strings.Join(facts, " ")
}

// TestWalkCharacterization pins the stage walk across port, posting-core
// socket, target-MR socket and backing, and verb: every completion time,
// atomic old value and receive CQE time of a cell's three posts, plus the
// bytes each post leaves in memory. A refactor of the walk must leave every
// cell unchanged.
func TestWalkCharacterization(t *testing.T) {
	got := map[string]string{}
	for _, port := range []int{0, 1} {
		for _, other := range []bool{false, true} {
			for _, sock := range []topo.SocketID{0, 1} {
				for _, sparse := range []bool{false, true} {
					for _, op := range []string{"WRITE", "READ", "CAS", "FAA", "SEND", "UD"} {
						c := walkCell{port: port, otherCore: other, mrSocket: sock, sparse: sparse, op: op}
						got[c.String()] = runWalkCell(t, c)
					}
				}
			}
		}
	}
	var diff []string
	for k, v := range got {
		if want, ok := walkWant[k]; !ok || want != v {
			diff = append(diff, fmt.Sprintf("\t%q: %q, // want %q", k, v, want))
		}
	}
	if len(walkWant) != len(got) {
		t.Errorf("%d pinned cells, %d run", len(walkWant), len(got))
	}
	if len(diff) > 0 {
		sort.Strings(diff)
		t.Fatalf("%d cells moved:\n%s", len(diff), strings.Join(diff, "\n"))
	}
}

// walkWant is the table's pinned facts, recorded before the walk resolved
// its per-QP route once and landed one-sided data through the target MR.
// The UD cells send MaxInline-byte datagrams, which ride in the WQE.
var walkWant = map[string]string{
	"p0/other/s0/dense/CAS":    "6105/old=1000 9160/old=1001 12215/old=1002",
	"p0/other/s0/dense/FAA":    "6103/old=1000 9156/old=1001 12209/old=1002",
	"p0/other/s0/dense/READ":   "6333 9516 12699",
	"p0/other/s0/dense/SEND":   "4160/4169 5860/5869 7560/7569",
	"p0/other/s0/dense/UD":     "1595/2466 2680/3041 3765/4126",
	"p0/other/s0/dense/WRITE":  "5565 7880 10195",
	"p0/other/s0/sparse/CAS":   "6105/old=1000 9160/old=1001 12215/old=1002",
	"p0/other/s0/sparse/FAA":   "6103/old=1000 9156/old=1001 12209/old=1002",
	"p0/other/s0/sparse/READ":  "6333 9516 12699",
	"p0/other/s0/sparse/SEND":  "4160/4169 5860/5869 7560/7569",
	"p0/other/s0/sparse/UD":    "1595/2466 2680/3041 3765/4126",
	"p0/other/s0/sparse/WRITE": "5565 7880 10195",
	"p0/other/s1/dense/CAS":    "6175/old=1000 9300/old=1001 12425/old=1002",
	"p0/other/s1/dense/FAA":    "6173/old=1000 9296/old=1001 12419/old=1002",
	"p0/other/s1/dense/READ":   "6528 9906 13284",
	"p0/other/s1/dense/SEND":   "4160/4254 5860/5954 7560/7654",
	"p0/other/s1/dense/UD":     "1595/2550 2680/3125 3765/4210",
	"p0/other/s1/dense/WRITE":  "5845 8440 11035",
	"p0/other/s1/sparse/CAS":   "6175/old=1000 9300/old=1001 12425/old=1002",
	"p0/other/s1/sparse/FAA":   "6173/old=1000 9296/old=1001 12419/old=1002",
	"p0/other/s1/sparse/READ":  "6528 9906 13284",
	"p0/other/s1/sparse/SEND":  "4160/4254 5860/5954 7560/7654",
	"p0/other/s1/sparse/UD":    "1595/2550 2680/3125 3765/4210",
	"p0/other/s1/sparse/WRITE": "5845 8440 11035",
	"p0/same/s0/dense/CAS":     "5685/old=1000 8320/old=1001 10955/old=1002",
	"p0/same/s0/dense/FAA":     "5683/old=1000 8316/old=1001 10949/old=1002",
	"p0/same/s0/dense/READ":    "5913 8676 11439",
	"p0/same/s0/dense/SEND":    "3740/3749 5020/5029 6300/6309",
	"p0/same/s0/dense/UD":      "1315/2186 2120/2481 2925/3286",
	"p0/same/s0/dense/WRITE":   "5145 7040 8935",
	"p0/same/s0/sparse/CAS":    "5685/old=1000 8320/old=1001 10955/old=1002",
	"p0/same/s0/sparse/FAA":    "5683/old=1000 8316/old=1001 10949/old=1002",
	"p0/same/s0/sparse/READ":   "5913 8676 11439",
	"p0/same/s0/sparse/SEND":   "3740/3749 5020/5029 6300/6309",
	"p0/same/s0/sparse/UD":     "1315/2186 2120/2481 2925/3286",
	"p0/same/s0/sparse/WRITE":  "5145 7040 8935",
	"p0/same/s1/dense/CAS":     "5755/old=1000 8460/old=1001 11165/old=1002",
	"p0/same/s1/dense/FAA":     "5753/old=1000 8456/old=1001 11159/old=1002",
	"p0/same/s1/dense/READ":    "6108 9066 12024",
	"p0/same/s1/dense/SEND":    "3740/3834 5020/5114 6300/6394",
	"p0/same/s1/dense/UD":      "1315/2270 2120/2565 2925/3370",
	"p0/same/s1/dense/WRITE":   "5425 7600 9775",
	"p0/same/s1/sparse/CAS":    "5755/old=1000 8460/old=1001 11165/old=1002",
	"p0/same/s1/sparse/FAA":    "5753/old=1000 8456/old=1001 11159/old=1002",
	"p0/same/s1/sparse/READ":   "6108 9066 12024",
	"p0/same/s1/sparse/SEND":   "3740/3834 5020/5114 6300/6394",
	"p0/same/s1/sparse/UD":     "1315/2270 2120/2565 2925/3370",
	"p0/same/s1/sparse/WRITE":  "5425 7600 9775",
	"p1/other/s0/dense/CAS":    "6175/old=1000 9300/old=1001 12425/old=1002",
	"p1/other/s0/dense/FAA":    "6173/old=1000 9296/old=1001 12419/old=1002",
	"p1/other/s0/dense/READ":   "6618 10086 13554",
	"p1/other/s0/dense/SEND":   "4315/4409 6170/6264 8025/8119",
	"p1/other/s0/dense/UD":     "1595/2550 2680/3125 3765/4210",
	"p1/other/s0/dense/WRITE":  "6000 8750 11500",
	"p1/other/s0/sparse/CAS":   "6175/old=1000 9300/old=1001 12425/old=1002",
	"p1/other/s0/sparse/FAA":   "6173/old=1000 9296/old=1001 12419/old=1002",
	"p1/other/s0/sparse/READ":  "6618 10086 13554",
	"p1/other/s0/sparse/SEND":  "4315/4409 6170/6264 8025/8119",
	"p1/other/s0/sparse/UD":    "1595/2550 2680/3125 3765/4210",
	"p1/other/s0/sparse/WRITE": "6000 8750 11500",
	"p1/other/s1/dense/CAS":    "6105/old=1000 9160/old=1001 12215/old=1002",
	"p1/other/s1/dense/FAA":    "6103/old=1000 9156/old=1001 12209/old=1002",
	"p1/other/s1/dense/READ":   "6423 9696 12969",
	"p1/other/s1/dense/SEND":   "4315/4324 6170/6179 8025/8034",
	"p1/other/s1/dense/UD":     "1595/2466 2680/3041 3765/4126",
	"p1/other/s1/dense/WRITE":  "5720 8190 10660",
	"p1/other/s1/sparse/CAS":   "6105/old=1000 9160/old=1001 12215/old=1002",
	"p1/other/s1/sparse/FAA":   "6103/old=1000 9156/old=1001 12209/old=1002",
	"p1/other/s1/sparse/READ":  "6423 9696 12969",
	"p1/other/s1/sparse/SEND":  "4315/4324 6170/6179 8025/8034",
	"p1/other/s1/sparse/UD":    "1595/2466 2680/3041 3765/4126",
	"p1/other/s1/sparse/WRITE": "5720 8190 10660",
	"p1/same/s0/dense/CAS":     "5755/old=1000 8460/old=1001 11165/old=1002",
	"p1/same/s0/dense/FAA":     "5753/old=1000 8456/old=1001 11159/old=1002",
	"p1/same/s0/dense/READ":    "6198 9246 12294",
	"p1/same/s0/dense/SEND":    "3895/3989 5330/5424 6765/6859",
	"p1/same/s0/dense/UD":      "1315/2270 2120/2565 2925/3370",
	"p1/same/s0/dense/WRITE":   "5580 7910 10240",
	"p1/same/s0/sparse/CAS":    "5755/old=1000 8460/old=1001 11165/old=1002",
	"p1/same/s0/sparse/FAA":    "5753/old=1000 8456/old=1001 11159/old=1002",
	"p1/same/s0/sparse/READ":   "6198 9246 12294",
	"p1/same/s0/sparse/SEND":   "3895/3989 5330/5424 6765/6859",
	"p1/same/s0/sparse/UD":     "1315/2270 2120/2565 2925/3370",
	"p1/same/s0/sparse/WRITE":  "5580 7910 10240",
	"p1/same/s1/dense/CAS":     "5685/old=1000 8320/old=1001 10955/old=1002",
	"p1/same/s1/dense/FAA":     "5683/old=1000 8316/old=1001 10949/old=1002",
	"p1/same/s1/dense/READ":    "6003 8856 11709",
	"p1/same/s1/dense/SEND":    "3895/3904 5330/5339 6765/6774",
	"p1/same/s1/dense/UD":      "1315/2186 2120/2481 2925/3286",
	"p1/same/s1/dense/WRITE":   "5300 7350 9400",
	"p1/same/s1/sparse/CAS":    "5685/old=1000 8320/old=1001 10955/old=1002",
	"p1/same/s1/sparse/FAA":    "5683/old=1000 8316/old=1001 10949/old=1002",
	"p1/same/s1/sparse/READ":   "6003 8856 11709",
	"p1/same/s1/sparse/SEND":   "3895/3904 5330/5339 6765/6774",
	"p1/same/s1/sparse/UD":     "1315/2186 2120/2481 2925/3286",
	"p1/same/s1/sparse/WRITE":  "5300 7350 9400",
}
