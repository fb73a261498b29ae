package hashtable

import (
	"bytes"
	"errors"
	"slices"
	"testing"

	"rdmasem/internal/cluster"
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

func defaultConfig(level Level, hot []uint64) Config {
	return Config{
		Level:     level,
		KeySpace:  1 << 12,
		ValueSize: 64,
		Theta:     4,
		HotKeys:   hot,
	}
}

func TestBackendValidation(t *testing.T) {
	cl := newCluster(t, 1)
	if _, err := NewBackend(cl.Machine(0), Config{}); err == nil {
		t.Fatal("empty config must fail")
	}
}

func TestColdPutGetRoundTrip(t *testing.T) {
	for _, level := range []Level{Basic, NUMA} {
		t.Run(level.String(), func(t *testing.T) {
			cl := newCluster(t, 2)
			b, err := NewBackend(cl.Machine(0), defaultConfig(level, nil))
			if err != nil {
				t.Fatal(err)
			}
			fe, err := NewFrontEnd(1, cl.Machine(1), 0, b)
			if err != nil {
				t.Fatal(err)
			}
			val := make([]byte, 64)
			workload.FillValue(val, 77)
			d, err := fe.Put(0, 77, val)
			if err != nil {
				t.Fatal(err)
			}
			if d <= 0 {
				t.Fatal("put must take time")
			}
			// Value is durable at the backend.
			stored := make([]byte, 64)
			if err := b.ReadCold(77, stored); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(stored, val) {
				t.Fatal("cold put did not land at backend")
			}
			// And Get round-trips over the network.
			out := make([]byte, 64)
			if _, err := fe.Get(d, 77, out); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(out, val) {
				t.Fatal("cold get returned wrong value")
			}
		})
	}
}

func TestColdPutVersioning(t *testing.T) {
	cl := newCluster(t, 2)
	b, err := NewBackend(cl.Machine(0), defaultConfig(Basic, nil))
	if err != nil {
		t.Fatal(err)
	}
	fe, err := NewFrontEnd(1, cl.Machine(1), 0, b)
	if err != nil {
		t.Fatal(err)
	}
	val := make([]byte, 64)
	now := sim.Time(0)
	var versions []uint64
	for i := 0; i < 3; i++ {
		d, err := fe.Put(now, 5, val)
		if err != nil {
			t.Fatal(err)
		}
		now = d
		// Read the stored version word of the entry.
		_, addr := b.coldLocation(5)
		var vb [8]byte
		if err := b.Machine().Space().ReadAt(addr+8, vb[:]); err != nil {
			t.Fatal(err)
		}
		var v uint64
		for j := 0; j < 8; j++ {
			v |= uint64(vb[j]) << (8 * j)
		}
		versions = append(versions, v)
	}
	// Versions must be strictly increasing (multi-version concurrency).
	for i := 1; i < len(versions); i++ {
		if versions[i] <= versions[i-1] {
			t.Fatalf("versions not increasing: %v", versions)
		}
	}
	// One epoch reservation covers all three writes: the remote counter
	// advanced exactly once.
	var vb [8]byte
	if err := b.Machine().Space().ReadAt(b.versionAddr(5), vb[:]); err != nil {
		t.Fatal(err)
	}
	if vb[0] != 1 {
		t.Fatalf("epoch counter=%d, want 1 (amortized FAA)", vb[0])
	}
}

// coldSlotEmpty fails the test if a put of key reached its cold slot: a key
// on the hot path leaves the slot's value zero.
func coldSlotEmpty(t *testing.T, b *Backend, key uint64) {
	t.Helper()
	out := make([]byte, 64)
	if err := b.ReadCold(key, out); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(out, make([]byte, 64)) {
		t.Fatalf("key %d took the cold path", key)
	}
}

func TestHotPutConsolidates(t *testing.T) {
	cl := newCluster(t, 2)
	hot := []uint64{10, 11, 12, 13, 14, 15, 16, 17}
	cfg := defaultConfig(Reorder, hot)
	b, err := NewBackend(cl.Machine(0), cfg)
	if err != nil {
		t.Fatal(err)
	}
	fe, err := NewFrontEnd(1, cl.Machine(1), 0, b)
	if err != nil {
		t.Fatal(err)
	}
	val := make([]byte, 64)
	now := sim.Time(0)
	var times []sim.Duration
	for i, k := range hot[:4] { // theta=4: 4th write to the block flushes
		workload.FillValue(val, k)
		d, err := fe.Put(now, k, val)
		if err != nil {
			t.Fatal(err)
		}
		times = append(times, d-now)
		now = d
		_ = i
	}
	// First three absorbed cheaply; the fourth pays lock + flush + unlock.
	for i := 0; i < 3; i++ {
		if times[i] > 500 {
			t.Fatalf("absorbed hot put %d took %v", i, times[i])
		}
	}
	if times[3] < 3000 {
		t.Fatalf("flushing put took only %v; expected lock+flush+unlock", times[3])
	}
	// All four entries are durable at the backend hot area.
	for _, k := range hot[:4] {
		stored := make([]byte, 64)
		if err := b.ReadHot(k, stored); err != nil {
			t.Fatal(err)
		}
		if !workload.CheckValue(stored, k) {
			t.Fatalf("hot key %d not durable after flush", k)
		}
	}
	for _, k := range hot[:4] {
		coldSlotEmpty(t, b, k)
	}
}

func TestHotGetReadYourWrites(t *testing.T) {
	cl := newCluster(t, 2)
	hot := []uint64{100, 101}
	cfg := defaultConfig(Reorder, hot)
	cfg.Theta = 100 // never flush during the test
	b, err := NewBackend(cl.Machine(0), cfg)
	if err != nil {
		t.Fatal(err)
	}
	fe, err := NewFrontEnd(1, cl.Machine(1), 0, b)
	if err != nil {
		t.Fatal(err)
	}
	val := make([]byte, 64)
	workload.FillValue(val, 100)
	d, err := fe.Put(0, 100, val)
	if err != nil {
		t.Fatal(err)
	}
	out := make([]byte, 64)
	d2, err := fe.Get(d, 100, out)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(out, val) {
		t.Fatal("hot get must see the unflushed write")
	}
	if d2-d > 500 {
		t.Fatalf("shadow-hit get took %v; should be CPU-cheap", d2-d)
	}
	// Flush, then the value must be durable.
	if _, err := fe.Flush(d2); err != nil {
		t.Fatal(err)
	}
	stored := make([]byte, 64)
	if err := b.ReadHot(100, stored); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(stored, val) {
		t.Fatal("flushed hot value missing at backend")
	}
}

// Regression: keys reduce mod KeySpace before the hot-index lookup, so a
// key past KeySpace that aliases a hot key takes the hot path. Before,
// Put(10+KeySpace) wrote the cold slot and Get(10) read zeros from the hot
// area.
func TestHotKeyReducesModKeySpace(t *testing.T) {
	cl := newCluster(t, 2)
	cfg := defaultConfig(Reorder, []uint64{10})
	cfg.Theta = 100 // never flush during the test
	b, err := NewBackend(cl.Machine(0), cfg)
	if err != nil {
		t.Fatal(err)
	}
	fe, err := NewFrontEnd(1, cl.Machine(1), 0, b)
	if err != nil {
		t.Fatal(err)
	}
	val := make([]byte, 64)
	workload.FillValue(val, 10)
	d, err := fe.Put(0, 10+cfg.KeySpace, val)
	if err != nil {
		t.Fatal(err)
	}
	out := make([]byte, 64)
	if _, err := fe.Get(d, 10, out); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(out, val) {
		t.Fatal("Get(10) missed the value Put under 10+KeySpace")
	}
	coldSlotEmpty(t, b, 10)
}

func TestValueSizeValidation(t *testing.T) {
	cl := newCluster(t, 2)
	b, err := NewBackend(cl.Machine(0), defaultConfig(Basic, nil))
	if err != nil {
		t.Fatal(err)
	}
	fe, err := NewFrontEnd(1, cl.Machine(1), 0, b)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := fe.Put(0, 1, make([]byte, 3)); err == nil {
		t.Fatal("wrong value size must fail")
	}
	if _, err := fe.Get(0, 1, make([]byte, 3)); err == nil {
		t.Fatal("wrong out size must fail")
	}
	if err := b.ReadHot(999, make([]byte, 64)); err == nil {
		t.Fatal("ReadHot of a cold key must fail")
	}
}

// Regression: a negative Theta silently became 1. It is a configuration
// error now; 0 still picks the default.
func TestNewBackendRejectsBadConfig(t *testing.T) {
	cl := newCluster(t, 2)
	for name, mut := range map[string]func(*Config){
		"theta -1":    func(c *Config) { c.Theta = -1 },
		"key space 0": func(c *Config) { c.KeySpace = 0 },
	} {
		cfg := defaultConfig(Reorder, []uint64{1, 2, 3})
		mut(&cfg)
		if _, err := NewBackend(cl.Machine(0), cfg); !errors.Is(err, ErrBadConfig) {
			t.Errorf("%s: %v, want ErrBadConfig", name, err)
		}
	}
	cfg := defaultConfig(Reorder, []uint64{1, 2, 3})
	cfg.Theta = 0
	b, err := NewBackend(cl.Machine(0), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if b.cfg.Theta != 1 {
		t.Fatalf("default theta %d, want 1", b.cfg.Theta)
	}
}

// Regression: with a key space that does not divide evenly over the
// backend's sockets, coldLocation used to truncate perSocket and skip the
// key%KeySpace reduction, so two distinct keys shared a cold slot while
// keeping distinct version words — a Get could return another key's value
// with a "valid" version. Slot and version derivation must now agree.
func TestColdSlotAliasingNonDivisibleKeySpace(t *testing.T) {
	cl := newCluster(t, 2)
	cfg := defaultConfig(Basic, nil)
	cfg.KeySpace = 11 // 2 sockets: ceil => 6 slots on socket 0, keys 0..10
	b, err := NewBackend(cl.Machine(0), cfg)
	if err != nil {
		t.Fatal(err)
	}
	fe, err := NewFrontEnd(1, cl.Machine(1), 0, b)
	if err != nil {
		t.Fatal(err)
	}
	// Keys 0 and 10 both land on socket 0; the truncated layout folded key
	// 10 back onto key 0's slot (idx 5 % 5 == 0).
	v0 := make([]byte, cfg.ValueSize)
	v10 := make([]byte, cfg.ValueSize)
	workload.FillValue(v0, 1000)
	workload.FillValue(v10, 2000)
	d, err := fe.Put(0, 0, v0)
	if err != nil {
		t.Fatal(err)
	}
	d, err = fe.Put(d, 10, v10)
	if err != nil {
		t.Fatal(err)
	}
	out := make([]byte, cfg.ValueSize)
	if _, err := fe.Get(d, 0, out); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(out, v0) {
		t.Fatal("key 0 returned key 10's value: cold slots alias")
	}
	if _, err := fe.Get(d, 10, out); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(out, v10) {
		t.Fatal("key 10 lost its value")
	}
	// Out-of-range keys reduce mod KeySpace for both the slot and the
	// version word, so key 11 is key 0 under both derivations.
	mr0, a0 := b.coldLocation(0)
	mr11, a11 := b.coldLocation(11)
	if mr0 != mr11 || a0 != a11 {
		t.Fatal("coldLocation(11) must reduce to coldLocation(0)")
	}
	if b.versionAddr(11) != b.versionAddr(0) {
		t.Fatal("versionAddr(11) must reduce to versionAddr(0)")
	}
}

// The scratch MR is a fixed 4 KiB with cold-read staging at offset 1024: a
// value whose entry does not fit there must be rejected up front instead of
// silently posting an out-of-bounds SGE.
func TestFrontEndRejectsOversizedValues(t *testing.T) {
	cl := newCluster(t, 2)
	for _, tc := range []struct {
		value int
		ok    bool
	}{{MaxValueSize, true}, {MaxValueSize + 1, false}} {
		cfg := defaultConfig(Basic, nil)
		cfg.KeySpace = 16
		cfg.ValueSize = tc.value
		b, err := NewBackend(cl.Machine(0), cfg)
		if err != nil {
			t.Fatal(err)
		}
		_, err = NewFrontEnd(1, cl.Machine(1), 0, b)
		if tc.ok && err != nil {
			t.Fatalf("value size %d must be accepted: %v", tc.value, err)
		}
		if !tc.ok {
			if !errors.Is(err, ErrValueTooLarge) {
				t.Fatalf("value size %d: want ErrValueTooLarge, got %v", tc.value, err)
			}
		}
	}
}

// The Get hot path must not allocate — same ceiling the verbs post path has
// carried since the op pipeline went allocation-free.
func TestGetAllocFree(t *testing.T) {
	cl := newCluster(t, 2)
	hot := []uint64{40, 41}
	cfg := defaultConfig(Reorder, hot)
	cfg.Theta = 100
	b, err := NewBackend(cl.Machine(0), cfg)
	if err != nil {
		t.Fatal(err)
	}
	fe, err := NewFrontEnd(1, cl.Machine(1), 0, b)
	if err != nil {
		t.Fatal(err)
	}
	val := make([]byte, cfg.ValueSize)
	workload.FillValue(val, 40)
	now, err := fe.Put(0, 40, val)
	if err != nil {
		t.Fatal(err)
	}
	out := make([]byte, cfg.ValueSize)
	var gerr error
	// Warm both paths once (shadow residency, QP and route buffers), then pin.
	if _, gerr = fe.Get(now, 40, out); gerr != nil {
		t.Fatal(gerr)
	}
	if _, gerr = fe.Get(now, 7, out); gerr != nil {
		t.Fatal(gerr)
	}
	if avg := testing.AllocsPerRun(200, func() {
		_, gerr = fe.Get(now, 40, out)
	}); gerr != nil || avg != 0 {
		t.Fatalf("hot Get: %v allocs/op (err=%v), want 0", avg, gerr)
	}
	if avg := testing.AllocsPerRun(200, func() {
		_, gerr = fe.Get(now, 7, out)
	}); gerr != nil || avg != 0 {
		t.Fatalf("cold Get: %v allocs/op (err=%v), want 0", avg, gerr)
	}
}

// A cold Put, the fetch-and-add that reserves each epoch included, must not
// allocate either: it runs once per write of every cold key in fig12.
func TestColdPutAllocFree(t *testing.T) {
	cl := newCluster(t, 2)
	cfg := defaultConfig(Reorder, []uint64{40, 41})
	b, err := NewBackend(cl.Machine(0), cfg)
	if err != nil {
		t.Fatal(err)
	}
	fe, err := NewFrontEnd(1, cl.Machine(1), 0, b)
	if err != nil {
		t.Fatal(err)
	}
	val := make([]byte, cfg.ValueSize)
	workload.FillValue(val, 7)
	now, err := fe.Put(0, 7, val)
	if err != nil {
		t.Fatal(err)
	}
	var perr error
	if avg := testing.AllocsPerRun(2*epochSpan, func() {
		now, perr = fe.Put(now, 7, val)
	}); perr != nil || avg != 0 {
		t.Fatalf("cold Put: %v allocs/op (err=%v), want 0", avg, perr)
	}
}

// Figure 12's qualitative claim: Reorder > NUMA > Basic throughput under a
// zipf write workload with multiple front-ends.
func TestOptimizationLevelsOrdering(t *testing.T) {
	run := func(level Level, theta int) float64 {
		cl := newCluster(t, 5)
		dist, err := workload.NewZipfDist(1<<12, 0.99)
		if err != nil {
			t.Fatal(err)
		}
		cfg := defaultConfig(level, dist.HotSet(1<<10))
		cfg.Theta = theta
		b, err := NewBackend(cl.Machine(0), cfg)
		if err != nil {
			t.Fatal(err)
		}
		var clients []*sim.Client
		val := make([]byte, 64)
		for mi := 1; mi < 5; mi++ {
			for s := 0; s < 2; s++ {
				fe, err := NewFrontEnd(mi*2+s, cl.Machine(mi), topo.SocketID(s), b)
				if err != nil {
					t.Fatal(err)
				}
				keys := dist.New(int64(100 + mi*2 + s))
				clients = append(clients, &sim.Client{
					PostCost: 200,
					Window:   8,
					Op: func(post sim.Time) sim.Time {
						workload.FillValue(val, 1)
						d, err := fe.Put(post, keys.Next(), val)
						if err != nil {
							t.Fatal(err)
						}
						return d
					},
				})
			}
		}
		res, err := sim.RunClosedLoop(clients, 5*sim.Millisecond)
		if err != nil {
			t.Fatal(err)
		}
		return res.MOPS()
	}
	basic := run(Basic, 4)
	numa := run(NUMA, 4)
	reorder := run(Reorder, 16)
	if !(numa > basic*1.03) {
		t.Errorf("NUMA (%.2f) should beat Basic (%.2f)", numa, basic)
	}
	if !(reorder > numa*1.2) {
		t.Errorf("Reorder (%.2f) should beat NUMA (%.2f) clearly", reorder, numa)
	}
	t.Logf("basic=%.2f numa=%.2f reorder=%.2f MOPS", basic, numa, reorder)
}

// The points of a sweep share one hot set, so NewBackend must sort a copy
// and leave the caller's slice exactly as it was.
func TestNewBackendLeavesHotKeys(t *testing.T) {
	cl := newCluster(t, 1)
	hot := []uint64{900, 17, 4000, 3, 256, 255, 1024, 42}
	want := slices.Clone(hot)
	if _, err := NewBackend(cl.Machine(0), defaultConfig(Reorder, hot)); err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(hot, want) {
		t.Fatalf("NewBackend rewrote HotKeys: %v, was %v", hot, want)
	}
}

// The hot layout depends on the hot set, not on its order: a backend built
// from a hot set and one built from its reverse give every hot key the same
// block and slot.
func TestHotLayoutIgnoresKeyOrder(t *testing.T) {
	dist, err := workload.NewZipfDist(1<<12, 0.99)
	if err != nil {
		t.Fatal(err)
	}
	hot := dist.HotSet(200)
	rev := slices.Clone(hot)
	slices.Reverse(rev)
	cl := newCluster(t, 2)
	a, err := NewBackend(cl.Machine(0), defaultConfig(Reorder, hot))
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewBackend(cl.Machine(1), defaultConfig(Reorder, rev))
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range hot {
		sa, oka := a.hotSlot(k)
		sb, okb := b.hotSlot(k)
		if !oka || !okb || sa != sb {
			t.Fatalf("key %d: slot %+v (%v) from the set, %+v (%v) from its reverse", k, sa, oka, sb, okb)
		}
	}
}

// A Reorder front-end builds a block's lock on the block's first flush:
// after θ puts to one hot block it holds exactly one lock.
func TestReorderBuildsLockOnFirstFlush(t *testing.T) {
	cl := newCluster(t, 2)
	hot := make([]uint64, 64) // four 16-entry blocks
	for i := range hot {
		hot[i] = uint64(100 + i)
	}
	cfg := defaultConfig(Reorder, hot)
	b, err := NewBackend(cl.Machine(0), cfg)
	if err != nil {
		t.Fatal(err)
	}
	fe, err := NewFrontEnd(1, cl.Machine(1), 0, b)
	if err != nil {
		t.Fatal(err)
	}
	held := func() int {
		n := 0
		for _, lk := range fe.locks {
			if lk != nil {
				n++
			}
		}
		return n
	}
	if len(fe.locks) != 4 || held() != 0 {
		t.Fatalf("new front-end holds %d of %d locks, want 0 of 4", held(), len(fe.locks))
	}
	val := make([]byte, 64)
	now := sim.Time(0)
	for _, k := range hot[:cfg.Theta] { // all in block 0: the θ-th put flushes
		workload.FillValue(val, k)
		if now, err = fe.Put(now, k, val); err != nil {
			t.Fatal(err)
		}
	}
	if got := held(); got != 1 || fe.locks[0] == nil {
		t.Fatalf("after one block's flush the front-end holds %d locks (block 0: %v), want exactly block 0's", got, fe.locks[0] != nil)
	}
}
