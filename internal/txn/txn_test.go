// Tests for the optimistic-transaction layer: unit commit/abort/retry
// paths, a no-double-commit property under conflicting concurrent
// transactions, determinism across runs on fresh clusters, failure atomicity
// under a participant crash, and the zero-allocation ceilings on the
// commit and conflict-abort hot paths.
package txn

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"strings"
	"testing"

	"rdmasem/internal/cluster"
	"rdmasem/internal/fabric"
	"rdmasem/internal/sim"
	"rdmasem/internal/telemetry"
	"rdmasem/internal/verbs"
	"rdmasem/internal/workload"
)

func testCluster(t *testing.T, machines int, faults *fabric.FaultPlan, reg *telemetry.Registry) *cluster.Cluster {
	t.Helper()
	cfg := cluster.DefaultConfig()
	if machines > 0 {
		cfg.Machines = machines
	}
	cfg.Faults = faults
	cfg.Telemetry = reg
	cl, err := cluster.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return cl
}

func mustStore(t *testing.T, cl *cluster.Cluster, m int, cfg Config) *Store {
	t.Helper()
	s, err := NewStore(cl.Machine(m), cfg)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func mustClient(t *testing.T, id int, cl *cluster.Cluster, m int, s *Store) *Client {
	t.Helper()
	c, err := NewClient(id, cl.Machine(m), 0, s)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// bumpVersion commits a phantom update to key directly in backend memory:
// version += by with a recomputed checksum, so the entry stays consistent
// while any version observed earlier goes stale. scratch must be
// entrySize() bytes; the helper is allocation-free so the abort alloc test
// can call it inside testing.AllocsPerRun.
func bumpVersion(s *Store, key uint64, by uint64, scratch []byte) error {
	_, addr := s.entryLocation(key)
	sp := s.Machine().Space()
	if err := sp.ReadAt(addr, scratch); err != nil {
		return err
	}
	ver := binary.LittleEndian.Uint64(scratch[8:]) + by
	binary.LittleEndian.PutUint64(scratch[8:], ver)
	binary.LittleEndian.PutUint64(scratch[16:], checksum(key%s.cfg.KeySpace, ver, scratch[24:]))
	return sp.WriteAt(addr, scratch)
}

func TestCommitRoundTrip(t *testing.T) {
	cl := testCluster(t, 0, nil, nil)
	s := mustStore(t, cl, 0, Config{KeySpace: 1 << 8, ValueSize: 32})
	c := mustClient(t, 0, cl, 1, s)

	val := make([]byte, 32)
	buf := make([]byte, 32)
	workload.FillValue(val, 5)
	done, err := c.Run(0, func(tx *Txn) error {
		if err := tx.Get(5, buf); err != nil {
			return err
		}
		if v, _, ok, err := s.Entry(5); err != nil || !ok || v != 0 {
			return fmt.Errorf("version %d/%v before the commit, want 0/true (%v)", v, ok, err)
		}
		return tx.Put(5, val)
	})
	if err != nil {
		t.Fatal(err)
	}
	if done <= 0 {
		t.Fatalf("commit completion time %v, want > 0", done)
	}

	ver, got, consistent, err := s.Entry(5)
	if err != nil {
		t.Fatal(err)
	}
	if ver != 2 || !consistent || !bytes.Equal(got, val) {
		t.Fatalf("entry after commit: ver=%d consistent=%v value match=%v", ver, consistent, bytes.Equal(got, val))
	}
	head, err := s.Redo().Head()
	if err != nil {
		t.Fatal(err)
	}
	if head != 1 {
		t.Fatalf("redo head %d, want 1", head)
	}
	rec, err := s.Redo().Record(0)
	if err != nil {
		t.Fatal(err)
	}
	if binary.LittleEndian.Uint64(rec[8:]) != 5 || binary.LittleEndian.Uint64(rec[16:]) != 2 || !bytes.Equal(rec[24:24+32], val) {
		t.Fatal("redo record does not describe the committed write")
	}
	if st := c.Stats(); st.Commits != 1 || st.Aborts != 0 || st.Retries != 0 {
		t.Fatalf("stats %+v, want exactly one commit", st)
	}
}

func TestMultiKeyAndReadYourOwnWrites(t *testing.T) {
	cl := testCluster(t, 0, nil, nil)
	s := mustStore(t, cl, 0, Config{KeySpace: 64, ValueSize: 16, MaxWrites: 3})
	c := mustClient(t, 0, cl, 1, s)

	v1 := make([]byte, 16)
	v2 := make([]byte, 16)
	buf := make([]byte, 16)
	workload.FillValue(v1, 100)
	workload.FillValue(v2, 200)

	_, err := c.Run(0, func(tx *Txn) error {
		for _, k := range []uint64{9, 10} {
			if err := tx.Get(k, buf); err != nil {
				return err
			}
		}
		if err := tx.Put(9, v1); err != nil {
			return err
		}
		// Read-your-own-writes: the staged intent wins over the remote entry.
		if err := tx.Get(9, buf); err != nil {
			return err
		}
		if !bytes.Equal(buf, v1) {
			return fmt.Errorf("read-your-own-writes returned the remote value")
		}
		// Restaging the same key replaces the intent rather than growing it.
		if err := tx.Put(9, v2); err != nil {
			return err
		}
		return tx.Put(10, v1)
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []struct {
		key uint64
		val []byte
	}{{9, v2}, {10, v1}} {
		ver, got, consistent, err := s.Entry(want.key)
		if err != nil {
			t.Fatal(err)
		}
		if ver != 2 || !consistent || !bytes.Equal(got, want.val) {
			t.Fatalf("key %d after commit: ver=%d consistent=%v", want.key, ver, consistent)
		}
	}

	// A read-only transaction commits without touching the store or log.
	before := s.Fingerprint()
	if _, err := c.Run(1000, func(tx *Txn) error { return tx.Get(9, buf) }); err != nil {
		t.Fatal(err)
	}
	if s.Fingerprint() != before {
		t.Fatal("read-only commit mutated the store")
	}
	if head, err := s.Redo().Head(); err != nil || head != 2 {
		t.Fatalf("redo head %d err %v, want 2 (read-only txn must not append)", head, err)
	}
}

// Regression: Get reduces the key mod KeySpace before the
// read-your-own-writes check, as Put does when it stages the intent. Before,
// Get, Put, Get of 5+KeySpace missed the staged write and re-read the
// remote entry.
func TestReadYourOwnWritesReducesModKeySpace(t *testing.T) {
	cl := testCluster(t, 0, nil, nil)
	s := mustStore(t, cl, 0, Config{KeySpace: 64, ValueSize: 16})
	c := mustClient(t, 0, cl, 1, s)
	val := make([]byte, 16)
	workload.FillValue(val, 5)
	buf := make([]byte, 16)
	key := 5 + s.cfg.KeySpace
	_, err := c.Run(0, func(tx *Txn) error {
		if err := tx.Get(key, buf); err != nil {
			return err
		}
		if err := tx.Put(key, val); err != nil {
			return err
		}
		if err := tx.Get(key, buf); err != nil {
			return err
		}
		if !bytes.Equal(buf, val) {
			return fmt.Errorf("Get(5+KeySpace) missed the staged write")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// Regression: a negative MaxWrites silently became 4. It is a configuration
// error now, like a zero key space or value size; 0 still picks the default.
func TestNewStoreRejectsBadConfig(t *testing.T) {
	cl := testCluster(t, 0, nil, nil)
	for name, cfg := range map[string]Config{
		"max writes -1": {KeySpace: 16, ValueSize: 8, MaxWrites: -1},
		"key space 0":   {KeySpace: 0, ValueSize: 8},
		"value size 0":  {KeySpace: 16, ValueSize: 0},
	} {
		if _, err := NewStore(cl.Machine(0), cfg); !errors.Is(err, ErrBadConfig) {
			t.Errorf("%s: %v, want ErrBadConfig", name, err)
		}
	}
	s := mustStore(t, cl, 0, Config{KeySpace: 16, ValueSize: 8})
	if s.cfg.MaxWrites != 4 {
		t.Fatalf("default max writes %d, want 4", s.cfg.MaxWrites)
	}
}

func TestValidationErrors(t *testing.T) {
	cl := testCluster(t, 0, nil, nil)
	if _, err := NewStore(cl.Machine(0), Config{KeySpace: 0, ValueSize: 8}); err == nil {
		t.Fatal("NewStore accepted a zero key space")
	}
	if _, err := NewStore(cl.Machine(0), Config{KeySpace: 8, ValueSize: 0}); err == nil {
		t.Fatal("NewStore accepted a zero value size")
	}
	s := mustStore(t, cl, 0, Config{KeySpace: 16, ValueSize: 8, MaxWrites: 2})
	c := mustClient(t, 0, cl, 1, s)

	buf := make([]byte, 8)
	tx := c.Begin(0)
	if err := tx.Get(1, make([]byte, 4)); err == nil {
		t.Fatal("Get accepted a wrong-sized out buffer")
	}
	if err := tx.Put(1, make([]byte, 4)); err == nil {
		t.Fatal("Put accepted a wrong-sized value")
	}
	if err := tx.Put(1, buf); !errors.Is(err, ErrNotRead) {
		t.Fatalf("Put without Get: %v, want ErrNotRead", err)
	}
	for _, k := range []uint64{1, 2, 3} {
		if err := tx.Get(k, buf); err != nil {
			t.Fatal(err)
		}
	}
	if err := tx.Put(1, buf); err != nil {
		t.Fatal(err)
	}
	if err := tx.Put(2, buf); err != nil {
		t.Fatal(err)
	}
	if err := tx.Put(3, buf); !errors.Is(err, ErrWriteSetFull) {
		t.Fatalf("third Put: %v, want ErrWriteSetFull", err)
	}
}

func TestTornReadRetriesThenFails(t *testing.T) {
	cl := testCluster(t, 0, nil, nil)
	s := mustStore(t, cl, 0, Config{KeySpace: 32, ValueSize: 16})
	c := mustClient(t, 0, cl, 1, s)

	// Lock key 4 directly (odd version, checksum left stale) as a committer
	// that never finishes would.
	_, addr := s.entryLocation(4)
	lock := make([]byte, 8)
	binary.LittleEndian.PutUint64(lock, 1)
	if err := s.Machine().Space().WriteAt(addr+8, lock); err != nil {
		t.Fatal(err)
	}

	buf := make([]byte, 16)
	tx := c.Begin(0)
	err := tx.Get(4, buf)
	if !errors.Is(err, ErrTornRead) {
		t.Fatalf("Get on a permanently locked entry: %v, want ErrTornRead", err)
	}
	if got := c.Stats().ReadRetries; got != readBudget {
		t.Fatalf("read retries %d, want %d", got, readBudget)
	}
	if tx.Now() <= 0 {
		t.Fatal("retries consumed no virtual time")
	}

	// Release the lock: the next read validates immediately.
	binary.LittleEndian.PutUint64(lock, 0)
	if err := s.Machine().Space().WriteAt(addr+8, lock); err != nil {
		t.Fatal(err)
	}
	tx = c.Begin(tx.Now())
	if err := tx.Get(4, buf); err != nil {
		t.Fatal(err)
	}
}

func TestConflictAbortAndRetry(t *testing.T) {
	cl := testCluster(t, 0, nil, nil)
	s := mustStore(t, cl, 0, Config{KeySpace: 64, ValueSize: 16})
	a := mustClient(t, 0, cl, 1, s)
	b := mustClient(t, 1, cl, 2, s)

	const k = 17
	va := make([]byte, 16)
	vb := make([]byte, 16)
	buf := make([]byte, 16)
	workload.FillValue(va, 1)
	workload.FillValue(vb, 2)

	// Interleave two conflicting transactions by hand: both read version 0,
	// A commits first, B's lock CAS must observe A's commit and abort.
	ta := a.Begin(0)
	if err := ta.Get(k, buf); err != nil {
		t.Fatal(err)
	}
	if err := ta.Put(k, va); err != nil {
		t.Fatal(err)
	}
	tb := b.Begin(0)
	if err := tb.Get(k, buf); err != nil {
		t.Fatal(err)
	}
	if err := tb.Put(k, vb); err != nil {
		t.Fatal(err)
	}
	if _, err := ta.Commit(); err != nil {
		t.Fatal(err)
	}
	_, err := tb.Commit()
	if !errors.Is(err, ErrConflict) {
		t.Fatalf("conflicting commit: %v, want ErrConflict", err)
	}
	if st := b.Stats(); st.Aborts != 1 || st.Commits != 0 {
		t.Fatalf("B stats %+v, want one abort", st)
	}
	// A's value survived; the aborted transaction left no trace.
	ver, got, consistent, err := s.Entry(k)
	if err != nil {
		t.Fatal(err)
	}
	if ver != 2 || !consistent || !bytes.Equal(got, va) {
		t.Fatalf("entry after conflict: ver=%d consistent=%v", ver, consistent)
	}

	// Run retries a conflict abort transparently: force one by bumping the
	// version under the first attempt's feet.
	poke := make([]byte, s.cfg.entrySize())
	first := true
	done, err := b.Run(1000, func(tx *Txn) error {
		if err := tx.Get(k, buf); err != nil {
			return err
		}
		if first {
			first = false
			if err := bumpVersion(s, k, 2, poke); err != nil {
				return err
			}
		}
		return tx.Put(k, vb)
	})
	if err != nil {
		t.Fatal(err)
	}
	if done <= 1000 {
		t.Fatalf("retry completion %v, want past begin time", done)
	}
	if st := b.Stats(); st.Commits != 1 || st.Retries != 1 || st.Aborts != 2 {
		t.Fatalf("B stats after retry %+v, want 1 commit, 1 retry, 2 aborts", st)
	}
	ver, got, consistent, err = s.Entry(k)
	if err != nil {
		t.Fatal(err)
	}
	if ver != 6 || !consistent || !bytes.Equal(got, vb) {
		t.Fatalf("entry after retried commit: ver=%d consistent=%v", ver, consistent)
	}
}

// TestNoDoubleCommitProperty drives six clients over a tiny hot key space
// with split-phase transactions (reads and commit in separate scheduler
// steps, so transactions genuinely overlap in virtual time) and checks the
// serializability invariant: no two committed transactions consumed the
// same (key, version) pair, and every key's final version counts exactly
// its committed writes.
func TestNoDoubleCommitProperty(t *testing.T) {
	cl := testCluster(t, 0, nil, nil)
	const keySpace = 8
	s := mustStore(t, cl, 0, Config{KeySpace: keySpace, ValueSize: 16, MaxWrites: 2})

	type commitRec struct{ key, ver uint64 }
	var commits []commitRec
	values := map[commitRec]uint64{} // (key, preVersion) -> value seed

	dist, err := workload.NewZipfDist(keySpace, 0.99)
	if err != nil {
		t.Fatal(err)
	}
	var clients []*sim.Client
	for i := 0; i < 6; i++ {
		c := mustClient(t, i, cl, 1+i, s)
		z := dist.New(int64(31 + i))
		buf := make([]byte, 16)
		val := make([]byte, 16)
		var tx *Txn
		var pend [2]commitRec
		var seeds [2]uint64
		id := uint64(i)
		var op uint64
		clients = append(clients, &sim.Client{
			PostCost: 200, Window: 1, MaxOps: 60,
			Op: func(post sim.Time) sim.Time {
				if tx == nil {
					// Phase 1: begin, read and stage; hand control back so
					// other clients' transactions overlap before our commit.
					op++
					k1 := z.Next() % keySpace
					k2 := (k1 + 1) % keySpace
					tx = c.Begin(post)
					for slot, k := range []uint64{k1, k2} {
						if err := tx.Get(k, buf); err != nil {
							t.Error(err)
							return post
						}
						// The version the Get observed: no other client
						// runs inside this step.
						ver, _, _, err := s.Entry(k)
						if err != nil {
							t.Error(err)
							return post
						}
						seed := id<<32 | op<<8 | uint64(slot)
						workload.FillValue(val, seed)
						if err := tx.Put(k, val); err != nil {
							t.Error(err)
							return post
						}
						pend[slot] = commitRec{key: k, ver: ver}
						seeds[slot] = seed
					}
					return tx.Now()
				}
				// Phase 2: commit. A conflict abort restarts the
				// transaction from a fresh read on the next step.
				tx.AdvanceTo(post)
				done, err := tx.Commit()
				if err == nil {
					for slot := range pend {
						commits = append(commits, pend[slot])
						values[pend[slot]] = seeds[slot]
					}
				} else if !errors.Is(err, ErrConflict) {
					t.Error(err)
				} else {
					c.NoteRetry()
				}
				tx = nil
				return done
			},
		})
	}
	if _, err := sim.RunClosedLoop(clients, sim.Second); err != nil {
		t.Fatal(err)
	}

	// No (key, version) consumed twice: two transactions can never both
	// commit against the same observed version.
	seen := map[commitRec]bool{}
	for _, rec := range commits {
		if seen[rec] {
			t.Fatalf("double commit on key %d version %d", rec.key, rec.ver)
		}
		seen[rec] = true
	}
	if len(commits) == 0 {
		t.Fatal("no transaction committed")
	}

	// Each key's final version is exactly twice its committed write count,
	// the entry is consistent, and its value belongs to the last committer.
	perKey := map[uint64]int{}
	for _, rec := range commits {
		perKey[rec.key]++
	}
	want := make([]byte, 16)
	for k := uint64(0); k < keySpace; k++ {
		ver, got, consistent, err := s.Entry(k)
		if err != nil {
			t.Fatal(err)
		}
		if !consistent {
			t.Fatalf("key %d inconsistent after the run", k)
		}
		if ver != 2*uint64(perKey[k]) {
			t.Fatalf("key %d version %d, want %d (2 x %d commits)", k, ver, 2*perKey[k], perKey[k])
		}
		if ver > 0 {
			seed, ok := values[commitRec{key: k, ver: ver - 2}]
			if !ok {
				t.Fatalf("key %d final version %d has no matching commit record", k, ver)
			}
			workload.FillValue(want, seed)
			if !bytes.Equal(got, want) {
				t.Fatalf("key %d holds a value from a non-winning transaction", k)
			}
		}
	}

	// The redo log sequenced every committed write exactly once.
	head, err := s.Redo().Head()
	if err != nil {
		t.Fatal(err)
	}
	if head != uint64(len(commits)) {
		t.Fatalf("redo head %d, want %d committed writes", head, len(commits))
	}
}

// TestDeterminismAcrossRuns runs four disjoint store/client islands twice,
// each time on a fresh cluster over a lossy fabric (so retransmissions are
// in play), and demands bit-identical stats, fingerprints and log heads.
func TestDeterminismAcrossRuns(t *testing.T) {
	dist, err := workload.NewZipfDist(64, 0.99)
	if err != nil {
		t.Fatal(err)
	}
	signature := func() string {
		cfg := cluster.DefaultConfig()
		cfg.Machines = 12
		cfg.Faults = &fabric.FaultPlan{Seed: 9, Drop: 0.002}
		cl, err := cluster.New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		var loop []*sim.Client
		var stores []*Store
		var tclients []*Client
		for island := 0; island < 4; island++ {
			s, err := NewStore(cl.Machine(3*island), Config{KeySpace: 64, ValueSize: 32, MaxWrites: 2, LogBytes: 1 << 20})
			if err != nil {
				t.Fatal(err)
			}
			stores = append(stores, s)
			for ci := 0; ci < 2; ci++ {
				m := cl.Machine(3*island + 1 + ci)
				c, err := NewClient(island*2+ci, m, 0, s)
				if err != nil {
					t.Fatal(err)
				}
				tclients = append(tclients, c)
				z := dist.New(int64(7 + island*2 + ci))
				buf := make([]byte, 32)
				val := make([]byte, 32)
				client := &sim.Client{
					PostCost: 200, Window: 1, MaxOps: 25,
					Op: func(post sim.Time) sim.Time {
						k1 := z.Next() % 64
						k2 := (k1 + 1) % 64
						done, err := c.Run(post, func(tx *Txn) error {
							for _, k := range []uint64{k1, k2} {
								if err := tx.Get(k, buf); err != nil {
									return err
								}
								workload.FillValue(val, k*977+1)
								if err := tx.Put(k, val); err != nil {
									return err
								}
							}
							return nil
						})
						if err != nil {
							t.Error(err)
							return post
						}
						return done
					},
				}
				loop = append(loop, client)
			}
		}
		res, err := sim.RunClosedLoop(loop, 50*sim.Millisecond)
		if err != nil {
			t.Fatal(err)
		}

		var b strings.Builder
		fmt.Fprintf(&b, "completed=%d\n", res.Completed)
		for i, c := range tclients {
			fmt.Fprintf(&b, "client%d=%+v\n", i, c.Stats())
		}
		for i, s := range stores {
			head, err := s.Redo().Head()
			if err != nil {
				t.Fatal(err)
			}
			fmt.Fprintf(&b, "store%d=%016x head=%d\n", i, s.Fingerprint(), head)
		}
		return b.String()
	}

	base := signature()
	if !strings.Contains(base, "completed=200") {
		t.Fatalf("workload did not finish:\n%s", base)
	}
	if got := signature(); got != base {
		t.Fatalf("second run diverges from the first:\n%s\nvs\n%s", got, base)
	}
}

// TestFailureAtomicityUnderCrash kills the store machine mid-transaction:
// the reads complete before the crash window, the commit's first lock CAS
// lands inside it and exhausts a tightened retry budget, and the
// transaction must abort cleanly — no lock left behind, no entry mutated,
// no redo record sequenced — with the abort visible in telemetry.
func TestFailureAtomicityUnderCrash(t *testing.T) {
	reg := telemetry.NewRegistry()
	crash := &fabric.FaultPlan{Crashes: []fabric.CrashEvent{
		{Machine: 0, At: 50 * sim.Microsecond, Down: 100 * sim.Microsecond},
	}}
	cl := testCluster(t, 0, crash, reg)
	s := mustStore(t, cl, 0, Config{KeySpace: 32, ValueSize: 16})
	c := mustClient(t, 0, cl, 1, s)
	c.SetRetryPolicy(verbs.RetryPolicy{RetryCount: 1, AckTimeout: 4 * sim.Microsecond})

	val := make([]byte, 16)
	buf := make([]byte, 16)
	workload.FillValue(val, 3)

	tx := c.Begin(0)
	if err := tx.Get(3, buf); err != nil {
		t.Fatal(err)
	}
	if tx.Now() >= 50*sim.Microsecond {
		t.Fatalf("read finished at %v, after the crash window opened", tx.Now())
	}
	if err := tx.Put(3, val); err != nil {
		t.Fatal(err)
	}
	before := s.Fingerprint()

	// Think until the store is down, then try to commit into the outage.
	tx.AdvanceTo(60 * sim.Microsecond)
	_, err := tx.Commit()
	if err == nil {
		t.Fatal("commit into a dead participant succeeded")
	}
	if errors.Is(err, ErrConflict) || errors.Is(err, ErrApplyFailed) {
		t.Fatalf("commit error %v, want a transport failure surfaced as a clean abort", err)
	}

	// Clean abort: counted, and zero partial remote state — the lock CAS
	// itself never executed, so the table bytes are untouched, every entry
	// still validates, and the redo log sequenced nothing.
	if st := c.Stats(); st.Aborts != 1 || st.Commits != 0 || st.Strands != 0 {
		t.Fatalf("stats %+v, want exactly one clean abort", st)
	}
	if s.Fingerprint() != before {
		t.Fatal("aborted transaction left partial remote state")
	}
	ver, _, consistent, err := s.Entry(3)
	if err != nil {
		t.Fatal(err)
	}
	if ver != 0 || !consistent {
		t.Fatalf("entry 3 after abort: ver=%d consistent=%v, want untouched", ver, consistent)
	}
	if head, err := s.Redo().Head(); err != nil || head != 0 {
		t.Fatalf("redo head %d err %v, want 0", head, err)
	}
	c.FoldTelemetry(reg)
	var aborts int64
	for _, e := range reg.Snapshot().Counters {
		if e.Component == "txn" && e.Stage == "abort" {
			aborts += e.Value
		}
	}
	if aborts != 1 {
		t.Fatalf("telemetry counted %d txn/abort, want 1", aborts)
	}

	// The store itself survived: a fresh client commits after the window.
	c2 := mustClient(t, 1, cl, 2, s)
	if _, err := c2.Run(200*sim.Microsecond, func(tx *Txn) error {
		if err := tx.Get(3, buf); err != nil {
			return err
		}
		return tx.Put(3, val)
	}); err != nil {
		t.Fatal(err)
	}
	if ver, got, consistent, _ := s.Entry(3); ver != 2 || !consistent || !bytes.Equal(got, val) {
		t.Fatalf("post-recovery commit: ver=%d consistent=%v", ver, consistent)
	}
}

// TestCommitAndAbortAllocFree pins the transaction hot paths at zero
// allocations per operation: a full read/write/commit cycle and a
// conflict-abort cycle, both with telemetry attached.
func TestCommitAndAbortAllocFree(t *testing.T) {
	reg := telemetry.NewRegistry()
	cl := testCluster(t, 0, nil, reg)
	s := mustStore(t, cl, 0, Config{KeySpace: 16, ValueSize: 32, LogBytes: 64 << 20})
	c := mustClient(t, 0, cl, 1, s)

	buf := make([]byte, 32)
	val := make([]byte, 32)
	workload.FillValue(val, 5)
	now := sim.Time(0)
	var runErr error
	commitBody := func(tx *Txn) error {
		if err := tx.Get(5, buf); err != nil {
			return err
		}
		return tx.Put(5, val)
	}
	// Warm both paths once so lazy state (telemetry keys, connections) is
	// established before measuring.
	if now, runErr = c.Run(now, commitBody); runErr != nil {
		t.Fatal(runErr)
	}
	allocs := testing.AllocsPerRun(200, func() {
		now, runErr = c.Run(now, commitBody)
	})
	if runErr != nil {
		t.Fatal(runErr)
	}
	if allocs != 0 {
		t.Fatalf("commit path allocates %.1f per txn, want 0", allocs)
	}

	// Conflict-abort path: bump the version under the transaction's feet so
	// the lock CAS observes a stale compare and aborts with the bare
	// ErrConflict sentinel.
	poke := make([]byte, s.cfg.entrySize())
	abortOnce := func() {
		tx := c.Begin(now)
		if runErr = tx.Get(9, buf); runErr != nil {
			return
		}
		if runErr = tx.Put(9, val); runErr != nil {
			return
		}
		if runErr = bumpVersion(s, 9, 2, poke); runErr != nil {
			return
		}
		var err error
		now, err = tx.Commit()
		if !errors.Is(err, ErrConflict) {
			runErr = fmt.Errorf("forced conflict returned %v", err)
		}
	}
	abortOnce()
	if runErr != nil {
		t.Fatal(runErr)
	}
	allocs = testing.AllocsPerRun(200, abortOnce)
	if runErr != nil {
		t.Fatal(runErr)
	}
	if allocs != 0 {
		t.Fatalf("conflict-abort path allocates %.1f per txn, want 0", allocs)
	}
}

// BenchmarkCommit measures the host-side cost of one full transaction
// cycle (one read, one staged write, lock CAS, redo append, publish) —
// the path the zero-alloc ceiling pins.
func BenchmarkCommit(b *testing.B) {
	cl, err := cluster.New(cluster.DefaultConfig())
	if err != nil {
		b.Fatal(err)
	}
	s, err := NewStore(cl.Machine(0), Config{KeySpace: 1 << 10, ValueSize: 64, LogBytes: 1 << 30})
	if err != nil {
		b.Fatal(err)
	}
	c, err := NewClient(0, cl.Machine(1), 0, s)
	if err != nil {
		b.Fatal(err)
	}
	buf := make([]byte, 64)
	val := make([]byte, 64)
	workload.FillValue(val, 7)
	body := func(tx *Txn) error {
		if err := tx.Get(7, buf); err != nil {
			return err
		}
		return tx.Put(7, val)
	}
	now := sim.Time(0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if now, err = c.Run(now, body); err != nil {
			b.Fatal(err)
		}
	}
}
