// Package join implements the paper's third case study (Section IV-D): a
// distributed hash join in two phases. The partition phase runs on package
// shuffle's executors (Section IV-C, SGL batching): each executor routes a
// tuple to its owner with ownerOf, serializes it as a 16-byte tagged tuple
// and hands it to shuffle's Send. Two costs differ from the shuffle's own
// Process: a same-machine owner takes a fixed 80 ns handoff instead of a
// memcpy, and no fetch-and-add stage sync follows a batch, because the
// build-probe phase reads each source's landed entries from the executor.
// That phase builds a hash table from the inner relation's partition and
// probes it with the outer relation's tuples. The paper uses a TBB
// concurrent_hash_map; here each executor builds a private Go map of key ->
// count in its own goroutine, because no two executors ever share a table
// and the join reports only match counts.
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

	"rdmasem/internal/apps/shuffle"
	"rdmasem/internal/cluster"
	"rdmasem/internal/core"
	"rdmasem/internal/sim"
	"rdmasem/internal/topo"
	"rdmasem/internal/workload"
)

// Config describes a distributed join run: its shape only. The per-tuple
// CPU costs are the constants below, the same for every run.
type Config struct {
	Executors int  // θ in Figure 16/17 (1 = single-machine baseline)
	Batch     int  // λ: SGL batch size of the partition phase
	NUMA      bool // NUMA-aware executor/port placement
}

// DefaultConfig returns the Figure 16 setup.
func DefaultConfig() Config {
	return Config{
		Executors: 4,
		Batch:     4,
		NUMA:      true,
	}
}

// Per-tuple local costs, calibrated so the single-machine baseline on 16M
// tuples lands near the paper's 6.46 s.
const (
	partitionCost sim.Duration = 45  // hash + dispatch per tuple
	insertCost    sim.Duration = 210 // hash map insert per tuple
	lookupCost    sim.Duration = 150 // hash map lookup per tuple
)

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
// result. The executor count must not exceed machines x sockets (shuffle.New
// checks it).
func Run(cl *cluster.Cluster, cfg Config, inner, outer []workload.Tuple) (Result, error) {
	if cfg.Executors < 1 {
		return Result{}, fmt.Errorf("join: need at least one executor")
	}
	if cfg.Executors == 1 {
		return runSingle(cl, inner, outer), nil
	}
	return runDistributed(cl, cfg, inner, outer)
}

// runSingle is the native single-machine baseline: one thread partitions,
// builds and probes locally.
func runSingle(cl *cluster.Cluster, inner, outer []workload.Tuple) Result {
	tp := cl.Machine(0).Topology()
	// Partitioning degenerates to a scan, but the hash map work stands.
	elapsed := sim.Duration(len(inner)+len(outer)) * partitionCost
	counts := make(map[uint64]int32, len(inner))
	for _, t := range inner {
		counts[t.Key]++
	}
	var matches int64
	for _, t := range outer {
		matches += int64(counts[t.Key])
	}
	elapsed += sim.Duration(len(inner))*buildCost(tp) + sim.Duration(len(outer))*probeCost(tp)
	return Result{Matches: matches, Elapsed: elapsed, CPU: elapsed}
}

// buildCost is the virtual cost of inserting one tuple into the hash table.
func buildCost(tp topo.Params) sim.Duration {
	return insertCost + tp.LocalAccessTime(topo.Write, topo.Rand, tupleBytes, false)
}

// probeCost is the virtual cost of probing the hash table with one tuple.
func probeCost(tp topo.Params) sim.Duration {
	return lookupCost + tp.LocalAccessTime(topo.Read, topo.Rand, tupleBytes, false)
}

// ownerOf routes a key to its owning executor.
func ownerOf(key uint64, executors int) int {
	return int((key * 0x9E3779B97F4A7C15 >> 21) % uint64(executors))
}

// handoff is the fixed cost of handing a tuple to an executor on the same
// machine.
const handoff sim.Duration = 80

// runDistributed runs the partition phase on shuffle executors over the
// simulated fabric and then the build-probe phase on the received
// partitions.
func runDistributed(cl *cluster.Cluster, cfg Config, inner, outer []workload.Tuple) (Result, error) {
	ringBytes := ringSizeFor(len(inner)+len(outer), cfg.Executors)
	s, err := shuffle.New(cl, shuffle.Config{
		Executors: cfg.Executors,
		ValueSize: tupleBytes - 8,
		Batch:     cfg.Batch,
		Strategy:  core.SGL,
		NUMA:      cfg.NUMA,
		RingBytes: ringBytes,
	})
	if err != nil {
		return Result{}, fmt.Errorf("join: %w", err)
	}
	execs := s.Executors()

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
	cpu := make([]sim.Duration, len(execs)) // partition and handoff CPU
	last := make([]sim.Time, len(execs))    // each executor's latest completion
	var clients []*sim.Client
	for i, ex := range execs {
		innerPart, outerPart := perExec(inner, i), perExec(outer, i)
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
			cpu[i] += partitionCost
			now := post + partitionCost
			dst := ownerOf(t.Key, len(execs))
			if ex.Local(dst) {
				cpu[i] += handoff
				now += handoff
			}
			entry := encode(t, isInner)
			d, _, err := ex.Send(now, dst, entry[:])
			if err != nil {
				client.Fail(err)
				return post
			}
			last[i] = max(last[i], d)
			return d
		}
		clients = append(clients, client)
	}
	if _, err := sim.RunClosedLoop(clients, sim.MaxTime/4); err != nil {
		return Result{}, fmt.Errorf("join: partition phase: %w", err)
	}
	// End of stream: drain every executor's pending batches.
	var partitionEnd sim.Time
	for i, ex := range execs {
		d, err := ex.FlushAll(last[i])
		if err != nil {
			return Result{}, err
		}
		partitionEnd = max(partitionEnd, d)
	}

	// Build-probe phase: parallel across executors; the phase ends when the
	// slowest executor finishes (Figure 16b's scalability view).
	tp := cl.Machine(0).Topology()
	var wg sync.WaitGroup
	times := make([]sim.Duration, len(execs))
	matches := make([]int64, len(execs))
	for i, ex := range execs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			times[i], matches[i] = buildProbe(ex, len(execs), tp)
		}()
	}
	wg.Wait()
	var total Result
	var worst sim.Duration
	for i, ex := range execs {
		total.Matches += matches[i]
		worst = max(worst, times[i])
		_, _, batchCPU := ex.Stats()
		total.CPU += cpu[i] + batchCPU + times[i]
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

// encode serializes a tuple for the wire: the key, then the payload with its
// low bit marking the inner relation.
func encode(t workload.Tuple, inner bool) [tupleBytes]byte {
	var b [tupleBytes]byte
	binary.LittleEndian.PutUint64(b[:], t.Key)
	tag := t.Payload &^ 1
	if inner {
		tag |= 1
	}
	binary.LittleEndian.PutUint64(b[8:], tag)
	return b
}

// buildProbe builds executor ex's private key -> count table from the inner
// tuples its n sources landed and probes it with the outer keys, returning
// the phase's virtual duration and match count.
func buildProbe(ex *shuffle.Executor, n int, tp topo.Params) (sim.Duration, int64) {
	received := 0
	for src := 0; src < n; src++ {
		received += len(ex.Received(src)) / tupleBytes
	}
	counts := make(map[uint64]int32, received)
	outers := make([]uint64, 0, received)
	for src := 0; src < n; src++ {
		for b := ex.Received(src); len(b) > 0; b = b[tupleBytes:] {
			key := binary.LittleEndian.Uint64(b)
			if binary.LittleEndian.Uint64(b[8:])&1 == 1 {
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
	elapsed := sim.Duration(inners)*buildCost(tp) + sim.Duration(len(outers))*probeCost(tp)
	return elapsed, matches
}
