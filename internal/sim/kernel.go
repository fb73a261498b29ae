package sim

import (
	"fmt"
	"sync"
	"sync/atomic"
)

// Kernel is the sharded discrete-event scheduler. Clients are registered
// with a footprint — the set of machines whose queueing resources their Op
// closures may touch, home machine first. The kernel unions overlapping
// footprints into shards: groups of machines (and their clients) that can
// only interact with each other. Each shard dispatches its clients from one
// typed heap (see shard), and distinct shards run concurrently on up to
// Workers host threads.
//
// Determinism contract: results are byte-identical at any worker count.
// Within a shard, dispatch follows the exact (virtual time, registration
// index) order, which the goldens pin. Across shards there is nothing to
// order — a shard is closed under its declared footprints, so no event ever
// crosses a shard boundary and no cross-machine lookahead window (the
// minimum fabric latency) ever has to be respected. The per-endpoint inbox
// hashes kept by internal/fabric witness that the cross-machine delivery
// merge order is identical at every worker count. Worker count changes
// wall-clock time only.
//
// A client registered with no footprint may share state with anything, so
// it collapses the whole run into one shard (the conservative default —
// RunClosedLoop is exactly this). Declaring a footprint is a promise: an Op
// that touches a machine outside it makes results depend on shard layout.
type Kernel struct {
	workers int
	clients []*Client
	foot    [][]int
	global  bool // some client declared no footprint: everything is one shard
}

// NewKernel returns an empty kernel that runs shards on up to workers host
// threads. Workers below 1 are clamped to 1 (fully serial).
func NewKernel(workers int) *Kernel {
	if workers < 1 {
		workers = 1
	}
	return &Kernel{workers: workers}
}

// Workers reports the configured worker count.
func (k *Kernel) Workers() int { return k.workers }

// Add registers a client. machines is the client's footprint: every machine
// whose resources the client's Op may touch, the home (posting) machine
// first. No machines means the client may touch anything; the whole run then
// becomes a single shard.
func (k *Kernel) Add(c *Client, machines ...int) {
	for _, m := range machines {
		if m < 0 {
			panic(fmt.Sprintf("sim: negative machine id %d in client footprint", m))
		}
	}
	k.clients = append(k.clients, c)
	if len(machines) == 0 {
		k.foot = append(k.foot, nil)
		k.global = true
		return
	}
	foot := make([]int, len(machines))
	copy(foot, machines)
	k.foot = append(k.foot, foot)
}

// Run drives all registered clients to the horizon and returns the combined
// result, with per-client stats in registration order. See RunClosedLoop for
// the closed-loop semantics; Run adds only the shard partition and the
// worker pool on top.
//
// An op that calls its client's Fail stops that client's shard: the op is
// not counted and nothing in the shard dispatches again, while other shards
// run on to the horizon. Run then returns the failure as
// "sim: client <registration index> at <post time>: <err>", wrapping err.
// When several shards fail, the one whose first-registered client comes
// first wins, so the same error comes back at any worker count.
func (k *Kernel) Run(horizon Time) (Result, error) {
	if horizon <= 0 {
		panic("sim: horizon must be positive")
	}
	for i, c := range k.clients {
		if c.Window < 1 {
			panic(fmt.Sprintf("sim: client %d window must be >= 1", i))
		}
		if c.PostCost <= 0 {
			panic(fmt.Sprintf("sim: client %d post cost must be > 0", i))
		}
		c.nextPost = 0
		c.outstanding.reset(c.Window)
		c.posted, c.completed = 0, 0
		c.latencySum, c.latencyMax = 0, 0
		c.latencyMin = MaxTime
		c.cpuBusy = 0
		c.err = nil
	}

	shards := k.partition()
	if k.workers == 1 || len(shards) <= 1 {
		for _, sd := range shards {
			runShard(sd, horizon)
		}
	} else {
		k.runParallel(shards, horizon)
	}

	res := Result{Horizon: horizon, Clients: make([]ClientStats, len(k.clients))}
	for i, c := range k.clients {
		s := ClientStats{
			Posted:     c.posted,
			Completed:  c.completed,
			LatencyMax: c.latencyMax,
			CPUBusy:    c.cpuBusy,
		}
		if c.completed > 0 {
			s.LatencyAvg = c.latencySum / Duration(c.completed)
			s.LatencyMin = c.latencyMin
		}
		res.Clients[i] = s
		res.Completed += c.completed
	}
	for _, sd := range shards {
		if sd.err != nil {
			return res, sd.err
		}
	}
	return res, nil
}

// partition unions overlapping footprints and groups clients into shards,
// ordered by each shard's first-registered client, each shard's clients in
// registration order. A global client (no footprint) forces a single shard.
func (k *Kernel) partition() []*shard {
	if len(k.clients) == 0 {
		return nil
	}
	if k.global {
		sd := &shard{
			clients: append([]*Client(nil), k.clients...), // the heap reorders it
			idx:     make([]int, len(k.clients)),
		}
		for i := range sd.idx {
			sd.idx[i] = i
		}
		return []*shard{sd}
	}
	// Union-find over machine ids (ids are sparse; index through a map).
	parent := map[int]int{}
	var find func(m int) int
	find = func(m int) int {
		p, ok := parent[m]
		if !ok {
			parent[m] = m
			return m
		}
		if p == m {
			return m
		}
		r := find(p)
		parent[m] = r
		return r
	}
	union := func(a, b int) {
		ra, rb := find(a), find(b)
		if ra != rb {
			parent[ra] = rb
		}
	}
	for _, foot := range k.foot {
		for _, m := range foot[1:] {
			union(foot[0], m)
		}
	}
	byRoot := map[int]*shard{}
	var shards []*shard
	for i, c := range k.clients {
		root := find(k.foot[i][0])
		sd := byRoot[root]
		if sd == nil {
			sd = &shard{}
			byRoot[root] = sd
			shards = append(shards, sd) // first client wins: registration order
		}
		sd.clients = append(sd.clients, c)
		sd.idx = append(sd.idx, i)
	}
	return shards
}

// runParallel executes shards on a bounded worker pool. Shards share no
// state (that is the footprint contract), so workers only write disjoint
// client records; a panic inside a shard is re-raised in the caller, first
// shard first, so failures are reported deterministically.
func (k *Kernel) runParallel(shards []*shard, horizon Time) {
	workers := k.workers
	if workers > len(shards) {
		workers = len(shards)
	}
	panics := make([]any, len(shards))
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(shards) {
					return
				}
				func() {
					defer func() { panics[i] = recover() }()
					runShard(shards[i], horizon)
				}()
			}
		}()
	}
	wg.Wait()
	for _, p := range panics {
		if p != nil {
			panic(p)
		}
	}
}

// runShard drives one shard to the horizon. Each step dispatches the heap's
// root — the client with the least (nextAction, registration index) — then
// sifts it back down, or evicts it once it reaches the horizon or its MaxOps
// budget. A failed op records the shard's error and stops the shard.
func runShard(sd *shard, horizon Time) {
	sd.init()
	for len(sd.clients) > 0 {
		c, t := sd.clients[0], sd.keys[0]
		if t >= horizon || (c.MaxOps > 0 && c.posted >= c.MaxOps) {
			sd.popTop()
			continue
		}
		// Retire anything that has already completed by t.
		for c.outstanding.len() > 0 && c.outstanding.min() <= t {
			c.outstanding.pop()
		}
		complete := c.Op(t)
		if c.err != nil {
			sd.err = fmt.Errorf("sim: client %d at %v: %w", sd.idx[0], t, c.err)
			return
		}
		if complete < t {
			panic("sim: op completed before it was posted")
		}
		c.posted++
		if complete <= horizon {
			c.completed++
			lat := complete - t
			c.latencySum += lat
			if lat > c.latencyMax {
				c.latencyMax = lat
			}
			if lat < c.latencyMin {
				c.latencyMin = lat
			}
		}
		c.outstanding.push(complete)
		c.nextPost = t + c.PostCost
		c.cpuBusy += c.PostCost
		sd.fixTop()
	}
}
