package sim

import (
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"testing"
)

// buildClients constructs n deterministic clients over a per-group resource
// map: client i belongs to group i%groups, hammers that group's resource, and
// carries a footprint of two machines private to the group ({2g, 2g+1}).
func buildClients(n, groups int) (clients []*Client, feet [][]int) {
	res := make([]*Resource, groups)
	for g := range res {
		res[g] = NewResource("eu")
	}
	for i := 0; i < n; i++ {
		g := i % groups
		r := res[g]
		rng := rand.New(rand.NewSource(int64(100 + i)))
		clients = append(clients, &Client{
			PostCost: Duration(30 + 10*(i%5)),
			Window:   1 + i%4,
			Op: func(post Time) Time {
				return r.Delay(post, Duration(100+rng.Intn(400)))
			},
		})
		feet = append(feet, []int{2 * g, 2*g + 1})
	}
	return clients, feet
}

// recordLatencies wraps every client's Op so each op logs complete - post
// into that client's own slice, in dispatch order. A client runs on one
// shard, so the slices need no lock at any worker count.
func recordLatencies(clients []*Client) [][]Duration {
	lats := make([][]Duration, len(clients))
	for i, c := range clients {
		i, op := i, c.Op
		c.Op = func(post Time) Time {
			complete := op(post)
			lats[i] = append(lats[i], complete-post)
			return complete
		}
	}
	return lats
}

// runKernel builds fresh clients, registers them with their footprints and
// runs at the given worker count, returning the result and every client's
// per-op latencies.
func runKernel(t *testing.T, workers, n, groups int) (Result, [][]Duration) {
	t.Helper()
	clients, feet := buildClients(n, groups)
	lats := recordLatencies(clients)
	k := NewKernel(workers)
	for i, c := range clients {
		k.Add(c, feet[i]...)
	}
	res, err := k.Run(Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	return res, lats
}

// dispatchSpec is one client of a reference check. Its op holds the
// resource of each footprint machine in turn, the home machine's for service
// and the others' for half as long, so clients sharing a machine observe each
// other's dispatch order through gap-filling placement. Every other op then
// waits lag more, so with a window of two or more a short op can complete
// before the long one posted just ahead of it. Its failAt-th op fails
// instead.
type dispatchSpec struct {
	foot     []int // nil: a global client; global clients share one resource
	window   int
	postCost Duration
	maxOps   int64
	service  Duration
	lag      Duration // added to the completion of every even-numbered op
	failAt   int64    // the op (counting from 1) that calls Fail; 0: never
}

// dispatchEvent is one dispatched op: its client, post and completion times.
type dispatchEvent struct {
	client         int
	post, complete Time
}

// shardOf groups clients the naive way and names each group by its
// first-registered client. Every machine starts with its own label, and each
// footprint pulls its machines down to their least label until nothing
// changes. A global client puts everyone in one group.
func shardOf(specs []dispatchSpec) []int {
	out := make([]int, len(specs))
	label := map[int]int{}
	for _, s := range specs {
		if s.foot == nil {
			return out
		}
		for _, m := range s.foot {
			label[m] = m
		}
	}
	for changed := true; changed; {
		changed = false
		for _, s := range specs {
			least := label[s.foot[0]]
			for _, m := range s.foot {
				least = min(least, label[m])
			}
			for _, m := range s.foot {
				if label[m] != least {
					label[m], changed = least, true
				}
			}
		}
	}
	first := map[int]int{}
	for i, s := range specs {
		l := label[s.foot[0]]
		if _, ok := first[l]; !ok {
			first[l] = i
		}
		out[i] = first[l]
	}
	return out
}

// errOpFailed is the failure a dispatchSpec's failAt-th op reports.
var errOpFailed = errors.New("op failed")

// buildDispatch returns fresh clients for specs over fresh resources. Each
// completed op appends to logs[shardOf(specs)[i]], so one group's sequence is
// written by one shard only. A failing op touches no resource and returns a
// time before its post, which the kernel must ignore.
func buildDispatch(specs []dispatchSpec, logs [][]dispatchEvent) []*Client {
	group := shardOf(specs)
	res := map[int]*Resource{}
	clients := make([]*Client, len(specs))
	for i, s := range specs {
		path := s.foot
		if path == nil {
			path = []int{-1}
		}
		held := make([]*Resource, len(path))
		for j, m := range path {
			if res[m] == nil {
				res[m] = NewResource("m")
			}
			held[j] = res[m]
		}
		svc, lag, log, failAt := s.service, s.lag, &logs[group[i]], s.failAt
		c := &Client{PostCost: s.postCost, Window: s.window, MaxOps: s.maxOps}
		var ops int64
		c.Op = func(post Time) Time {
			if ops++; ops == failAt {
				c.Fail(fmt.Errorf("op %d: %w", ops, errOpFailed))
				return post - 1
			}
			t := held[0].Delay(post, svc)
			for _, r := range held[1:] {
				t = r.Delay(t, svc/2)
			}
			if ops%2 == 0 {
				t += lag
			}
			*log = append(*log, dispatchEvent{i, post, t})
			return t
		}
		clients[i] = c
	}
	return clients
}

// referenceRun is the dispatch rule at its plainest: every step scans all
// clients for the least (next action, index) among those still running and
// dispatches it. It keeps its own client state and reads only the clients'
// configuration, Op and recorded failure. group names each client's shard by
// its first-registered client (see shardOf): a failed op stops its group,
// and the failure of the least-named group is the run's error.
func referenceRun(clients []*Client, group []int, horizon Time) (Result, error) {
	type state struct {
		nextPost Time
		out      []Time // outstanding completions, unordered
		sum      Duration
		stats    ClientStats
	}
	st := make([]state, len(clients))
	failed := make([]error, len(clients)) // by group
	for {
		best, bestT := -1, Time(0)
		for i, c := range clients {
			s := &st[i]
			t := s.nextPost
			if len(s.out) >= c.Window {
				t = max(t, slices.Min(s.out))
			}
			if t >= horizon || (c.MaxOps > 0 && s.stats.Posted >= c.MaxOps) || failed[group[i]] != nil {
				continue
			}
			if best < 0 || t < bestT {
				best, bestT = i, t
			}
		}
		if best < 0 {
			break
		}
		c, s, t := clients[best], &st[best], bestT
		s.out = slices.DeleteFunc(s.out, func(done Time) bool { return done <= t })
		complete := c.Op(t)
		if c.err != nil {
			failed[group[best]] = fmt.Errorf("sim: client %d at %v: %w", best, t, c.err)
			continue
		}
		s.stats.Posted++
		if lat := complete - t; complete <= horizon {
			if s.stats.Completed == 0 || lat < s.stats.LatencyMin {
				s.stats.LatencyMin = lat
			}
			s.stats.LatencyMax = max(s.stats.LatencyMax, lat)
			s.stats.Completed++
			s.sum += lat
		}
		s.out = append(s.out, complete)
		s.nextPost = t + c.PostCost
		s.stats.CPUBusy += c.PostCost
	}
	res := Result{Horizon: horizon, Clients: make([]ClientStats, len(clients))}
	for i, s := range st {
		if s.stats.Completed > 0 {
			s.stats.LatencyAvg = s.sum / Duration(s.stats.Completed)
		}
		res.Clients[i] = s.stats
		res.Completed += s.stats.Completed
	}
	for _, err := range failed {
		if err != nil {
			return res, err
		}
	}
	return res, nil
}

// checkAgainstReference runs specs through the kernel at the given worker
// count and through referenceRun, and fails unless every shard's dispatch
// sequence (with each op's latency), the Result and the error text agree. It
// returns the reference's sequences and the kernel's error.
func checkAgainstReference(t *testing.T, specs []dispatchSpec, workers int, horizon Time) ([][]dispatchEvent, error) {
	t.Helper()
	wantLogs := make([][]dispatchEvent, len(specs))
	want, wantErr := referenceRun(buildDispatch(specs, wantLogs), shardOf(specs), horizon)
	gotLogs := make([][]dispatchEvent, len(specs))
	k := NewKernel(workers)
	for i, c := range buildDispatch(specs, gotLogs) {
		k.Add(c, specs[i].foot...)
	}
	got, err := k.Run(horizon)
	if fmt.Sprint(wantErr) != fmt.Sprint(err) {
		t.Fatalf("workers=%d: error diverged:\nreference %v\nkernel    %v", workers, wantErr, err)
	}
	for g := range wantLogs {
		if !reflect.DeepEqual(wantLogs[g], gotLogs[g]) {
			n := min(len(wantLogs[g]), len(gotLogs[g]))
			at := 0
			for at < n && wantLogs[g][at] == gotLogs[g][at] {
				at++
			}
			t.Fatalf("workers=%d: shard of client %d diverged at op %d of %d/%d (reference/kernel)",
				workers, g, at, len(wantLogs[g]), len(gotLogs[g]))
		}
	}
	if !reflect.DeepEqual(want, got) {
		t.Fatalf("workers=%d: result diverged:\nreference %+v\nkernel    %+v", workers, want, got)
	}
	return wantLogs, err
}

// TestKernelMatchesReference: the kernel dispatches and fails exactly as
// referenceRun. Clients 0-3 chain four home machines into one shard and
// clients 4-5 form a second; windows, post costs and MaxOps budgets are
// mixed, and equal post costs from time zero make equal-time ties that only
// the index breaks. Clients 1 and 3 lag every other op, so their windows
// take completions out of order. Client 5 fails at its second op, long before client 2
// reaches its thirtieth, yet when both fail client 2's shard comes first,
// so its error is the one returned.
func TestKernelMatchesReference(t *testing.T) {
	chained := []dispatchSpec{
		{foot: []int{0, 1}, window: 1, postCost: 50, service: 120},
		{foot: []int{1, 2}, window: 4, postCost: 50, service: 90, lag: 400},
		{foot: []int{2, 3}, window: 2, postCost: 50, maxOps: 40, service: 150},
		{foot: []int{3}, window: 8, postCost: 70, service: 60, lag: 900},
		{foot: []int{5, 6}, window: 3, postCost: 50, service: 200},
		{foot: []int{6}, window: 1, postCost: 50, maxOps: 25, service: 80},
	}
	global := slices.Clone(chained)
	global[4].foot = nil
	failing := func(specs []dispatchSpec, at map[int]int64) []dispatchSpec {
		specs = slices.Clone(specs)
		for i, n := range at {
			specs[i].failAt = n
		}
		return specs
	}
	cases := []struct {
		name    string
		specs   []dispatchSpec
		wantErr string // prefix; empty: the run succeeds
	}{
		{"chained", chained, ""},
		{"global", global, ""},
		{"first shard fails", failing(chained, map[int]int64{2: 30}), "sim: client 2 at "},
		{"second shard fails", failing(chained, map[int]int64{5: 2}), "sim: client 5 at "},
		{"both shards fail", failing(chained, map[int]int64{2: 30, 5: 2}), "sim: client 2 at "},
		{"one shard, two failures", failing(global, map[int]int64{2: 30, 5: 2}), "sim: client 5 at "},
	}
	reordered := 0
	for _, tc := range cases {
		logs, err := checkAgainstReference(t, tc.specs, 1, 100*Microsecond)
		if _, err4 := checkAgainstReference(t, tc.specs, 4, 100*Microsecond); fmt.Sprint(err4) != fmt.Sprint(err) {
			t.Fatalf("%s: error at 4 workers %v, at 1 worker %v", tc.name, err4, err)
		}
		switch {
		case tc.wantErr == "" && err != nil:
			t.Fatalf("%s: unexpected error %v", tc.name, err)
		case tc.wantErr != "" && (err == nil || !strings.HasPrefix(err.Error(), tc.wantErr) || !errors.Is(err, errOpFailed)):
			t.Fatalf("%s: error %v, want %q... wrapping errOpFailed", tc.name, err, tc.wantErr)
		}
		ties := 0
		for _, log := range logs {
			for j := 1; j < len(log); j++ {
				if log[j].post == log[j-1].post {
					ties++
				}
			}
		}
		if ties == 0 {
			t.Fatalf("%s: no equal-time dispatches; the index tiebreak went unexercised", tc.name)
		}
		reordered += outOfOrder(logs)
	}
	if reordered == 0 {
		t.Fatal("no client completed an op before the one it posted just earlier; the window's out-of-order push went unexercised")
	}
}

// outOfOrder counts ops that complete before their client's previous op.
// That previous op is still outstanding when the later one is pushed (it
// completes after the later one's post), so each count is a window push that
// lands before the window's last entry.
func outOfOrder(logs [][]dispatchEvent) int {
	n := 0
	last := map[int]Time{}
	for _, log := range logs {
		for _, ev := range log {
			if prev, ok := last[ev.client]; ok && ev.complete < prev {
				n++
			}
			last[ev.client] = ev.complete
		}
	}
	return n
}

// TestShardKeyCacheInvariant: the shard heap's cached dispatch keys stay
// exact. Inside every op, each non-root key equals its client's nextAction,
// and the root's key is the time it was dispatched at. Windows, post costs
// and MaxOps budgets are mixed, so sifts and evictions both move keys.
func TestShardKeyCacheInvariant(t *testing.T) {
	r := NewResource("eu")
	sd := &shard{}
	ops := 0
	for i := 0; i < 7; i++ {
		c := &Client{
			PostCost: Duration(30 + 20*(i%3)),
			Window:   1 + i%4,
			MaxOps:   int64(i%2) * 60,
		}
		svc := Duration(40 + 25*i)
		c.Op = func(post Time) Time {
			ops++
			if sd.clients[0] != c || sd.keys[0] != post {
				t.Fatalf("op %d: client %d dispatched at %v is not the root (root key %v)", ops, i, post, sd.keys[0])
			}
			for j := 1; j < len(sd.clients); j++ {
				if got, want := sd.keys[j], sd.clients[j].nextAction(); got != want {
					t.Fatalf("op %d: cached key of heap slot %d is %v, nextAction %v", ops, j, got, want)
				}
			}
			return r.Delay(post, svc)
		}
		sd.clients = append(sd.clients, c)
		sd.idx = append(sd.idx, i)
	}
	runShard(sd, 50*Microsecond)
	if ops < 300 {
		t.Fatalf("only %d ops dispatched; the invariant went unexercised", ops)
	}
}

// FuzzKernelDispatch decodes a client set (count, footprints with their home
// machines, windows, post costs, MaxOps budgets, service times and failing
// ops) and checks the kernel against referenceRun at one and three workers:
// dispatch logs up to any failure, results, and the returned error.
func FuzzKernelDispatch(f *testing.F) {
	f.Add([]byte{4, 0, 1, 1, 10, 2, 100, 1, 0, 2, 2, 10, 0, 50, 2, 1, 3, 0, 10, 5, 150, 3, 0, 0, 20, 0, 0, 80})
	f.Add([]byte{3, 8, 0, 0, 0, 0, 0, 0, 8, 0, 0, 0, 0, 0, 8})
	f.Add([]byte{6, 0, 1, 0, 0, 1, 60, 2, 0, 1, 3, 0, 1, 60, 4, 0, 1, 5, 0, 1, 60, 6, 2, 7, 0, 3, 0, 9, 7, 0, 1, 0, 1, 2, 30, 5, 1, 0, 2, 7, 0, 200})
	f.Add([]byte{3, 0, 0, 1, 2, 0, 30, 11, 4, 0, 2, 2, 0, 50, 5, 0, 1, 1, 3, 1, 0, 60, 0, 4, 0, 0, 3, 0, 90})
	f.Fuzz(func(t *testing.T, data []byte) {
		next := func() int {
			if len(data) == 0 {
				return 0
			}
			b := data[0]
			data = data[1:]
			return int(b)
		}
		specs := make([]dispatchSpec, 1+next()%8)
		for i := range specs {
			// Home machine 8 stands for a global client.
			if home := next() % 9; home < 8 {
				foot := []int{home}
				for extra := next() % 3; extra > 0; extra-- {
					foot = append(foot, next()%8)
				}
				specs[i].foot = foot
			}
			specs[i].window = 1 + next()%4
			specs[i].postCost = Duration(10 * (1 + next()%8))
			specs[i].maxOps = int64(next() % 12)
			specs[i].service = Duration(next())
			// An odd byte fails the client at op 1 + byte/2.
			if b := next(); b%2 == 1 {
				specs[i].failAt = int64(1 + b/2)
			}
		}
		checkAgainstReference(t, specs, 1, 20*Microsecond)
		checkAgainstReference(t, specs, 3, 20*Microsecond)
	})
}

// TestKernelMatchesRunClosedLoop: clients that share a footprint form one
// shard, and that shard must reproduce RunClosedLoop (the same clients
// registered globally) bit for bit — same stats, same per-op latencies.
func TestKernelMatchesRunClosedLoop(t *testing.T) {
	build := func() ([]*Client, [][]Duration) {
		r := NewResource("eu")
		rng := rand.New(rand.NewSource(7))
		op := func(post Time) Time {
			return r.Delay(post, Duration(100+rng.Intn(100)))
		}
		clients := []*Client{
			{Op: op, PostCost: 30, Window: 8},
			{Op: op, PostCost: 50, Window: 2},
			{Op: op, PostCost: 70, Window: 4},
		}
		return clients, recordLatencies(clients)
	}
	loopClients, wantLats := build()
	want, err := RunClosedLoop(loopClients, Millisecond)
	if err != nil {
		t.Fatal(err)
	}

	k := NewKernel(4)
	kernelClients, gotLats := build()
	for _, c := range kernelClients {
		k.Add(c, 0, 1) // shared machines: one shard
	}
	got, err := k.Run(Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(want, got) {
		t.Fatalf("kernel result diverged from RunClosedLoop:\nwant %+v\ngot  %+v", want, got)
	}
	if len(wantLats[0]) == 0 || !reflect.DeepEqual(wantLats, gotLats) {
		t.Fatal("kernel per-op latencies diverged from RunClosedLoop")
	}
}

// TestKernelDispatchOrderMatchesLoop: ops log their dispatch sequence; a
// footprinted single-shard kernel must replay RunClosedLoop's exact order.
func TestKernelDispatchOrderMatchesLoop(t *testing.T) {
	type ev struct {
		client int
		at     Time
	}
	build := func(log *[]ev) []*Client {
		var clients []*Client
		for i := 0; i < 5; i++ {
			i := i
			clients = append(clients, &Client{
				PostCost: Duration(40 + 5*i),
				Window:   1 + i%3,
				Op: func(post Time) Time {
					*log = append(*log, ev{i, post})
					return post + Duration(300+50*i)
				},
			})
		}
		return clients
	}
	var want, got []ev
	if _, err := RunClosedLoop(build(&want), 100*Microsecond); err != nil {
		t.Fatal(err)
	}
	k := NewKernel(2)
	for _, c := range build(&got) {
		k.Add(c, 0)
	}
	if _, err := k.Run(100 * Microsecond); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(want, got) {
		t.Fatalf("dispatch order diverged: loop %d events, kernel %d events", len(want), len(got))
	}
	if len(want) == 0 {
		t.Fatal("no events dispatched")
	}
}

// TestKernelWorkerCountInvariance: disjoint footprint groups must produce
// identical results (including every op's latency, in dispatch order) at
// every worker count.
func TestKernelWorkerCountInvariance(t *testing.T) {
	want, wantLats := runKernel(t, 1, 24, 6)
	if want.Completed == 0 {
		t.Fatal("no ops completed")
	}
	for _, workers := range []int{2, 4, 8, 64} {
		got, gotLats := runKernel(t, workers, 24, 6)
		if !reflect.DeepEqual(want, got) {
			t.Fatalf("workers=%d diverged from serial run", workers)
		}
		if !reflect.DeepEqual(wantLats, gotLats) {
			t.Fatalf("workers=%d per-op latencies diverged from serial run", workers)
		}
	}
}

// TestKernelPartition checks the union-find: overlapping footprints merge,
// disjoint ones stay apart, shards are ordered by first-registered client.
func TestKernelPartition(t *testing.T) {
	k := NewKernel(1)
	add := func(machines ...int) {
		k.Add(&Client{Op: fixedOp(1), PostCost: 1, Window: 1}, machines...)
	}
	add(0, 1) // shard A
	add(4, 5) // shard B
	add(2, 3) // shard C ...
	add(1, 2) // ... no: bridges A and C
	shards := k.partition()
	if len(shards) != 2 {
		t.Fatalf("got %d shards, want 2", len(shards))
	}
	// Shard order follows first-registered client: {0,2,3} then {1}.
	if got := shards[0].idx; !reflect.DeepEqual(got, []int{0, 2, 3}) {
		t.Fatalf("shard 0 clients %v, want [0 2 3]", got)
	}
	if got := shards[1].idx; !reflect.DeepEqual(got, []int{1}) {
		t.Fatalf("shard 1 clients %v, want [1]", got)
	}
}

// TestKernelGlobalClientCollapses: one footprint-less client forces a single
// shard containing everyone.
func TestKernelGlobalClientCollapses(t *testing.T) {
	k := NewKernel(8)
	k.Add(&Client{Op: fixedOp(1), PostCost: 1, Window: 1}, 0)
	k.Add(&Client{Op: fixedOp(1), PostCost: 1, Window: 1}) // global
	k.Add(&Client{Op: fixedOp(1), PostCost: 1, Window: 1}, 9)
	shards := k.partition()
	if len(shards) != 1 || len(shards[0].clients) != 3 {
		t.Fatalf("global client should collapse to 1 shard of 3, got %d shards", len(shards))
	}
}

// TestKernelValidation: config panics must fire exactly as in the classic
// loop, plus the footprint-specific ones.
func TestKernelValidation(t *testing.T) {
	expectPanic := func(name string, fn func()) {
		defer func() {
			if recover() == nil {
				t.Errorf("%s: expected panic", name)
			}
		}()
		fn()
	}
	expectPanic("negative machine", func() {
		NewKernel(1).Add(&Client{Op: fixedOp(1), PostCost: 1, Window: 1}, -1)
	})
	expectPanic("zero window", func() {
		k := NewKernel(1)
		k.Add(&Client{Op: fixedOp(1), PostCost: 1, Window: 0}, 0)
		k.Run(Millisecond)
	})
	expectPanic("zero post cost", func() {
		k := NewKernel(1)
		k.Add(&Client{Op: fixedOp(1), PostCost: 0, Window: 1}, 0)
		k.Run(Millisecond)
	})
	expectPanic("bad horizon", func() {
		NewKernel(1).Run(0)
	})
	expectPanic("time travel", func() {
		k := NewKernel(1)
		k.Add(&Client{Op: func(post Time) Time { return post - 1 }, PostCost: 1, Window: 1}, 0)
		k.Run(Millisecond)
	})
}

// TestKernelShardPanicPropagates: an op panic inside a parallel shard must
// surface in Run's caller, and the first-registered shard's panic wins so the
// report is deterministic.
func TestKernelShardPanicPropagates(t *testing.T) {
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("expected shard panic to propagate")
		}
		if r != "boom-0" {
			t.Fatalf("got panic %v, want boom-0 (first shard wins)", r)
		}
	}()
	k := NewKernel(4)
	for g := 0; g < 4; g++ {
		g := g
		k.Add(&Client{
			PostCost: 10, Window: 1,
			Op: func(post Time) Time {
				if post > 10*Microsecond {
					panic("boom-" + string(rune('0'+g)))
				}
				return post + 100
			},
		}, g)
	}
	k.Run(Millisecond)
}

// TestKernelWorkersClamp: worker counts below 1 clamp to serial.
func TestKernelWorkersClamp(t *testing.T) {
	if got := NewKernel(0).Workers(); got != 1 {
		t.Fatalf("workers=%d, want 1", got)
	}
	if got := NewKernel(-3).Workers(); got != 1 {
		t.Fatalf("workers=%d, want 1", got)
	}
}

// TestKernelMaxOps: MaxOps gates per client exactly as in the classic loop,
// across shards.
func TestKernelMaxOps(t *testing.T) {
	k := NewKernel(2)
	a := &Client{Op: fixedOp(10), PostCost: 10, Window: 1, MaxOps: 7}
	b := &Client{Op: fixedOp(10), PostCost: 10, Window: 1, MaxOps: 3}
	k.Add(a, 0)
	k.Add(b, 1)
	res, err := k.Run(Second)
	if err != nil {
		t.Fatal(err)
	}
	if res.Clients[0].Posted != 7 || res.Clients[1].Posted != 3 {
		t.Fatalf("posted %d/%d, want 7/3", res.Clients[0].Posted, res.Clients[1].Posted)
	}
	if res.Completed != 10 {
		t.Fatalf("completed=%d, want 10", res.Completed)
	}
}
