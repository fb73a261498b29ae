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

// recordLatencies wraps every client's Op so each op logs complete - post
// into that client's own slice, in dispatch order.
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

// dispatchSpec is one client of a reference check. Its op holds the
// resource of each machine on its path in turn, the first for service and
// the others for half as long, so clients sharing a machine observe each
// other's dispatch order through gap-filling placement. Every other op then
// waits lag more, so with a window of two or more a short op can complete
// before the long one posted just ahead of it. Its failAt-th op fails
// instead.
type dispatchSpec struct {
	path     []int // machines whose resources the op holds; must not be empty
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

// errOpFailed is the failure a dispatchSpec's failAt-th op reports.
var errOpFailed = errors.New("op failed")

// buildDispatch returns fresh clients for specs over fresh resources. Each
// completed op appends to log. A failing op touches no resource and returns
// a time before its post, which the kernel must ignore.
func buildDispatch(specs []dispatchSpec, log *[]dispatchEvent) []*Client {
	res := map[int]*Resource{}
	clients := make([]*Client, len(specs))
	for i, s := range specs {
		held := make([]*Resource, len(s.path))
		for j, m := range s.path {
			if res[m] == nil {
				res[m] = NewResource("m")
			}
			held[j] = res[m]
		}
		svc, lag, failAt := s.service, s.lag, s.failAt
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
// dispatches it, and the first failed op ends the run. It keeps its own
// client state and reads only the clients' configuration, Op and recorded
// failure.
func referenceRun(clients []*Client, horizon Time) (Result, error) {
	type state struct {
		nextPost Time
		out      []Time // outstanding completions, unordered
		stats    ClientStats
	}
	st := make([]state, len(clients))
	var failed error
	for failed == nil {
		best, bestT := -1, Time(0)
		for i, c := range clients {
			s := &st[i]
			t := s.nextPost
			if len(s.out) >= c.Window {
				t = max(t, slices.Min(s.out))
			}
			if t >= horizon || (c.MaxOps > 0 && s.stats.Posted >= c.MaxOps) {
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
			failed = fmt.Errorf("sim: client %d at %v: %w", best, t, c.err)
			continue
		}
		s.stats.Posted++
		if complete <= horizon {
			s.stats.Completed++
		}
		s.out = append(s.out, complete)
		s.nextPost = t + c.PostCost
	}
	res := Result{Horizon: horizon, Clients: make([]ClientStats, len(clients))}
	for i, s := range st {
		res.Clients[i] = s.stats
		res.Completed += s.stats.Completed
	}
	return res, failed
}

// checkAgainstReference runs specs through the kernel and through
// referenceRun, and fails unless the dispatch sequence (with each op's
// latency), the Result and the error text agree. It returns the reference's
// sequence and the kernel's error.
func checkAgainstReference(t *testing.T, specs []dispatchSpec, horizon Time) ([]dispatchEvent, error) {
	t.Helper()
	var wantLog, gotLog []dispatchEvent
	want, wantErr := referenceRun(buildDispatch(specs, &wantLog), horizon)
	k := NewKernel(1)
	for _, c := range buildDispatch(specs, &gotLog) {
		k.Add(c)
	}
	got, err := k.Run(horizon)
	if fmt.Sprint(wantErr) != fmt.Sprint(err) {
		t.Fatalf("error diverged:\nreference %v\nkernel    %v", wantErr, err)
	}
	if !reflect.DeepEqual(wantLog, gotLog) {
		n := min(len(wantLog), len(gotLog))
		at := 0
		for at < n && wantLog[at] == gotLog[at] {
			at++
		}
		t.Fatalf("dispatch diverged at op %d of %d/%d (reference/kernel)", at, len(wantLog), len(gotLog))
	}
	if !reflect.DeepEqual(want, got) {
		t.Fatalf("result diverged:\nreference %+v\nkernel    %+v", want, got)
	}
	return wantLog, err
}

// TestKernelMatchesReference: the kernel dispatches and fails exactly as
// referenceRun. Clients 0-3 chain four machines and clients 4-5 share two
// others; windows, post costs and MaxOps budgets are mixed, and equal post
// costs from time zero make equal-time ties that only the index breaks.
// Clients 1 and 3 lag every other op, so their windows take completions out
// of order. Client 5 fails at its second op, long before client 2 reaches
// its thirtieth, so when both are set to fail client 5's error is the one
// returned.
func TestKernelMatchesReference(t *testing.T) {
	chained := []dispatchSpec{
		{path: []int{0, 1}, window: 1, postCost: 50, service: 120},
		{path: []int{1, 2}, window: 4, postCost: 50, service: 90, lag: 400},
		{path: []int{2, 3}, window: 2, postCost: 50, maxOps: 40, service: 150},
		{path: []int{3}, window: 8, postCost: 70, service: 60, lag: 900},
		{path: []int{5, 6}, window: 3, postCost: 50, service: 200},
		{path: []int{6}, window: 1, postCost: 50, maxOps: 25, service: 80},
	}
	failing := func(at map[int]int64) []dispatchSpec {
		specs := slices.Clone(chained)
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
		{"client 2 fails", failing(map[int]int64{2: 30}), "sim: client 2 at "},
		{"client 5 fails", failing(map[int]int64{5: 2}), "sim: client 5 at "},
		{"earliest failure wins", failing(map[int]int64{2: 30, 5: 2}), "sim: client 5 at "},
	}
	reordered := 0
	for _, tc := range cases {
		log, err := checkAgainstReference(t, tc.specs, 100*Microsecond)
		switch {
		case tc.wantErr == "" && err != nil:
			t.Fatalf("%s: unexpected error %v", tc.name, err)
		case tc.wantErr != "" && (err == nil || !strings.HasPrefix(err.Error(), tc.wantErr) || !errors.Is(err, errOpFailed)):
			t.Fatalf("%s: error %v, want %q... wrapping errOpFailed", tc.name, err, tc.wantErr)
		}
		ties := 0
		for j := 1; j < len(log); j++ {
			if log[j].post == log[j-1].post {
				ties++
			}
		}
		if ties == 0 {
			t.Fatalf("%s: no equal-time dispatches; the index tiebreak went unexercised", tc.name)
		}
		reordered += outOfOrder(log)
	}
	if reordered == 0 {
		t.Fatal("no client completed an op before the one it posted just earlier; the window's out-of-order push went unexercised")
	}
}

// TestKernelFailureStopsEveryClient: client 0 fails at time t, and client 1,
// which shares no resource with it, posts nothing after t. Run returns
// client 0's error, and client 1's stats count only what it posted before.
func TestKernelFailureStopsEveryClient(t *testing.T) {
	var log []dispatchEvent
	specs := []dispatchSpec{
		{path: []int{0}, window: 1, postCost: 100, service: 50, failAt: 5},
		{path: []int{1}, window: 2, postCost: 30, service: 40},
	}
	clients := buildDispatch(specs, &log)
	var failAt Time // the post time of client 0's last op: the failing one
	op := clients[0].Op
	clients[0].Op = func(post Time) Time {
		failAt = post
		return op(post)
	}
	k := NewKernel(1)
	for _, c := range clients {
		k.Add(c)
	}
	res, err := k.Run(Millisecond)
	if want := fmt.Sprintf("sim: client 0 at %v: ", failAt); err == nil || !strings.HasPrefix(err.Error(), want) || !errors.Is(err, errOpFailed) {
		t.Fatalf("error %v, want %q... wrapping errOpFailed", err, want)
	}
	var posted [2]int64
	for _, ev := range log {
		if ev.client == 1 && ev.post > failAt {
			t.Fatalf("client 1 posted at %v, after client 0 failed at %v", ev.post, failAt)
		}
		posted[ev.client]++
	}
	if posted[0] != 4 || posted[1] == 0 {
		t.Fatalf("logged %d/%d ops for clients 0/1, want 4 and some", posted[0], posted[1])
	}
	if res.Clients[0].Posted != posted[0] || res.Clients[1].Posted != posted[1] {
		t.Fatalf("posted %d/%d, logged %v", res.Clients[0].Posted, res.Clients[1].Posted, posted)
	}
}

// outOfOrder counts ops that complete before their client's previous op.
// That previous op is still outstanding when the later one is pushed (it
// completes after the later one's post), so each count is a window push that
// lands before the window's last entry.
func outOfOrder(log []dispatchEvent) int {
	n := 0
	last := map[int]Time{}
	for _, ev := range log {
		if prev, ok := last[ev.client]; ok && ev.complete < prev {
			n++
		}
		last[ev.client] = ev.complete
	}
	return n
}

// TestShardKeyCacheInvariant: the dispatch heap's cached keys stay exact.
// Inside every op, each non-root key equals its client's nextAction, and the
// root's key is the time it was dispatched at. Windows, post costs and
// MaxOps budgets are mixed, so sifts and evictions both move keys.
func TestShardKeyCacheInvariant(t *testing.T) {
	r := NewResource("eu")
	h := &dispatchHeap{}
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
			if root := h.h[0]; root.idx != i || root.at != post {
				t.Fatalf("op %d: client %d dispatched at %v is not the root (root %d at %v)", ops, i, post, root.idx, root.at)
			}
			for j := 1; j < len(h.h); j++ {
				if got, want := h.h[j].at, h.clients[h.h[j].idx].nextAction(); got != want {
					t.Fatalf("op %d: cached key of heap slot %d is %v, nextAction %v", ops, j, got, want)
				}
			}
			return r.Delay(post, svc)
		}
		h.clients = append(h.clients, c)
	}
	if err := h.run(50 * Microsecond); err != nil {
		t.Fatal(err)
	}
	if ops < 300 {
		t.Fatalf("only %d ops dispatched; the invariant went unexercised", ops)
	}
}

// FuzzKernelDispatch decodes a client set (count, resource paths, windows,
// post costs, MaxOps budgets, service times and failing ops) and checks the
// kernel against referenceRun: the dispatch log up to any failure, the
// result, and the returned error.
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
			path := []int{next() % 9}
			for extra := next() % 3; extra > 0; extra-- {
				path = append(path, next()%9)
			}
			specs[i].path = path
			specs[i].window = 1 + next()%4
			specs[i].postCost = Duration(10 * (1 + next()%8))
			specs[i].maxOps = int64(next() % 12)
			specs[i].service = Duration(next())
			// An odd byte fails the client at op 1 + byte/2.
			if b := next(); b%2 == 1 {
				specs[i].failAt = int64(1 + b/2)
			}
		}
		checkAgainstReference(t, specs, 20*Microsecond)
	})
}

// TestKernelMatchesRunClosedLoop: a Kernel and RunClosedLoop over the same
// clients agree bit for bit — same stats, same per-op latencies — whatever
// worker count NewKernel is handed.
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
		k.Add(c)
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
// Kernel must replay RunClosedLoop's exact order.
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
		k.Add(c)
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

// TestKernelValidation: config panics fire exactly as in the classic loop.
func TestKernelValidation(t *testing.T) {
	expectPanic := func(name string, fn func()) {
		defer func() {
			if recover() == nil {
				t.Errorf("%s: expected panic", name)
			}
		}()
		fn()
	}
	expectPanic("zero window", func() {
		k := NewKernel(1)
		k.Add(&Client{Op: fixedOp(1), PostCost: 1, Window: 0})
		k.Run(Millisecond)
	})
	expectPanic("zero post cost", func() {
		k := NewKernel(1)
		k.Add(&Client{Op: fixedOp(1), PostCost: 0, Window: 1})
		k.Run(Millisecond)
	})
	expectPanic("bad horizon", func() {
		NewKernel(1).Run(0)
	})
	expectPanic("time travel", func() {
		k := NewKernel(1)
		k.Add(&Client{Op: func(post Time) Time { return post - 1 }, PostCost: 1, Window: 1})
		k.Run(Millisecond)
	})
}

// TestKernelMaxOps: MaxOps gates per client exactly as in the classic loop.
func TestKernelMaxOps(t *testing.T) {
	k := NewKernel(1)
	a := &Client{Op: fixedOp(10), PostCost: 10, Window: 1, MaxOps: 7}
	b := &Client{Op: fixedOp(10), PostCost: 10, Window: 1, MaxOps: 3}
	k.Add(a)
	k.Add(b)
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
