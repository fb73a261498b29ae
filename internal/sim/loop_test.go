package sim

import (
	"math/rand"
	"testing"
	"testing/quick"
)

// fixedOp returns an Op with a constant latency and no shared resources.
func fixedOp(latency Duration) Op {
	return func(post Time) Time { return post + latency }
}

func TestClosedLoopSynchronous(t *testing.T) {
	// Window 1, 1us per op, 100ns post cost: one op completes every 1.1us...
	// actually nextPost advances by PostCost but window gates at completion,
	// so steady state is one op per max(PostCost, latency) = 1us.
	c := &Client{Op: fixedOp(Microsecond), PostCost: 100, Window: 1}
	res, err := RunClosedLoop([]*Client{c}, Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	want := int64(Millisecond / Microsecond) // ~1000
	if res.Completed < want-2 || res.Completed > want {
		t.Fatalf("completed=%d, want ~%d", res.Completed, want)
	}
}

func TestClosedLoopWindowPipelines(t *testing.T) {
	// With a deep window, throughput is bound by PostCost, not latency.
	c := &Client{Op: fixedOp(10 * Microsecond), PostCost: 100, Window: 1024}
	res, err := RunClosedLoop([]*Client{c}, Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	want := int64(Millisecond / 100)
	if res.Completed < want-200 || res.Completed > want {
		t.Fatalf("completed=%d, want ~%d", res.Completed, want)
	}
}

func TestClosedLoopSharedResourceBound(t *testing.T) {
	// Four clients hammer one resource with 1us service: aggregate
	// throughput must equal the resource rate (1 MOPS), not 4x.
	r := NewResource("eu")
	op := func(post Time) Time { return r.Delay(post, Microsecond) }
	var clients []*Client
	for i := 0; i < 4; i++ {
		clients = append(clients, &Client{Op: op, PostCost: 50, Window: 4})
	}
	res, err := RunClosedLoop(clients, 10*Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Throughput(); got < 0.95e6 || got > 1.01e6 {
		t.Fatalf("throughput=%v, want ~1e6", got)
	}
}

func TestClosedLoopMaxOps(t *testing.T) {
	c := &Client{Op: fixedOp(10), PostCost: 10, Window: 1, MaxOps: 7}
	res, err := RunClosedLoop([]*Client{c}, Second)
	if err != nil {
		t.Fatal(err)
	}
	if res.Completed != 7 {
		t.Fatalf("completed=%d, want 7", res.Completed)
	}
	if res.Clients[0].Posted != 7 {
		t.Fatalf("posted=%d, want 7", res.Clients[0].Posted)
	}
}

func TestClosedLoopDeterminism(t *testing.T) {
	run := func() int64 {
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
		res, err := RunClosedLoop(clients, Millisecond)
		if err != nil {
			t.Fatal(err)
		}
		return res.Completed
	}
	a, b := run(), run()
	if a != b {
		t.Fatalf("nondeterministic: %d vs %d", a, b)
	}
	if a == 0 {
		t.Fatal("no ops completed")
	}
}

func TestClosedLoopSharedState(t *testing.T) {
	// Ops mutate shared state; sequential dispatch must keep it consistent.
	counter := 0
	op := func(post Time) Time {
		counter++
		return post + 100
	}
	clients := []*Client{
		{Op: op, PostCost: 50, Window: 2},
		{Op: op, PostCost: 50, Window: 2},
	}
	res, err := RunClosedLoop(clients, Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	posted := res.Clients[0].Posted + res.Clients[1].Posted
	if int64(counter) != posted {
		t.Fatalf("counter=%d, posted=%d", counter, posted)
	}
}

func TestClosedLoopPanicsOnBadConfig(t *testing.T) {
	cases := []struct {
		name string
		c    *Client
	}{
		{"zero window", &Client{Op: fixedOp(1), PostCost: 1, Window: 0}},
		{"zero post cost", &Client{Op: fixedOp(1), PostCost: 0, Window: 1}},
	}
	for _, tc := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: expected panic", tc.name)
				}
			}()
			RunClosedLoop([]*Client{tc.c}, Millisecond)
		}()
	}
}

func TestClosedLoopPanicsOnTimeTravel(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for op completing in the past")
		}
	}()
	op := func(post Time) Time { return post - 1 }
	RunClosedLoop([]*Client{{Op: op, PostCost: 1, Window: 1}}, Millisecond)
}

// Property: with a single shared FCFS resource, completed ops never exceed
// the resource's theoretical capacity, regardless of client shapes.
func TestClosedLoopCapacityProperty(t *testing.T) {
	f := func(seed int64, nClients uint8, svc uint16) bool {
		n := int(nClients%8) + 1
		service := Duration(svc%1000) + 10
		r := NewResource("eu")
		op := func(post Time) Time { return r.Delay(post, service) }
		rng := rand.New(rand.NewSource(seed))
		var clients []*Client
		for i := 0; i < n; i++ {
			clients = append(clients, &Client{
				Op:       op,
				PostCost: Duration(rng.Intn(100)) + 1,
				Window:   rng.Intn(16) + 1,
			})
		}
		horizon := Millisecond
		res, err := RunClosedLoop(clients, horizon)
		if err != nil {
			t.Fatal(err)
		}
		capacity := int64(horizon/service) + 1
		return res.Completed <= capacity
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestResultAggregation(t *testing.T) {
	res := Result{
		Horizon:   Second,
		Completed: 2_000_000,
		Clients: []ClientStats{
			{Completed: 1_000_000},
			{Completed: 1_000_000},
		},
	}
	if got := res.MOPS(); got != 2.0 {
		t.Fatalf("MOPS=%v, want 2", got)
	}
}
