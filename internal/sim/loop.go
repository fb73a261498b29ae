package sim

// Op performs one logical operation posted at the given virtual time and
// returns the operation's completion time. An Op typically walks the posted
// request through a series of Resources and Pipes. Completion must not
// precede the post time. An op that cannot complete reports it with its
// client's Fail instead; its returned time is then ignored.
type Op func(post Time) (complete Time)

// Client is one closed-loop load generator: it issues operations back to
// back, keeping at most Window operations in flight, spending PostCost of
// its own (CPU) time per issue.
//
// The dispatch heap caches each client's next-action time and refreshes
// only the client just dispatched. An Op may therefore change its own
// client's Window or PostCost, but never another client's Window, PostCost
// or window state.
type Client struct {
	Op       Op
	PostCost Duration // CPU issue cost per operation; must be > 0
	Window   int      // maximum outstanding operations; must be >= 1
	MaxOps   int64    // stop after this many posts; 0 means until horizon

	// state
	nextPost    Time
	outstanding window
	posted      int64
	completed   int64 // completions observed within the horizon
	err         error // first failure reported through Fail
}

// Fail records err as the client's failure if it is the client's first
// non-nil one; a nil err is ignored, so an op can end with
// `c.Fail(err); return done`. Call it only from the client's own Op. Once
// that op returns, the kernel ignores its completion time, stops the whole
// run, and Run returns the error (see Kernel.Run).
func (c *Client) Fail(err error) {
	if err != nil && c.err == nil {
		c.err = err
	}
}

// ClientStats summarizes one client's activity after a run.
type ClientStats struct {
	Posted    int64
	Completed int64
}

// Result summarizes a closed-loop run.
type Result struct {
	Horizon   Time
	Completed int64
	Clients   []ClientStats
}

// Throughput reports completed operations per second of virtual time.
func (r Result) Throughput() float64 {
	if r.Horizon <= 0 {
		return 0
	}
	return float64(r.Completed) / r.Horizon.Seconds()
}

// MOPS reports throughput in millions of operations per second, the unit the
// paper plots.
func (r Result) MOPS() float64 { return r.Throughput() / 1e6 }

// nextAction reports when the client can next issue an operation.
func (c *Client) nextAction() Time {
	if c.outstanding.len() < c.Window {
		return c.nextPost
	}
	return max(c.nextPost, c.outstanding.min())
}

// RunClosedLoop drives the clients in global virtual-time order until the
// horizon. Operations posted before the horizon run to completion, but only
// completions at or before the horizon are counted, so Result.Throughput is a
// steady-state estimate. The clients' Op closures may share state freely:
// dispatch is strictly sequential in time order, and ties go to the client
// earlier in clients. A failed op stops the loop and comes back as the
// error; see Kernel.Run.
func RunClosedLoop(clients []*Client, horizon Time) (Result, error) {
	return (&Kernel{clients: clients}).Run(horizon)
}
