package sim

import "fmt"

// Kernel is the discrete-event scheduler. It dispatches every registered
// client from one typed heap (see dispatchHeap) in the exact (virtual time,
// registration index) order, which the goldens pin. Dispatch is strictly
// sequential, so the clients' Op closures may share state freely.
type Kernel struct {
	clients []*Client
}

// NewKernel returns an empty kernel. Its argument is ignored: every run
// dispatches serially from one heap. The parameter remains only so that
// callers written against the old worker-count signature still compile.
func NewKernel(int) *Kernel { return &Kernel{} }

// Add registers a client. Registration order breaks dispatch-time ties.
func (k *Kernel) Add(c *Client) { k.clients = append(k.clients, c) }

// Run drives all registered clients to the horizon and returns the combined
// result, with per-client stats in registration order. See RunClosedLoop for
// the closed-loop semantics.
//
// An op that calls its client's Fail stops the whole run: the op is not
// counted and nothing dispatches again. Run then returns the failure as
// "sim: client <registration index> at <post time>: <err>", wrapping err.
func (k *Kernel) Run(horizon Time) (Result, error) {
	if horizon <= 0 {
		panic("sim: horizon must be positive")
	}
	h := &dispatchHeap{clients: k.clients}
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
		c.err = nil
	}

	err := h.run(horizon)

	res := Result{Horizon: horizon, Clients: make([]ClientStats, len(k.clients))}
	for i, c := range k.clients {
		res.Clients[i] = ClientStats{Posted: c.posted, Completed: c.completed}
		res.Completed += c.completed
	}
	return res, err
}

// run drives the heap's clients to the horizon. Each step dispatches the
// root — the client with the least (nextAction, registration index) — then
// sifts it back down, or evicts it once it reaches the horizon or its MaxOps
// budget. A failed op stops the run and comes back as its error.
func (h *dispatchHeap) run(horizon Time) error {
	h.init()
	for len(h.h) > 0 {
		top := h.h[0]
		c, t := h.clients[top.idx], top.at
		if t >= horizon || (c.MaxOps > 0 && c.posted >= c.MaxOps) {
			h.popTop()
			continue
		}
		// Retire anything that has already completed by t.
		for c.outstanding.len() > 0 && c.outstanding.min() <= t {
			c.outstanding.pop()
		}
		complete := c.Op(t)
		if c.err != nil {
			return fmt.Errorf("sim: client %d at %v: %w", top.idx, t, c.err)
		}
		if complete < t {
			panic("sim: op completed before it was posted")
		}
		c.posted++
		if complete <= horizon {
			c.completed++
		}
		c.outstanding.push(complete)
		c.nextPost = t + c.PostCost
		h.fixTop()
	}
	return nil
}
