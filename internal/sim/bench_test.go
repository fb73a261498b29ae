package sim

import "testing"

// Host-side microbenchmarks of the simulation kernel itself: these measure
// how fast the simulator runs on the host, not virtual-time quantities.

func BenchmarkResourceAcquireOrdered(b *testing.B) {
	r := NewResource("b")
	for i := 0; i < b.N; i++ {
		r.Acquire(Time(i*10), 5)
	}
}

func BenchmarkResourceAcquireGapFill(b *testing.B) {
	r := NewResource("b")
	// Alternate far-future and past arrivals to exercise the gap search.
	for i := 0; i < b.N; i++ {
		if i%2 == 0 {
			r.Acquire(Time(i*100), 10)
		} else {
			r.Acquire(Time(i*100-5000), 10)
		}
	}
}

func BenchmarkPipeTransfer(b *testing.B) {
	p := NewPipe("b", 5e9, 20)
	for i := 0; i < b.N; i++ {
		p.Transfer(Time(i*100), 64)
	}
}

// BenchmarkPipeBurst: 4096 requesters arrive at one instant on a PCIe-like
// read channel; each fetches a 64-B descriptor, then gathers 32 B of payload
// 120 ns after its fetch ends. The gathers cut the channel's free time into
// gaps too small for a fetch, so every later fetch is placed behind all of
// them: the walk memo is what keeps this from being quadratic.
func BenchmarkPipeBurst(b *testing.B) {
	for i := 0; i < b.N; i++ {
		p := NewPipe("pcie-rd", 7.9e9, 20)
		for r := 0; r < 4096; r++ {
			_, end := p.Transfer(0, 64)
			p.Transfer(end+120, 32)
		}
	}
}

func BenchmarkClosedLoop(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		r := NewResource("eu")
		clients := []*Client{
			{Op: func(t Time) Time { return r.Delay(t, 200) }, PostCost: 100, Window: 8},
			{Op: func(t Time) Time { return r.Delay(t, 200) }, PostCost: 100, Window: 8},
		}
		RunClosedLoop(clients, Millisecond)
	}
}

// BenchmarkKernelDispatch isolates pure scheduler cost: 16 clients with
// constant-latency ops (no shared resources), so every nanosecond and every
// allocation is queue bookkeeping — the completion windows and the run's
// client heap — not model work. This is the number that shows the
// container/heap interface boxing (one heap allocation per posted op) and its
// removal.
func BenchmarkKernelDispatch(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		RunClosedLoop(dispatchClients(), Millisecond)
	}
}

// dispatchClients returns the 16 constant-latency clients of the dispatch
// benchmarks.
func dispatchClients() []*Client {
	clients := make([]*Client, 16)
	for c := range clients {
		lat := Duration(1500 + 100*c)
		clients[c] = &Client{
			Op:       func(t Time) Time { return t + lat },
			PostCost: 100,
			Window:   8,
		}
	}
	return clients
}
