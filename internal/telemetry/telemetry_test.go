package telemetry

import (
	"bytes"
	"encoding/json"
	"strings"
	"sync"
	"testing"

	"rdmasem/internal/sim"
)

func TestHistogramExactStats(t *testing.T) {
	var h Histogram
	for _, v := range []sim.Duration{10, 20, 30, 40, 50} {
		h.Observe(v)
	}
	count, sum, min, max := h.Stats()
	if count != 5 || sum != 150 || min != 10 || max != 50 {
		t.Fatalf("stats = %d/%d/%d/%d, want 5/150/10/50", count, sum, min, max)
	}
}

func TestHistogramQuantiles(t *testing.T) {
	var h Histogram
	// 100 identical observations: every quantile is that value.
	for i := 0; i < 100; i++ {
		h.Observe(1000)
	}
	for _, q := range []float64{0, 0.5, 0.9, 0.99, 1} {
		if got := h.Quantile(q); got != 1000 {
			t.Fatalf("Quantile(%v) = %v, want 1000", q, got)
		}
	}

	var g Histogram
	if g.Quantile(0.5) != 0 {
		t.Fatal("empty histogram quantile must be 0")
	}
	g.Observe(0)
	if g.Quantile(0.5) != 0 {
		t.Fatal("zero-valued histogram quantile must be 0")
	}

	// A wide spread: quantiles must be monotonic, within [min, max], and the
	// extremes exact.
	var s Histogram
	for v := sim.Duration(1); v <= 1<<20; v *= 2 {
		s.Observe(v)
	}
	last := sim.Duration(-1)
	for _, q := range []float64{0, 0.25, 0.5, 0.75, 0.9, 0.99, 1} {
		got := s.Quantile(q)
		if got < last {
			t.Fatalf("quantiles not monotonic at q=%v: %v < %v", q, got, last)
		}
		if got < 1 || got > 1<<20 {
			t.Fatalf("Quantile(%v) = %v outside [1, 2^20]", q, got)
		}
		last = got
	}
	if s.Quantile(0) != 1 || s.Quantile(1) != 1<<20 {
		t.Fatalf("extreme quantiles %v/%v, want 1/%d", s.Quantile(0), s.Quantile(1), 1<<20)
	}
}

func TestHistogramNegativeClampsToZero(t *testing.T) {
	var h Histogram
	h.Observe(-5)
	_, _, min, max := h.Stats()
	if min != 0 || max != 0 {
		t.Fatalf("negative observation must clamp to 0, got min=%v max=%v", min, max)
	}
}

func TestHistogramMergeCommutes(t *testing.T) {
	obs := []sim.Duration{3, 1000, 7, 4096, 0, 12345}
	var whole, a, b, merged Histogram
	for i, v := range obs {
		whole.Observe(v)
		if i%2 == 0 {
			a.Observe(v)
		} else {
			b.Observe(v)
		}
	}
	merged.Merge(&a)
	merged.Merge(&b)
	for _, q := range []float64{0, 0.5, 0.9, 1} {
		if merged.Quantile(q) != whole.Quantile(q) {
			t.Fatalf("merge changed Quantile(%v): %v != %v", q, merged.Quantile(q), whole.Quantile(q))
		}
	}
	c1, s1, mn1, mx1 := whole.Stats()
	c2, s2, mn2, mx2 := merged.Stats()
	if c1 != c2 || s1 != s2 || mn1 != mn2 || mx1 != mx2 {
		t.Fatal("merged stats differ from direct observation")
	}
	merged.Merge(&Histogram{}) // merging empty is a no-op
	if c, _, _, _ := merged.Stats(); c != c1 {
		t.Fatal("merging an empty histogram changed the count")
	}
}

func TestBucketBounds(t *testing.T) {
	for _, v := range []int64{0, 1, 2, 3, 4, 1023, 1024, 1 << 40} {
		lo, hi := bucketBounds(bucketOf(v))
		if v < lo || v > hi {
			t.Fatalf("value %d outside its bucket [%d, %d]", v, lo, hi)
		}
	}
}

func TestRegistrySnapshotSortedAndKeyed(t *testing.T) {
	r := NewRegistry()
	r.SetExperiment("figX")
	r.Count("m1", "nic", "doorbells", 2)
	r.Count("m0", "nic", "doorbells", 5)
	r.Count("m0", "nic", "doorbells", 1) // accumulate
	r.Hist("m0", "verbs/WRITE", "executed").Observe(120)
	r.Hist("m0", "verbs/WRITE", "executed").Observe(130)

	s := r.Snapshot()
	if len(s.Counters) != 2 || len(s.Hists) != 1 {
		t.Fatalf("snapshot sizes %d/%d", len(s.Counters), len(s.Hists))
	}
	if s.Counters[0].Machine != "m0" || s.Counters[0].Value != 6 {
		t.Fatalf("counter sort/accumulate wrong: %+v", s.Counters[0])
	}
	if s.Counters[1].Machine != "m1" {
		t.Fatal("counters not sorted by machine")
	}
	h := s.Hists[0]
	if h.Experiment != "figX" || h.Count != 2 || h.Min != 120 || h.Max != 130 {
		t.Fatalf("hist entry wrong: %+v", h)
	}
}

func TestQueueHook(t *testing.T) {
	var none *Registry
	if none.QueueHook("m0", "qpi") != nil {
		t.Fatal("a nil registry must return a nil (detached) hook")
	}
	r := NewRegistry()
	r.QueueHook("m0", "qpi")(100, 130, 180)
	wait, service := r.Hist("m0", "qpi", "wait"), r.Hist("m0", "qpi", "service")
	if c, sum, _, _ := wait.Stats(); c != 1 || sum != 30 {
		t.Fatalf("wait = %d/%v, want 1/30", c, sum)
	}
	if c, sum, _, _ := service.Stats(); c != 1 || sum != 50 {
		t.Fatalf("service = %d/%v, want 1/50", c, sum)
	}
}

func TestRegistryHistPointerStable(t *testing.T) {
	r := NewRegistry()
	a := r.Hist("m0", "qpi", "wait")
	b := r.Hist("m0", "qpi", "wait")
	if a != b {
		t.Fatal("Hist must return a stable pointer per key")
	}
}

func TestRegistryConcurrentDeterministic(t *testing.T) {
	const total = 4000
	run := func(workers int) Snapshot {
		r := NewRegistry()
		r.SetExperiment("conc")
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			w := w
			wg.Add(1)
			go func() {
				defer wg.Done()
				// Each worker handles its slice of the same global work set.
				for i := w; i < total; i += workers {
					r.Count("m0", "nic", "doorbells", 1)
					r.Hist("m0", "verbs/READ", "e2e").Observe(sim.Duration(i % 4096))
				}
			}()
		}
		wg.Wait()
		return r.Snapshot()
	}
	a, b := run(1), Snapshot{}
	// All work on one goroutine vs four: byte-identical rendering.
	for i := 0; i < 3; i++ {
		b = run(4)
		var wa, wb bytes.Buffer
		a.Render(&wa)
		b.Render(&wb)
		if wa.String() != wb.String() {
			t.Fatalf("snapshot differs across worker counts:\n%s\nvs\n%s", wa.String(), wb.String())
		}
	}
	_ = b
}

func TestSnapshotRender(t *testing.T) {
	var empty Snapshot
	var buf bytes.Buffer
	empty.Render(&buf)
	if !strings.Contains(buf.String(), "no metrics") {
		t.Fatalf("empty render: %q", buf.String())
	}

	r := NewRegistry()
	r.Hist("m0", "verbs/WRITE", "executed").Observe(500)
	r.Count("", "fabric", "segments", 9)
	buf.Reset()
	r.Snapshot().Render(&buf)
	out := buf.String()
	for _, want := range []string{"stage histograms", "verbs/WRITE", "executed", "counters", "fabric", "segments", "9"} {
		if !strings.Contains(out, want) {
			t.Fatalf("render missing %q:\n%s", want, out)
		}
	}
}

func TestTimelineRecordAndLimit(t *testing.T) {
	tl := NewTimeline(2)
	pid := tl.NewGroup("cluster")
	tl.NameThread(pid, 1, "qp1 m0")
	tl.Record(Span{Name: "posted", Cat: "WRITE", PID: pid, TID: 1, Start: 0, Dur: 100, Op: 1})
	tl.Record(Span{Name: "executed", Cat: "WRITE", PID: pid, TID: 1, Start: 100, Dur: 50, Op: 1})
	tl.Record(Span{Name: "over", PID: pid, TID: 1, Start: 150, Dur: 1})
	if tl.Len() != 2 || tl.Dropped() != 1 {
		t.Fatalf("len=%d dropped=%d, want 2/1", tl.Len(), tl.Dropped())
	}
	spans := tl.Spans()
	if spans[0].Name != "posted" || spans[1].Name != "executed" {
		t.Fatalf("span order wrong: %+v", spans)
	}
}

func TestTimelineJSONValidChromeTrace(t *testing.T) {
	tl := NewTimeline(0)
	pid := tl.NewGroup(`clu"ster`)
	tl.NameThread(pid, 7, "qp7 m0")
	tl.Record(Span{Name: "posted", Cat: "WRITE", PID: pid, TID: 7, Start: 1234, Dur: 567, Op: 2})
	tl.Record(Span{Name: "executed", Cat: "WRITE", PID: pid, TID: 7, Start: 1801, Dur: 99, Op: 2})

	var buf bytes.Buffer
	if err := tl.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		DisplayTimeUnit string `json:"displayTimeUnit"`
		TraceEvents     []struct {
			Ph   string  `json:"ph"`
			Pid  int64   `json:"pid"`
			Tid  int64   `json:"tid"`
			Name string  `json:"name"`
			Cat  string  `json:"cat"`
			Ts   float64 `json:"ts"`
			Dur  float64 `json:"dur"`
			Args struct {
				Name string `json:"name"`
				Op   int64  `json:"op"`
			} `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("invalid JSON: %v\n%s", err, buf.String())
	}
	if doc.DisplayTimeUnit != "ns" {
		t.Fatal("displayTimeUnit missing")
	}
	var meta, complete int
	for _, e := range doc.TraceEvents {
		switch e.Ph {
		case "M":
			meta++
		case "X":
			complete++
			if e.Dur <= 0 || e.Cat != "WRITE" || e.Args.Op != 2 {
				t.Fatalf("bad complete event: %+v", e)
			}
		default:
			t.Fatalf("unexpected phase %q", e.Ph)
		}
	}
	if meta != 2 || complete != 2 {
		t.Fatalf("meta=%d complete=%d, want 2/2", meta, complete)
	}
	// ts is microseconds: 1234 ns == 1.234 us.
	if !strings.Contains(buf.String(), `"ts":1.234`) {
		t.Fatalf("timestamp not in microseconds:\n%s", buf.String())
	}
}

func TestMicros(t *testing.T) {
	cases := map[int64]string{0: "0.000", 999: "0.999", 1000: "1.000", 1234567: "1234.567", -1500: "-1.500"}
	for ns, want := range cases {
		if got := micros(ns); got != want {
			t.Fatalf("micros(%d) = %q, want %q", ns, got, want)
		}
	}
}
