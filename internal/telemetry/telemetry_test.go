package telemetry

import (
	"bytes"
	"encoding/json"
	"reflect"
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

// TestRegistryConcurrentDeterministic drives the fork/absorb contract the
// bench sweep pool relies on: each goroutine records into its own fork, and
// the forks absorbed back in either order render byte-identically to one
// goroutine recording everything.
func TestRegistryConcurrentDeterministic(t *testing.T) {
	const total, workers = 4000, 4
	record := func(r *Registry, w, stride int) {
		for i := w; i < total; i += stride {
			r.Count("m0", "nic", "doorbells", 1)
			r.Hist("m0", "verbs/READ", "e2e").Observe(sim.Duration(i % 4096))
		}
	}
	render := func(r *Registry) string {
		var b bytes.Buffer
		r.Snapshot().Render(&b)
		return b.String()
	}
	serial := NewRegistry()
	serial.SetExperiment("conc")
	record(serial, 0, 1)
	want := render(serial)

	parent := NewRegistry()
	parent.SetExperiment("conc")
	forks := make([]*Registry, workers)
	var wg sync.WaitGroup
	for w := range forks {
		forks[w] = parent.Fork()
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			record(forks[w], w, workers)
		}(w)
	}
	wg.Wait()
	forward, backward := parent, parent.Fork()
	for w := range forks {
		forward.Absorb(forks[w])
		backward.Absorb(forks[workers-1-w])
	}
	for _, r := range []*Registry{forward, backward} {
		if got := render(r); got != want {
			t.Fatalf("absorbed forks differ from one writer:\n%s\nvs\n%s", got, want)
		}
	}
}

func TestForkAbsorb(t *testing.T) {
	var none *Registry
	if none.Fork() != nil {
		t.Fatal("a nil registry must fork to nil")
	}
	none.Absorb(NewRegistry())
	r := NewRegistry()
	r.SetExperiment("figX")
	r.Absorb(nil)
	r.Count("m0", "nic", "doorbells", 3)
	r.Hist("m0", "qpi", "wait").Observe(100)
	before := r.Snapshot()

	r.Absorb(r.Fork())
	if after := r.Snapshot(); !reflect.DeepEqual(after, before) {
		t.Fatalf("absorbing an empty fork changed the registry:\n%+v\nvs\n%+v", after, before)
	}

	f := r.Fork()
	f.Count("m0", "nic", "doorbells", 4)
	f.Count("m1", "nic", "doorbells", 2)
	f.Hist("m0", "qpi", "wait").Observe(5)
	f.Hist("m0", "qpi", "wait").Observe(3000)
	f.Hist("m1", "qpi", "wait").Observe(7)
	r.Absorb(f)

	s := r.Snapshot()
	for _, c := range s.Counters {
		if c.Experiment != "figX" {
			t.Fatalf("fork lost the experiment label: %+v", c)
		}
	}
	if len(s.Counters) != 2 || s.Counters[0].Value != 7 || s.Counters[1].Value != 2 {
		t.Fatalf("counters did not add: %+v", s.Counters)
	}
	var want Histogram
	for _, v := range []sim.Duration{100, 5, 3000} {
		want.Observe(v)
	}
	if got := *r.Hist("m0", "qpi", "wait"); got != want {
		t.Fatalf("merged histogram %+v, want %+v", got, want)
	}
	if len(s.Hists) != 2 || s.Hists[0].Count != 3 || s.Hists[0].Sum != 3105 ||
		s.Hists[0].Min != 5 || s.Hists[0].Max != 3000 || s.Hists[1].Count != 1 {
		t.Fatalf("merged snapshot wrong: %+v", s.Hists)
	}
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
