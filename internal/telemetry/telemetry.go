// Package telemetry is the deterministic, virtual-time metrics subsystem of
// the simulator: counters and log-bucketed latency histograms keyed by
// (experiment, machine, component, stage), plus a timeline recorder that
// turns per-op stage walks into Chrome trace_event spans (timeline.go).
//
// The layer is strictly passive. Producers — the op-pipeline engine's stage
// recorder, the sim.Resource/sim.Pipe acquire hooks (QueueHook), the folded
// rnic/fabric counters — only read simulation state, never advance virtual
// time, so a run's results are byte-identical with or without telemetry
// attached (the golden-output regression enforces this, as it does for
// fabric.FaultPlan). With no registry attached nothing is allocated and
// every hook is a nil check.
//
// Histograms take no lock, so every concurrent writer records into its own
// registry: a sweep point forks the run's registry (Registry.Fork), and when
// the point settles its fork is absorbed back (Registry.Absorb). Values under
// one key merge by addition (counters, histogram count, sum and buckets) and
// by min/max, so the run's snapshot is the same at any worker-pool width and
// in any absorb order.
package telemetry

import (
	"fmt"
	"io"
	"sort"
	"sync"

	"rdmasem/internal/sim"
	"rdmasem/internal/stats"
)

// Key identifies one metric stream.
type Key struct {
	Experiment string // experiment id, e.g. "fig3"; "" outside the harness
	Machine    string // simulated host, e.g. "m0"; "" for cluster-wide
	Component  string // producer, e.g. "verbs/WRITE", "nic/pcie-rd", "qpi"
	Stage      string // stage or counter name, e.g. "executed", "wait", "doorbells"
}

func (k Key) less(o Key) bool {
	if k.Experiment != o.Experiment {
		return k.Experiment < o.Experiment
	}
	if k.Machine != o.Machine {
		return k.Machine < o.Machine
	}
	if k.Component != o.Component {
		return k.Component < o.Component
	}
	return k.Stage < o.Stage
}

// Registry collects the metrics of one run from every layer. Its lock guards
// only the maps and counters; the histograms it hands out have one writer at
// a time. Clusters that simulate concurrently therefore record into separate
// forks of one registry, which Absorb folds back in any order with the same
// result.
type Registry struct {
	mu         sync.Mutex // guards experiment, counters and the hists map
	experiment string
	counters   map[Key]int64
	hists      map[Key]*Histogram
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: make(map[Key]int64),
		hists:    make(map[Key]*Histogram),
	}
}

// SetExperiment labels all subsequently created metric streams with the
// given experiment id. Call it before building the experiment's clusters;
// streams resolved earlier keep their original label.
func (r *Registry) SetExperiment(id string) {
	r.mu.Lock()
	r.experiment = id
	r.mu.Unlock()
}

func (r *Registry) key(machine, component, stage string) Key {
	return Key{Experiment: r.experiment, Machine: machine, Component: component, Stage: stage}
}

// Count adds delta to the counter under the given key.
func (r *Registry) Count(machine, component, stage string, delta int64) {
	r.mu.Lock()
	r.counters[r.key(machine, component, stage)] += delta
	r.mu.Unlock()
}

// Fork returns an empty registry with r's experiment label, for one
// concurrent writer to record into until Absorb folds it back into r. A nil
// registry forks to nil.
func (r *Registry) Fork() *Registry {
	if r == nil {
		return nil
	}
	f := NewRegistry()
	r.mu.Lock()
	f.experiment = r.experiment
	r.mu.Unlock()
	return f
}

// Absorb adds o's counters and histograms into r under r's lock. Nothing may
// still write to o. Either registry may be nil.
func (r *Registry) Absorb(o *Registry) {
	if r == nil || o == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	for k, v := range o.counters {
		r.counters[k] += v
	}
	for k, h := range o.hists {
		r.hist(k).Merge(h)
	}
}

// Hist returns the histogram under the given key, creating it on first use.
// The returned pointer is stable for the registry's life, so hot paths
// resolve their streams once and observe without touching the registry map.
func (r *Registry) Hist(machine, component, stage string) *Histogram {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.hist(r.key(machine, component, stage))
}

// hist returns the histogram under k, creating it on first use. r.mu must be
// held.
func (r *Registry) hist(k Key) *Histogram {
	h := r.hists[k]
	if h == nil {
		h = &Histogram{}
		r.hists[k] = h
	}
	return h
}

// QueueHook returns an acquire observer for one queueing resource: each
// placement lands its queueing wait in the (machine, component, "wait")
// histogram and its occupancy in (machine, component, "service"). A nil
// registry returns nil, which sim.Resource.Observe treats as detached.
func (r *Registry) QueueHook(machine, component string) sim.AcquireFunc {
	if r == nil {
		return nil
	}
	wait := r.Hist(machine, component, "wait")
	service := r.Hist(machine, component, "service")
	return func(arrival, start, end sim.Time) {
		wait.Observe(start - arrival)
		service.Observe(end - start)
	}
}

// CounterEntry is one counter in a snapshot.
type CounterEntry struct {
	Key
	Value int64
}

// HistEntry is one histogram in a snapshot, with its quantiles resolved.
type HistEntry struct {
	Key
	Count         int64
	Sum           sim.Duration
	Min, Max      sim.Duration
	P50, P90, P99 sim.Duration
}

// Snapshot is a point-in-time copy of a registry, sorted deterministically
// by key.
type Snapshot struct {
	Counters []CounterEntry
	Hists    []HistEntry
}

// Empty reports whether the snapshot holds no metrics at all.
func (s Snapshot) Empty() bool {
	return len(s.Counters) == 0 && len(s.Hists) == 0
}

// Snapshot returns a sorted copy of the registry's current contents.
func (r *Registry) Snapshot() Snapshot {
	r.mu.Lock()
	defer r.mu.Unlock()
	var s Snapshot
	for k, v := range r.counters {
		s.Counters = append(s.Counters, CounterEntry{Key: k, Value: v})
	}
	for k, h := range r.hists {
		count, sum, min, max := h.Stats()
		if count == 0 {
			continue
		}
		s.Hists = append(s.Hists, HistEntry{
			Key: k, Count: count, Sum: sum, Min: min, Max: max,
			P50: h.Quantile(0.50), P90: h.Quantile(0.90), P99: h.Quantile(0.99),
		})
	}
	sort.Slice(s.Counters, func(i, j int) bool { return s.Counters[i].Key.less(s.Counters[j].Key) })
	sort.Slice(s.Hists, func(i, j int) bool { return s.Hists[i].Key.less(s.Hists[j].Key) })
	return s
}

// Render prints the snapshot as aligned text: the stage histograms first
// (count and nanosecond quantiles), then the counters. Machines sharing
// identical rows are not merged — attribution per machine is the point.
func (s Snapshot) Render(w io.Writer) {
	if s.Empty() {
		fmt.Fprintln(w, "telemetry: no metrics recorded")
		return
	}
	if len(s.Hists) > 0 {
		tb := stats.NewTable("stage histograms (ns)" + experimentSuffix(s.Hists[0].Experiment))
		tb.Row("machine", "component", "stage", "count", "p50", "p90", "p99", "max")
		for _, h := range s.Hists {
			tb.Row(orDash(h.Machine), h.Component, h.Stage,
				fmt.Sprintf("%d", h.Count),
				fmt.Sprintf("%d", int64(h.P50)),
				fmt.Sprintf("%d", int64(h.P90)),
				fmt.Sprintf("%d", int64(h.P99)),
				fmt.Sprintf("%d", int64(h.Max)))
		}
		tb.Render(w)
	}
	if len(s.Counters) > 0 {
		tb := stats.NewTable("counters" + experimentSuffix(s.Counters[0].Experiment))
		tb.Row("machine", "component", "counter", "value")
		for _, c := range s.Counters {
			tb.Row(orDash(c.Machine), c.Component, c.Stage, fmt.Sprintf("%d", c.Value))
		}
		tb.Render(w)
	}
}

func experimentSuffix(id string) string {
	if id == "" {
		return ""
	}
	return " — " + id
}

func orDash(s string) string {
	if s == "" {
		return "-"
	}
	return s
}
