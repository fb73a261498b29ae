package bench

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"

	"rdmasem/internal/fabric"
	"rdmasem/internal/telemetry"
)

// TestTelemetryPassiveAcrossAllExperiments pins the telemetry layer's
// zero-cost contract over the whole evaluation surface: with a registry AND
// a timeline attached to every cluster, all experiments must render
// byte-identically to the committed goldens. Any divergence means an
// observer leaked into the timing model.
func TestTelemetryPassiveAcrossAllExperiments(t *testing.T) {
	if testing.Short() {
		t.Skip("full experiment sweep")
	}
	tl := telemetry.NewTimeline(0)
	var fed atomic.Bool
	// The sweep must actually have fed the sinks, or the parity below proved
	// nothing. Cleanup runs after the parallel subtests finish.
	t.Cleanup(func() {
		if !fed.Load() {
			t.Error("no run collected any metrics across the whole sweep")
		}
		if tl.Len() == 0 {
			t.Error("timeline recorded no spans across the whole sweep")
		}
	})
	for _, id := range List() {
		t.Run(id, func(t *testing.T) {
			t.Parallel()
			rep, err := Run(id, goldenScale, Options{Metrics: true, Timeline: tl})
			if err != nil {
				t.Fatalf("run: %v", err)
			}
			if !rep.Metrics.Empty() {
				fed.Store(true)
			}
			var buf bytes.Buffer
			rep.Render(&buf)
			want, err := os.ReadFile(filepath.Join("testdata", "golden", id+".txt"))
			if err != nil {
				t.Fatalf("missing golden: %v", err)
			}
			if !bytes.Equal(buf.Bytes(), want) {
				t.Fatalf("telemetry attachment changed the output of %s\n%s", id, diffHint(want, buf.Bytes()))
			}
		})
	}
}

// TestMetricsIdenticalAtAnyWidth pins the fork/absorb contract of the run
// registry: a run's snapshot is the same whether its points and engine shards
// run one at a time or four at once. Points record into their own forks and
// shards into machine-disjoint histograms, so under -race this also shows
// that no two goroutines ever write one histogram.
func TestMetricsIdenticalAtAnyWidth(t *testing.T) {
	if testing.Short() {
		t.Skip("full experiment sweep, twice")
	}
	for _, id := range List() {
		t.Run(id, func(t *testing.T) {
			t.Parallel()
			narrow, err := Run(id, goldenScale, Options{Metrics: true, Parallel: 1, EngineWorkers: 1})
			if err != nil {
				t.Fatal(err)
			}
			wide, err := Run(id, goldenScale, Options{Metrics: true, Parallel: 4, EngineWorkers: 4})
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(narrow.Metrics, wide.Metrics) {
				var a, b bytes.Buffer
				narrow.Metrics.Render(&a)
				wide.Metrics.Render(&b)
				t.Fatalf("metrics differ at width 4\n%s", diffHint(a.Bytes(), b.Bytes()))
			}
		})
	}
}

// TestRunReturnsItsOwnMetrics covers the run-scoped registry: a run folds
// the NIC counters of every cluster it built into its own snapshot, labeled
// with the experiment, and only a run with Metrics records histograms.
func TestRunReturnsItsOwnMetrics(t *testing.T) {
	rep, err := Run("breakdown", goldenScale, Options{Metrics: true})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Metrics.Empty() {
		t.Fatal("snapshot empty after an instrumented run")
	}
	var sawCounter bool
	for _, c := range rep.Metrics.Counters {
		if c.Experiment != "breakdown" {
			t.Fatalf("counter %+v not labeled with the experiment", c)
		}
		if c.Component == "nic" && c.Stage == "doorbells" && c.Value > 0 {
			sawCounter = true
		}
	}
	if !sawCounter {
		t.Fatal("NIC doorbell counters were not folded into the snapshot")
	}
	plain, err := Run("breakdown", goldenScale, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(plain.Metrics.Hists) != 0 {
		t.Fatalf("a run without Metrics recorded %d histograms", len(plain.Metrics.Hists))
	}
	if !reflect.DeepEqual(plain.Metrics.Counters, rep.Metrics.Counters) {
		t.Fatal("Metrics changed the run's folded counters")
	}
}

// TestConcurrentRunsAreIsolated runs a lossy, instrumented fig3 on a wide
// pool and a plain fig3 at once. Neither may see the other's options or
// counters: the plain run renders its golden and folds no fault or
// reliability counter and no histogram, and the lossy run folds exactly the
// counters of a solo serial run, fault and reliability tallies among them.
func TestConcurrentRunsAreIsolated(t *testing.T) {
	lossyOpts := Options{Metrics: true, Faults: &fabric.FaultPlan{Seed: 3, Drop: 0.02}, Parallel: 4}
	var lossy, plain *Report
	var lossyErr, plainErr error
	var wg sync.WaitGroup
	wg.Add(2)
	go func() { defer wg.Done(); lossy, lossyErr = Run("fig3", goldenScale, lossyOpts) }()
	go func() { defer wg.Done(); plain, plainErr = Run("fig3", goldenScale, Options{}) }()
	wg.Wait()
	if lossyErr != nil || plainErr != nil {
		t.Fatal(lossyErr, plainErr)
	}
	var buf bytes.Buffer
	plain.Render(&buf)
	want, err := os.ReadFile(filepath.Join("testdata", "golden", "fig3.txt"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Fatalf("the concurrent lossy run leaked into the plain one\n%s", diffHint(want, buf.Bytes()))
	}
	if len(plain.Metrics.Hists) != 0 {
		t.Fatalf("plain run recorded %d histograms", len(plain.Metrics.Hists))
	}
	for _, c := range plain.Metrics.Counters {
		if c.Component == "fabric" || c.Component == "nic/rel" {
			t.Fatalf("plain run counted %+v", c)
		}
	}

	lossyOpts.Parallel = 1
	solo, err := Run("fig3", goldenScale, lossyOpts)
	if err != nil {
		t.Fatal(err)
	}
	counts := map[string]int64{}
	for _, c := range lossy.Metrics.Counters {
		counts[c.Component+" "+c.Stage] += c.Value
	}
	for _, k := range []string{"nic doorbells", "fabric drops", "nic/rel retransmits"} {
		if counts[k] == 0 {
			t.Errorf("lossy run counted no %s", k)
		}
	}
	if !reflect.DeepEqual(lossy.Metrics.Counters, solo.Metrics.Counters) {
		var a, b bytes.Buffer
		telemetry.Snapshot{Counters: solo.Metrics.Counters}.Render(&a)
		telemetry.Snapshot{Counters: lossy.Metrics.Counters}.Render(&b)
		t.Fatalf("concurrent run's counters differ from the solo run's\n%s", diffHint(a.Bytes(), b.Bytes()))
	}
}
