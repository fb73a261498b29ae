package bench

import (
	"bytes"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"rdmasem/internal/fabric"
	"rdmasem/internal/telemetry"
	"rdmasem/internal/verbs"
)

var updateGolden = flag.Bool("update", false, "rewrite the golden experiment outputs")

// goldenScale keeps the full multi-experiment sweep affordable in the test
// suite while still exercising every driver end to end.
const goldenScale = 0.02

// memoRuns memoizes the two golden-scale runs of each id that several
// checks read: the plain run (goldenReport) and the instrumented run
// (instrumentedReport). Each runs at most once per test binary.
var memoRuns sync.Map // memoKey -> *memoRun

type memoKey struct {
	id           string
	instrumented bool
}

type memoRun struct {
	once sync.Once
	rep  *Report
	err  error
}

// instrumentedTimeline is the one timeline every instrumented run records
// into.
var instrumentedTimeline = telemetry.NewTimeline(0)

// memoReport returns the memoized run of id. The report is shared: callers
// only read it.
func memoReport(t *testing.T, id string, instrumented bool) *Report {
	t.Helper()
	v, _ := memoRuns.LoadOrStore(memoKey{id, instrumented}, new(memoRun))
	m := v.(*memoRun)
	m.once.Do(func() {
		var opts Options
		if instrumented {
			opts = Options{Metrics: true, Timeline: instrumentedTimeline, Parallel: 1}
		}
		m.rep, m.err = Run(id, goldenScale, opts)
	})
	if m.err != nil {
		t.Fatalf("%s: %v", id, m.err)
	}
	return m.rep
}

// goldenReport returns Run(id, goldenScale, Options{}). The golden check,
// the counter half of the passivity check and the shape tests that read
// exactly that configuration share it.
func goldenReport(t *testing.T, id string) *Report { return memoReport(t, id, false) }

// instrumentedReport returns Run(id, goldenScale, Options{Metrics: true,
// Timeline: instrumentedTimeline, Parallel: 1}). The passivity check renders
// it, and the width check uses it as its narrow side.
func instrumentedReport(t *testing.T, id string) *Report { return memoReport(t, id, true) }

// TestGoldenOutputs locks every registered experiment's rendered output to a
// committed golden file. The simulation is deterministic, so any diff is a
// real behaviour change: either a bug, or an intentional model change that
// must be re-blessed with
//
//	go test ./internal/bench -run TestGoldenOutputs -update
//
// The goldens are rendered on a lossless fabric; together with the lossy
// acceptance tests this pins the reliability layer's zero-cost-when-disabled
// contract across the whole evaluation surface. Runs share no state, so the
// experiments run in parallel.
func TestGoldenOutputs(t *testing.T) {
	for _, id := range List() {
		t.Run(id, func(t *testing.T) {
			t.Parallel()
			rep := goldenReport(t, id)
			var buf bytes.Buffer
			rep.RenderFormat(&buf, "text")
			if buf.Len() == 0 {
				t.Fatal("experiment rendered nothing")
			}
			path := filepath.Join("testdata", "golden", id+".txt")
			if *updateGolden {
				if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("missing golden (run with -update to create): %v", err)
			}
			if !bytes.Equal(buf.Bytes(), want) {
				t.Fatalf("output diverged from %s\n%s", path, diffHint(want, buf.Bytes()))
			}
		})
	}
}

// TestEveryExperimentRunsUnderFaults runs the whole sweep on a lossy fabric:
// every driver must survive dropped segments (retransmitting, remapping or
// reporting the loss), never abort the run.
//
// Under the harsh plan (20% loss) some QPs run out of retries. Each
// experiment then either finishes or returns the QP's error, naming the
// experiment and the sweep point; none may panic. fig12 and qpsweep must
// take the error branch, so the check cannot pass vacuously.
func TestEveryExperimentRunsUnderFaults(t *testing.T) {
	if testing.Short() {
		t.Skip("full lossy sweep")
	}
	sweep := func(t *testing.T, spec string, check func(t *testing.T, id string, err error)) {
		plan, err := fabric.ParseFaultPlan(spec)
		if err != nil {
			t.Fatal(err)
		}
		opts := Options{Faults: plan}
		for _, id := range List() {
			t.Run(id, func(t *testing.T) {
				t.Parallel()
				_, err := Run(id, goldenScale, opts)
				check(t, id, err)
			})
		}
	}
	sweep(t, "seed=1,drop=0.01", func(t *testing.T, _ string, err error) {
		if err != nil {
			t.Fatalf("run: %v", err)
		}
	})
	const harsh = "seed=3,drop=0.2"
	mustFail := map[string]bool{"fig12": true, "qpsweep": true}
	t.Run(harsh, func(t *testing.T) {
		sweep(t, harsh, func(t *testing.T, id string, err error) {
			switch {
			case err == nil && mustFail[id]:
				t.Fatal("finished; the error branch went unexercised")
			case err == nil:
			case !errors.Is(err, verbs.ErrQPError) || !strings.Contains(err.Error(), "bench: "+id+": point "):
				t.Fatalf("want a QP error naming the experiment and point, got: %v", err)
			}
		})
	})
}

// diffHint locates the first differing line so a golden failure is readable
// without an external diff tool.
func diffHint(want, got []byte) string {
	wl := bytes.Split(want, []byte("\n"))
	gl := bytes.Split(got, []byte("\n"))
	n := len(wl)
	if len(gl) < n {
		n = len(gl)
	}
	for i := 0; i < n; i++ {
		if !bytes.Equal(wl[i], gl[i]) {
			return fmt.Sprintf("first diff at line %d:\n  golden: %s\n  got:    %s", i+1, wl[i], gl[i])
		}
	}
	return fmt.Sprintf("line count changed: golden %d, got %d", len(wl), len(gl))
}
