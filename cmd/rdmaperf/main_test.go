package main

import (
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"slices"
	"testing"
	"time"
)

// repoRoot is the repository root as seen from this package's directory,
// which go test runs in.
const repoRoot = "../.."

func TestVtimeParsesMetricsSample(t *testing.T) {
	// rdmabench -exp txn -scale 0.02 -metrics: lossless and lossy arms, so
	// the sample has reliability, fabric and txn counters.
	b, err := os.ReadFile(filepath.Join("testdata", "txn-metrics.txt"))
	if err != nil {
		t.Fatal(err)
	}
	v := newVtime()
	if err := v.add(string(b)); err != nil {
		t.Fatal(err)
	}
	got := map[string]float64{}
	var names []string
	for _, m := range v.metrics() {
		got[m.Name] = m.Value
		names = append(names, m.Name)
	}
	if len(names) != 10+3*len(queues) || len(got) != len(names) {
		t.Fatalf("got %d metrics (%d distinct), want %d", len(names), len(got), 10+3*len(queues))
	}
	// Expected values summed from the sample's rows independently.
	for name, want := range map[string]float64{
		"verbs.ops":                        3762,
		"rnic.doorbells":                   3762,
		"rnic.wqes_per_doorbell":           1,
		"rnic.xlate_miss_ratio":            502.0 / (502 + 7046),
		"verbs.retransmits":                11,
		"fabric.drop_ratio":                11.0 / 3714,
		"txn.abort_ratio":                  92.0 / (92 + 432),
		"verbs.qp_pipeline.service_p50_ns": 880286.0 / 3762,
		"fabric.tx.wait_p99_ns":            0,
		"proxy.ipc.wait_p50_ns":            0,
	} {
		if got[name] != want {
			t.Errorf("%s = %v, want %v", name, got[name], want)
		}
	}
}

func TestVtimeRejectsOutputWithoutTelemetry(t *testing.T) {
	if err := newVtime().add("== fig8 ==\n(fig8 completed in 1ms)\n\n"); err == nil {
		t.Fatal("want an error for output without stage histograms")
	}
	bad := "# stage histograms (ns) — x\nmachine component stage count p50 p90 p99 max\nm0 qp/pipeline wait 1 x 2 3 4\n"
	if err := newVtime().add(bad); err == nil {
		t.Fatal("want an error for a malformed histogram row")
	}
}

func TestStripTimingAndReportSection(t *testing.T) {
	report := "== fig8 ==\ntheta  IO consolidation\n0      4.695\n"
	out := report + "(fig8 completed in 17ms)\n\n"
	if got := stripTiming(out); got != report {
		t.Fatalf("stripTiming = %q, want %q", got, report)
	}
	metrics := report + "# stage histograms (ns) — fig8\nmachine ...\n(fig8 completed in 20ms)\n\n"
	if got := reportSection(stripTiming(metrics)); got != report {
		t.Fatalf("reportSection = %q, want %q", got, report)
	}
}

func TestSummarize(t *testing.T) {
	for _, tc := range []struct {
		xs            []float64
		med, min, max float64
	}{
		{[]float64{3}, 3, 3, 3},
		{[]float64{5, 1, 3}, 3, 1, 5},
		{[]float64{4, 1, 3, 2}, 2.5, 1, 4},
	} {
		s := summarize("x", "s", tc.xs)
		if s.Median != tc.med || s.Min != tc.min || s.Max != tc.max {
			t.Errorf("summarize(%v) = %+v, want median %v min %v max %v", tc.xs, s, tc.med, tc.min, tc.max)
		}
	}
}

func TestFlagValidation(t *testing.T) {
	for _, args := range [][]string{
		{"-workload", "bogus"},
		{},
		{"-workload", "micro", "-seed", "0"},
		{"-workload", "micro", "-seconds", "0"},
		{"-workload", "micro", "-trace", "2"},
		{"-workload", "micro", "extra"},
		{"-nosuchflag"},
	} {
		if code := run(args, io.Discard, io.Discard); code != 2 {
			t.Errorf("run(%q) = %d, want 2", args, code)
		}
	}
}

// benchmarkSpec is the part of BENCHMARK.json the command must agree with.
type benchmarkSpec struct {
	Workloads []struct{ Name string }
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

func readSpec(t *testing.T) benchmarkSpec {
	t.Helper()
	b, err := os.ReadFile(filepath.Join(repoRoot, "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	return spec
}

func TestWorkloadsMatchBenchmarkJSON(t *testing.T) {
	var want []string
	for _, w := range readSpec(t).Workloads {
		want = append(want, w.Name)
	}
	var got []string
	for _, w := range workloads {
		got = append(got, w.name)
	}
	if !slices.Equal(got, want) {
		t.Fatalf("workloads %v, BENCHMARK.json lists %v", got, want)
	}
}

// smoke measures a one-invocation workload: fig8 at the golden scale.
func smoke(t *testing.T, trace bool) *result {
	t.Helper()
	root, err := filepath.Abs(repoRoot)
	if err != nil {
		t.Fatal(err)
	}
	bin, err := buildRdmabench(root)
	if err != nil {
		t.Fatal(err)
	}
	if err := checkExperiments(bin); err != nil {
		t.Fatal(err)
	}
	w := workload{name: "smoke", list: []invocation{{"fig8", goldenScale, false}}}
	cfg := config{root: root, bin: bin, seed: 1, seconds: time.Millisecond, trace: trace}
	res := measure(cfg, w, io.Discard)
	if res.Failed != 0 {
		t.Fatalf("%d failed checks: %v", res.Failed, res.Problems)
	}
	if res.Passes != minPasses {
		t.Fatalf("%d passes, want %d", res.Passes, minPasses)
	}
	return res
}

func TestSmokeEndToEnd(t *testing.T) {
	res := smoke(t, false)
	spec := readSpec(t)
	if len(res.EndToEnd) != len(spec.EndToEnd) {
		t.Fatalf("%d end-to-end metrics, BENCHMARK.json lists %d", len(res.EndToEnd), len(spec.EndToEnd))
	}
	for i, s := range res.EndToEnd {
		if want := spec.EndToEnd[i]; s.Name != want.Name || s.Unit != want.Unit {
			t.Errorf("metric %d is %s (%s), BENCHMARK.json says %s (%s)", i, s.Name, s.Unit, want.Name, want.Unit)
		}
		if !(s.Min > 0 && s.Min <= s.Median && s.Median <= s.Max) {
			t.Errorf("%s: want 0 < min <= median <= max, got %+v", s.Name, s)
		}
	}
	// One golden run, a warm-up, three passes and -list start-ups at the
	// four pass boundaries.
	if want := 1 + 1 + minPasses + setupPerBoundary*(minPasses+1); res.Attempted != want {
		t.Errorf("attempted %d invocations, want %d", res.Attempted, want)
	}
}

func TestSmokeTrace(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every experiment at the golden scale and every probe")
	}
	res := smoke(t, true)
	ms, errs := runProbes()
	if len(errs) > 0 {
		t.Fatal(errs)
	}
	got := map[string]string{}
	for _, m := range append(ms, res.PerLayer...) {
		got[m.Name] = m.Unit
	}
	spec := readSpec(t)
	if len(got) != len(spec.PerLayer) {
		t.Errorf("%d per-layer metrics, BENCHMARK.json lists %d", len(got), len(spec.PerLayer))
	}
	for _, m := range spec.PerLayer {
		if unit, ok := got[m.Name]; !ok || unit != m.Unit {
			t.Errorf("per-layer %s (%s): got unit %q, present %v", m.Name, m.Unit, unit, ok)
		}
	}
	if len(res.Spans) != res.Attempted {
		t.Errorf("%d spans for %d invocations", len(res.Spans), res.Attempted)
	}
	for _, m := range res.PerLayer {
		if m.Name == "verbs.ops" && m.Value == 0 {
			t.Error("verbs.ops is 0: the -metrics tables were not read")
		}
	}
}
