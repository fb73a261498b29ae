package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestFlagValidation covers the bad-flag paths: every invalid combination
// must exit 2 with a diagnostic on stderr before any experiment runs.
func TestFlagValidation(t *testing.T) {
	cases := []struct {
		name string
		args []string
		want string
	}{
		{"scale zero", []string{"-exp", "fig1", "-scale", "0"}, "-scale must be in (0,1]"},
		{"scale negative", []string{"-exp", "fig1", "-scale", "-0.5"}, "-scale must be in (0,1]"},
		{"scale above one", []string{"-exp", "fig1", "-scale", "1.5"}, "-scale must be in (0,1]"},
		{"scale NaN", []string{"-exp", "fig1", "-scale", "NaN"}, "-scale must be in (0,1]"},
		{"unknown format", []string{"-exp", "fig1", "-format", "yaml"}, `unknown -format "yaml"`},
		{"bad faults plan", []string{"-exp", "fig1", "-faults", "bogus"}, "rdmabench"},
		{"negative engine workers", []string{"-exp", "fig1", "-engine-workers", "-2"}, "engine workers must be >= 0 (0 = serial), got -2"},
		{"negative parallel", []string{"-exp", "fig1", "-parallel", "-3"}, "parallel must be >= 0"},
		{"unknown conn mode", []string{"-exp", "qpsweep", "-conn-modes", "per-conn,bogus"}, `unknown connection mode "bogus"`},
		{"negative qp pool", []string{"-exp", "qpsweep", "-qp-pool", "-8"}, "QP pool must be >= 0 (0 = 64)"},
		{"malformed flap spec", []string{"-exp", "availability", "-fault-flap", "2000"}, "is not down/period"},
		{"flap down not a number", []string{"-exp", "availability", "-fault-flap", "x/25000"}, "flap down"},
		{"flap down >= period", []string{"-exp", "availability", "-fault-flap", "25000/25000"}, "needs 0 < down < period"},
		{"unknown recovery mode", []string{"-exp", "availability", "-recovery-modes", "none,bogus"}, `unknown recovery mode "bogus"`},
		{"bad crash spec", []string{"-exp", "fig1", "-faults", "seed=1,crash=0@5"}, "rdmabench"},
		{"malformed adaptive spec", []string{"-exp", "adaptive", "-adaptive", "epoch"}, "is not key=value"},
		{"adaptive value not a number", []string{"-exp", "adaptive", "-adaptive", "epoch=fast"}, `adaptive epoch="fast"`},
		{"adaptive value not positive", []string{"-exp", "adaptive", "-adaptive", "dwell=0"}, "must be positive"},
		{"unknown adaptive key", []string{"-exp", "adaptive", "-adaptive", "cadence=5"}, `unknown adaptive key "cadence"`},
		{"txn conflict not a number", []string{"-exp", "txn", "-txn-conflicts", "0,hot"}, `conflict share "hot"`},
		{"txn conflict above 100", []string{"-exp", "txn", "-txn-conflicts", "0,150"}, "outside [0,100]"},
		{"txn conflicts not ascending", []string{"-exp", "txn", "-txn-conflicts", "50,50"}, "strictly ascending"},
		{"unknown flag", []string{"-bogus"}, "flag provided but not defined"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var stdout, stderr bytes.Buffer
			if code := run(tc.args, &stdout, &stderr); code != 2 {
				t.Fatalf("exit code = %d, want 2 (stderr: %s)", code, stderr.String())
			}
			if !strings.Contains(stderr.String(), tc.want) {
				t.Fatalf("stderr %q missing %q", stderr.String(), tc.want)
			}
			if strings.Contains(stdout.String(), "==") {
				t.Fatal("experiment output produced despite invalid flags")
			}
		})
	}
}

func TestListSmoke(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-list"}, &stdout, &stderr); code != 0 {
		t.Fatalf("exit code = %d, stderr: %s", code, stderr.String())
	}
	for _, id := range []string{"fig1", "breakdown", "ycsb"} {
		if !strings.Contains(stdout.String(), id) {
			t.Fatalf("-list output missing %q:\n%s", id, stdout.String())
		}
	}
	// No -exp and no -list is a usage error.
	if code := run(nil, &stdout, &stderr); code != 2 {
		t.Fatalf("bare invocation exit code = %d, want 2", code)
	}
}

func TestUnknownExperimentExitsOne(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-exp", "nope"}, &stdout, &stderr); code != 1 {
		t.Fatalf("exit code = %d, want 1", code)
	}
	if !strings.Contains(stderr.String(), "unknown experiment") {
		t.Fatalf("stderr: %s", stderr.String())
	}
}

// TestEngineWorkersOutputIdentity: the sharded kernel's CLI-level contract —
// the rendered report is byte-identical whether the engine runs serial (0
// and 1 both mean serial) or on 4 workers (host-timing progress lines
// stripped).
func TestEngineWorkersOutputIdentity(t *testing.T) {
	render := func(workers string) string {
		var stdout, stderr bytes.Buffer
		code := run([]string{"-exp", "engine", "-scale", "0.02", "-engine-workers", workers}, &stdout, &stderr)
		if code != 0 {
			t.Fatalf("exit code = %d, stderr: %s", code, stderr.String())
		}
		var lines []string
		for _, l := range strings.Split(stdout.String(), "\n") {
			if strings.Contains(l, "completed in") { // wall-clock, legitimately varies
				continue
			}
			lines = append(lines, l)
		}
		return strings.Join(lines, "\n")
	}
	serial, parallel := render("1"), render("4")
	if zero := render("0"); zero != serial {
		t.Fatalf("-engine-workers 0 is not serial:\nzero:\n%s\nserial:\n%s", zero, serial)
	}
	if serial != parallel {
		t.Fatalf("-engine-workers changed rendered output:\nserial:\n%s\nworkers=4:\n%s", serial, parallel)
	}
	if !strings.Contains(serial, "== engine ==") {
		t.Fatalf("missing engine report:\n%s", serial)
	}
}

// TestFaultsSummaryLines pins the -faults summary lines. Each block of
// testdata/faults_lines.txt is one invocation: its arguments, then the
// faults: and reliability: lines it must print, at any sweep width.
func TestFaultsSummaryLines(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("testdata", "faults_lines.txt"))
	if err != nil {
		t.Fatal(err)
	}
	for _, block := range strings.Split(strings.TrimSpace(string(data)), "\n\n") {
		args, want, _ := strings.Cut(block, "\n")
		for _, width := range []string{"1", "4"} {
			var stdout, stderr bytes.Buffer
			if code := run(append(strings.Fields(args), "-parallel", width), &stdout, &stderr); code != 0 {
				t.Fatalf("%s: exit code = %d, stderr: %s", args, code, stderr.String())
			}
			var got []string
			for _, l := range strings.Split(stdout.String(), "\n") {
				if strings.HasPrefix(l, "faults: ") || strings.HasPrefix(l, "reliability: ") {
					got = append(got, l)
				}
			}
			if g := strings.Join(got, "\n"); g != want {
				t.Errorf("%s -parallel %s:\ngot:\n%s\nwant:\n%s", args, width, g, want)
			}
		}
	}
}

// TestConnModesSmoke runs qpsweep restricted to the shared-QP modes with a
// narrow pool: the report must carry only the requested lines.
func TestConnModesSmoke(t *testing.T) {
	var stdout, stderr bytes.Buffer
	code := run([]string{"-exp", "qpsweep", "-scale", "0.02", "-conn-modes", "pool,proxy", "-qp-pool", "8"}, &stdout, &stderr)
	if code != 0 {
		t.Fatalf("exit code = %d, stderr: %s", code, stderr.String())
	}
	out := stdout.String()
	for _, want := range []string{"== qpsweep ==", "pool", "proxy"} {
		if !strings.Contains(out, want) {
			t.Fatalf("output missing %q:\n%s", want, out)
		}
	}
	if strings.Contains(out, "per-conn") || strings.Contains(out, "srq") {
		t.Fatalf("-conn-modes pool,proxy leaked excluded modes into output:\n%s", out)
	}
}

// TestAvailabilityKnobsSmoke runs the availability chaos sweep restricted to
// one recovery mode and one flap point: the report must carry only the
// requested line.
func TestAvailabilityKnobsSmoke(t *testing.T) {
	var stdout, stderr bytes.Buffer
	code := run([]string{"-exp", "availability", "-scale", "0.02",
		"-recovery-modes", "reconnect+remap", "-fault-flap", "6000/25000"}, &stdout, &stderr)
	if code != 0 {
		t.Fatalf("exit code = %d, stderr: %s", code, stderr.String())
	}
	out := stdout.String()
	for _, want := range []string{"== availability ==", "reconnect+remap", "time-to-recovery"} {
		if !strings.Contains(out, want) {
			t.Fatalf("output missing %q:\n%s", want, out)
		}
	}
	if strings.Contains(out, "\nnone ") {
		t.Fatalf("-recovery-modes leaked the excluded none mode into the table:\n%s", out)
	}
}

// TestAdaptiveKnobSmoke runs the adaptive experiment end to end with an
// explicit controller spec.
func TestAdaptiveKnobSmoke(t *testing.T) {
	var stdout, stderr bytes.Buffer
	code := run([]string{"-exp", "adaptive", "-scale", "0.02",
		"-adaptive", "epoch=20000,confirm=2,dwell=2,depth=16"}, &stdout, &stderr)
	if code != 0 {
		t.Fatalf("exit code = %d, stderr: %s", code, stderr.String())
	}
	out := stdout.String()
	for _, want := range []string{"== adaptive ==", "static-doorbell", "Controller decisions", "phases"} {
		if !strings.Contains(out, want) {
			t.Fatalf("output missing %q:\n%s", want, out)
		}
	}
}

// TestTxnKnobSmoke runs the transactional-KV conflict sweep end to end with
// a restricted conflict schedule.
func TestTxnKnobSmoke(t *testing.T) {
	var stdout, stderr bytes.Buffer
	code := run([]string{"-exp", "txn", "-scale", "0.02",
		"-txn-conflicts", "0,100"}, &stdout, &stderr)
	if code != 0 {
		t.Fatalf("exit code = %d, stderr: %s", code, stderr.String())
	}
	out := stdout.String()
	for _, want := range []string{"== txn ==", "lossless", "lossy", "abort rate vs conflict share", "Conflict share 100%"} {
		if !strings.Contains(out, want) {
			t.Fatalf("output missing %q:\n%s", want, out)
		}
	}
	if strings.Contains(out, "\n25 ") || strings.Contains(out, "\n50 ") {
		t.Fatalf("-txn-conflicts 0,100 leaked excluded sweep points into output:\n%s", out)
	}
}

// TestMetricsAndTimelineSmoke drives the full -metrics and -timeline paths
// in-process: the summary must follow the report, and the trace file must be
// valid Chrome trace JSON.
func TestMetricsAndTimelineSmoke(t *testing.T) {
	trace := filepath.Join(t.TempDir(), "trace.json")
	var stdout, stderr bytes.Buffer
	code := run([]string{"-exp", "breakdown", "-scale", "0.02", "-metrics", "-timeline", trace}, &stdout, &stderr)
	if code != 0 {
		t.Fatalf("exit code = %d, stderr: %s", code, stderr.String())
	}
	out := stdout.String()
	for _, want := range []string{"== breakdown ==", "stage histograms", "verbs/WRITE", "counters", "timeline:"} {
		if !strings.Contains(out, want) {
			t.Fatalf("output missing %q:\n%s", want, out)
		}
	}
	data, err := os.ReadFile(trace)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		DisplayTimeUnit string `json:"displayTimeUnit"`
		TraceEvents     []struct {
			Ph string `json:"ph"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatalf("trace not valid JSON: %v", err)
	}
	var complete int
	for _, e := range doc.TraceEvents {
		if e.Ph == "X" {
			complete++
		}
	}
	if doc.DisplayTimeUnit != "ns" || complete == 0 {
		t.Fatalf("trace malformed: unit=%q complete=%d", doc.DisplayTimeUnit, complete)
	}
}
