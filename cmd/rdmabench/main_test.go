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
		{"engine workers above one", []string{"-exp", "fig1", "-engine-workers", "4"}, "-engine-workers must be 0 or 1, got 4: runs are serial; use -parallel"},
		{"negative engine workers", []string{"-exp", "fig1", "-engine-workers", "-1"}, "-engine-workers must be 0 or 1, got -1: runs are serial; use -parallel"},
		{"negative parallel", []string{"-exp", "fig1", "-parallel", "-3"}, "parallel must be >= 0"},
		{"bad crash spec", []string{"-exp", "fig1", "-faults", "seed=1,crash=0@5"}, "rdmabench"},
		{"unknown flag", []string{"-bogus"}, "flag provided but not defined"},
		{"per-experiment sweep flag", []string{"-exp", "qpsweep", "-conn-modes", "x"}, "flag provided but not defined"},
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

// TestFailedPostExitsOne: at 20% loss a fig12 QP runs out of retries. The
// run exits 1 with an error that names the experiment, the sweep point and
// the QP's failure, and nothing panics.
func TestFailedPostExitsOne(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-exp", "fig12", "-scale", "0.02", "-faults", "seed=3,drop=0.2"}, &stdout, &stderr); code != 1 {
		t.Fatalf("exit code = %d, want 1", code)
	}
	msg := stderr.String()
	for _, want := range []string{"fig12", "point ", "queue pair is in error state"} {
		if !strings.Contains(msg, want) {
			t.Fatalf("stderr lacks %q: %s", want, msg)
		}
	}
	if strings.Contains(msg, "panicked") {
		t.Fatalf("stderr reports a panic: %s", msg)
	}
}

// TestSerialCompatFlag: -engine-workers survives only as a compatibility
// name for callers that pass 1 (or 0). Either renders exactly the bytes of
// a run without the flag (host-timing progress lines stripped); the values
// that would ask for parallel dispatch are rejected in TestFlagValidation.
func TestSerialCompatFlag(t *testing.T) {
	render := func(extra ...string) string {
		var stdout, stderr bytes.Buffer
		code := run(append([]string{"-exp", "table1", "-scale", "0.02"}, extra...), &stdout, &stderr)
		if code != 0 {
			t.Fatalf("%v: exit code = %d, stderr: %s", extra, code, stderr.String())
		}
		var lines []string
		for _, l := range strings.Split(stdout.String(), "\n") {
			if !strings.Contains(l, "completed in") { // wall-clock, legitimately varies
				lines = append(lines, l)
			}
		}
		return strings.Join(lines, "\n")
	}
	want := render()
	if !strings.Contains(want, "== table1 ==") {
		t.Fatalf("missing table1 report:\n%s", want)
	}
	for _, workers := range []string{"0", "1"} {
		if got := render("-engine-workers", workers); got != want {
			t.Fatalf("-engine-workers %s changed rendered output:\n%s\nwant:\n%s", workers, got, want)
		}
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
