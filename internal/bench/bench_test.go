package bench

import (
	"errors"
	"slices"
	"strings"
	"testing"

	"rdmasem/internal/fabric"
)

// TestRegistryComplete checks every table and figure of the paper has a
// registered driver, plus the extension experiments.
func TestRegistryComplete(t *testing.T) {
	want := []string{
		"fig1", "fig3", "fig4", "fig5", "fig6", "fig6c", "fig6d", "fig8",
		"table2", "table3", "fig10a", "fig10b", "fig12", "fig13", "fig15",
		"fig16", "fig17", "fig18", "fig19",
		"mrscale", "qpscale", "ycsb",
		"ablation-xlate", "ablation-mmio", "ablation-qpi",
	}
	have := map[string]bool{}
	for _, id := range List() {
		have[id] = true
	}
	for _, id := range want {
		if !have[id] {
			t.Errorf("experiment %q not registered", id)
		}
	}
}

func TestRunValidation(t *testing.T) {
	if _, err := Run("no-such-exp", 1, Options{}); err == nil {
		t.Error("unknown experiment must fail")
	}
	if _, err := Run("fig1", 0, Options{}); err == nil {
		t.Error("zero scale must fail")
	}
	if _, err := Run("fig1", 2, Options{}); err == nil {
		t.Error("scale > 1 must fail")
	}
	// A negative width is a typed error; zero is the default (the zero
	// Options value is valid).
	var oe *OptionError
	if err := (Options{Parallel: -1}).Validate(); !errors.As(err, &oe) || oe.Value != -1 {
		t.Errorf("Parallel -1: err = %v, want an *OptionError for -1", err)
	}
	if err := (Options{}).Validate(); err != nil {
		t.Errorf("zero Options: %v", err)
	}
}

// FuzzRunOptions: for any experiment and fault plan, Validate returns nil or
// an error, and a valid run at scale 0.02 returns a report or an error, never
// a panic. The seeds cover a plain run, a harsh plan that exhausts a QP's
// retries, three extension experiments (two under loss) and a malformed
// plan.
func FuzzRunOptions(f *testing.F) {
	ids := List()
	add := func(id, plan string) { f.Add(uint8(slices.Index(ids, id)), plan) }
	add("fig1", "")
	add("fig12", "seed=3,drop=0.2")
	add("availability", "seed=1,drop=0.01")
	add("adaptive", "")
	add("txn", "seed=2,drop=0.05")
	add("fig3", "drop=2")
	f.Fuzz(func(t *testing.T, exp uint8, planSpec string) {
		var plan *fabric.FaultPlan // empty: lossless, as in rdmabench -faults
		if planSpec != "" {
			var err error
			if plan, err = fabric.ParseFaultPlan(planSpec); err != nil {
				return
			}
		}
		opts := Options{Faults: plan, Parallel: 1}
		if opts.Validate() != nil {
			return
		}
		rep, err := Run(ids[int(exp)%len(ids)], 0.02, opts)
		if (rep == nil) == (err == nil) {
			t.Fatalf("report %v with error %v: want exactly one", rep, err)
		}
	})
}

// The fast experiments run end to end at tiny scale and render something.
func TestFastExperimentsSmoke(t *testing.T) {
	fast := []string{"fig1", "fig4", "fig8", "table2", "fig6c", "ablation-mmio"}
	for _, id := range fast {
		r, err := Run(id, 0.05, Options{})
		if err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		var b strings.Builder
		r.RenderFormat(&b, "text")
		if len(b.String()) < 100 {
			t.Errorf("%s: suspiciously short output", id)
		}
	}
}

// Paper-shape assertions for the core microbenchmarks.

func TestFig1Shape(t *testing.T) {
	t.Parallel()
	r := mustRun(t, "fig1", 0.25)
	lat, thr := r.Figures[0], r.Figures[1]
	wl, _ := lat.Line("Write").YAt(32)
	rl, _ := lat.Line("Read").YAt(32)
	if wl < 0.9 || wl > 1.5 {
		t.Errorf("32B write latency %.2fus, want ~1.16", wl)
	}
	if rl < 1.7 || rl > 2.4 {
		t.Errorf("32B read latency %.2fus, want ~2.0", rl)
	}
	wt, _ := thr.Line("Write").YAt(32)
	rt, _ := thr.Line("Read").YAt(32)
	if wt < 4.2 || wt > 5.2 {
		t.Errorf("write throughput %.2f MOPS, want ~4.7", wt)
	}
	if rt < 3.7 || rt > 4.6 {
		t.Errorf("read throughput %.2f MOPS, want ~4.2", rt)
	}
	// The knee: 8KB throughput must be bandwidth-bound, far below peak.
	w8k, _ := thr.Line("Write").YAt(8192)
	if w8k > 1.0 {
		t.Errorf("8KB write %.2f MOPS, should be bandwidth-bound", w8k)
	}
}

func TestFig4Shape(t *testing.T) {
	t.Parallel()
	r := mustRun(t, "fig4", 0.25)
	fig := r.Figures[0]
	sp1, _ := fig.Line("SP").YAt(1)
	sp32, _ := fig.Line("SP").YAt(32)
	db1, _ := fig.Line("Doorbell").YAt(1)
	db32, _ := fig.Line("Doorbell").YAt(32)
	sgl32, _ := fig.Line("SGL").YAt(32)
	if sp32/sp1 < 5 {
		t.Errorf("SP should scale strongly with batch: %.2f -> %.2f", sp1, sp32)
	}
	if db32/db1 > 4.5 {
		t.Errorf("Doorbell gain %.1fx too large (paper: ~2.5x from 1 to 32)", db32/db1)
	}
	if !(sp32 >= sgl32 && sgl32 > db32) {
		t.Errorf("ordering SP(%.1f) >= SGL(%.1f) > Doorbell(%.1f) violated", sp32, sgl32, db32)
	}
}

func TestTable3Shape(t *testing.T) {
	t.Parallel()
	r := mustRun(t, "table3", 0.25)
	if len(r.Tables) != 1 {
		t.Fatal("table3 must render one table")
	}
	// The note carries the best/worst comparison; ensure the penalty shows.
	if len(r.Notes) == 0 || !strings.Contains(r.Notes[0], "vs") {
		t.Fatal("table3 note missing")
	}
}

func TestFig8Shape(t *testing.T) {
	t.Parallel()
	r := mustRun(t, "fig8", 0.25)
	line := r.Figures[0].Line("IO consolidation")
	native, _ := line.YAt(0)
	t16, _ := line.YAt(16)
	if gain := t16 / native; gain < 4 {
		t.Errorf("theta=16 gain %.2fx, want substantial (paper: 7.49x)", gain)
	}
}
