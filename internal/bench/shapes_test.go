package bench

import (
	"encoding/csv"
	"strconv"
	"strings"
	"testing"

	"rdmasem/internal/stats"
	"rdmasem/internal/verbs"
)

// These tests pin the headline claim of each experiment as a regression
// test: the exact values come from EXPERIMENTS.md, the tolerances leave room
// for scale-dependent noise while still catching any change that breaks the
// paper-reproduction shape. Runs share no state, so every shape test
// runs in parallel with the others. A test that reads the plain golden-scale
// run takes it from goldenReport instead of running it again.

func mustRun(t *testing.T, id string, scale float64) *Report {
	t.Helper()
	r, err := Run(id, scale, Options{})
	if err != nil {
		t.Fatalf("%s: %v", id, err)
	}
	return r
}

// series finds a figure's series by label. Unlike Figure.Line it never
// appends a missing one, so it is safe on a report that tests share.
func series(t *testing.T, r *Report, figIdx int, label string) *stats.Series {
	t.Helper()
	for _, s := range r.Figures[figIdx].Series {
		if s.Label == label {
			return s
		}
	}
	t.Fatalf("%s: figure %d has no series %q", r.ID, figIdx, label)
	return nil
}

func yAt(t *testing.T, r *Report, figIdx int, label string, x float64) float64 {
	t.Helper()
	y, ok := series(t, r, figIdx, label).YAt(x)
	if !ok {
		t.Fatalf("%s: series %q has no point at x=%v", r.ID, label, x)
	}
	return y
}

func TestFig3Shape(t *testing.T) {
	t.Parallel()
	r := mustRun(t, "fig3", 0.1)
	// Flat below 128B for every strategy.
	for _, label := range []string{"SP-size-4", "SGL-size-4", "Doorbell-size-4"} {
		small := yAt(t, r, 0, label, 1)
		mid := yAt(t, r, 0, label, 128)
		if mid < small*0.8 {
			t.Errorf("%s should stay flat to 128B: %v -> %v", label, small, mid)
		}
	}
	// SP >= SGL > Doorbell at batch 16, small payloads.
	sp := yAt(t, r, 0, "SP-size-16", 32)
	sgl := yAt(t, r, 0, "SGL-size-16", 32)
	db := yAt(t, r, 0, "Doorbell-size-16", 32)
	if !(sp >= sgl && sgl > db) {
		t.Errorf("ordering SP(%v) >= SGL(%v) > Doorbell(%v) violated", sp, sgl, db)
	}
	// SGL declines with payload size (the small-range caveat of Table I).
	if yAt(t, r, 0, "SGL-size-16", 1024) > yAt(t, r, 0, "SGL-size-16", 32)*0.6 {
		t.Error("SGL should degrade seriously with payload size")
	}
}

func TestFig5Shape(t *testing.T) {
	t.Parallel()
	r := mustRun(t, "fig5", 0.1)
	// Doorbell per-thread throughput collapses with threads; SP/SGL barely.
	db1 := yAt(t, r, 0, "Doorbell (batch size=4)", 1)
	db8 := yAt(t, r, 0, "Doorbell (batch size=4)", 8)
	if db8 > db1*0.5 {
		t.Errorf("Doorbell should lose >=50%% per-thread from 1 to 8: %v -> %v", db1, db8)
	}
	sp1 := yAt(t, r, 0, "SP (batch size=4)", 1)
	sp8 := yAt(t, r, 0, "SP (batch size=4)", 8)
	if sp8 < sp1*0.6 {
		t.Errorf("SP should hold most per-thread throughput: %v -> %v", sp1, sp8)
	}
}

func TestFig6Shape(t *testing.T) {
	t.Parallel()
	r := mustRun(t, "fig6", 0.1)
	// WRITE: seq-seq ~2x rand-rand at small payloads (paper: >2x).
	ss := yAt(t, r, 1, "write-seq-seq", 32)
	rr := yAt(t, r, 1, "write-rand-rand", 32)
	if ratio := ss / rr; ratio < 1.7 || ratio > 2.6 {
		t.Errorf("write seq/rand ratio %.2f, want ~2", ratio)
	}
	// READ asymmetry smaller than WRITE's.
	rs := yAt(t, r, 0, "read-seq-seq", 32)
	rrr := yAt(t, r, 0, "read-rand-rand", 32)
	if rs/rrr >= ss/rr {
		t.Errorf("read asymmetry (%.2f) should be below write's (%.2f)", rs/rrr, ss/rr)
	}
	// Bandwidth saturation flattens all patterns at 8KB.
	if big := yAt(t, r, 1, "write-seq-seq", 8192) / yAt(t, r, 1, "write-rand-rand", 8192); big > 1.1 {
		t.Errorf("at 8KB all patterns should converge, ratio %.2f", big)
	}
}

func TestFig6dShape(t *testing.T) {
	t.Parallel()
	r := mustRun(t, "fig6d", 0.1)
	// Below the 4MB cache coverage rand ~= seq; beyond, a clear gap.
	at4k := yAt(t, r, 0, "seq-seq", 4096) / yAt(t, r, 0, "rand-rand", 4096)
	at256m := yAt(t, r, 0, "seq-seq", 268435456) / yAt(t, r, 0, "rand-rand", 268435456)
	if at4k > 1.15 {
		t.Errorf("4KB region: rand should match seq, ratio %.2f", at4k)
	}
	if at256m < 1.5 {
		t.Errorf("256MB region: rand should lag seq clearly, ratio %.2f", at256m)
	}
}

func TestFig10aShape(t *testing.T) {
	t.Parallel()
	r := mustRun(t, "fig10a", 0.15)
	local1 := yAt(t, r, 0, "Local", 1)
	local14 := yAt(t, r, 0, "Local", 14)
	if local14 > local1*0.02 {
		t.Errorf("local lock should collapse to ~1%%: %v -> %v", local1, local14)
	}
	remote14 := yAt(t, r, 0, "Remote", 14)
	rpc14 := yAt(t, r, 0, "RPC-based", 14)
	if remote14 <= rpc14 {
		t.Errorf("remote (%v) should beat RPC (%v) at 14 threads", remote14, rpc14)
	}
	// Remote converges near the paper's 0.31 MOPS.
	remote8 := yAt(t, r, 0, "Remote", 8)
	if remote8 < 0.2 || remote8 > 0.5 {
		t.Errorf("remote at 8 threads %.3f MOPS, paper converges at ~0.31", remote8)
	}
	// Remote retains far more of its peak than local.
	if remote14/yAt(t, r, 0, "Remote", 1) < 10*(local14/local1) {
		t.Error("remote should retain vastly more of its peak than local")
	}
}

func TestFig10bShape(t *testing.T) {
	t.Parallel()
	r := mustRun(t, "fig10b", 0.15)
	remote := yAt(t, r, 0, "Remote Sequencer", 8)
	rpc := yAt(t, r, 0, "RPC Sequencer", 8)
	if ratio := remote / rpc; ratio < 1.5 || ratio > 2.6 {
		t.Errorf("remote/RPC sequencer ratio %.2f, paper: 1.87-2.25", ratio)
	}
	// Remote is stable across thread counts.
	if yAt(t, r, 0, "Remote Sequencer", 16) < remote*0.95 {
		t.Error("remote sequencer should stay flat")
	}
	// The atomic unit bounds it near 2.4 MOPS.
	if remote < 2.2 || remote > 2.6 {
		t.Errorf("remote sequencer %.2f MOPS, want ~2.44", remote)
	}
	// Local degrades under the coherence storm.
	if yAt(t, r, 0, "Local Sequencer", 16) > yAt(t, r, 0, "Local Sequencer", 1)*0.05 {
		t.Error("local sequencer should degrade strongly")
	}
	// The UD RPC variant beats the RC RPC one at low thread counts.
	if yAt(t, r, 0, "UD RPC Sequencer", 2) <= yAt(t, r, 0, "RPC Sequencer", 2) {
		t.Error("UD RPC should outrun RC RPC before the server CPU saturates")
	}
}

func TestFig12Shape(t *testing.T) {
	t.Parallel()
	r := mustRun(t, "fig12", 0.1)
	basic := r.Figures[0].Line("Basic HashTable").MaxY()
	numa := r.Figures[0].Line("+Numa-OPT").MaxY()
	r16 := r.Figures[0].Line("+Reorder-OPT (th=16)").MaxY()
	if numa <= basic*1.05 {
		t.Errorf("NUMA (%v) should beat basic (%v)", numa, basic)
	}
	if gain := r16 / basic; gain < 1.85 || gain > 4.0 {
		t.Errorf("full-stack gain %.2fx, paper: 1.85-2.70x", gain)
	}
	// The theta=16 peak lands in the paper's ~24 MOPS neighborhood.
	if r16 < 15 || r16 > 32 {
		t.Errorf("reorder peak %.1f MOPS, paper peaks at 24.4", r16)
	}
}

func TestFig13Shape(t *testing.T) {
	t.Parallel()
	r := mustRun(t, "fig13", 0.1)
	// 13a: throughput declines as the hot proportion shrinks, modestly.
	hi, _ := r.Figures[0].Line("Consolidation-OPT").YAt(4)
	lo, _ := r.Figures[0].Line("Consolidation-OPT").YAt(32)
	if lo >= hi {
		t.Errorf("throughput should drop as hot set shrinks: 1/4=%v 1/32=%v", hi, lo)
	}
	if lo < hi*0.5 {
		t.Errorf("the drop should be modest (paper: ~6 of ~18 MOPS): %v -> %v", hi, lo)
	}
	// 13b: sublinear growth in theta.
	t1, _ := r.Figures[1].Line("Consolidation-OPT").YAt(1)
	t4, _ := r.Figures[1].Line("Consolidation-OPT").YAt(4)
	t16, _ := r.Figures[1].Line("Consolidation-OPT").YAt(16)
	if !(t16 > t4 && t4 > t1) {
		t.Error("throughput must grow with theta")
	}
	if t16/t4 >= t4/t1 {
		t.Error("growth should be sublinear (increments fall off)")
	}
}

func TestFig15Shape(t *testing.T) {
	t.Parallel()
	r := mustRun(t, "fig15", 0.1)
	basic := yAt(t, r, 0, "Basic Shuffle", 16)
	sgl16 := yAt(t, r, 0, "+SGL(Batch=16)", 16)
	sp16 := yAt(t, r, 0, "+SP(Batch=16)", 16)
	if sgl16 < 4*basic {
		t.Errorf("SGL-16 gain %.1fx, paper: 4.8x", sgl16/basic)
	}
	if sp16 <= sgl16 {
		t.Errorf("SP (%v) should edge out SGL (%v)", sp16, sgl16)
	}
	// Near-linear scaling of the batched variants with executors.
	if yAt(t, r, 0, "+SP(Batch=16)", 16) < 1.6*yAt(t, r, 0, "+SP(Batch=16)", 8) {
		t.Error("SP-16 should scale near-linearly in executors")
	}
}

func TestFig16Shape(t *testing.T) {
	t.Parallel()
	r := goldenReport(t, "fig16")
	// Batching shortens the join; NUMA awareness shortens it further.
	b1 := yAt(t, r, 0, "(NUMA Affinity) th=4", 1)
	b32 := yAt(t, r, 0, "(NUMA Affinity) th=4", 32)
	if b32 >= b1*0.8 {
		t.Errorf("batch 32 (%vms) should cut well below batch 1 (%vms)", b32, b1)
	}
	n1 := yAt(t, r, 0, "th=4", 1)
	if b1 >= n1 {
		t.Errorf("NUMA-aware (%vms) should beat oblivious (%vms)", b1, n1)
	}
	// 16b: lambda=16 within ~30% of ideal at 16 executors.
	got := yAt(t, r, 1, "lambda=16", 16)
	ideal := yAt(t, r, 1, "ideal", 16)
	if got < ideal*0.7 {
		t.Errorf("lambda=16 at 16 executors %.2f vs ideal %.2f: too far (paper: within 22%%)", got, ideal)
	}
}

func TestFig17Shape(t *testing.T) {
	t.Parallel()
	r := goldenReport(t, "fig17")
	xs := []float64{}
	for _, p := range series(t, r, 0, "Single Machine").Points {
		xs = append(xs, p.X)
	}
	// Full stack beats single machine by the paper's ballpark at every scale.
	for _, x := range xs {
		single := yAt(t, r, 0, "Single Machine", x)
		full := yAt(t, r, 0, "th=16,lam=16", x)
		if single/full < 4 {
			t.Errorf("at %v tuples: speedup %.1fx, want >= 4x (paper: 5.3x)", x, single/full)
		}
	}
	// And the naive distributed config sits in between.
	naive := yAt(t, r, 0, "th=4,lam=1 w/o NUMA", xs[0])
	single := yAt(t, r, 0, "Single Machine", xs[0])
	full := yAt(t, r, 0, "th=16,lam=16", xs[0])
	if !(full < naive && naive < single) {
		t.Error("config ordering violated")
	}
}

func TestFig18Shape(t *testing.T) {
	t.Parallel()
	r := mustRun(t, "fig18", 0.1)
	sp64, _ := r.Figures[0].Line("SP").YAt(64)
	sgl64, _ := r.Figures[0].Line("SGL").YAt(64)
	sp4k, _ := r.Figures[0].Line("SP").YAt(4096)
	sgl4k, _ := r.Figures[0].Line("SGL").YAt(4096)
	if sgl64 >= sp64 {
		t.Errorf("SGL should never cost more CPU than SP (64B: %v vs %v)", sgl64, sp64)
	}
	saving := 1 - sgl4k/sp4k
	if saving < 0.5 {
		t.Errorf("SGL CPU saving at 4096B = %.0f%%, paper: 67%%", saving*100)
	}
	if (1 - sgl64/sp64) > saving {
		t.Error("the saving must grow with entry size")
	}
}

func TestFig19Shape(t *testing.T) {
	t.Parallel()
	r := mustRun(t, "fig19", 0.1)
	b1, _ := r.Figures[0].Line("7 TX engines").YAt(1)
	b32, _ := r.Figures[0].Line("7 TX engines").YAt(32)
	if gain := b32 / b1; gain < 6 || gain > 13 {
		t.Errorf("7-engine batch gain %.1fx, paper: 9.1x", gain)
	}
	// Batch-1 throughput is pinned by the atomic unit.
	if b1 < 2.0 || b1 > 2.6 {
		t.Errorf("batch-1 7-engine throughput %.2f MOPS, want ~2.4 (FAA-bound)", b1)
	}
	// NUMA staging helps at large batches for 7 engines.
	w32, _ := r.Figures[0].Line("7 TX engines (*)").YAt(32)
	if b32 < w32 {
		t.Errorf("NUMA-aware (%v) should not lose to oblivious (%v)", b32, w32)
	}
}

func TestMRScaleShape(t *testing.T) {
	t.Parallel()
	r := mustRun(t, "mrscale", 1)
	if len(r.Tables) != 1 {
		t.Fatal("mrscale renders one table")
	}
}

func TestQPScaleShape(t *testing.T) {
	t.Parallel()
	r := mustRun(t, "qpscale", 0.2)
	at40 := yAt(t, r, 0, "aggregate", 40)
	at120 := yAt(t, r, 0, "aggregate", 120)
	drop := 1 - at120/at40
	if drop < 0.3 || drop > 0.7 {
		t.Errorf("40->120 clients drop %.0f%%, paper: ~50%%", drop*100)
	}
}

func TestQPSweepShape(t *testing.T) {
	t.Parallel()
	r := goldenReport(t, "qpsweep")
	counts := []float64{100, 1000, 5000, 10000, 20000}
	// Per-connection QP-context hit rate is monotone non-increasing once the
	// connection count passes the 8192-entry cache; past the cliff it is
	// near zero (epsilon absorbs the handful of residual warm hits).
	const eps = 0.02
	prev := yAt(t, r, 1, "per-conn", counts[0])
	for _, x := range counts[1:] {
		cur := yAt(t, r, 1, "per-conn", x)
		if cur > prev+eps {
			t.Errorf("per-conn hit rate rose %v -> %v at %v connections", prev, cur, x)
		}
		prev = cur
	}
	if cliff := yAt(t, r, 1, "per-conn", 20000); cliff > 0.1 {
		t.Errorf("per-conn hit rate at 20k = %.2f, want near zero (context thrash)", cliff)
	}
	if pool := yAt(t, r, 1, "pool", 20000); pool < 0.9 {
		t.Errorf("pool hit rate at 20k = %.2f, want near one (bounded working set)", pool)
	}
	// The throughput cliff: per-conn falls off past the cache, the shared
	// pool dominates everywhere beyond it and recovers >= 2x at the top.
	below := yAt(t, r, 0, "per-conn", 5000)
	at20k := yAt(t, r, 0, "per-conn", 20000)
	if at20k > below*0.6 {
		t.Errorf("per-conn should cliff past 10k connections: %v -> %v", below, at20k)
	}
	for _, x := range []float64{10000, 20000} {
		pc := yAt(t, r, 0, "per-conn", x)
		pool := yAt(t, r, 0, "pool", x)
		if pool <= pc {
			t.Errorf("at %v connections pool (%v) must dominate per-conn (%v)", x, pool, pc)
		}
	}
	if rec := yAt(t, r, 0, "pool", 20000) / yAt(t, r, 0, "per-conn", 20000); rec < 2 {
		t.Errorf("pool recovery at 20k = %.2fx, want >= 2x", rec)
	}
	if rec := yAt(t, r, 0, "proxy", 20000) / yAt(t, r, 0, "per-conn", 20000); rec < 2 {
		t.Errorf("proxy recovery at 20k = %.2fx, want >= 2x", rec)
	}
	// An SRQ pools buffers, not contexts: its curve tracks per-conn.
	for _, x := range counts {
		srq := yAt(t, r, 0, "srq", x)
		pc := yAt(t, r, 0, "per-conn", x)
		if srq < pc*0.9 || srq > pc*1.1 {
			t.Errorf("at %v connections srq (%v) should track per-conn (%v)", x, srq, pc)
		}
	}
}

func TestAvailabilityShape(t *testing.T) {
	t.Parallel()
	r := goldenReport(t, "availability")
	duties := []float64{8, 24, 48}
	// At the mildest flap nothing dies: all three modes match.
	base := yAt(t, r, 0, "none", duties[0])
	for _, mode := range []string{"reconnect", "reconnect+remap"} {
		if y := yAt(t, r, 0, mode, duties[0]); y != base {
			t.Errorf("at 8%% downtime %s goodput %v != none %v (recovery must be free when nothing fails)", mode, y, base)
		}
	}
	// The acceptance claim: reconnect+remap recovers >= 2x the no-recovery
	// goodput at the highest flap intensity (in practice far more — the
	// unprotected pool bleeds out entirely).
	none := yAt(t, r, 0, "none", duties[len(duties)-1])
	remap := yAt(t, r, 0, "reconnect+remap", duties[len(duties)-1])
	if remap < 2*none {
		t.Errorf("reconnect+remap at 48%% downtime = %v, want >= 2x none (%v)", remap, none)
	}
	// Remap dominates bare reconnect (victim conns keep flowing on the
	// survivors instead of waiting for the walk), which dominates nothing.
	reconnect := yAt(t, r, 0, "reconnect", duties[len(duties)-1])
	if !(remap > reconnect && reconnect > none) {
		t.Errorf("ordering remap(%v) > reconnect(%v) > none(%v) violated", remap, reconnect, none)
	}
	// TTR: remapped recovery completes much faster than waiting out the
	// reconnect walk; no-recovery never recovers anything.
	for _, d := range duties[1:] {
		if y := yAt(t, r, 1, "none", d); y != 0 {
			t.Errorf("none mode reported a TTR (%v) at %v%% downtime", y, d)
		}
		if rc, rm := yAt(t, r, 1, "reconnect", d), yAt(t, r, 1, "reconnect+remap", d); rm >= rc {
			t.Errorf("at %v%% downtime p99 TTR remap (%v) should beat reconnect (%v)", d, rm, rc)
		}
	}
}

func TestYCSBShape(t *testing.T) {
	t.Parallel()
	r := mustRun(t, "ycsb", 0.1)
	// Consolidation leads at every read fraction; plain NUMA declines as
	// reads (which pay the full READ round trip) take over.
	for _, pct := range []float64{0, 50, 95} {
		numa := yAt(t, r, 0, "+numa", pct)
		reorder := yAt(t, r, 0, "+reorder", pct)
		if reorder <= numa {
			t.Errorf("at %v%% reads: reorder (%v) should lead numa (%v)", pct, reorder, numa)
		}
	}
	if yAt(t, r, 0, "+numa", 95) >= yAt(t, r, 0, "+numa", 0) {
		t.Error("plain NUMA should slow as the read fraction grows")
	}
}

func TestAblationShapes(t *testing.T) {
	t.Parallel()
	r := mustRun(t, "ablation-xlate", 0.2)
	lo := yAt(t, r, 0, "rand-rand", 0)
	hi := yAt(t, r, 0, "rand-rand", 16384)
	if hi < lo*1.5 {
		t.Errorf("covering cache should lift random throughput: %v -> %v", lo, hi)
	}
	r = mustRun(t, "ablation-qpi", 1)
	small := yAt(t, r, 0, "write", 35)
	big := yAt(t, r, 0, "write", 280)
	if big <= small {
		t.Error("placement penalty must grow with QPI hop cost")
	}
}

// TestBreakdownShape checks the paper's III-D decomposition on the table the
// report prints: each row's four terms sum to its total, the CQE term is the
// model's CQE cost, a cross-socket posting core inflates T(RNIC->Socket), and
// a cross-socket target inflates T(Socket->Memory). breakdown ignores the
// scale, so the golden-scale run serves.
func TestBreakdownShape(t *testing.T) {
	t.Parallel()
	r := goldenReport(t, "breakdown")
	if len(r.Tables) != 1 {
		t.Fatal("breakdown renders one table")
	}
	var csvText strings.Builder
	r.Tables[0].RenderCSV(&csvText)
	cells, err := csv.NewReader(strings.NewReader(csvText.String())).ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	// rows[label] = RNIC->Socket, Network, Socket->Memory, CQE, total.
	rows := map[string][5]int64{}
	for _, row := range cells[1:] {
		var v [5]int64
		for i := range v {
			if v[i], err = strconv.ParseInt(row[i+1], 10, 64); err != nil {
				t.Fatalf("%s: %v", row[0], err)
			}
		}
		if v[0]+v[1]+v[2]+v[3] != v[4] {
			t.Errorf("%s: terms %v do not sum to the total", row[0], v)
		}
		if v[3] != int64(verbs.CQECost) {
			t.Errorf("%s: CQE term %d, want %d", row[0], v[3], int64(verbs.CQECost))
		}
		rows[row[0]] = v
	}
	matched, ok := rows["own core, own mem, matched remote"]
	if !ok || len(rows) != 4 {
		t.Fatalf("want the four placements of Table III, got %v", rows)
	}
	for _, alt := range []string{"alt core, own mem", "alt everything"} {
		if rows[alt][0] <= matched[0] {
			t.Errorf("%s: RNIC->Socket %d does not exceed the matched row's %d", alt, rows[alt][0], matched[0])
		}
	}
	if alt := rows["alt everything"]; alt[2] <= matched[2] {
		t.Errorf("alt everything: Socket->Memory %d does not exceed the matched row's %d", alt[2], matched[2])
	}
}

func TestTable1Shape(t *testing.T) {
	t.Parallel()
	r := mustRun(t, "table1", 0.1)
	if len(r.Tables) != 1 {
		t.Fatal("table1 renders one table")
	}
}

func TestAdaptiveShape(t *testing.T) {
	t.Parallel()
	r := mustRun(t, "adaptive", 0.05)
	statics := []string{"static-sp", "static-doorbell", "static-sgl", "static-cons"}
	best := func(w int) float64 {
		b := 0.0
		for _, s := range statics {
			if y := yAt(t, r, 0, s, float64(w)); y > b {
				b = y
			}
		}
		return b
	}
	// Steady workloads: adaptive converges to within ~5% of the best
	// static plan despite paying for its probe epochs.
	for w, name := range adaptiveWorkloads[:3] {
		ad, bs := yAt(t, r, 0, "adaptive", float64(w)), best(w)
		if ad < bs*0.95 {
			t.Errorf("%s: adaptive %.3f < 95%% of best static %.3f", name, ad, bs)
		}
	}
	// The phase-changing workload: every static pin is wrong for at least
	// one phase, so adaptive must strictly beat all of them.
	ad, bs := yAt(t, r, 0, "adaptive", 3), best(3)
	if ad <= bs {
		t.Errorf("phases: adaptive %.3f must beat best static %.3f", ad, bs)
	}
}

func TestTxnShape(t *testing.T) {
	t.Parallel()
	r := mustRun(t, "txn", 0.05)
	pcts := txnConflictShares
	for _, mode := range txnModes {
		// Abort rate climbs monotonically with the conflict share, and the
		// hot end actually aborts.
		prev := -1.0
		for _, pct := range pcts {
			y := yAt(t, r, 1, mode, float64(pct))
			if y < prev {
				t.Errorf("%s: abort rate fell %.2f%% -> %.2f%% at %d%% conflicts", mode, prev, y, pct)
			}
			prev = y
		}
		if first, last := yAt(t, r, 1, mode, float64(pcts[0])), prev; last <= first {
			t.Errorf("%s: abort rate flat across the sweep (%.2f%% -> %.2f%%)", mode, first, last)
		}
		// Conflicts cost committed throughput.
		if hot, cold := yAt(t, r, 0, mode, float64(pcts[len(pcts)-1])), yAt(t, r, 0, mode, float64(pcts[0])); hot >= cold {
			t.Errorf("%s: committed throughput did not fall under conflicts (%.3f -> %.3f)", mode, cold, hot)
		}
	}
	// Retransmission latency can only hurt: lossy never beats lossless.
	for _, pct := range pcts {
		ll, ly := yAt(t, r, 0, "lossless", float64(pct)), yAt(t, r, 0, "lossy", float64(pct))
		if ly > ll {
			t.Errorf("lossy %.3f MTPS beats lossless %.3f at %d%% conflicts", ly, ll, pct)
		}
	}
}
