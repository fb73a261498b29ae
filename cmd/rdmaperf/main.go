// Command rdmaperf measures the simulator's host cost: how much CPU, wall
// time and memory cmd/rdmabench takes to regenerate a fixed list of
// experiments, and, in a separate trace run, where that cost goes layer by
// layer. Run it from the repository root:
//
//	bash cmd/rdmaperf/run.sh --workload micro --seed 1 --seconds 20 --trace 0
//	bash cmd/rdmaperf/run.sh --workload all --trace 1 --json out.json
//
// It builds rdmabench once, then for each workload runs the golden checks,
// one untimed warm-up pass and timed passes over the workload's invocation
// list (shuffled by the seed) until the measurement time is spent, with at
// least three passes. Children run one at a time with -parallel 1
// -engine-workers 1 and are timed by their wait4 rusage. Times are
// converted to reference-host seconds (hostspeed.go). Each end-to-end
// metric is the median over the passes.
//
// Every child's output is checked: it must exit 0, repeat byte for byte
// across passes once the wall-clock progress line is stripped, match its
// report with telemetry on and off, and, at the golden scale, match the
// repository's golden file. The last line of standard output is one JSON
// object with the check counts and the metrics. See README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"time"
)

const (
	minPasses = 3
	// setupPerBoundary is how many rdmabench -list start-ups are timed
	// before and after every timed pass; setup_s is their median.
	setupPerBoundary = 16
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// metric is one named value.
type metric struct {
	Name  string  `json:"name"`
	Unit  string  `json:"unit"`
	Value float64 `json:"value"`
}

// stat is one end-to-end metric over the samples of a run.
type stat struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Median float64 `json:"median"`
	Min    float64 `json:"min"`
	Max    float64 `json:"max"`
}

func summarize(name, unit string, xs []float64) stat {
	s := slices.Clone(xs)
	slices.Sort(s)
	n := len(s)
	med := s[n/2]
	if n%2 == 0 {
		med = (s[n/2-1] + s[n/2]) / 2
	}
	return stat{Name: name, Unit: unit, Median: med, Min: s[0], Max: s[n-1]}
}

// span is one child process of a run.
type span struct {
	Phase string  `json:"phase"` // setup, golden, warmup or pass<N>
	Exp   string  `json:"exp,omitempty"`
	Start float64 `json:"start_s"` // since the workload's run began
	End   float64 `json:"end_s"`
	CPU   float64 `json:"cpu_s"` // measured, not converted
}

// result is everything one workload's run measured.
type result struct {
	Workload    string   `json:"workload"`
	Passes      int      `json:"passes"`
	Invocations int      `json:"invocations_per_pass"`
	Attempted   int      `json:"attempted"`
	Failed      int      `json:"failed"`
	Problems    []string `json:"problems,omitempty"`
	EndToEnd    []stat   `json:"end_to_end"`
	Speed       stat     `json:"host_speed"` // per timed child: refCPU0 / reference-loop CPU
	PerLayer    []metric `json:"per_layer,omitempty"`
	Spans       []span   `json:"spans,omitempty"`
}

// runner runs the children of one workload, recording spans and checks. It
// runs the reference loop after every timed child, so that each child's
// times convert to reference-host seconds with the host speed measured on
// either side of it.
type runner struct {
	bin    string
	t0     time.Time
	trace  bool
	stderr io.Writer
	res    *result
	ref    float64   // CPU seconds of the latest reference-loop run
	speeds []float64 // conversion factor of every timed child
}

// child runs one rdmabench invocation; a non-zero exit is a failed check.
func (r *runner) child(phase, exp string, args []string) child {
	c := runChild(r.bin, args)
	r.res.Attempted++
	if r.trace {
		r.res.Spans = append(r.res.Spans, span{
			Phase: phase, Exp: exp,
			Start: c.start.Sub(r.t0).Seconds(), End: c.end.Sub(r.t0).Seconds(), CPU: c.cpu.Seconds(),
		})
	}
	if c.err != nil {
		r.fail("%v", c.err)
	}
	return c
}

// timed runs one child, then the reference loop, and returns the child
// with the factor that converts its times to reference-host seconds:
// refCPU0 over the mean of the reference-loop runs before and after it.
func (r *runner) timed(phase, exp string, args []string) (child, float64) {
	c := r.child(phase, exp, args)
	next := refCPU()
	speed := 2 * refCPU0 / (r.ref + next)
	r.ref = next
	r.speeds = append(r.speeds, speed)
	return c, speed
}

func (r *runner) fail(format string, args ...any) {
	msg := fmt.Sprintf(format, args...)
	r.res.Failed++
	r.res.Problems = append(r.res.Problems, msg)
	fmt.Fprintf(r.stderr, "rdmaperf: %s: FAIL %s\n", r.res.Workload, msg)
}

// pass is one run over a workload's invocation list. Times are in
// reference-host seconds; out holds each invocation's output with the
// wall-clock line stripped, or "" where the child failed.
type pass struct {
	cpu, wall, rssMB float64
	expCPU           map[string]float64
	out              []string
}

// pass runs the workload's invocations once, in the given order, with or
// without -metrics.
func (r *runner) pass(phase string, w workload, seed int64, order []int, metrics bool) pass {
	p := pass{expCPU: map[string]float64{}, out: make([]string, len(w.list))}
	for _, i := range order {
		inv := w.list[i]
		c, speed := r.timed(phase, inv.exp, childArgs(inv, seed, metrics))
		cpu := c.cpu.Seconds() * speed
		p.cpu += cpu
		p.wall += c.end.Sub(c.start).Seconds() * speed
		p.expCPU[inv.exp] += cpu
		p.rssMB = max(p.rssMB, float64(c.rssKB)/1024)
		if c.err == nil {
			p.out[i] = stripTiming(c.out)
		}
	}
	return p
}

// setup times setupPerBoundary rdmabench -list start-ups, in
// reference-host seconds.
func (r *runner) setup() []float64 {
	var xs []float64
	for i := 0; i < setupPerBoundary; i++ {
		c := r.child("setup", "", []string{"-list"})
		xs = append(xs, c.end.Sub(c.start).Seconds()*refCPU0/r.ref)
	}
	return xs
}

// goldens runs each experiment at the golden scale, checks its report
// against internal/bench/testdata/golden, and returns each child's CPU.
func (r *runner) goldens(root string, ids []string) map[string]float64 {
	cpu := map[string]float64{}
	for _, id := range ids {
		c, speed := r.timed("golden", id, []string{"-exp", id, "-scale", strconv.FormatFloat(goldenScale, 'g', -1, 64),
			"-parallel", "1", "-engine-workers", "1"})
		cpu[id] = c.cpu.Seconds() * speed
		if c.err != nil {
			continue
		}
		path := filepath.Join(root, "internal", "bench", "testdata", "golden", id+".txt")
		want, err := os.ReadFile(path)
		switch {
		case err != nil:
			r.fail("golden %s: %v", id, err)
		case stripTiming(c.out) != string(want):
			r.fail("golden %s: output differs from %s", id, path)
		}
	}
	return cpu
}

type config struct {
	root, bin string
	seed      int64
	seconds   time.Duration
	trace     bool
}

// measure runs one workload end to end and returns its result.
func measure(cfg config, w workload, stderr io.Writer) *result {
	res := &result{Workload: w.name, Invocations: len(w.list)}
	r := &runner{bin: cfg.bin, t0: time.Now(), trace: cfg.trace, stderr: stderr, res: res, ref: refCPU()}

	// The trace run checks every experiment of every workload, so that
	// each bench.<exp>.cpu_s has a value.
	ids := experiments([]workload{w})
	if cfg.trace {
		ids = experiments(workloads)
	}
	goldenCPU := r.goldens(cfg.root, ids)

	// The warm-up pass flips -metrics: its reports must match the timed
	// passes' (telemetry is passive), and one of the two supplies the
	// -metrics tables.
	shuffle := rand.New(rand.NewSource(cfg.seed))
	warm := r.pass("warmup", w, cfg.seed, shuffle.Perm(len(w.list)), !w.metrics)

	// Timed passes, with set-up samples before the first and after each.
	setup := r.setup()
	var first []string
	var passes []pass
	start := time.Now()
	for {
		// Stop once another pass of average length would overrun.
		if n := len(passes); n >= minPasses {
			if elapsed := time.Since(start); elapsed+elapsed/time.Duration(n) > cfg.seconds {
				break
			}
		}
		p := r.pass(fmt.Sprintf("pass%d", len(passes)), w, cfg.seed, shuffle.Perm(len(w.list)), w.metrics)
		setup = append(setup, r.setup()...)
		for i, out := range p.out {
			inv := w.list[i]
			switch {
			case out == "":
			case first == nil:
				plain, traced := out, warm.out[i]
				if w.metrics {
					plain, traced = traced, plain
				}
				if plain != "" && traced != "" && reportSection(traced) != plain {
					r.fail("%s: report differs with -metrics on and off", inv.exp)
				}
			case first[i] != "" && out != first[i]:
				r.fail("%s: output differs between passes", inv.exp)
			}
		}
		if first == nil {
			first = p.out
		}
		p.out = nil
		passes = append(passes, p)
	}
	res.Passes = len(passes)

	metricsOut := warm.out
	if w.metrics {
		metricsOut = first
	}
	vt := newVtime()
	for i, out := range metricsOut {
		if out == "" {
			continue
		}
		if err := vt.add(out); err != nil {
			r.fail("%s -metrics: %v", w.list[i].exp, err)
		}
	}

	var cpu, wall, rss, opsPerCPU []float64
	for _, p := range passes {
		cpu = append(cpu, p.cpu)
		wall = append(wall, p.wall)
		rss = append(rss, p.rssMB)
		opsPerCPU = append(opsPerCPU, ratioF(float64(vt.ops), p.cpu))
	}
	res.EndToEnd = []stat{
		summarize("cpu_s", "s", cpu),
		summarize("wall_s", "s", wall),
		summarize("sim_ops_per_cpu_s", "ops/s", opsPerCPU),
		summarize("peak_rss_mb", "MB", rss),
		summarize("setup_s", "s", setup),
	}
	res.Speed = summarize("host_speed", "x", r.speeds)

	if cfg.trace {
		untraced, traced := res.EndToEnd[0].Median, warm.cpu
		if w.metrics {
			untraced, traced = traced, untraced
		}
		res.PerLayer = append(res.PerLayer, metric{"telemetry.traced_cpu_x", "x", ratioF(traced, untraced)})
		res.PerLayer = append(res.PerLayer, vt.metrics()...)
		for _, id := range experiments(workloads) {
			v := goldenCPU[id]
			if _, ok := passes[0].expCPU[id]; ok {
				var xs []float64
				for _, p := range passes {
					xs = append(xs, p.expCPU[id])
				}
				v = summarize("", "", xs).Median
			}
			res.PerLayer = append(res.PerLayer, metric{"bench." + id + ".cpu_s", "s", v})
		}
	}
	return res
}

func ratioF(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("rdmaperf", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to measure: "+workloadNames()+", or all")
	seed := fs.Int64("seed", 1, "shuffles the invocation order of each pass; lossy's fault-plan seed (> 0)")
	seconds := fs.Int("seconds", 20, "measurement time per workload, in seconds (>= 1); at least 3 passes run")
	trace := fs.Int("trace", 0, "1 = per-layer run: report per-layer metrics instead of end-to-end ones")
	jsonOut := fs.String("json", "", "also write the full report, with every child's span, to this file")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	var ws []workload
	if *name == "all" {
		ws = workloads
	} else if w, ok := findWorkload(*name); ok {
		ws = []workload{w}
	}
	switch {
	case fs.NArg() > 0:
		fmt.Fprintf(stderr, "rdmaperf: unexpected arguments %q\n", fs.Args())
		return 2
	case len(ws) == 0:
		fmt.Fprintf(stderr, "rdmaperf: unknown -workload %q (want %s, or all)\n", *name, workloadNames())
		return 2
	case *seed <= 0:
		fmt.Fprintf(stderr, "rdmaperf: -seed must be positive, got %d\n", *seed)
		return 2
	case *seconds < 1:
		fmt.Fprintf(stderr, "rdmaperf: -seconds must be >= 1, got %d\n", *seconds)
		return 2
	case *trace != 0 && *trace != 1:
		fmt.Fprintf(stderr, "rdmaperf: -trace must be 0 or 1, got %d\n", *trace)
		return 2
	}

	root, err := os.Getwd()
	if err != nil {
		fmt.Fprintf(stderr, "rdmaperf: %v\n", err)
		return 1
	}
	bin, err := buildRdmabench(root)
	if err != nil {
		fmt.Fprintf(stderr, "rdmaperf: %v\n", err)
		return 1
	}
	if err := checkExperiments(bin); err != nil {
		fmt.Fprintf(stderr, "rdmaperf: %v\n", err)
		return 1
	}

	cfg := config{root: root, bin: bin, seed: *seed, seconds: time.Duration(*seconds) * time.Second, trace: *trace == 1}
	var results []*result
	for _, w := range ws {
		results = append(results, measure(cfg, w, stderr))
	}
	if cfg.trace {
		// Probes run in this process after the last child has exited, and
		// are the same for every workload.
		ms, errs := runProbes()
		for _, res := range results {
			res.PerLayer = append(slices.Clone(ms), res.PerLayer...)
			res.Attempted += len(probes)
			for _, err := range errs {
				res.Failed++
				res.Problems = append(res.Problems, err.Error())
			}
		}
	}
	for _, res := range results {
		printResult(stdout, res, cfg.trace)
	}
	if *jsonOut != "" {
		if err := writeReport(*jsonOut, cfg, results); err != nil {
			fmt.Fprintf(stderr, "rdmaperf: %v\n", err)
			return 1
		}
	}
	line := summaryLine(results, cfg.trace)
	b, err := json.Marshal(line)
	if err != nil {
		fmt.Fprintf(stderr, "rdmaperf: %v\n", err)
		return 1
	}
	fmt.Fprintln(stdout, string(b))
	if !line.Correct {
		return 1
	}
	return 0
}

func workloadNames() string {
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	return strings.Join(names, ", ")
}

// buildRdmabench builds cmd/rdmabench into .bench_build under root.
func buildRdmabench(root string) (string, error) {
	if _, err := os.Stat(filepath.Join(root, "cmd", "rdmabench")); err != nil {
		return "", fmt.Errorf("run from the repository root: %v", err)
	}
	bin := filepath.Join(root, ".bench_build", "rdmabench")
	cmd := exec.Command("go", "build", "-o", bin, "./cmd/rdmabench")
	cmd.Dir = root
	if out, err := cmd.CombinedOutput(); err != nil {
		return "", fmt.Errorf("building rdmabench: %v\n%s", err, out)
	}
	return bin, nil
}

// checkExperiments fails when an experiment id of any workload is missing
// from rdmabench -list, so a renamed experiment cannot silently shrink a
// workload.
func checkExperiments(bin string) error {
	out, err := exec.Command(bin, "-list").Output()
	if err != nil {
		return fmt.Errorf("rdmabench -list: %v", err)
	}
	listed := map[string]bool{}
	for _, f := range strings.Fields(string(out)) {
		listed[f] = true
	}
	var missing []string
	for _, id := range experiments(workloads) {
		if !listed[id] {
			missing = append(missing, id)
		}
	}
	if len(missing) > 0 {
		return fmt.Errorf("experiments %v are not in rdmabench -list", missing)
	}
	return nil
}

func printResult(w io.Writer, res *result, trace bool) {
	fmt.Fprintf(w, "workload %s: %d timed passes of %d invocations\n", res.Workload, res.Passes, res.Invocations)
	if !trace {
		fmt.Fprintf(w, "  %-20s %-6s %14s %14s %14s\n", "metric", "unit", "median", "min", "max")
		for _, s := range res.EndToEnd {
			fmt.Fprintf(w, "  %-20s %-6s %14.6g %14.6g %14.6g\n", s.Name, s.Unit, s.Median, s.Min, s.Max)
		}
	} else {
		fmt.Fprintf(w, "  %-36s %-8s %14s\n", "per-layer metric", "unit", "value")
		for _, m := range res.PerLayer {
			fmt.Fprintf(w, "  %-36s %-8s %14.6g\n", m.Name, m.Unit, m.Value)
		}
	}
	fmt.Fprintf(w, "  %-20s %-6s %14.6g %14.6g %14.6g (reference-loop speed: times are raw × this)\n",
		res.Speed.Name, res.Speed.Unit, res.Speed.Median, res.Speed.Min, res.Speed.Max)
	fmt.Fprintf(w, "  %-20s %-6s %14.6g (%d failed of %d attempted)\n",
		"fail_frac", "ratio", ratioF(float64(res.Failed), float64(res.Attempted)), res.Failed, res.Attempted)
}

type jsonValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type line struct {
	Correct   bool                 `json:"correct"`
	Attempted int                  `json:"attempted"`
	Failed    int                  `json:"failed"`
	Metrics   map[string]jsonValue `json:"metrics"`
}

// summaryLine is the closing JSON line: end-to-end medians, or per-layer
// values with trace. With several workloads, names get a "<workload>/"
// prefix.
func summaryLine(results []*result, trace bool) line {
	l := line{Metrics: map[string]jsonValue{}}
	for _, res := range results {
		l.Attempted += res.Attempted
		l.Failed += res.Failed
		prefix := ""
		if len(results) > 1 {
			prefix = res.Workload + "/"
		}
		if trace {
			for _, m := range res.PerLayer {
				l.Metrics[prefix+m.Name] = jsonValue{m.Value, m.Unit}
			}
		} else {
			for _, s := range res.EndToEnd {
				l.Metrics[prefix+s.Name] = jsonValue{s.Median, s.Unit}
			}
		}
	}
	l.Correct = l.Failed == 0
	return l
}

func writeReport(path string, cfg config, results []*result) error {
	b, err := json.MarshalIndent(struct {
		Seed      int64     `json:"seed"`
		Seconds   float64   `json:"seconds"`
		Trace     bool      `json:"trace"`
		Go        string    `json:"go"`
		CPUs      int       `json:"cpus"`
		Workloads []*result `json:"workloads"`
	}{cfg.seed, cfg.seconds.Seconds(), cfg.trace, runtime.Version(), runtime.NumCPU(), results}, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
