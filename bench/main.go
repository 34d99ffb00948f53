// Command bench is the repository benchmark: five named workloads driven
// through the public functions of the layers, end-to-end metrics measured
// with tracing off, per-layer metrics from a separate traced run, and
// output checks on every simulated result. See README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"
)

// config is one invocation's settings.
type config struct {
	seed    uint64
	seconds float64
	traced  bool
	outDir  string
	pins    map[string]pin
	faults  faults
}

// defaultSeed is the seed the pinned digests and quality references
// belong to.
const defaultSeed = 42

// A run sets up minSetUps times (cold, each into a fresh directory) and
// then, while all of them together have taken under a fifteenth of the
// run's timed seconds, up to maxSetUps times: millisecond set-ups need the
// repeats to give a steady median, second-long ones cannot afford them.
// setup_s is the median; the last set-up's inputs are the ones replayed.
const (
	minSetUps = 3
	maxSetUps = 9
)

func main() {
	var (
		name      = flag.String("workload", "all", "workload to run, or all")
		seed      = flag.Uint64("seed", defaultSeed, "seed every generated input derives from")
		seconds   = flag.Float64("seconds", 10, "how long the timed rounds of one workload run")
		traced    = flag.Int("trace", 0, "1 = traced run: per-layer metrics and span files")
		outDir    = flag.String("out", "out", "directory for generated traces and span files")
		selfcheck = flag.Bool("selfcheck", false, "run two sets of ten seeds per workload and compare them against BENCHMARK.json's bounds")
	)
	flag.Parse()
	// internal/lp logs a one-off warm-start notice; stdout and stderr
	// carry only the benchmark's own output.
	log.SetOutput(io.Discard)
	runtime.GOMAXPROCS(min(runtime.NumCPU(), 4))

	var selected []workload
	for _, w := range workloads() {
		if *name == "all" || *name == w.name {
			selected = append(selected, w)
		}
	}
	if len(selected) == 0 {
		fmt.Fprintf(os.Stderr, "bench: unknown workload %q\n", *name)
		os.Exit(2)
	}
	pins, err := loadPins()
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(2)
	}
	cfg := config{seed: *seed, seconds: *seconds, traced: *traced != 0, outDir: *outDir, pins: pins}
	printEnvironment()

	if *selfcheck {
		if err := selfCheck(selected, cfg); err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			os.Exit(1)
		}
		return
	}
	var outs []*outcome
	for _, w := range selected {
		o := w.run(cfg)
		o.print(os.Stdout)
		outs = append(outs, o)
	}
	os.Exit(exitCode(outs))
}

// exitCode is non-zero when any workload failed a check or an operation.
func exitCode(outs []*outcome) int {
	for _, o := range outs {
		if !o.Correct || o.Failed > 0 {
			return 1
		}
	}
	return 0
}

func printEnvironment() {
	fmt.Printf("# GOMAXPROCS %d of %d CPUs, %s, %s\n", runtime.GOMAXPROCS(0), runtime.NumCPU(), runtime.Version(), cpuModel())
}

func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown CPU"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown CPU"
}

// value is one metric in the result line.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// outcome is one workload's run: the result line's fields plus what the
// human-readable report prints above it.
type outcome struct {
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Metrics   map[string]value `json:"metrics"`

	workload string
	digest   string
	spread   map[string]summary
	notes    []string
	errs     []error
}

// print writes the report and, as its last line, the result object.
func (o *outcome) print(w io.Writer) {
	fmt.Fprintf(w, "## %s\n", o.workload)
	for _, defs := range [][]metric{endToEnd, perLayer} {
		for _, m := range defs {
			v, ok := o.Metrics[m.name]
			if !ok {
				continue
			}
			fmt.Fprintf(w, "%-30s %14.6g %-5s", m.name, v.Value, v.Unit)
			if s, ok := o.spread[m.name]; ok && s.n > 1 {
				fmt.Fprintf(w, "  min %.6g  max %.6g  n %d", s.min, s.max, s.n)
			}
			fmt.Fprintln(w)
		}
	}
	for _, n := range o.notes {
		fmt.Fprintln(w, "note:", n)
	}
	for _, err := range o.errs {
		fmt.Fprintln(w, "FAILED:", err)
	}
	frac := 0.0
	if o.Attempted > 0 {
		frac = float64(o.Failed) / float64(o.Attempted)
	}
	fmt.Fprintf(w, "failed_frac %g (%d of %d operations), checks %s\n", frac, o.Failed, o.Attempted,
		map[bool]string{true: "passed", false: "FAILED"}[o.Correct])
	line, _ := json.Marshal(o) // plain numbers and strings: cannot fail
	fmt.Fprintf(w, "%s\n", line)
}

// fail records a failed check.
func (o *outcome) fail(err error) {
	o.Correct = false
	o.errs = append(o.errs, err)
}

// set stores a metric from its per-round values: the median is the value.
// A value the result line could not carry fails the run.
func (o *outcome) set(name string, perRound []float64) {
	s := summarize(perRound)
	if math.IsNaN(s.median) || math.IsInf(s.median, 0) {
		o.Failed++
		o.fail(fmt.Errorf("%s: %s is %v", o.workload, name, s.median))
		s = summary{}
	}
	o.Metrics[name] = value{Value: s.median, Unit: unitOf(name)}
	o.spread[name] = s
}

func unitOf(name string) string {
	for _, defs := range [][]metric{endToEnd, perLayer} {
		for _, m := range defs {
			if m.name == name {
				return m.unit
			}
		}
	}
	return ""
}

// inputs is a workload set up: its generated inputs and what generating
// them cost.
type inputs struct {
	replay  []replayInput
	grid    gridInput
	dir     string    // holds the file-backed inputs; the caller removes it
	seconds []float64 // each cold set-up, reference seconds
}

// setUp generates the workload's inputs from the seed minSetUps times or
// more (see there), each time cold into a fresh directory, and keeps the
// last. One kernel-paced section spans all of them: millisecond set-ups
// share its speed factor, second-long ones each get their own samples.
func (w workload) setUp(cfg config) (inputs, error) {
	var in inputs
	if err := os.MkdirAll(cfg.outDir, 0o755); err != nil {
		return in, err
	}
	sec := beginSection()
	pc := sec.meter.pacer()
	pc.sample()
	began := time.Now()
	for i := 0; i < minSetUps || (i < maxSetUps && time.Since(began).Seconds() < cfg.seconds/15); i++ {
		os.RemoveAll(in.dir)
		var err error
		if in.dir, err = os.MkdirTemp(cfg.outDir, w.name+"-setup-"); err != nil {
			return in, err
		}
		start := time.Now()
		if w.replay != nil {
			in.replay, err = w.replay.setUp(in.dir, cfg.seed)
		} else {
			in.grid, err = w.grid.setUp(cfg.seed)
		}
		if err != nil {
			return in, err
		}
		in.seconds = append(in.seconds, time.Since(start).Seconds())
		pc.tick()
	}
	pc.sample()
	for i := range in.seconds {
		in.seconds[i] *= sec.meter.factor()
	}
	return in, nil
}

// run executes one workload: cold set-ups, timed rounds until cfg.seconds
// have passed (alternating untraced and traced rounds in a traced run),
// probes, output checks.
func (w workload) run(cfg config) *outcome {
	o := &outcome{Correct: true, Metrics: map[string]value{}, workload: w.name, spread: map[string]summary{}}

	in, err := w.setUp(cfg)
	defer os.RemoveAll(in.dir)
	if err != nil {
		o.fail(fmt.Errorf("%s: set-up: %w", w.name, err))
		o.Attempted, o.Failed = 1, 1
		return o
	}

	var passBuf []time.Duration
	if w.replay != nil {
		passBuf = make([]time.Duration, 0, w.replay.traces*(2*w.replay.jobs+64))
	}
	one := func(tr *tracer) round {
		if w.replay != nil {
			return w.replay.runRound(in.replay, passBuf, tr, cfg.faults)
		}
		return w.grid.runRound(in.grid, tr, cfg.faults)
	}

	var plain, traced []round
	var lastTracer *tracer
	start := time.Now()
	for {
		var rd round
		if cfg.traced && len(traced) < len(plain) {
			lastTracer = newTracer()
			rd = one(lastTracer)
			traced = append(traced, rd)
		} else {
			rd = one(nil)
			plain = append(plain, rd)
		}
		o.Attempted += rd.attempts
		o.Failed += len(rd.errs)
		for _, err := range rd.errs {
			o.fail(err)
		}
		// Always two rounds, so that determinism has something to compare
		// (in a traced run: one of each kind); then as many as the time
		// allows.
		enough := len(plain)+len(traced) >= 2
		elapsed := time.Since(start).Seconds()
		perRound := elapsed / float64(len(plain)+len(traced))
		if len(rd.errs) > 0 || (enough && elapsed+perRound > cfg.seconds) {
			break
		}
	}
	if o.Failed > 0 {
		return o
	}

	// Determinism: every round, traced or not, yields the same digest.
	digest := plain[0].digest
	o.digest = digest
	for i, rd := range append(plain[1:], traced...) {
		if rd.digest != digest {
			o.Failed++
			o.fail(fmt.Errorf("%s: round %d digest %s differs from the first round's %s", w.name, i+2, rd.digest, digest))
		}
	}
	if o.Failed == 0 {
		if err := checkPins(w.name, cfg, plain[0]); err != nil {
			o.Failed++
			o.fail(err)
		}
	}
	o.notes = append(o.notes, fmt.Sprintf("result digest %s (seed %d); %d untraced and %d traced rounds; machine speed factor %.3f",
		digest, cfg.seed, len(plain), len(traced), plain[len(plain)-1].factor))

	for _, rd := range plain {
		o.notes = append(o.notes, fmt.Sprintf("untraced round: %.3f wall s at machine speed %.3f = %.3f reference s", rd.raw, rd.factor, rd.wall))
	}
	if !cfg.traced {
		w.endToEnd(o, in.seconds, plain)
		return o
	}
	w.perLayer(o, cfg, in, plain, traced, lastTracer)
	return o
}

// endToEnd fills in the end-to-end metrics from the untraced rounds.
func (w workload) endToEnd(o *outcome, setupS []float64, rounds []round) {
	var jps, cpu, p50, heap, node, bb []float64
	for _, rd := range rounds {
		if len(rd.errs) > 0 || rd.jobs == 0 {
			continue
		}
		jps = append(jps, float64(rd.jobs)/rd.wall)
		cpu = append(cpu, 1000*rd.cpu/float64(rd.jobs))
		p50 = append(p50, rd.p50)
		heap = append(heap, float64(rd.peakHeap)/1e6)
		node, bb = append(node, rd.nodePct), append(bb, rd.bbPct)
	}
	o.set("setup_s", setupS)
	o.set("jobs_per_s", jps)
	o.set("cpu_s_per_kjob", cpu)
	o.set("decision_p50_ms", p50)
	o.set("peak_heap_mb", heap)
	o.set("node_usage_pct", node)
	o.set("bb_usage_pct", bb)
	if len(rounds) > 0 {
		o.notes = append(o.notes, fmt.Sprintf("decision percentiles over %d passes per round", rounds[0].passes))
	}
}

// perLayer fills in the per-layer metrics: each is the median over the
// traced rounds, plus the probes that run once, after the timed rounds.
func (w workload) perLayer(o *outcome, cfg config, in inputs, plain, traced []round, tr *tracer) {
	byName := map[string][]float64{}
	var plainWall, tracedWall []float64
	for _, rd := range plain {
		plainWall = append(plainWall, rd.wall)
	}
	for _, rd := range traced {
		tracedWall = append(tracedWall, rd.wall)
		for k, v := range rd.layers {
			byName[k] = append(byName[k], v)
		}
	}
	byName["trace.overhead_frac"] = []float64{median(tracedWall)/median(plainWall) - 1}

	probes := layerValues{}
	var err error
	if w.replay != nil {
		err = w.replay.probe(in.replay[0], traced[len(traced)-1].forms, probes)
	} else {
		var sweepWall []float64
		for _, rd := range append(plain, traced...) {
			sweepWall = append(sweepWall, rd.sweep.wall)
		}
		err = w.grid.probe(in.grid, median(sweepWall), probes)
	}
	if err != nil {
		o.Failed++
		o.fail(fmt.Errorf("%s: probes: %w", w.name, err))
	}
	for k, v := range probes {
		byName[k] = []float64{v}
	}
	for _, m := range perLayer {
		vals := byName[m.name]
		if len(vals) == 0 {
			vals = []float64{0}
		}
		o.set(m.name, vals)
	}
	if w.replay != nil {
		o.notes = append(o.notes, fmt.Sprintf("accounting residual %.2f%% of traced wall time", 100*o.Metrics["trace.residual_frac"].Value))
	}
	path := filepath.Join(cfg.outDir, w.name+".trace.jsonl")
	if err := tr.write(path); err != nil {
		o.Failed++
		o.fail(fmt.Errorf("%s: writing spans: %w", w.name, err))
	} else {
		o.notes = append(o.notes, fmt.Sprintf("%d spans of the last traced round in %s", len(tr.spans), path))
	}
}
