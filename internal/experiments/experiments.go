// Package experiments regenerates every table and figure of the paper's
// evaluation (§4, §5) on top of the simulator: workload matrix runs,
// solver-scaling and parameter-selection studies, wait-time breakdowns,
// Kiviat summaries, the window-size sensitivity table, the four-objective
// SSD case study, and the scheduling-overhead measurements.
//
// Each experiment renders a plain-text table whose rows correspond to the
// paper's plotted series, so paper-vs-measured comparisons (EXPERIMENTS.md)
// are one diff away.
package experiments

import (
	"context"
	"fmt"
	"runtime"
	"strings"

	"bbsched/internal/cluster"
	"bbsched/internal/core"
	"bbsched/internal/metrics"
	"bbsched/internal/moo"
	"bbsched/internal/registry"
	"bbsched/internal/sched"
	"bbsched/internal/sim"
	"bbsched/internal/trace"
)

// Options configures an experiment run. The zero value is unusable; start
// from Defaults().
type Options struct {
	// Jobs is the per-trace job count. The paper replays months of logs;
	// the default (400) keeps the full matrix regenerable in minutes while
	// preserving sustained queue contention.
	Jobs int
	// Seed drives workload generation and the solvers.
	Seed uint64
	// ScaleCori and ScaleTheta divide the machine sizes (see
	// trace.Scale); full-size runs set both to 1.
	ScaleCori, ScaleTheta int
	// GA is the solver configuration shared by all optimization methods.
	GA moo.GAConfig
	// Window and Starvation configure the scheduling window (§3.1).
	Window, Starvation int
	// Parallelism bounds concurrent simulation runs (0 = GOMAXPROCS).
	Parallelism int
}

// Defaults returns the paper's parameters on scaled systems.
func Defaults() Options {
	return Options{
		Jobs:       400,
		Seed:       42,
		ScaleCori:  64,
		ScaleTheta: 32,
		GA:         moo.DefaultGAConfig(),
		Window:     20,
		Starvation: 50,
	}
}

func (o Options) systems() (cori, theta trace.SystemModel) {
	return trace.Scale(trace.Cori(), o.ScaleCori), trace.Scale(trace.Theta(), o.ScaleTheta)
}

func (o Options) plugin() core.PluginConfig {
	return core.PluginConfig{WindowSize: o.Window, StarvationBound: o.Starvation}
}

func (o Options) parallelism() int {
	if o.Parallelism > 0 {
		return o.Parallelism
	}
	return runtime.GOMAXPROCS(0)
}

// buckets scales the paper's breakdown boundaries to a (possibly scaled)
// system: node-size bounds as machine fractions matching Theta's 8 / 128 /
// 1024 of 4392; burst-buffer bounds as fractions of the maximum request
// matching 100 TB / 200 TB of 285 TB.
func buckets(sys trace.SystemModel) metrics.Buckets {
	n := float64(sys.Cluster.Nodes)
	frac := func(f float64) int {
		v := int(f * n)
		if v < 1 {
			v = 1
		}
		return v
	}
	maxBB := float64(sys.MaxBBRequestGB)
	return metrics.Buckets{
		SizeBounds:    []int{frac(8.0 / 4392), frac(128.0 / 4392), frac(1024.0 / 4392)},
		BBBoundsGB:    []int64{int64(maxBB * 100 / 285), int64(maxBB * 200 / 285)},
		RuntimeBounds: []int64{3600, 4 * 3600, 12 * 3600},
	}
}

// Methods returns the eight §4.3 comparison methods in the paper's order,
// instantiated from the shared method registry (internal/registry) so the
// experiment roster and the CLI roster can never drift apart.
func Methods(ga moo.GAConfig) []sched.Method { return registry.Roster(ga, cluster.Config{}, false) }

// SSDMethods returns the seven §5 case-study methods, instantiated from
// the shared method registry.
func SSDMethods(ga moo.GAConfig) []sched.Method { return registry.Roster(ga, cluster.Config{}, true) }

// bbsched2 builds the concrete two-objective BBSched instance the solver
// and ablation studies mutate (trade-off factor, GA parameters).
func bbsched2(ga moo.GAConfig) *core.BBSched {
	b := core.New()
	b.GA = ga
	return b
}

// Matrix holds the full §4 (or §5) result grid.
type Matrix struct {
	// Workloads and MethodNames preserve presentation order.
	Workloads   []string
	MethodNames []string
	// Solvers names each method's optimization backend, aligned with
	// MethodNames ("ga", "lp", or "-" for fixed heuristics).
	Solvers []string
	// Results maps workload → method → result.
	Results map[string]map[string]*sim.Result
}

// Solver returns the backend of a method column ("-" when unknown).
func (m *Matrix) Solver(method string) string {
	for i, name := range m.MethodNames {
		if name == method && i < len(m.Solvers) {
			return m.Solvers[i]
		}
	}
	return "-"
}

// Get returns the result for (workload, method); nil if missing.
func (m *Matrix) Get(workload, method string) *sim.Result {
	if row, ok := m.Results[workload]; ok {
		return row[method]
	}
	return nil
}

// runOne drains one workload under one method.
func runOne(w trace.Workload, m sched.Method, opts ...sim.Option) (*sim.Result, error) {
	s, err := sim.NewSimulator(w, m, opts...)
	if err != nil {
		return nil, err
	}
	return s.Run(context.Background())
}

// runMatrix simulates every workload under every method on the sim
// package's deterministic parallel sweep driver. Method instances are
// shared across workloads — every shipped method is concurrency-safe and
// reuses its pooled solver evaluators across runs.
func runMatrix(o Options, workloads []trace.Workload, methods func() []sched.Method) (*Matrix, error) {
	ms := methods()
	runs, err := sim.RunSweep(context.Background(), sim.Sweep{
		Workloads: workloads,
		Methods:   ms,
		Seeds:     []uint64{o.Seed},
		Workers:   o.parallelism(),
		Options:   []sim.Option{sim.WithPlugin(o.plugin())},
		PerRun: func(w trace.Workload, _ sched.Method, _ uint64) []sim.Option {
			return []sim.Option{sim.WithBuckets(buckets(w.System))}
		},
	})
	if err != nil {
		return nil, fmt.Errorf("experiments: %w", err)
	}
	m := &Matrix{Results: make(map[string]map[string]*sim.Result)}
	for _, w := range workloads {
		m.Workloads = append(m.Workloads, w.Name)
		m.Results[w.Name] = make(map[string]*sim.Result)
	}
	for _, method := range ms {
		m.MethodNames = append(m.MethodNames, method.Name())
		m.Solvers = append(m.Solvers, sched.SolverNameOf(method))
	}
	for _, r := range runs {
		m.Results[r.Workload][r.Method] = r.Result
	}
	return m, nil
}

// SectionFourMatrix runs the ten §4 workloads under the eight methods.
func SectionFourMatrix(o Options) (*Matrix, error) {
	cori, theta := o.systems()
	return runMatrix(o, trace.Matrix(cori, theta, o.Jobs, o.Seed), func() []sched.Method { return Methods(o.GA) })
}

// SectionFiveMatrix runs the six §5 SSD workloads under the seven methods.
func SectionFiveMatrix(o Options) (*Matrix, error) {
	cori, theta := o.systems()
	return runMatrix(o, trace.SSDMatrix(cori, theta, o.Jobs, o.Seed), func() []sched.Method { return SSDMethods(o.GA) })
}

// table renders rows as a fixed-width text table.
func table(header []string, rows [][]string) string {
	width := make([]int, len(header))
	for i, h := range header {
		width[i] = len(h)
	}
	for _, r := range rows {
		for i, c := range r {
			if len(c) > width[i] {
				width[i] = len(c)
			}
		}
	}
	var b strings.Builder
	line := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", width[i], c)
		}
		b.WriteByte('\n')
	}
	line(header)
	for _, r := range rows {
		line(r)
	}
	return b.String()
}

func pct(v float64) string  { return fmt.Sprintf("%.2f%%", v*100) }
func secs(v float64) string { return fmt.Sprintf("%.0fs", v) }
func f2(v float64) string   { return fmt.Sprintf("%.2f", v) }
func f4(v float64) string   { return fmt.Sprintf("%.4f", v) }
