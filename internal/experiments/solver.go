package experiments

import (
	"context"
	"fmt"
	"sort"
	"strings"
	"time"

	"bbsched/internal/cluster"
	"bbsched/internal/job"
	"bbsched/internal/moo"
	"bbsched/internal/registry"
	"bbsched/internal/rng"
	"bbsched/internal/sched"
	"bbsched/internal/sim"
	"bbsched/internal/trace"
)

// Table1Cluster and Table1Jobs reproduce the illustrative example of
// Table 1: a 100-node system with 100 TB of burst buffer (TB units) and
// five queued jobs.
func Table1Cluster() *cluster.Cluster {
	return cluster.MustNew(cluster.Config{Name: "table1", Nodes: 100, BurstBufferGB: 100})
}

// Table1Jobs returns the five jobs of Table 1(a).
func Table1Jobs() []*job.Job {
	return []*job.Job{
		job.MustNew(1, 0, 100, 100, job.NewDemand(80, 20, 0)),
		job.MustNew(2, 1, 100, 100, job.NewDemand(10, 85, 0)),
		job.MustNew(3, 2, 100, 100, job.NewDemand(40, 5, 0)),
		job.MustNew(4, 3, 100, 100, job.NewDemand(10, 0, 0)),
		job.MustNew(5, 4, 100, 100, job.NewDemand(20, 0, 0)),
	}
}

// Table1 reproduces Table 1(b): each §4.3 method's selection on the
// example window, plus the Pareto set BBSched exposes.
func Table1(o Options) (string, error) {
	jobs := Table1Jobs()
	cl := Table1Cluster()
	ctx := func(seed uint64) *sched.Context {
		return &sched.Context{
			Now: 10, Window: jobs, Snap: cl.Snapshot(),
			Totals: sched.TotalsOf(cl.Config()), Rand: rng.New(seed),
		}
	}
	methods := []sched.Method{
		sched.Baseline{},
		&sched.Constrained{MethodName: "Constrained_CPU", Target: sched.NodeUtil, GA: o.GA},
		sched.NewWeighted("Weighted_CPU", 0.8, 0.2, o.GA),
		sched.BinPacking{},
		bbsched2(o.GA),
	}
	rows := make([][]string, 0, len(methods)+2)
	for _, m := range methods {
		idx, err := m.Select(ctx(o.Seed))
		if err != nil {
			return "", fmt.Errorf("table1: %s: %w", m.Name(), err)
		}
		var nodes, bb int64
		names := make([]string, 0, len(idx))
		for _, i := range idx {
			nodes += int64(jobs[i].Demand.NodeCount())
			bb += jobs[i].Demand.BB()
			names = append(names, fmt.Sprintf("J%d", jobs[i].ID))
		}
		rows = append(rows, []string{m.Name(), strings.Join(names, ","),
			fmt.Sprintf("%d%%", nodes), fmt.Sprintf("%d%%", bb)})
	}
	// The Pareto set itself.
	b := bbsched2(o.GA)
	front, err := b.ParetoFront(ctx(o.Seed))
	if err != nil {
		return "", err
	}
	moo.SortLexicographic(front)
	for _, s := range front {
		names := make([]string, 0)
		for _, i := range sched.Selected(s.Genome) {
			names = append(names, fmt.Sprintf("J%d", jobs[i].ID))
		}
		rows = append(rows, []string{"Pareto_Set", strings.Join(names, ","),
			fmt.Sprintf("%.0f%%", s.Objectives[0]), fmt.Sprintf("%.0f%%", s.Objectives[1])})
	}
	return "Table 1(b): scheduling decisions on the illustrative example\n" +
		table([]string{"method", "selected", "node_util", "bb_util"}, rows), nil
}

// windowInstances cuts the first `count` windows of size w from a
// generated Theta-like trace (Fig. 2/4 use the first 1000 Theta jobs).
func windowInstances(o Options, w, count int) ([][]*job.Job, trace.SystemModel) {
	_, theta := o.systems()
	jobs := trace.Generate(trace.GenConfig{System: theta, Jobs: w * count, Seed: o.Seed}).Jobs
	out := make([][]*job.Job, 0, count)
	for i := 0; i+w <= len(jobs) && len(out) < count; i += w {
		out = append(out, jobs[i:i+w])
	}
	return out, theta
}

// Fig2 measures average time-to-solution of the exhaustive solver vs the
// genetic algorithm as the window size grows from 1 to 20 (Fig. 2).
func Fig2(o Options) (string, error) {
	const instances = 8
	rows := make([][]string, 0, 20)
	for w := 1; w <= 20; w++ {
		wins, theta := windowInstances(o, w, instances)
		cl := cluster.MustNew(theta.Cluster)
		var exT, gaT time.Duration
		for k, win := range wins {
			p := sched.NewSelectionProblem(win, cl.Snapshot(), sched.TwoObjectives())
			t0 := time.Now()
			if _, err := moo.SolveExhaustive(p); err != nil {
				return "", err
			}
			exT += time.Since(t0)
			t0 = time.Now()
			if _, err := moo.SolveGA(p, o.GA, rng.New(o.Seed+uint64(k))); err != nil {
				return "", err
			}
			gaT += time.Since(t0)
		}
		n := time.Duration(len(wins))
		rows = append(rows, []string{
			fmt.Sprintf("%d", w),
			fmt.Sprintf("%.6fs", (exT / n).Seconds()),
			fmt.Sprintf("%.6fs", (gaT / n).Seconds()),
		})
	}
	return "Fig 2: average time-to-solution vs window size\n" +
		table([]string{"window", "exhaustive", "genetic"}, rows), nil
}

// Fig4 measures generational distance and solve time as G and P vary
// (Fig. 4): G from 0 to 1000 in steps of 100, P in {20, 30, 50}.
func Fig4(o Options) (string, error) {
	const w = 16 // large enough to be non-trivial, small enough to solve exactly
	const instances = 6
	wins, theta := windowInstances(o, w, instances)
	cl := cluster.MustNew(theta.Cluster)

	refs := make([][]moo.Solution, len(wins))
	problems := make([]*sched.SelectionProblem, len(wins))
	for i, win := range wins {
		problems[i] = sched.NewSelectionProblem(win, cl.Snapshot(), sched.TwoObjectives())
		ref, err := moo.SolveExhaustive(problems[i])
		if err != nil {
			return "", err
		}
		refs[i] = ref
	}

	var rows [][]string
	for _, p := range []int{20, 30, 50} {
		for g := 0; g <= 1000; g += 100 {
			cfg := o.GA
			cfg.Generations = g
			cfg.Population = p
			var gd float64
			var dur time.Duration
			for i, prob := range problems {
				t0 := time.Now()
				front, err := moo.SolveGA(prob, cfg, rng.New(o.Seed+uint64(i)))
				if err != nil {
					return "", err
				}
				dur += time.Since(t0)
				// GD in machine-normalized units so scaled systems read
				// like the paper's axes.
				gd += normalizedGD(front, refs[i], theta)
			}
			rows = append(rows, []string{
				fmt.Sprintf("%d", p), fmt.Sprintf("%d", g),
				f4(gd / float64(len(problems))),
				fmt.Sprintf("%.4fs", (dur / time.Duration(len(problems))).Seconds()),
			})
		}
	}
	return "Fig 4: generational distance and time vs G and P (GD in % of machine)\n" +
		table([]string{"P", "G", "avg_GD", "avg_time"}, rows), nil
}

// normalizedGD computes GD with objectives scaled to percent-of-machine.
func normalizedGD(front, ref []moo.Solution, sys trace.SystemModel) float64 {
	scale := func(sols []moo.Solution) []moo.Solution {
		out := make([]moo.Solution, len(sols))
		for i, s := range sols {
			out[i] = s.Clone()
			out[i].Objectives[0] = 100 * s.Objectives[0] / float64(sys.Cluster.Nodes)
			out[i].Objectives[1] = 100 * s.Objectives[1] / float64(sys.Cluster.BurstBufferGB)
		}
		return out
	}
	return moo.GenerationalDistance(scale(front), scale(ref))
}

// Table3 reproduces the window-size sensitivity study (Table 3): BBSched
// on the S4 workloads with w ∈ {10, 20, 50}.
func Table3(o Options) (string, error) {
	cori, theta := o.systems()
	all := trace.Matrix(cori, theta, o.Jobs, o.Seed)
	var s4 []trace.Workload
	for _, w := range all {
		if strings.HasSuffix(w.Name, "-S4") {
			s4 = append(s4, w)
		}
	}
	var rows [][]string
	for _, w := range s4 {
		for _, win := range []int{10, 20, 50} {
			res, err := runOne(w, bbsched2(o.GA), sim.WithWindow(win, o.Starvation),
				sim.WithSeed(o.Seed), sim.WithBuckets(buckets(w.System)))
			if err != nil {
				return "", fmt.Errorf("table3: %s w=%d: %w", w.Name, win, err)
			}
			rows = append(rows, []string{
				w.Name, fmt.Sprintf("%d", win),
				pct(res.NodeUsage), pct(res.BBUsage),
				secs(res.AvgWaitSec), f2(res.AvgSlowdown),
			})
		}
	}
	return "Table 3: BBSched under different window sizes\n" +
		table([]string{"workload", "window", "cpu_usage", "bb_usage", "avg_wait", "avg_slowdown"}, rows), nil
}

// Overhead measures per-decision scheduling latency per method at w=50,
// plus BBSched at G=2000 (the §4.4 overhead discussion).
func Overhead(o Options) (string, error) {
	const w = 50
	wins, theta := windowInstances(o, w, 10)
	cl := cluster.MustNew(theta.Cluster)
	totals := sched.TotalsOf(theta.Cluster)

	heavy := o.GA
	heavy.Generations = 2000
	methods := append(Methods(o.GA), &namedMethod{"BBSched_G2000", bbsched2(heavy)})

	var rows [][]string
	for _, m := range methods {
		var total time.Duration
		for k, win := range wins {
			ctx := &sched.Context{Now: 0, Window: win, Snap: cl.Snapshot(), Totals: totals, Rand: rng.New(o.Seed + uint64(k))}
			t0 := time.Now()
			if _, err := m.Select(ctx); err != nil {
				return "", fmt.Errorf("overhead: %s: %w", m.Name(), err)
			}
			total += time.Since(t0)
		}
		rows = append(rows, []string{m.Name(), fmt.Sprintf("%.6fs", (total / time.Duration(len(wins))).Seconds())})
	}
	sort.Slice(rows, func(a, b int) bool { return rows[a][0] < rows[b][0] })
	return fmt.Sprintf("Scheduling overhead: avg decision time, window=%d\n", w) +
		table([]string{"method", "avg_decision_time"}, rows), nil
}

// SolverComparison pits the MOGA-backed scalarized methods against the
// rest of the solver zoo on the representative Theta-S4 workload: the
// LP-relaxation (restarted Halpern PDHG + rounding) variants, the greedy
// density-ratio baseline, and the ga/lp/greedy portfolio, all under
// identical window semantics and seed, with a solver column distinguishing
// the backends and the per-decision latency showing each backend's cost.
func SolverComparison(o Options) (string, error) {
	cori, theta := o.systems()
	var s4 trace.Workload
	for _, w := range trace.Matrix(cori, theta, o.Jobs, o.Seed) {
		if strings.Contains(w.Name, "Theta") && strings.HasSuffix(w.Name, "-S4") {
			s4 = w
			break
		}
	}
	if s4.Name == "" {
		return "", fmt.Errorf("experiments: no Theta S4 workload in matrix")
	}
	var methods []sched.Method
	for _, name := range []string{"Weighted", "Weighted_LP", "Constrained_CPU", "Constrained_LP", "BBSched"} {
		m, err := registry.New(name, o.GA, false)
		if err != nil {
			return "", fmt.Errorf("experiments: %w", err)
		}
		methods = append(methods, m)
	}
	// Zoo-backed variants: the same Weighted scalarization under the
	// greedy density-ratio baseline and the ga/lp/greedy portfolio.
	for _, v := range []struct{ name, solver string }{
		{"Weighted_Greedy", "greedy"},
		{"Weighted_Portfolio", "portfolio"},
	} {
		m := sched.NewWeighted(v.name, 0.5, 0.5, o.GA)
		if err := registry.ApplySolver(m, v.solver, o.GA); err != nil {
			return "", fmt.Errorf("experiments: %w", err)
		}
		methods = append(methods, m)
	}
	runs, err := sim.RunSweep(context.Background(), sim.Sweep{
		Workloads: []trace.Workload{s4},
		Methods:   methods,
		Seeds:     []uint64{o.Seed},
		Workers:   o.parallelism(),
		Options:   []sim.Option{sim.WithPlugin(o.plugin()), sim.WithBuckets(buckets(s4.System))},
	})
	if err != nil {
		return "", fmt.Errorf("experiments: %w", err)
	}
	rows := make([][]string, 0, len(runs))
	for i, r := range runs {
		rows = append(rows, []string{
			r.Method, sched.SolverNameOf(methods[i]),
			pct(r.Result.NodeUsage), pct(r.Result.BBUsage),
			secs(r.Result.AvgWaitSec), f2(r.Result.AvgSlowdown),
			fmt.Sprintf("%v", r.Result.AvgDecisionTime),
		})
	}
	gens, err := gaGenerations(o, s4)
	if err != nil {
		return "", fmt.Errorf("experiments: %w", err)
	}
	return fmt.Sprintf("Solver comparison on %s: MOGA vs LP-relaxation backends\n", s4.Name) +
		table([]string{"method", "solver", "cpu_usage", "bb_usage", "avg_wait", "avg_slowdown", "avg_decision"}, rows) +
		"\n" + gens, nil
}

// gaGenerations reports how long the GA behind the comparison's MOGA rows
// runs before its answer is settled (moo.SolveGA's certificate, read off
// moo.EvalStats.Generations): consecutive windows of the workload against
// a machine with a quarter of every resource free, per window size. A
// solve is certified when it stopped before generation G; one whose walk
// over its live jobs' feasible selections runs out of its budget (G·P
// evaluations up to L = 13 live jobs at the paper's G and P, G past that)
// never is.
func gaGenerations(o Options, w trace.Workload) (string, error) {
	snap := cluster.MustNew(w.System.Cluster).Snapshot()
	for c := range snap.FreeByClass {
		snap.FreeByClass[c] /= 4
	}
	snap.FreeBB /= 4
	const solves = 12
	var rows [][]string
	var live []int
	for _, size := range []int{5, 10, 20, 50} {
		var liveSum, genSum, certified, n int
		for k := 0; k < solves && (k+1)*size <= len(w.Jobs); k++ {
			p := sched.NewSelectionProblem(w.Jobs[k*size:(k+1)*size], snap, sched.TwoObjectives())
			live, _ = p.LiveSet(live[:0])
			ev := moo.NewEvaluator(p)
			if _, err := moo.SolveGA(ev, o.GA, rng.New(o.Seed+uint64(k))); err != nil {
				return "", err
			}
			gens := int(ev.Stats().Generations)
			n++
			liveSum += len(live)
			genSum += gens
			if gens < o.GA.Generations {
				certified++
			}
		}
		if n == 0 {
			continue
		}
		rows = append(rows, []string{
			fmt.Sprintf("%d", size), f2(float64(liveSum) / float64(n)),
			f2(float64(genSum) / float64(n)), fmt.Sprintf("%d/%d", certified, n),
		})
	}
	return fmt.Sprintf("GA generations run of G=%d (P=%d) on %s windows, machine a quarter free\n", o.GA.Generations, o.GA.Population, w.Name) +
		table([]string{"window", "live_jobs", "generations", "certified"}, rows), nil
}

// namedMethod renames a wrapped method in output.
type namedMethod struct {
	name  string
	inner sched.Method
}

func (n *namedMethod) Name() string                           { return n.name }
func (n *namedMethod) Select(c *sched.Context) ([]int, error) { return n.inner.Select(c) }
