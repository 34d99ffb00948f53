// Benchmarks: one per paper table/figure (see DESIGN.md's per-experiment
// index) plus ablations of the design choices BBSched makes. Domain
// metrics (generational distance, average wait) are attached via
// b.ReportMetric next to the timing numbers.
//
// The full regeneration of each artifact's rows is cmd/experiments; these
// benches time the computational core of each artifact at laptop scale.
package bbsched_test

import (
	"context"
	"fmt"
	"testing"

	"bbsched"
	"bbsched/internal/experiments"
	"bbsched/internal/moo"
	"bbsched/internal/rng"
	"bbsched/internal/sched"
	"bbsched/internal/sim"
	"bbsched/internal/trace"
)

// benchGA keeps sim-based benches at a few hundred milliseconds per
// iteration; solver-focused benches use the paper's full configuration.
func benchGA() moo.GAConfig {
	return moo.GAConfig{Generations: 200, Population: 20, MutationProb: 0.0005}
}

func benchSystem() trace.SystemModel { return trace.Scale(trace.Theta(), 32) }

// benchWorkload returns a Theta-S4-like trace: heavy burst-buffer demand,
// the regime where method differences are largest.
func benchWorkload(jobs int) trace.Workload {
	sys := benchSystem()
	base := trace.Generate(trace.GenConfig{System: sys, Jobs: jobs, Seed: 42})
	base.Name = "Theta-S4"
	_, heavy := trace.BBFloors(base)
	return trace.ExpandBB(base, "Theta-S4", 0.75, heavy, 46)
}

// benchSim drains w under m at seed 1 with the paper-default options plus
// any overrides.
func benchSim(b *testing.B, w trace.Workload, m bbsched.Method, opts ...sim.Option) *sim.Result {
	b.Helper()
	s, err := sim.NewSimulator(w, m, append([]sim.Option{sim.WithSeed(1)}, opts...)...)
	if err != nil {
		b.Fatal(err)
	}
	res, err := s.Run(context.Background())
	if err != nil {
		b.Fatal(err)
	}
	return res
}

// BenchmarkTable1Illustrative times one full BBSched decision (GA with
// paper parameters + decision rule) on the Table 1 window.
func BenchmarkTable1Illustrative(b *testing.B) {
	jobs := experiments.Table1Jobs()
	cl := experiments.Table1Cluster()
	method := bbsched.New()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ctx := &sched.Context{
			Now: 10, Window: jobs, Snap: cl.Snapshot(),
			Totals: sched.TotalsOf(cl.Config()), Rand: rng.New(uint64(i)),
		}
		if _, err := method.Select(ctx); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig2SolverScaling times exhaustive vs GA solving as the window
// grows — the Fig. 2 exponential-vs-flat contrast.
func BenchmarkFig2SolverScaling(b *testing.B) {
	sys := benchSystem()
	cl, err := bbsched.NewCluster(sys.Cluster)
	if err != nil {
		b.Fatal(err)
	}
	for _, w := range []int{5, 10, 15, 20} {
		win := trace.Generate(trace.GenConfig{System: sys, Jobs: w, Seed: 7}).Jobs
		p := sched.NewSelectionProblem(win, cl.Snapshot(), sched.TwoObjectives())
		b.Run(fmt.Sprintf("exhaustive/w=%d", w), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := moo.SolveExhaustive(p); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(fmt.Sprintf("genetic/w=%d", w), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := moo.SolveGA(p, moo.DefaultGAConfig(), rng.New(uint64(i))); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkFig4ParameterSelection times the GA at the Fig. 4 population
// sizes and reports the generational distance against the exact front.
func BenchmarkFig4ParameterSelection(b *testing.B) {
	sys := benchSystem()
	cl, err := bbsched.NewCluster(sys.Cluster)
	if err != nil {
		b.Fatal(err)
	}
	win := trace.Generate(trace.GenConfig{System: sys, Jobs: 16, Seed: 11}).Jobs
	p := sched.NewSelectionProblem(win, cl.Snapshot(), sched.TwoObjectives())
	ref, err := moo.SolveExhaustive(p)
	if err != nil {
		b.Fatal(err)
	}
	for _, pop := range []int{20, 30, 50} {
		b.Run(fmt.Sprintf("P=%d/G=500", pop), func(b *testing.B) {
			cfg := moo.DefaultGAConfig()
			cfg.Population = pop
			var gd float64
			for i := 0; i < b.N; i++ {
				front, err := moo.SolveGA(p, cfg, rng.New(uint64(i)))
				if err != nil {
					b.Fatal(err)
				}
				gd += moo.GenerationalDistance(front, ref)
			}
			b.ReportMetric(gd/float64(b.N), "GD")
		})
	}
}

// BenchmarkFig5Histograms times building the burst-buffer request
// histograms for the ten-workload matrix.
func BenchmarkFig5Histograms(b *testing.B) {
	cori := trace.Scale(trace.Cori(), 64)
	theta := benchSystem()
	ws := trace.Matrix(cori, theta, 400, 42)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, w := range ws {
			h := trace.BBHistogram(w.Jobs, w.System.MaxBBRequestGB/20)
			if h.NumJobs() == 0 {
				b.Fatal("empty histogram")
			}
		}
	}
}

// matrixFigureBench is the shared core of the Figs. 6/7/8/12/13 benches:
// one simulation of the S4-like workload per method, reporting the
// figure's metric.
func matrixFigureBench(b *testing.B, metric string, get func(*sim.Result) float64) {
	w := benchWorkload(120)
	methods := []bbsched.Method{sched.Baseline{}, sched.BinPacking{}, benchBBSched()}
	for _, m := range methods {
		b.Run(m.Name(), func(b *testing.B) {
			var v float64
			for i := 0; i < b.N; i++ {
				v = get(benchSim(b, w, m))
			}
			b.ReportMetric(v, metric)
		})
	}
}

func benchBBSched() *bbsched.BBSched {
	m := bbsched.New()
	m.GA = benchGA()
	return m
}

// BenchmarkFig6NodeUsage regenerates the Fig. 6 metric per method.
func BenchmarkFig6NodeUsage(b *testing.B) {
	matrixFigureBench(b, "node_usage", func(r *sim.Result) float64 { return r.NodeUsage })
}

// BenchmarkFig7BBUsage regenerates the Fig. 7 metric per method.
func BenchmarkFig7BBUsage(b *testing.B) {
	matrixFigureBench(b, "bb_usage", func(r *sim.Result) float64 { return r.BBUsage })
}

// BenchmarkFig8WaitTime regenerates the Fig. 8 metric per method.
func BenchmarkFig8WaitTime(b *testing.B) {
	matrixFigureBench(b, "avg_wait_s", func(r *sim.Result) float64 { return r.AvgWaitSec })
}

// BenchmarkFig9BreakdownSize times the by-size wait breakdown (Fig. 9).
func BenchmarkFig9BreakdownSize(b *testing.B) {
	w := benchWorkload(120)
	for i := 0; i < b.N; i++ {
		r := benchSim(b, w, benchBBSched())
		if len(r.WaitBySize) == 0 {
			b.Fatal("no size breakdown")
		}
	}
}

// BenchmarkFig10BreakdownBB times the by-BB-request breakdown (Fig. 10).
func BenchmarkFig10BreakdownBB(b *testing.B) {
	w := benchWorkload(120)
	for i := 0; i < b.N; i++ {
		r := benchSim(b, w, benchBBSched())
		if len(r.WaitByBB) == 0 {
			b.Fatal("no BB breakdown")
		}
	}
}

// BenchmarkFig11BreakdownRuntime times the by-runtime breakdown (Fig. 11).
func BenchmarkFig11BreakdownRuntime(b *testing.B) {
	w := benchWorkload(120)
	for i := 0; i < b.N; i++ {
		r := benchSim(b, w, benchBBSched())
		if len(r.WaitByRuntime) == 0 {
			b.Fatal("no runtime breakdown")
		}
	}
}

// BenchmarkFig12Slowdown regenerates the Fig. 12 metric per method.
func BenchmarkFig12Slowdown(b *testing.B) {
	matrixFigureBench(b, "avg_slowdown", func(r *sim.Result) float64 { return r.AvgSlowdown })
}

// BenchmarkFig13Kiviat times the holistic Kiviat summary over a small
// method set (Fig. 13's normalization + polygon area).
func BenchmarkFig13Kiviat(b *testing.B) {
	w := benchWorkload(120)
	methods := []bbsched.Method{sched.Baseline{}, sched.BinPacking{}, benchBBSched()}
	results := make([]*sim.Result, len(methods))
	for i, m := range methods {
		results[i] = benchSim(b, w, m)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		area := kiviatAreas(results)
		// Min-max normalization zeroes the worst method's axes, so any
		// individual area may legitimately be 0; the comparison is only
		// degenerate if every polygon collapses.
		best := 0.0
		for _, a := range area {
			if a > best {
				best = a
			}
		}
		if best <= 0 {
			b.Fatal("degenerate kiviat comparison: all areas zero")
		}
	}
}

func kiviatAreas(results []*sim.Result) []float64 {
	axes := make([][]float64, 4)
	for _, r := range results {
		axes[0] = append(axes[0], r.NodeUsage)
		axes[1] = append(axes[1], r.BBUsage)
		axes[2] = append(axes[2], 1/(1+r.AvgWaitSec))
		axes[3] = append(axes[3], 1/(1+r.AvgSlowdown))
	}
	norm := make([][]float64, 4)
	for i := range axes {
		norm[i] = normalize01(axes[i])
	}
	out := make([]float64, len(results))
	for i := range results {
		radii := []float64{norm[0][i], norm[1][i], norm[2][i], norm[3][i]}
		s := 0.0
		for k := 0; k < 4; k++ {
			s += radii[k] * radii[(k+1)%4]
		}
		out[i] = 0.5 * s // sin(π/2) = 1
	}
	return out
}

func normalize01(vals []float64) []float64 {
	lo, hi := vals[0], vals[0]
	for _, v := range vals {
		if v < lo {
			lo = v
		}
		if v > hi {
			hi = v
		}
	}
	out := make([]float64, len(vals))
	for i, v := range vals {
		if hi == lo {
			out[i] = 1
		} else {
			out[i] = (v - lo) / (hi - lo)
		}
	}
	return out
}

// BenchmarkTable3WindowSensitivity times BBSched runs at the Table 3
// window sizes and reports node usage.
func BenchmarkTable3WindowSensitivity(b *testing.B) {
	w := benchWorkload(120)
	for _, win := range []int{10, 20, 50} {
		b.Run(fmt.Sprintf("w=%d", win), func(b *testing.B) {
			var usage float64
			for i := 0; i < b.N; i++ {
				usage = benchSim(b, w, benchBBSched(), sim.WithWindow(win, 50)).NodeUsage
			}
			b.ReportMetric(usage, "node_usage")
		})
	}
}

// BenchmarkFig14SSDCaseStudy times the four-objective §5 configuration.
func BenchmarkFig14SSDCaseStudy(b *testing.B) {
	sys := benchSystem()
	base := trace.Generate(trace.GenConfig{System: sys, Jobs: 100, Seed: 42})
	base.Name = "Theta-S2"
	moderate, _ := trace.BBFloors(base)
	s2 := trace.ExpandBB(base, "Theta-S2", 0.75, moderate, 44)
	s6 := trace.AddSSD(s2, "Theta-S6", trace.S6, 45)
	method := bbsched.NewFourObjective()
	method.GA = benchGA()
	b.ResetTimer()
	var wasted float64
	for i := 0; i < b.N; i++ {
		r := benchSim(b, s6, method)
		wasted = r.WastedSSDFrac
	}
	b.ReportMetric(wasted, "wasted_ssd_frac")
}

// BenchmarkOverheadPerDecision times one scheduling decision per method at
// w=50 — the §4.4 overhead numbers.
func BenchmarkOverheadPerDecision(b *testing.B) {
	sys := benchSystem()
	cl, err := bbsched.NewCluster(sys.Cluster)
	if err != nil {
		b.Fatal(err)
	}
	win := trace.Generate(trace.GenConfig{System: sys, Jobs: 50, Seed: 13}).Jobs
	totals := sched.TotalsOf(sys.Cluster)
	heavy := moo.DefaultGAConfig()
	heavy.Generations = 2000
	bbHeavy := bbsched.New()
	bbHeavy.GA = heavy
	methods := []bbsched.Method{sched.Baseline{}, sched.BinPacking{}, bbsched.New(), bbHeavy}
	names := []string{"Baseline", "Bin_Packing", "BBSched_G500", "BBSched_G2000"}
	for i, m := range methods {
		b.Run(names[i], func(b *testing.B) {
			for k := 0; k < b.N; k++ {
				ctx := &sched.Context{Now: 0, Window: win, Snap: cl.Snapshot(), Totals: totals, Rand: rng.New(uint64(k))}
				if _, err := m.Select(ctx); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblationSelection compares the paper's age-based GA selection
// against NSGA-II crowding on front quality (GD, lower is better).
func BenchmarkAblationSelection(b *testing.B) {
	sys := benchSystem()
	cl, err := bbsched.NewCluster(sys.Cluster)
	if err != nil {
		b.Fatal(err)
	}
	win := trace.Generate(trace.GenConfig{System: sys, Jobs: 16, Seed: 17}).Jobs
	p := sched.NewSelectionProblem(win, cl.Snapshot(), sched.TwoObjectives())
	ref, err := moo.SolveExhaustive(p)
	if err != nil {
		b.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		sel  moo.SelectionPolicy
	}{{"age_based", moo.AgeBased}, {"crowding", moo.Crowding}} {
		b.Run(tc.name, func(b *testing.B) {
			cfg := moo.DefaultGAConfig()
			cfg.Selection = tc.sel
			var gd float64
			for i := 0; i < b.N; i++ {
				front, err := moo.SolveGA(p, cfg, rng.New(uint64(i)))
				if err != nil {
					b.Fatal(err)
				}
				gd += moo.GenerationalDistance(front, ref)
			}
			b.ReportMetric(gd/float64(b.N), "GD")
		})
	}
}

// BenchmarkAblationTradeoff sweeps the decision rule's trade-off factor,
// reporting burst-buffer usage (the factor controls how readily node
// utilization is traded for it).
func BenchmarkAblationTradeoff(b *testing.B) {
	w := benchWorkload(120)
	for _, factor := range []float64{1, 2, 4, 1e9} {
		b.Run(fmt.Sprintf("factor=%g", factor), func(b *testing.B) {
			var bbUsage float64
			for i := 0; i < b.N; i++ {
				m := benchBBSched()
				m.TradeoffFactor = factor
				r := benchSim(b, w, m)
				bbUsage = r.BBUsage
			}
			b.ReportMetric(bbUsage, "bb_usage")
		})
	}
}

// BenchmarkAblationStarvation sweeps the §3.1 starvation bound, reporting
// the maximum-bucket average wait (large jobs suffer without forcing).
func BenchmarkAblationStarvation(b *testing.B) {
	w := benchWorkload(120)
	for _, bound := range []int{0, 10, 50} {
		b.Run(fmt.Sprintf("bound=%d", bound), func(b *testing.B) {
			var wait float64
			for i := 0; i < b.N; i++ {
				wait = benchSim(b, w, benchBBSched(), sim.WithWindow(20, bound)).AvgWaitSec
			}
			b.ReportMetric(wait, "avg_wait_s")
		})
	}
}

// BenchmarkAblationAdaptiveFactor compares the static 2x decision rule
// against the adaptive controller (§3.2.4 future work) on the S4 workload.
func BenchmarkAblationAdaptiveFactor(b *testing.B) {
	w := benchWorkload(120)
	for _, tc := range []struct {
		name  string
		build func() bbsched.Method
	}{
		{"static_2x", func() bbsched.Method { return benchBBSched() }},
		{"adaptive", func() bbsched.Method { return bbsched.NewAdaptive(benchBBSched()) }},
	} {
		b.Run(tc.name, func(b *testing.B) {
			var wait float64
			for i := 0; i < b.N; i++ {
				r := benchSim(b, w, tc.build())
				wait = r.AvgWaitSec
			}
			b.ReportMetric(wait, "avg_wait_s")
		})
	}
}

// BenchmarkAblationWindowPolicy compares the paper's fixed w=20 window to
// the queue-length-adaptive policy (§3.1's dynamic option).
func BenchmarkAblationWindowPolicy(b *testing.B) {
	w := benchWorkload(120)
	for _, tc := range []struct {
		name   string
		plugin bbsched.PluginConfig
	}{
		{"fixed_20", bbsched.DefaultPluginConfig()},
		{"adaptive", bbsched.PluginConfig{WindowPolicy: bbsched.NewAdaptiveWindow(), StarvationBound: 50}},
	} {
		b.Run(tc.name, func(b *testing.B) {
			var wait float64
			for i := 0; i < b.N; i++ {
				wait = benchSim(b, w, benchBBSched(), sim.WithPlugin(tc.plugin)).AvgWaitSec
			}
			b.ReportMetric(wait, "avg_wait_s")
		})
	}
}

// BenchmarkAblationStageOut toggles Slurm-style stage-out (BB held past
// job end) and reports burst-buffer usage — drains raise BB pressure.
func BenchmarkAblationStageOut(b *testing.B) {
	base := benchWorkload(120)
	staged := trace.WithStageOut(base, 20) // 20 GB/s drain
	for _, tc := range []struct {
		name string
		w    trace.Workload
	}{{"no_stageout", base}, {"stageout_20GBps", staged}} {
		b.Run(tc.name, func(b *testing.B) {
			var bbUsage float64
			for i := 0; i < b.N; i++ {
				r := benchSim(b, tc.w, benchBBSched())
				bbUsage = r.BBUsage
			}
			b.ReportMetric(bbUsage, "bb_usage")
		})
	}
}

// BenchmarkAblationBackfill toggles EASY backfilling under BBSched.
func BenchmarkAblationBackfill(b *testing.B) {
	w := benchWorkload(120)
	for _, tc := range []struct {
		name    string
		disable bool
	}{{"easy_on", false}, {"easy_off", true}} {
		b.Run(tc.name, func(b *testing.B) {
			var wait float64
			for i := 0; i < b.N; i++ {
				wait = benchSim(b, w, benchBBSched(), sim.WithBackfill(!tc.disable)).AvgWaitSec
			}
			b.ReportMetric(wait, "avg_wait_s")
		})
	}
}
