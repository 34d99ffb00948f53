package lp_test

import (
	"fmt"
	"slices"
	"testing"

	"bbsched/internal/cluster"
	"bbsched/internal/job"
	"bbsched/internal/lp"
	"bbsched/internal/moo"
	"bbsched/internal/rng"
	"bbsched/internal/sched"
	"bbsched/internal/solver"
	"bbsched/internal/trace"
)

// benchWindows are the large-window sizes where the first-order LP
// backend earns its keep; the ISSUE's acceptance bar is ≥2× SolveGA
// throughput at w ≥ 64.
var benchWindows = []int{64, 128}

// giantWindows are the §5-scale windows: half-loaded, so hundreds to
// thousands of columns stay live and the chunked PDHG kernels — not
// presolve — set the solve time.
var giantWindows = []int{1024, 2048, 4096, 8192}

// benchContext builds one realistic scheduling invocation: w
// generator-shaped Theta jobs against a half-loaded machine, so both the
// node and burst-buffer rows bind.
func benchContext(b *testing.B, w int) (*sched.Context, func() *sched.Context) {
	b.Helper()
	theta := trace.Scale(trace.Theta(), 8)
	jobs := trace.Generate(trace.GenConfig{System: theta, Jobs: w, Seed: 1013}).Jobs
	return contextOver(theta, jobs, 2)
}

// busyContext is the decision a replay hands the GA: a paper-sized window
// (w=20) of burst-buffer-heavy Theta-S4 jobs against a machine with a tenth
// of its nodes and burst buffer free. Few selections fit, so the population
// converges onto one or two genotypes within a few generations and a solve
// pays a couple of hundred cache misses — where the empty- or half-machine
// instances keep discovering new genotypes and pay thousands.
func busyContext(b *testing.B) (*sched.Context, func() *sched.Context) {
	b.Helper()
	theta := trace.Scale(trace.Theta(), 32)
	w, err := trace.ApplyVariant(trace.Generate(trace.GenConfig{System: theta, Jobs: 20, Seed: 1013, TargetLoad: 4}), "S4", 1013)
	if err != nil {
		b.Fatal(err)
	}
	return contextOver(theta, w.Jobs, 10)
}

// saturatedContext is the decision a deep-queue replay hands the LP: a
// w-job window of Theta-S4 jobs against a machine with a fiftieth of its
// nodes and burst buffer free, so at least 95% of the jobs (at this seed,
// all of them — the case 99.5% of replay-lp-w1024's passes are) cannot
// start even alone: the window is dead and the pass is its fit walk.
func saturatedContext(b *testing.B, w int) (*sched.Context, func() *sched.Context) {
	b.Helper()
	theta := trace.Scale(trace.Theta(), 8)
	wl, err := trace.ApplyVariant(trace.Generate(trace.GenConfig{System: theta, Jobs: w, Seed: 1013, TargetLoad: 50}), "S4", 1013)
	if err != nil {
		b.Fatal(err)
	}
	ctx, reset := contextOver(theta, wl.Jobs, 50)
	pinned := 0
	for _, j := range wl.Jobs {
		if j.Demand.NodeCount() > ctx.Snap.FreeNodes() || j.Demand.BB() > ctx.Snap.FreeBB {
			pinned++
		}
	}
	if pinned*100 < 95*w {
		b.Fatalf("saturated window pins %d of %d jobs; want at least 95%%", pinned, w)
	}
	return ctx, reset
}

// contextOver is one scheduling invocation of jobs on sys with 1/freeDiv
// of the machine's nodes and burst buffer free (as under sustained load);
// totals stay at the full machine for normalization. The returned func
// rewinds the context's stream so every iteration solves the same decision.
func contextOver(sys trace.SystemModel, jobs []*job.Job, freeDiv int) (*sched.Context, func() *sched.Context) {
	snapCl := cluster.MustNew(cluster.Config{
		Name:          sys.Cluster.Name,
		Nodes:         sys.Cluster.Nodes / freeDiv,
		BurstBufferGB: sys.Cluster.BurstBufferGB / int64(freeDiv),
	})
	ctx := &sched.Context{
		Now:    0,
		Window: jobs,
		Snap:   snapCl.Snapshot(),
		Totals: sched.TotalsOf(sys.Cluster),
		Rand:   rng.New(7),
	}
	reset := func() *sched.Context {
		ctx.Rand.Reseed(7)
		return ctx
	}
	return ctx, reset
}

// BenchmarkSolveLP times one full Weighted_LP-style scheduling decision —
// problem build, PDHG relaxation, rounding, repair — per window size, plus
// the saturated w=1024 decision (see saturatedContext). Ungated, for
// local profiling; CI runs it once per push as a smoke.
func BenchmarkSolveLP(b *testing.B) {
	run := func(name string, build func(b *testing.B) (*sched.Context, func() *sched.Context)) {
		b.Run(name, func(b *testing.B) {
			m := sched.NewWeighted("Weighted_LP", 0.5, 0.5, moo.DefaultGAConfig())
			m.SetSolver(lp.New(lp.DefaultConfig()))
			_, reset := build(b)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := m.Select(reset()); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "solves/sec")
		})
	}
	window := func(w int) func(b *testing.B) (*sched.Context, func() *sched.Context) {
		return func(b *testing.B) (*sched.Context, func() *sched.Context) { return benchContext(b, w) }
	}
	run("saturated/w=1024", func(b *testing.B) (*sched.Context, func() *sched.Context) {
		return saturatedContext(b, 1024)
	})
	for _, w := range slices.Concat(benchWindows, giantWindows) {
		run(fmt.Sprintf("w=%d", w), window(w))
	}
}

// BenchmarkSolvePortfolio times the portfolio (ga, lp, greedy in turn,
// best feasible objective wins) on the identical decision. Its wall clock
// is the sum of its members', so the metric of interest is how little it
// costs over running the members alone.
func BenchmarkSolvePortfolio(b *testing.B) {
	for _, w := range benchWindows {
		b.Run(fmt.Sprintf("w=%d", w), func(b *testing.B) {
			m := sched.NewWeighted("Weighted_Portfolio", 0.5, 0.5, moo.DefaultGAConfig())
			m.SetSolver(solver.NewPortfolio(
				solver.NewGA(moo.DefaultGAConfig()), lp.New(lp.DefaultConfig()), solver.NewGreedy()))
			_, reset := benchContext(b, w)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := m.Select(reset()); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "solves/sec")
		})
	}
}

// BenchmarkSolveGAWindow is the MOGA reference on the identical decision
// (same windows, same machine, same scalarization) at the paper's solver
// configuration: the denominator of the ≥2× LP throughput claim. The
// w=20/busy instance is not part of that comparison: it is the GA in the
// regime replays put it in (see busyContext), so a GA kernel change reads
// here the way it will read end to end.
func BenchmarkSolveGAWindow(b *testing.B) {
	run := func(name string, reset func() *sched.Context) {
		b.Run(name, func(b *testing.B) {
			m := sched.NewWeighted("Weighted", 0.5, 0.5, moo.DefaultGAConfig())
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := m.Select(reset()); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "solves/sec")
		})
	}
	for _, w := range benchWindows {
		_, reset := benchContext(b, w)
		run(fmt.Sprintf("w=%d", w), reset)
	}
	_, reset := busyContext(b)
	run("w=20/busy", reset)
}
