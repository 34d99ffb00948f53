package lp_test

import (
	"context"
	"math"
	"testing"

	"bbsched/internal/cluster"
	"bbsched/internal/job"
	"bbsched/internal/lp"
	"bbsched/internal/moo"
	"bbsched/internal/registry"
	"bbsched/internal/rng"
	"bbsched/internal/sched"
	"bbsched/internal/sim"
	"bbsched/internal/solver"
	"bbsched/internal/trace"
)

// form builds a LinearForm literal.
func form(c []float64, rows [][]float64, caps []float64) solver.LinearForm {
	return solver.LinearForm{C: c, Rows: rows, Caps: caps}
}

// TestRelaxationKnownOptimum checks the PDHG core on LPs with hand-solved
// optima.
func TestRelaxationKnownOptimum(t *testing.T) {
	cases := []struct {
		name string
		form solver.LinearForm
		want float64 // optimal C·x
	}{
		{
			// max 3x1+2x2 s.t. x1+x2 ≤ 1.5: x=(1,0.5), value 4.
			name: "fractional-knapsack",
			form: form([]float64{3, 2}, [][]float64{{1, 1}}, []float64{1.5}),
			want: 4,
		},
		{
			// Budget exceeds total demand: everything at its bound, value 6.
			name: "slack",
			form: form([]float64{1, 2, 3}, [][]float64{{1, 1, 1}}, []float64{10}),
			want: 6,
		},
		{
			// Two binding rows: max x1+x2 s.t. 2x1+x2 ≤ 2, x1+2x2 ≤ 2 →
			// x=(2/3,2/3), value 4/3.
			name: "two-rows",
			form: form([]float64{1, 1}, [][]float64{{2, 1}, {1, 2}}, []float64{2, 2}),
			want: 4.0 / 3,
		},
		{
			// An oversized job (demand 5 > capacity 3) must be pinned out:
			// x=(0,1), value 2.
			name: "pinned-variable",
			form: form([]float64{9, 2}, [][]float64{{5, 1}}, []float64{3}),
			want: 2,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			x, st := lp.SolveRelaxation(tc.form, lp.Config{})
			if !st.Converged {
				t.Fatalf("did not converge: %+v", st)
			}
			got := 0.0
			for i, xi := range x {
				got += tc.form.C[i] * xi
				if xi < -1e-9 || xi > 1+1e-9 {
					t.Fatalf("x[%d] = %v outside [0,1]", i, xi)
				}
			}
			if math.Abs(got-tc.want) > 1e-3*(1+tc.want) {
				t.Fatalf("objective = %v, want %v (x = %v, stats %+v)", got, tc.want, x, st)
			}
			if st.Dual < got-1e-3*(1+tc.want) {
				t.Fatalf("dual bound %v below primal %v", st.Dual, got)
			}
		})
	}
}

// TestRelaxationConvergesShort is the short-mode PDHG smoke test: a
// 64-variable knapsack must reach the duality-gap tolerance well inside
// the iteration budget, so `go test -race -short` exercises the whole
// iteration loop (anchoring, restarts, residuals).
func TestRelaxationConvergesShort(t *testing.T) {
	s := rng.New(99)
	n := 64
	c := make([]float64, n)
	nodes := make([]float64, n)
	bb := make([]float64, n)
	var totNodes, totBB float64
	for i := 0; i < n; i++ {
		nodes[i] = float64(1 + s.Intn(32))
		bb[i] = float64(s.Intn(500))
		c[i] = nodes[i]/128 + bb[i]/4000
		totNodes += nodes[i]
		totBB += bb[i]
	}
	f := form(c, [][]float64{nodes, bb}, []float64{totNodes / 3, totBB / 3})
	x, st := lp.SolveRelaxation(f, lp.Config{})
	if !st.Converged {
		t.Fatalf("PDHG did not converge in %d iters: %+v", st.Iters, st)
	}
	if st.Restarts == 0 {
		t.Logf("converged before the first restart (iters=%d)", st.Iters)
	}
	if st.Gap > lp.DefaultConfig().Tol || st.Infeas > lp.DefaultConfig().Tol {
		t.Fatalf("terminal residuals above tolerance: %+v", st)
	}
	// The relaxation must actually bind: a capacity at a third of total
	// demand cannot take everything. First-order iterates are feasible
	// only to within Tol (relative), hence the tolerance-scaled slack.
	sum := 0.0
	for i, xi := range x {
		sum += nodes[i] * xi
	}
	if sum > f.Caps[0]*(1+2*lp.DefaultConfig().Tol) {
		t.Fatalf("relaxation violates node row beyond tolerance: %v > %v", sum, f.Caps[0])
	}
}

// windowProblem builds a single-objective (node-utilization) selection
// problem over w random jobs on a machine tight enough that the knapsack
// binds.
func windowProblem(tb testing.TB, w int, seed uint64) *sched.SelectionProblem {
	tb.Helper()
	s := rng.New(seed)
	cl := cluster.MustNew(cluster.Config{Name: "t", Nodes: 64, BurstBufferGB: 4000})
	jobs := make([]*job.Job, w)
	for i := range jobs {
		jobs[i] = job.MustNew(i+1, 0, 600, 600,
			job.NewDemand(1+s.Intn(24), int64(s.Intn(1200)), 0))
	}
	return sched.NewSelectionProblem(jobs, cl.Snapshot(), []sched.Objective{sched.NodeUtil})
}

// TestOracleSmallWindows is the oracle suite: the exact branch-and-bound
// backend supplies the provable optimum on windows up to 24 jobs (2^w
// enumeration stopped being practical at 16), then (a) the MOGA's
// solutions are feasible, (b) the LP-rounded selection is feasible, and
// (c) the LP selection's achieved objective is within ratio 0.9 of the
// exact optimum (it is usually exact: rounding re-optimizes greedily
// along the fractional order). Up to w=16 the B&B optimum is itself
// cross-checked against full 2^w enumeration (TestExactMatchesExhaustive
// covers that contract in isolation too).
func TestOracleSmallWindows(t *testing.T) {
	const ratio = 0.9
	lps := lp.New(lp.Config{})
	bnb := lp.NewExact(lp.Config{})
	for _, w := range []int{6, 10, 13, 16, 20, 24} {
		for _, seed := range []uint64{1, 2, 3} {
			p := windowProblem(t, w, seed*1000+uint64(w))
			exactFront, err := bnb.Solve(moo.NewEvaluator(p), solver.Options{})
			if err != nil {
				t.Fatal(err)
			}
			best := exactFront[0].Objectives[0]
			if _, feasible := p.Evaluate(exactFront[0].Genome); !feasible {
				t.Fatalf("w=%d seed=%d: exact backend returned infeasible selection", w, seed)
			}
			if w <= 16 {
				enum, err := moo.SolveExhaustive(p)
				if err != nil {
					t.Fatal(err)
				}
				enumBest := enum[0].Objectives[0]
				for _, s := range enum {
					if s.Objectives[0] > enumBest {
						enumBest = s.Objectives[0]
					}
				}
				if math.Abs(best-enumBest) > 1e-9*(1+math.Abs(enumBest)) {
					t.Fatalf("w=%d seed=%d: exact backend found %v, exhaustive enumeration found %v", w, seed, best, enumBest)
				}
			}

			gaFront, err := moo.SolveGA(p, moo.GAConfig{Generations: 100, Population: 20, MutationProb: 0.005}, rng.New(seed))
			if err != nil {
				t.Fatal(err)
			}
			for _, s := range gaFront {
				if _, feasible := p.Evaluate(s.Genome); !feasible {
					t.Fatalf("w=%d seed=%d: MOGA returned infeasible selection %v", w, seed, s.Genome)
				}
			}

			front, err := lps.Solve(moo.NewEvaluator(p), solver.Options{Rand: rng.New(seed)})
			if err != nil {
				t.Fatal(err)
			}
			if len(front) != 1 {
				t.Fatalf("w=%d seed=%d: LP front size %d, want 1", w, seed, len(front))
			}
			got := front[0]
			if _, feasible := p.Evaluate(got.Genome); !feasible {
				t.Fatalf("w=%d seed=%d: LP returned infeasible selection %v", w, seed, got.Genome)
			}
			if got.Objectives[0] < ratio*best {
				t.Errorf("w=%d seed=%d: LP objective %v below %.0f%% of exact optimum %v",
					w, seed, got.Objectives[0], ratio*100, best)
			}
		}
	}
}

// TestSolveDeterministic pins the fixed-seed reproducibility contract:
// the same seed must yield the identical selection, and the backend must
// draw only from the passed stream.
func TestSolveDeterministic(t *testing.T) {
	lps := lp.New(lp.DefaultConfig())
	for _, w := range []int{16, 48} {
		p := windowProblem(t, w, 7)
		a, err := lps.Solve(moo.NewEvaluator(p), solver.Options{Rand: rng.New(42)})
		if err != nil {
			t.Fatal(err)
		}
		b, err := lps.Solve(moo.NewEvaluator(p), solver.Options{Rand: rng.New(42)})
		if err != nil {
			t.Fatal(err)
		}
		if !a[0].Genome.Equal(b[0].Genome) {
			t.Fatalf("w=%d: same seed produced different selections:\n%v\n%v", w, a[0].Genome, b[0].Genome)
		}
		if a[0].Objectives[0] != b[0].Objectives[0] {
			t.Fatalf("w=%d: same seed produced different objectives", w)
		}
	}
}

// TestRoundingReusesMemo verifies the memoization satellite: candidate
// evaluations in the rounding phase go through the shared Evaluator, so
// repeated candidates (randomized trials re-deriving the greedy/threshold
// selection) are cache hits, not re-evaluations.
func TestRoundingReusesMemo(t *testing.T) {
	p := windowProblem(t, 24, 5)
	ev := moo.NewEvaluator(p)
	lps := lp.New(lp.Config{RoundTrials: 16})
	if _, err := lps.Solve(ev, solver.Options{Rand: rng.New(3)}); err != nil {
		t.Fatal(err)
	}
	st := ev.Stats()
	if st.Misses == 0 {
		t.Fatal("no evaluations went through the shared evaluator")
	}
	if st.Hits == 0 {
		t.Fatalf("rounding never reused a cached evaluation (hits=0, misses=%d)", st.Misses)
	}
}

// TestSolveRejectsNonLinear checks the capability contract: problems with
// no LP structure (multi-objective selection) are rejected with a clear
// error instead of a wrong answer.
func TestSolveRejectsNonLinear(t *testing.T) {
	s := rng.New(8)
	cl := cluster.MustNew(cluster.Config{Name: "t", Nodes: 64, BurstBufferGB: 4000})
	jobs := make([]*job.Job, 8)
	for i := range jobs {
		jobs[i] = job.MustNew(i+1, 0, 600, 600, job.NewDemand(1+s.Intn(24), int64(s.Intn(1200)), 0))
	}
	p := sched.NewSelectionProblem(jobs, cl.Snapshot(), sched.TwoObjectives())
	if _, err := lp.New(lp.DefaultConfig()).Solve(moo.NewEvaluator(p), solver.Options{Rand: rng.New(1)}); err == nil {
		t.Fatal("LP backend accepted a multi-objective problem")
	}
	caps := lp.New(lp.DefaultConfig()).Capabilities()
	if caps.ParetoFront {
		t.Errorf("LP capabilities = %+v, want no ParetoFront", caps)
	}
}

// TestWeightedLPEndToEnd drives the registry's Weighted_LP method through
// a full simulation: the acceptance path `bbsim -method Weighted -solver
// lp` minus the CLI.
func TestWeightedLPEndToEnd(t *testing.T) {
	theta := trace.Scale(trace.Theta(), 64)
	w := trace.Generate(trace.GenConfig{System: theta, Jobs: 80, Seed: 21})
	w.Name = "lp-e2e"

	m, err := registry.New("Weighted_LP", moo.DefaultGAConfig(), false)
	if err != nil {
		t.Fatal(err)
	}
	if got := sched.SolverNameOf(m); got != "lp" {
		t.Fatalf("SolverNameOf(Weighted_LP) = %q, want lp", got)
	}
	s, err := sim.NewSimulator(w, m, sim.WithSeed(21))
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if res.TotalJobs != 80 || res.MakespanSec <= 0 || res.NodeUsage <= 0 {
		t.Fatalf("implausible result: %+v", res)
	}
}

// TestExactMatchesExhaustive pins the exact backend's optimality contract
// against full 2^w enumeration on windows where both are cheap, and its
// size guard above MaxDim.
func TestExactMatchesExhaustive(t *testing.T) {
	bnb := lp.NewExact(lp.Config{})
	for _, w := range []int{4, 8, 12, 14} {
		for _, seed := range []uint64{11, 12} {
			p := windowProblem(t, w, seed*100+uint64(w))
			front, err := bnb.Solve(moo.NewEvaluator(p), solver.Options{})
			if err != nil {
				t.Fatal(err)
			}
			enum, err := moo.SolveExhaustive(p)
			if err != nil {
				t.Fatal(err)
			}
			best := enum[0].Objectives[0]
			for _, s := range enum {
				if s.Objectives[0] > best {
					best = s.Objectives[0]
				}
			}
			if got := front[0].Objectives[0]; math.Abs(got-best) > 1e-9*(1+math.Abs(best)) {
				t.Errorf("w=%d seed=%d: exact found %v, exhaustive found %v", w, seed, got, best)
			}
		}
	}

	big := windowProblem(t, lp.DefaultMaxExactDim+1, 3)
	if _, err := bnb.Solve(moo.NewEvaluator(big), solver.Options{}); err == nil {
		t.Fatalf("exact accepted a %d-job window above its %d-job limit", lp.DefaultMaxExactDim+1, lp.DefaultMaxExactDim)
	}
	caps := bnb.Capabilities()
	if caps.ParetoFront {
		t.Errorf("exact capabilities = %+v, want no ParetoFront", caps)
	}
}
