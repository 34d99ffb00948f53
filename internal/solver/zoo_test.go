package solver_test

import (
	"testing"

	"bbsched/internal/cluster"
	"bbsched/internal/job"
	"bbsched/internal/lp"
	"bbsched/internal/moo"
	"bbsched/internal/rng"
	"bbsched/internal/sched"
	"bbsched/internal/solver"
)

// windowProblem builds a single-objective (node-utilization) selection
// problem over w random jobs on a machine tight enough that the knapsack
// binds — the same shape the lp package's oracle tests use.
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

// members builds the registry portfolio's member set: ga, lp, greedy.
func members() []solver.Solver {
	return []solver.Solver{
		solver.NewGA(moo.GAConfig{Generations: 60, Population: 16, MutationProb: 0.005}),
		lp.New(lp.DefaultConfig()),
		solver.NewGreedy(),
	}
}

// TestGreedyFeasibleAndDeterministic pins the greedy baseline's contract:
// a feasible single-selection front, identical on every call (it draws no
// randomness), optimal on an instance where density order is optimal.
func TestGreedyFeasibleAndDeterministic(t *testing.T) {
	g := solver.NewGreedy()
	caps := g.Capabilities()
	if caps.ParetoFront {
		t.Errorf("greedy capabilities = %+v, want no ParetoFront", caps)
	}
	for _, w := range []int{8, 24, 64} {
		p := windowProblem(t, w, uint64(w))
		a, err := g.Solve(moo.NewEvaluator(p), solver.Options{})
		if err != nil {
			t.Fatal(err)
		}
		if len(a) != 1 {
			t.Fatalf("w=%d: greedy front size %d, want 1", w, len(a))
		}
		if _, feasible := p.Evaluate(a[0].Genome); !feasible {
			t.Fatalf("w=%d: greedy returned infeasible selection", w)
		}
		b, err := g.Solve(moo.NewEvaluator(p), solver.Options{})
		if err != nil {
			t.Fatal(err)
		}
		if !a[0].Genome.Equal(b[0].Genome) {
			t.Fatalf("w=%d: greedy is not deterministic", w)
		}
	}

	// Multi-objective problems have no linear form; greedy must refuse.
	s := rng.New(3)
	cl := cluster.MustNew(cluster.Config{Name: "t", Nodes: 64, BurstBufferGB: 4000})
	jobs := make([]*job.Job, 8)
	for i := range jobs {
		jobs[i] = job.MustNew(i+1, 0, 600, 600, job.NewDemand(1+s.Intn(24), int64(s.Intn(1200)), 0))
	}
	mp := sched.NewSelectionProblem(jobs, cl.Snapshot(), sched.TwoObjectives())
	if _, err := solver.NewGreedy().Solve(moo.NewEvaluator(mp), solver.Options{}); err == nil {
		t.Fatal("greedy accepted a multi-objective problem")
	}
}

// TestPortfolioEqualsBestMember pins the racing contract: the portfolio's
// objective equals the best objective any member achieves on its own
// split of the invocation stream — never worse than its best member.
func TestPortfolioEqualsBestMember(t *testing.T) {
	for _, w := range []int{16, 48} {
		p := windowProblem(t, w, 100+uint64(w))
		pf := solver.NewPortfolio(members()...)

		front, err := pf.Solve(moo.NewEvaluator(p), solver.Options{Rand: rng.New(5)})
		if err != nil {
			t.Fatal(err)
		}
		if len(front) != 1 {
			t.Fatalf("w=%d: portfolio front size %d, want 1", w, len(front))
		}
		if _, feasible := p.Evaluate(front[0].Genome); !feasible {
			t.Fatalf("w=%d: portfolio returned infeasible selection", w)
		}

		// Replicate each member's run exactly: the same split of the same
		// stream, a fresh evaluator per member — the race's own setup.
		best := 0.0
		found := false
		for i, m := range members() {
			mf, err := m.Solve(moo.NewEvaluator(p), solver.Options{Rand: rng.New(5).SplitIndex(uint64(i))})
			if err != nil {
				continue
			}
			for _, sol := range mf {
				if !found || sol.Objectives[0] > best {
					best, found = sol.Objectives[0], true
				}
			}
		}
		if !found {
			t.Fatalf("w=%d: no member produced a solution", w)
		}
		if got := front[0].Objectives[0]; got != best {
			t.Errorf("w=%d: portfolio objective %v != best member objective %v", w, got, best)
		}
	}
}

// TestPortfolioDeterministic pins fixed-seed reproducibility: with no
// clock in the race, the winner depends only on seeds, so repeated solves
// must return the identical selection.
func TestPortfolioDeterministic(t *testing.T) {
	p := windowProblem(t, 32, 77)
	pf := solver.NewPortfolio(members()...)
	a, err := pf.Solve(moo.NewEvaluator(p), solver.Options{Rand: rng.New(9)})
	if err != nil {
		t.Fatal(err)
	}
	for trial := 0; trial < 3; trial++ {
		b, err := pf.Solve(moo.NewEvaluator(p), solver.Options{Rand: rng.New(9)})
		if err != nil {
			t.Fatal(err)
		}
		if !a[0].Genome.Equal(b[0].Genome) || a[0].Objectives[0] != b[0].Objectives[0] {
			t.Fatalf("trial %d: same seed produced a different selection", trial)
		}
	}
}

// TestPortfolioCapabilities pins the portfolio's capability surface: it keeps
// one best solution (no Pareto front — BBSched must veto it).
func TestPortfolioCapabilities(t *testing.T) {
	pf := solver.NewPortfolio(members()...)
	if pf.Capabilities().ParetoFront {
		t.Error("portfolio claims Pareto fronts; it keeps one best solution")
	}
}
