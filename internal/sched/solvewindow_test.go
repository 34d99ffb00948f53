package sched_test

import (
	"fmt"
	"reflect"
	"slices"
	"testing"

	"bbsched/internal/cluster"
	"bbsched/internal/job"
	"bbsched/internal/lp"
	"bbsched/internal/moo"
	"bbsched/internal/registry"
	"bbsched/internal/rng"
	"bbsched/internal/sched"
	"bbsched/internal/sched/schedtest"
	"bbsched/internal/solver"
)

// smallGA keeps the differential tests quick; the skip does not depend on
// the GA's size.
var smallGA = moo.GAConfig{Generations: 30, Population: 10, MutationProb: 0.01}

// skipHarness is what the differential check runs on: every registered
// backend, and one Weighted and one Constrained instance kept across
// windows, so their pooled problems are rebound from one machine shape to
// the next as a sweep over several machines rebinds them.
type skipHarness struct {
	backends    []solver.Solver
	weighted    *sched.Weighted
	constrained *sched.Constrained
}

func newSkipHarness(t testing.TB) *skipHarness {
	h := &skipHarness{
		weighted:    &sched.Weighted{MethodName: "Weighted", GA: smallGA},
		constrained: &sched.Constrained{MethodName: "Constrained", GA: smallGA},
	}
	for _, spec := range registry.Solvers() {
		h.backends = append(h.backends, spec.New(smallGA))
	}
	if len(h.backends) < 5 {
		t.Fatalf("only %d backends registered, want ga, lp, greedy, exact and portfolio at least", len(h.backends))
	}
	return h
}

// check is the differential check behind the test and the fuzz target: on
// the decision drawn from seed, Weighted and Constrained on every
// registered backend must select what the backend selects when it is
// handed a freshly built problem directly, and the helper's fit test must
// agree with Evaluate on whether any single job is feasible. It reports
// whether the window was dead.
func (h *skipHarness) check(t testing.TB, seed uint64) bool {
	cfg, ctx := schedtest.Window(seed)
	objectives := sched.ObjectivesFor(cfg, len(cfg.SSDClasses) > 0)
	dead := sched.WindowDead(ctx)

	// The fit test is "some single-job genome is feasible", exactly.
	p := sched.NewSelectionProblem(ctx.Window, ctx.Snap, objectives)
	g := moo.NewGenome(len(ctx.Window))
	anyFeasible := false
	for i, j := range ctx.Window {
		g.SetBit(i, true)
		_, feasible := p.Evaluate(g)
		g.SetBit(i, false)
		if feasible != ctx.Snap.CanFit(j.Demand) {
			t.Fatalf("seed %d: job %d alone: Evaluate says feasible=%v, CanFit disagrees", seed, i, feasible)
		}
		anyFeasible = anyFeasible || feasible
	}
	if anyFeasible == dead {
		t.Fatalf("seed %d: window called dead=%v, but a single-job genome is feasible=%v", seed, dead, anyFeasible)
	}

	configure(h.weighted, h.constrained, objectives, seed)
	for _, sv := range h.backends {
		for _, m := range []sched.SolverConfigurable{h.weighted, h.constrained} {
			front, wantErr := sv.Solve(moo.NewEvaluator(directProblem(m, ctx)), solver.Options{Rand: rng.New(seed)})
			want := firstBest(front)

			m.SetSolver(sv)
			ctx.Rand = rng.New(seed)
			got, err := m.Select(ctx)
			switch {
			case dead && (err != nil || got != nil):
				t.Fatalf("seed %d: %s on %s: dead window answered %v, %v", seed, m.Name(), sv.Name(), got, err)
			case dead && wantErr == nil && len(want) != 0:
				t.Fatalf("seed %d: %s on %s: backend selects %v on a window called dead", seed, m.Name(), sv.Name(), want)
			case !dead && (err != nil) != (wantErr != nil):
				t.Fatalf("seed %d: %s on %s: error %v, backend alone %v", seed, m.Name(), sv.Name(), err, wantErr)
			case !dead && !slices.Equal(got, want):
				t.Fatalf("seed %d: %s on %s: selected %v, backend alone %v", seed, m.Name(), sv.Name(), got, want)
			}
		}
	}
	return dead
}

// configure sets both methods to optimize objectives: Weighted with
// unequal weights, so the scalarization's order matters, Constrained the
// objective seed picks.
func configure(w *sched.Weighted, c *sched.Constrained, objectives []sched.Objective, seed uint64) {
	w.Objectives = objectives
	w.Weights = make([]float64, len(objectives))
	for k := range objectives {
		w.Weights[k] = 1 / float64(1+k)
	}
	c.Target = objectives[int(seed%uint64(len(objectives)))]
}

// directProblem is the problem m states over ctx's window, freshly built:
// what a backend is handed when a method calls it directly.
func directProblem(m sched.SolverConfigurable, ctx *sched.Context) moo.Problem {
	switch m := m.(type) {
	case *sched.Weighted:
		return sched.NewScalarized(sched.NewSelectionProblem(ctx.Window, ctx.Snap, m.Objectives), m.Weights, ctx.Totals)
	case *sched.Constrained:
		return sched.NewSelectionProblem(ctx.Window, ctx.Snap, []sched.Objective{m.Target})
	}
	panic(fmt.Sprintf("no direct problem for %T", m))
}

// firstBest is the scalar methods' pick, restated: the first solution in
// front order with the highest objective.
func firstBest(front []moo.Solution) []int {
	if len(front) == 0 {
		return nil
	}
	best := front[0]
	for _, sol := range front[1:] {
		if sol.Objectives[0] > best.Objectives[0] {
			best = sol
		}
	}
	return sched.Selected(best.Genome)
}

// TestDeadWindowSkipMatchesSolve: the answer SolveWindow gives without
// solving is the answer the backend gives — over random windows on plain,
// extra-dimension and SSD-class machines, about half of them dead.
func TestDeadWindowSkipMatchesSolve(t *testing.T) {
	h := newSkipHarness(t)
	const windows = 400
	dead := 0
	for seed := uint64(0); seed < windows; seed++ {
		if h.check(t, seed) {
			dead++
		}
	}
	if dead < windows*3/10 || dead > windows*7/10 {
		t.Fatalf("%d of %d generated windows are dead; the generator should make about half", dead, windows)
	}
}

// FuzzDeadWindowSkip walks the same check over fuzzer-chosen seeds.
func FuzzDeadWindowSkip(f *testing.F) {
	for _, seed := range []uint64{0, 1, 2, 42, 1 << 40} {
		f.Add(seed)
	}
	h := newSkipHarness(f)
	f.Fuzz(func(t *testing.T, seed uint64) {
		h.check(t, seed)
	})
}

// TestSelectionProblemResetMatchesFresh: a problem rebound from window to
// window and machine shape to machine shape is, at every bind, the problem
// NewSelectionProblem builds — same linear form, same evaluations, same
// repairs — with nothing of the previous bind showing through.
func TestSelectionProblemResetMatchesFresh(t *testing.T) {
	reused := &sched.SelectionProblem{}
	for seed := uint64(0); seed < 200; seed++ {
		cfg, ctx := schedtest.Window(seed)
		objectives := sched.ObjectivesFor(cfg, len(cfg.SSDClasses) > 0)
		if seed%3 > 0 {
			objectives = objectives[int(seed)%len(objectives):][:1] // one objective: the instance has a linear form
		}
		fresh := sched.NewSelectionProblem(ctx.Window, ctx.Snap, objectives)
		reused.Reset(ctx.Window, ctx.Snap, objectives)

		wantForm, wantOK := fresh.LinearForm()
		gotForm, gotOK := reused.LinearForm()
		if gotOK != wantOK || !reflect.DeepEqual(gotForm, wantForm) {
			t.Fatalf("seed %d: rebound linear form (%v)\n%+v\nfresh (%v)\n%+v", seed, gotOK, gotForm, wantOK, wantForm)
		}
		if again, _ := reused.LinearForm(); gotOK && &again.C[0] != &gotForm.C[0] {
			t.Fatalf("seed %d: the form was built twice in one bind", seed)
		}
		s := rng.New(seed)
		g, h := moo.NewGenome(len(ctx.Window)), moo.NewGenome(len(ctx.Window))
		for trial := 0; trial < 20; trial++ {
			for i := range ctx.Window {
				g.SetBit(i, s.Intn(4) == 0)
			}
			h.CopyFrom(g)
			wantObjs, wantFeasible := fresh.Evaluate(g)
			gotObjs, gotFeasible := reused.Evaluate(g)
			if gotFeasible != wantFeasible || !slices.Equal(gotObjs, wantObjs) {
				t.Fatalf("seed %d: %v evaluates to %v/%v rebound, %v/%v fresh", seed, g, gotObjs, gotFeasible, wantObjs, wantFeasible)
			}
			fresh.Repair(g, rng.New(seed+uint64(trial)).Intn)
			reused.Repair(h, rng.New(seed+uint64(trial)).Intn)
			if !g.Equal(h) {
				t.Fatalf("seed %d: repaired to %v rebound, %v fresh", seed, h, g)
			}
		}
	}
}

// fullMachineWindow is a dead decision of n jobs: two nodes are free and
// every job asks for four or more.
func fullMachineWindow(n int) *sched.Context {
	cfg := cluster.Config{Name: "full", Nodes: 128, BurstBufferGB: 4000}
	snap := cluster.MustNew(cfg).Snapshot()
	snap.FreeByClass[0], snap.FreeBB = 2, 900
	window := make([]*job.Job, n)
	for i := range window {
		window[i] = job.MustNew(i+1, 0, 600, 600, job.NewDemand(4+i%13, int64(10+i%300), 0))
	}
	return &sched.Context{Window: window, Snap: snap, Totals: sched.TotalsOf(cfg), Rand: rng.New(1)}
}

// TestSkippedSelectAllocatesNothing: a dead window is answered with no
// problem, evaluator or solver call, on every backend, so the pass
// allocates nothing at all — however long the window.
func TestSkippedSelectAllocatesNothing(t *testing.T) {
	lpMethod := sched.NewWeighted("Weighted_LP", 0.5, 0.5, moo.DefaultGAConfig())
	lpMethod.SetSolver(lp.New(lp.DefaultConfig()))
	for _, m := range []sched.Method{
		sched.NewWeighted("Weighted", 0.5, 0.5, moo.DefaultGAConfig()),
		&sched.Constrained{MethodName: "Constrained_CPU", Target: sched.NodeUtil, GA: moo.DefaultGAConfig()},
		lpMethod,
	} {
		t.Run(m.Name(), func(t *testing.T) {
			for _, n := range []int{20, 640} {
				ctx := fullMachineWindow(n)
				allocs := testing.AllocsPerRun(100, func() {
					if idx, err := m.Select(ctx); err != nil || idx != nil {
						t.Fatalf("w=%d: dead window answered %v, %v", n, idx, err)
					}
				})
				if allocs != 0 {
					t.Errorf("w=%d: %v allocations on a skipped window, want 0", n, allocs)
				}
			}
		})
	}
}

// TestPinnedWindowOverCapacity: a window whose every job the node row pins
// is dead on its own machine; on a snapshot already over capacity — a
// negative free amount — not even the empty selection fits, so the window
// is not called dead and every backend's own answer stands: Weighted and
// Constrained answer what the backend answers on the problem built
// directly — no feasible selection, and an error that says so.
func TestPinnedWindowOverCapacity(t *testing.T) {
	ctx := fullMachineWindow(20)
	if !sched.WindowDead(ctx) {
		t.Fatal("the full machine's window is not dead: not the case under test")
	}
	ctx.Snap.FreeBB = -1
	if sched.WindowDead(ctx) {
		t.Fatal("a window over an over-committed machine is called dead")
	}
	w := sched.NewWeighted("Weighted", 0.5, 0.5, smallGA)
	c := &sched.Constrained{MethodName: "Constrained_CPU", Target: sched.NodeUtil, GA: smallGA}
	for _, spec := range registry.Solvers() {
		sv := spec.New(smallGA)
		for _, m := range []sched.SolverConfigurable{w, c} {
			front, wantErr := sv.Solve(moo.NewEvaluator(directProblem(m, ctx)), solver.Options{Rand: rng.New(1)})
			want := firstBest(front)
			m.SetSolver(sv)
			ctx.Rand = rng.New(1)
			got, err := m.Select(ctx)
			if (err != nil) != (wantErr != nil) || !slices.Equal(got, want) {
				t.Fatalf("%s on %s: over-committed machine answered %v, %v; backend alone %v, %v", m.Name(), sv.Name(), got, err, want, wantErr)
			}
			if err == nil {
				t.Fatalf("%s on %s: over-committed machine answered %v with no error", m.Name(), sv.Name(), got)
			}
		}
	}
}
