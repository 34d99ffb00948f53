package core_test

import (
	"slices"
	"testing"

	"bbsched/internal/core"
	"bbsched/internal/moo"
	"bbsched/internal/registry"
	"bbsched/internal/rng"
	"bbsched/internal/sched"
	"bbsched/internal/sched/schedtest"
	"bbsched/internal/solver"
)

var smallGA = moo.GAConfig{Generations: 30, Population: 10, MutationProb: 0.01}

// isDead restates the fit test: no window job fits the snapshot alone.
func isDead(ctx *sched.Context) bool {
	for _, j := range ctx.Window {
		if ctx.Snap.CanFit(j.Demand) {
			return false
		}
	}
	return true
}

// checkBBSchedDeadWindowSkip is sched's differential check for BBSched:
// on the decision drawn from seed, over the machine's full objective list
// and over node utilization alone (which admits the scalar backends),
// Select on every registered backend the method accepts must pick what
// the §3.2.4 rule picks from the front that backend returns for a freshly
// built problem. It reports whether the window was dead (Select answered
// nil while no job fit).
func checkBBSchedDeadWindowSkip(t testing.TB, b *core.BBSched, seed uint64) bool {
	cfg, ctx := schedtest.Window(seed)
	dead := isDead(ctx)
	for _, objectives := range [][]sched.Objective{
		sched.ObjectivesFor(cfg, len(cfg.SSDClasses) > 0),
		{sched.NodeUtil},
	} {
		b.Objectives, b.TradeoffFactor = objectives, float64(len(objectives))
		solved := 0
		for _, spec := range registry.Solvers() {
			sv := spec.New(smallGA)
			if b.VetoSolver(sv) != nil {
				continue
			}
			solved++
			var want []int
			p := sched.NewSelectionProblem(ctx.Window, ctx.Snap, objectives)
			front, wantErr := sv.Solve(moo.NewEvaluator(p), solver.Options{Rand: rng.New(seed)})
			if len(front) > 0 {
				want = sched.Selected(front[core.Decide(front, objectives, ctx.Totals, b.TradeoffFactor)].Genome)
			}

			b.SetSolver(sv)
			ctx.Rand = rng.New(seed)
			got, err := b.Select(ctx)
			switch {
			case dead && (err != nil || got != nil):
				t.Fatalf("seed %d: BBSched%v on %s: dead window answered %v, %v", seed, objectives, sv.Name(), got, err)
			case dead && wantErr == nil && len(want) != 0:
				t.Fatalf("seed %d: BBSched%v on %s: backend selects %v on a dead window", seed, objectives, sv.Name(), want)
			case !dead && (err != nil) != (wantErr != nil):
				t.Fatalf("seed %d: BBSched%v on %s: error %v, backend alone %v", seed, objectives, sv.Name(), err, wantErr)
			case !dead && !slices.Equal(got, want):
				t.Fatalf("seed %d: BBSched%v on %s: selected %v, backend alone %v", seed, objectives, sv.Name(), got, want)
			}
		}
		if solved == 0 {
			t.Fatalf("no registered backend accepts BBSched%v", objectives)
		}
	}
	return dead
}

// TestBBSchedDeadWindowSkipMatchesSolve: see
// sched's TestDeadWindowSkipMatchesSolve; same windows, BBSched on top.
func TestBBSchedDeadWindowSkipMatchesSolve(t *testing.T) {
	b := &core.BBSched{GA: smallGA}
	const windows = 400
	dead := 0
	for seed := uint64(0); seed < windows; seed++ {
		if checkBBSchedDeadWindowSkip(t, b, seed) {
			dead++
		}
	}
	if dead < windows*3/10 || dead > windows*7/10 {
		t.Fatalf("%d of %d generated windows are dead; the generator should make about half", dead, windows)
	}
}

// TestBBSchedSkippedSelectAllocatesNothing: a dead window costs the
// paper's method its validation and one fit walk — no allocation.
func TestBBSchedSkippedSelectAllocatesNothing(t *testing.T) {
	seed := uint64(0)
	_, ctx := schedtest.Window(seed)
	for !isDead(ctx) {
		seed++
		_, ctx = schedtest.Window(seed)
	}
	b := core.New()
	allocs := testing.AllocsPerRun(100, func() {
		if idx, err := b.Select(ctx); err != nil || idx != nil {
			t.Fatalf("dead window answered %v, %v", idx, err)
		}
	})
	if allocs != 0 {
		t.Errorf("%v allocations on a skipped window, want 0", allocs)
	}
}
