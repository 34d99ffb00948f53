package sched_test

import (
	"fmt"
	"math"
	"reflect"
	"runtime"
	"runtime/debug"
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
// backend that declares it keeps no cross-pass memory — the ones a dead
// window is not shown to — and one Weighted and one Constrained instance
// kept across windows, so their pooled problems are rebound from one
// machine shape to the next as a sweep over several machines rebinds them.
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
		if sv := spec.New(smallGA); !sv.Capabilities().KeepsMemory {
			h.backends = append(h.backends, sv)
		}
	}
	if len(h.backends) < 3 {
		t.Fatalf("only %d memoryless backends registered, want ga, greedy and exact at least", len(h.backends))
	}
	return h
}

// check is the differential check behind the test and the fuzz target: on
// the decision drawn from seed, Weighted and Constrained on every
// memoryless backend must select what the backend selects when it is
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

// pinnedHarness is what the pinned-window differential check runs on: the
// backends that keep memory — lp, and a portfolio of that lp and greedy —
// and one Weighted and one Constrained instance kept across runs.
type pinnedHarness struct {
	lp          *lp.Solver
	backends    []solver.Solver
	weighted    *sched.Weighted
	constrained *sched.Constrained
}

func newPinnedHarness() *pinnedHarness {
	l := lp.New(lp.DefaultConfig())
	return &pinnedHarness{
		lp:          l,
		backends:    []solver.Solver{l, solver.NewPortfolio(l, solver.NewGreedy())},
		weighted:    &sched.Weighted{MethodName: "Weighted"},
		constrained: &sched.Constrained{MethodName: "Constrained"},
	}
}

// pinnedRun is the run of decisions drawn from seed: three generated
// windows, each shown twice against its own free machine and twice with no
// burst buffer free — which pins every job, since each demands some — and
// then the last window's jobs twice against an empty machine with 4 GB of
// burst buffer free, pinned with every row kept, and once with all of it
// free, live and warm-started from what the pinned ones left.
func pinnedRun(seed uint64) []decision {
	var run []decision
	var cfg cluster.Config
	var ctx *sched.Context
	with := func(snap cluster.Snapshot, bb int64) decision {
		snap.FreeBB = bb
		return decision{
			objectives: sched.ObjectivesFor(cfg, len(cfg.SSDClasses) > 0),
			ctx:        &sched.Context{Window: ctx.Window, Snap: snap, Totals: ctx.Totals},
		}
	}
	for k := uint64(0); k < 3; k++ {
		cfg, ctx = schedtest.Window(3*seed + k)
		run = append(run, with(ctx.Snap, ctx.Snap.FreeBB), with(ctx.Snap, ctx.Snap.FreeBB), with(ctx.Snap, 0), with(ctx.Snap, 0))
	}
	empty := cluster.MustNew(cfg).Snapshot()
	return append(run, with(empty, 4), with(empty, 4), with(empty, empty.FreeBB))
}

// decision is one scheduling pass of a run: a window against a machine,
// and the objectives that machine's methods optimize.
type decision struct {
	objectives []sched.Objective
	ctx        *sched.Context
}

// run walks the run drawn from seed through Weighted and Constrained on
// each backend, with one Memory per run, against the backend handed a
// freshly built problem on every window with a Memory of its own: each
// window must select the same jobs with the same error, and leave lp's
// memo the same, bit for bit. On every window SolveWindow calls pinned it
// checks that the window is dead, that the form the methods build lists
// caps, and that a row pins each of its columns. It returns how many of
// the run's windows were pinned and how many were dead.
func (h *pinnedHarness) run(t testing.TB, seed uint64) (pinned, dead int) {
	run := pinnedRun(seed)
	for k, d := range run {
		if sched.WindowDead(d.ctx) {
			dead++
		}
		caps, isPinned := sched.PinnedCaps(d.ctx)
		if !isPinned {
			continue
		}
		pinned++
		if !sched.WindowDead(d.ctx) {
			t.Fatalf("seed %d window %d: a pinned window has a job that fits", seed, k)
		}
		configure(h.weighted, h.constrained, d.objectives, seed)
		for _, m := range []sched.SolverConfigurable{h.weighted, h.constrained} {
			form, ok := solver.Linearize(directProblem(m, d.ctx))
			if !ok || !sameBits(form.Caps, caps) {
				t.Fatalf("seed %d window %d: %s form (%v) lists caps %v, the pinned window %v", seed, k, m.Name(), ok, form.Caps, caps)
			}
			for i := range form.C {
				r := 0
				for r < len(form.Rows) && form.Rows[r][i] <= max(form.Caps[r], 0) {
					r++
				}
				if r == len(form.Rows) {
					t.Fatalf("seed %d window %d: %s form: no row pins column %d of a pinned window", seed, k, m.Name(), i)
				}
			}
		}
	}

	for _, sv := range h.backends {
		for _, m := range []sched.SolverConfigurable{h.weighted, h.constrained} {
			m.SetSolver(sv)
			mem, direct := solver.NewMemory(), solver.NewMemory()
			for k, d := range run {
				ctx := d.ctx
				configure(h.weighted, h.constrained, d.objectives, seed)
				front, wantErr := sv.Solve(moo.NewEvaluator(directProblem(m, ctx)), solver.Options{Rand: rng.New(seed + uint64(k)), Memory: direct})
				want := firstBest(front)
				ctx.Rand, ctx.Memory = rng.New(seed+uint64(k)), mem
				got, err := m.Select(ctx)
				if (err != nil) != (wantErr != nil) || !slices.Equal(got, want) {
					t.Fatalf("seed %d window %d: %s on %s selected %v, %v; backend alone %v, %v", seed, k, m.Name(), sv.Name(), got, err, want, wantErr)
				}
				gotMemo, _ := mem.Load(h.lp)
				wantMemo, _ := direct.Load(h.lp)
				if fmt.Sprint(gotMemo) != fmt.Sprint(wantMemo) {
					t.Fatalf("seed %d window %d: %s on %s left lp's memo %v, backend alone %v", seed, k, m.Name(), sv.Name(), gotMemo, wantMemo)
				}
			}
		}
	}
	return pinned, dead
}

// sameBits reports whether a and b hold the same float64 bit patterns.
func sameBits(a, b []float64) bool {
	return slices.EqualFunc(a, b, func(x, y float64) bool { return math.Float64bits(x) == math.Float64bits(y) })
}

// TestPinnedWindowMatchesSolve: a window SolveWindow hands a backend that
// keeps memory as (n, caps) selects what the backend selects on the window
// built as a problem and leaves the same memory behind — so every later
// window, the live one ending each run included, is solved as before —
// over runs on plain, extra-dimension and SSD-class machines with and
// without SSD demands, free burst buffer 0 among them.
func TestPinnedWindowMatchesSolve(t *testing.T) {
	h := newPinnedHarness()
	runs := uint64(200)
	if testing.Short() {
		runs = 50
	}
	pinned, dead, windows := 0, 0, 0
	for seed := uint64(0); seed < runs; seed++ {
		p, d := h.run(t, seed)
		pinned, dead, windows = pinned+p, dead+d, windows+len(pinnedRun(seed))
	}
	// The no-burst-buffer and 4 GB windows, 8 of a run's 15, are pinned;
	// about half of the rest are dead, some of those pinned too. Pinned is
	// dead, so the last two conditions ask for a dead window no row pins
	// and a live one.
	t.Logf("%d windows: %d dead, %d pinned", windows, dead, pinned)
	if pinned < windows*8/15 || pinned == dead || dead == windows {
		t.Fatalf("%d of %d windows pinned and %d dead: not the cases under test", pinned, windows, dead)
	}
}

// FuzzPinnedWindow walks the same check over fuzzer-chosen runs.
func FuzzPinnedWindow(f *testing.F) {
	for _, seed := range []uint64{0, 1, 7, 42, 1 << 40} {
		f.Add(seed)
	}
	h := newPinnedHarness()
	f.Fuzz(func(t *testing.T, seed uint64) {
		h.run(t, seed)
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
	return &sched.Context{Window: window, Snap: snap, Totals: sched.TotalsOf(cfg), Rand: rng.New(1), Memory: solver.NewMemory()}
}

// TestSkippedSelectAllocatesNothing: on a backend that keeps no memory a
// dead window is answered with no problem, evaluator or solver call, so
// the pass allocates nothing at all.
func TestSkippedSelectAllocatesNothing(t *testing.T) {
	ctx := fullMachineWindow(20)
	for _, m := range []sched.Method{
		sched.NewWeighted("Weighted", 0.5, 0.5, moo.DefaultGAConfig()),
		&sched.Constrained{MethodName: "Constrained_CPU", Target: sched.NodeUtil, GA: moo.DefaultGAConfig()},
	} {
		allocs := testing.AllocsPerRun(100, func() {
			if idx, err := m.Select(ctx); err != nil || idx != nil {
				t.Fatalf("%s: dead window answered %v, %v", m.Name(), idx, err)
			}
		})
		if allocs != 0 {
			t.Errorf("%s: %v allocations on a skipped window, want 0", m.Name(), allocs)
		}
	}
}

// TestPinnedWindowOverCapacity: on a snapshot already over capacity — a
// negative free amount — not even the empty selection fits, so the window
// is not called pinned and the backend's own answer stands: lp finds no
// feasible selection and says so.
func TestPinnedWindowOverCapacity(t *testing.T) {
	ctx := fullMachineWindow(20)
	if _, pinned := sched.PinnedCaps(ctx); !pinned {
		t.Fatal("the full machine's window is not pinned: not the case under test")
	}
	ctx.Snap.FreeBB = -1
	if _, pinned := sched.PinnedCaps(ctx); pinned {
		t.Fatal("a window over an over-committed machine is called pinned")
	}
	m := sched.NewWeighted("Weighted_LP", 0.5, 0.5, moo.DefaultGAConfig())
	m.SetSolver(lp.New(lp.DefaultConfig()))
	if idx, err := m.Select(ctx); err == nil {
		t.Fatalf("over-committed machine answered %v with no error", idx)
	}
}

// TestDeadLPSelectAllocsIndependentOfWindow: lp keeps memory, so it is
// told about dead windows too — but a window the node row pins is handed
// over as (n, caps) into pooled storage, so a steady-state pass allocates
// the memo and its dual vector and nothing that grows with the window.
// Before the problem and its linear form were built in place, a 640-job
// pass allocated ~24 KB in ~25 objects against ~1 KB for a 20-job one;
// before pinned windows skipped them, ~0.6 KB in 8.
func TestDeadLPSelectAllocsIndependentOfWindow(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items at random under -race; lp's pooled workspace is reallocated")
	}
	defer debug.SetGCPercent(debug.SetGCPercent(-1)) // a collection empties the pools mid-measurement
	perCall := func(n int) (bytes, allocs float64) {
		m := sched.NewWeighted("Weighted_LP", 0.5, 0.5, moo.DefaultGAConfig())
		m.SetSolver(lp.New(lp.DefaultConfig()))
		ctx := fullMachineWindow(n)
		pass := func() {
			if idx, err := m.Select(ctx); err != nil || idx != nil {
				t.Fatalf("w=%d: dead window answered %v, %v", n, idx, err)
			}
		}
		const calls = 512
		for i := 0; i < calls; i++ {
			pass() // reach steady state: pooled storage grown, evaluator slabs cycling
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < calls; i++ {
			pass()
		}
		runtime.ReadMemStats(&after)
		return float64(after.TotalAlloc-before.TotalAlloc) / calls, float64(after.Mallocs-before.Mallocs) / calls
	}
	smallB, smallN := perCall(20)
	largeB, largeN := perCall(640)
	t.Logf("dead Weighted_LP pass: w=20 %.0f B in %.1f allocs, w=640 %.0f B in %.1f allocs", smallB, smallN, largeB, largeN)
	if largeB > 2*smallB {
		t.Errorf("a dead 640-job pass allocates %.0f B, a 20-job one %.0f B: something still grows with the window", largeB, smallB)
	}
	if largeN > 2 {
		t.Errorf("a dead 640-job pass makes %.1f allocations, want the memo's 2", largeN)
	}
}
