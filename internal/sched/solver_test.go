package sched

import (
	"math"
	"testing"

	"bbsched/internal/cluster"
	"bbsched/internal/job"
	"bbsched/internal/moo"
	"bbsched/internal/rng"
	"bbsched/internal/solver"
)

// linearWindow builds a window of random jobs on a plain two-resource
// machine.
func linearWindow(w int, seed uint64) ([]*job.Job, *cluster.Cluster) {
	s := rng.New(seed)
	cl := cluster.MustNew(cluster.Config{Name: "lin", Nodes: 100, BurstBufferGB: 8000})
	jobs := make([]*job.Job, w)
	for i := range jobs {
		jobs[i] = job.MustNew(i+1, 0, 600, 600, job.NewDemand(1+s.Intn(30), int64(s.Intn(2000)), 0))
	}
	return jobs, cl
}

// TestSelectionProblemLinearForm checks the single-objective LP view
// against the problem's own evaluation: C·x must equal Evaluate's
// objective on every genome, and the constraint rows must match the
// machine's free capacities.
func TestSelectionProblemLinearForm(t *testing.T) {
	jobs, cl := linearWindow(12, 3)
	p := NewSelectionProblem(jobs, cl.Snapshot(), []Objective{NodeUtil})
	form, ok := p.LinearForm()
	if !ok {
		t.Fatal("single-objective problem not linearizable")
	}
	if len(form.Rows) != 2 || form.Caps[0] != 100 || form.Caps[1] != 8000 {
		t.Fatalf("unexpected constraints: rows=%d caps=%v", len(form.Rows), form.Caps)
	}
	s := rng.New(9)
	g := moo.NewGenome(12)
	for trial := 0; trial < 50; trial++ {
		for i := 0; i < 12; i++ {
			g.SetBit(i, s.Bool(0.4))
		}
		objs, feasible := p.Evaluate(g)
		var cx, nodes, bb float64
		for _, i := range g.Ones() {
			cx += form.C[i]
			nodes += form.Rows[0][i]
			bb += form.Rows[1][i]
		}
		if feasible {
			if math.Abs(cx-objs[0]) > 1e-9 {
				t.Fatalf("C·x = %v, Evaluate = %v for %v", cx, objs[0], g)
			}
			if nodes > form.Caps[0] || bb > form.Caps[1] {
				t.Fatalf("Evaluate feasible but linear rows violated for %v", g)
			}
		} else if nodes <= form.Caps[0] && bb <= form.Caps[1] {
			t.Fatalf("Evaluate infeasible but linear rows satisfied for %v", g)
		}
	}
}

// TestScalarizedLinearForm checks the weighted scalarization's LP view
// against its Evaluate, including the machine-total normalization.
func TestScalarizedLinearForm(t *testing.T) {
	jobs, cl := linearWindow(10, 4)
	inner := NewSelectionProblem(jobs, cl.Snapshot(), TwoObjectives())
	totals := TotalsOf(cl.Config())
	p := &scalarized{
		inner:   inner,
		weights: []float64{0.7, 0.3},
		denom:   totals.Denominators(TwoObjectives()),
	}
	form, ok := p.LinearForm()
	if !ok {
		t.Fatal("scalarized utilizations not linearizable")
	}
	s := rng.New(2)
	g := moo.NewGenome(10)
	for trial := 0; trial < 50; trial++ {
		for i := 0; i < 10; i++ {
			g.SetBit(i, s.Bool(0.3))
		}
		objs, feasible := p.Evaluate(g)
		if !feasible {
			continue
		}
		var cx float64
		for _, i := range g.Ones() {
			cx += form.C[i]
		}
		if math.Abs(cx-objs[0]) > 1e-9 {
			t.Fatalf("scalarized C·x = %v, Evaluate = %v", cx, objs[0])
		}
	}
}

// TestLinearFormRefusals pins the remaining non-linearizable case —
// multi-objective instances have no scalar linear form — and that the
// §5 SSD-waste objective now linearizes (build-time waste columns), both
// alone and inside a scalarization.
func TestLinearFormRefusals(t *testing.T) {
	jobs, cl := linearWindow(6, 5)
	if _, ok := NewSelectionProblem(jobs, cl.Snapshot(), TwoObjectives()).LinearForm(); ok {
		t.Error("multi-objective problem reported a linear form")
	}
	if _, ok := NewSelectionProblem(jobs, cl.Snapshot(), []Objective{SSDWasteNeg}).LinearForm(); !ok {
		t.Error("SSD-waste objective reported no linear form")
	}
	sc := &scalarized{
		inner:   NewSelectionProblem(jobs, cl.Snapshot(), []Objective{NodeUtil, SSDWasteNeg}),
		weights: []float64{0.5, 0.5},
		denom:   []float64{1, 1},
	}
	if _, ok := sc.LinearForm(); !ok {
		t.Error("scalarization over SSD waste reported no linear form")
	}
}

// TestLinearObjectives pins the linearizability predicate and filter the
// solver vetting and the Weighted_LP dimension build rely on: every
// canonical objective linearizes, including the §5 waste term.
func TestLinearObjectives(t *testing.T) {
	for _, o := range []Objective{NodeUtil, BBUtil, SSDUtil, SSDWasteNeg, ExtraUtil(0), ExtraUtil(3)} {
		if !o.Linearizable() {
			t.Errorf("%s not linearizable", o)
		}
	}
	in := []Objective{NodeUtil, BBUtil, ExtraUtil(0), SSDUtil, SSDWasteNeg}
	got := LinearObjectives(in)
	if len(got) != len(in) {
		t.Fatalf("LinearObjectives = %v, want %v", got, in)
	}
	for i := range in {
		if got[i] != in[i] {
			t.Fatalf("LinearObjectives = %v, want %v", got, in)
		}
	}
}

// fakeLinearSolver mimics the LP backend's capability profile.
type fakeLinearSolver struct{ fakeSolver }

func (fakeLinearSolver) Capabilities() solver.Capabilities {
	return solver.Capabilities{NeedsLinear: true}
}

// TestVetoSolverOnNonLinearObjectives checks configuration-time
// vetting: with the §5 waste term's build-time linearization, the
// four-objective scalarizations and the waste-target constrained method
// accept linear-only backends instead of vetoing them.
func TestVetoSolverOnNonLinearObjectives(t *testing.T) {
	lin := fakeLinearSolver{fakeSolver{name: "linonly"}}
	w := NewWeightedFor("W4", FourObjectives(), moo.DefaultGAConfig())
	if err := w.VetoSolver(lin); err != nil {
		t.Errorf("four-objective Weighted vetoed a linear-only backend: %v", err)
	}
	if err := w.VetoSolver(fakeSolver{name: "any"}); err != nil {
		t.Errorf("non-linear backend vetoed: %v", err)
	}
	w2 := NewWeighted("W2", 0.5, 0.5, moo.DefaultGAConfig())
	if err := w2.VetoSolver(lin); err != nil {
		t.Errorf("two-objective Weighted vetoed a linear backend: %v", err)
	}
	c := &Constrained{MethodName: "C", Target: SSDWasteNeg, GA: moo.DefaultGAConfig()}
	if err := c.VetoSolver(lin); err != nil {
		t.Errorf("waste-target Constrained vetoed a linear-only backend: %v", err)
	}
}

// fakeSolver lets plumbing tests observe backend swaps.
type fakeSolver struct{ name string }

func (f fakeSolver) Name() string                      { return f.name }
func (f fakeSolver) Capabilities() solver.Capabilities { return solver.Capabilities{ParetoFront: true} }
func (f fakeSolver) Solve(p moo.Problem, opts solver.Options) ([]moo.Solution, error) {
	return nil, nil
}
func (f fakeSolver) SolvePinned(int, []float64, solver.Options) {}

// TestSolverNameOf covers the reporting helper across method kinds and
// the SetSolver override.
func TestSolverNameOf(t *testing.T) {
	if got := SolverNameOf(Baseline{}); got != "-" {
		t.Errorf("Baseline solver = %q, want -", got)
	}
	if got := SolverNameOf(BinPacking{}); got != "-" {
		t.Errorf("BinPacking solver = %q, want -", got)
	}
	w := NewWeighted("W", 0.5, 0.5, moo.DefaultGAConfig())
	if got := SolverNameOf(w); got != "ga" {
		t.Errorf("default Weighted solver = %q, want ga", got)
	}
	w.SetSolver(fakeSolver{name: "custom"})
	if got := SolverNameOf(w); got != "custom" {
		t.Errorf("after SetSolver = %q, want custom", got)
	}
	c := &Constrained{MethodName: "C", Target: NodeUtil, GA: moo.DefaultGAConfig()}
	if got := SolverNameOf(c); got != "ga" {
		t.Errorf("default Constrained solver = %q, want ga", got)
	}
	var _ SolverConfigurable = w
	var _ SolverConfigurable = c
}
