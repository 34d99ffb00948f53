package solver_test

import (
	"reflect"
	"testing"

	"bbsched/internal/moo"
	"bbsched/internal/rng"
	"bbsched/internal/solver"
)

// knapsack is a tiny two-objective test problem: maximize the selected
// weights in each column under a shared budget on column 0.
type knapsack struct {
	w0, w1 []int64
	cap0   int64
}

func (k *knapsack) Dim() int           { return len(k.w0) }
func (k *knapsack) NumObjectives() int { return 2 }

func (k *knapsack) Evaluate(g moo.Genome) ([]float64, bool) {
	var s0, s1 int64
	for _, i := range g.Ones() {
		s0 += k.w0[i]
		s1 += k.w1[i]
	}
	if s0 > k.cap0 {
		return nil, false
	}
	return []float64{float64(s0), float64(s1)}, true
}

func testProblem() *knapsack {
	return &knapsack{
		w0:   []int64{5, 3, 8, 2, 7, 1, 4, 6},
		w1:   []int64{2, 9, 1, 7, 3, 8, 5, 4},
		cap0: 15,
	}
}

// TestGAAdapterMatchesSolveGA pins the refactor's behavior preservation at
// the interface boundary: the GA backend must be moo.SolveGA, bit for bit.
func TestGAAdapterMatchesSolveGA(t *testing.T) {
	p := testProblem()
	cfg := moo.GAConfig{Generations: 60, Population: 10, MutationProb: 0.01}

	direct, err := moo.SolveGA(p, cfg, rng.New(11))
	if err != nil {
		t.Fatal(err)
	}
	ga := solver.NewGA(cfg)
	viaIface, err := ga.Solve(moo.NewEvaluator(p), solver.Options{Rand: rng.New(11)})
	if err != nil {
		t.Fatal(err)
	}
	if len(direct) != len(viaIface) {
		t.Fatalf("front sizes differ: direct %d, adapter %d", len(direct), len(viaIface))
	}
	for i := range direct {
		if !direct[i].Genome.Equal(viaIface[i].Genome) ||
			!reflect.DeepEqual(direct[i].Objectives, viaIface[i].Objectives) {
			t.Fatalf("solution %d differs: direct %v %v, adapter %v %v",
				i, direct[i].Genome, direct[i].Objectives, viaIface[i].Genome, viaIface[i].Objectives)
		}
	}
}

func TestGACapabilities(t *testing.T) {
	ga := solver.NewGA(moo.DefaultGAConfig())
	if ga.Name() != "ga" {
		t.Errorf("Name = %q, want ga", ga.Name())
	}
	caps := ga.Capabilities()
	if !caps.ParetoFront {
		t.Errorf("GA capabilities = %+v, want ParetoFront", caps)
	}
}

// linearKnapsack is a single-objective problem exposing its LP structure.
type linearKnapsack struct {
	knapsack
}

func (k *linearKnapsack) NumObjectives() int { return 1 }

func (k *linearKnapsack) Evaluate(g moo.Genome) ([]float64, bool) {
	objs, ok := k.knapsack.Evaluate(g)
	if !ok {
		return nil, false
	}
	return objs[:1], true
}

func (k *linearKnapsack) LinearForm() (solver.LinearForm, bool) {
	n := len(k.w0)
	c := make([]float64, n)
	row := make([]float64, n)
	for i := range c {
		c[i] = float64(k.w0[i])
		row[i] = float64(k.w0[i])
	}
	return solver.LinearForm{C: c, Rows: [][]float64{row}, Caps: []float64{float64(k.cap0)}}, true
}

// TestLinearizeUnwrapsEvaluator checks Linearize reaches through the
// memoizing wrapper to the underlying problem's LP structure.
func TestLinearizeUnwrapsEvaluator(t *testing.T) {
	p := &linearKnapsack{*testProblem()}
	form, ok := solver.Linearize(moo.NewEvaluator(p))
	if !ok {
		t.Fatal("Linearize through Evaluator failed")
	}
	if len(form.C) != p.Dim() || len(form.Rows) != 1 || form.Caps[0] != 15 {
		t.Fatalf("unexpected form: %+v", form)
	}
	if _, ok := solver.Linearize(moo.NewEvaluator(testProblem())); ok {
		t.Fatal("Linearize succeeded on a problem with no linear form")
	}
}
