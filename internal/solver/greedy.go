package solver

import (
	"fmt"
	"math"

	"bbsched/internal/moo"
)

// Greedy is the density-ratio baseline backend: window jobs are sorted by
// objective value per unit of capacity-normalized demand and filled in
// that order, keeping each job that still fits. It needs one sort and at
// most n evaluations, so it is near-free at window sizes where even the
// LP backend's iteration count shows up — the cheap leg of the solver
// portfolio, and a quality floor every smarter backend must beat.
//
// Exact feasibility comes from the problem's own Evaluate (the linear
// rows are a relaxation that may miss placement constraints), so the
// returned selection is always genuinely schedulable.
type Greedy struct{}

// NewGreedy returns the greedy density-ratio backend.
func NewGreedy() *Greedy { return &Greedy{} }

// Name implements Solver.
func (*Greedy) Name() string { return "greedy" }

// Capabilities implements Solver: density needs the linear form's value
// and demand columns, and the fill produces one selection, not a front.
func (*Greedy) Capabilities() Capabilities { return Capabilities{NeedsLinear: true} }

// SolvePinned implements Solver: greedy keeps no memory.
func (*Greedy) SolvePinned(int, []float64, Options) {}

// Solve implements Solver. It is deterministic and draws nothing from
// opts.Rand.
func (g *Greedy) Solve(p moo.Problem, opts Options) ([]moo.Solution, error) {
	form, ok := Linearize(p)
	if !ok {
		return nil, fmt.Errorf("greedy: problem has no linear form (multi-objective or placement-dependent objectives need the ga backend)")
	}
	n := p.Dim()
	if n != len(form.C) {
		return nil, fmt.Errorf("greedy: linear form has %d coefficients for a %d-job window", len(form.C), n)
	}
	ev := moo.NewEvaluator(p) // no-op when p already is one

	// Density: objective value per unit of capacity-normalized demand,
	// summed over the constraint rows. A job with no demand on any
	// positive-capacity row is free — rank it ahead of everything.
	score := make([]float64, n)
	for i := 0; i < n; i++ {
		denom := 0.0
		for r, row := range form.Rows {
			if form.Caps[r] > 0 {
				denom += row[i] / form.Caps[r]
			}
		}
		switch {
		case form.C[i] <= 0:
			score[i] = math.Inf(-1) // never helps the objective; try last
		case denom == 0:
			score[i] = math.Inf(1)
		default:
			score[i] = form.C[i] / denom
		}
	}
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	// Insertion sort by descending density, ties toward the window front
	// (base-policy order) — deterministic, like lp's fractional order.
	for i := 1; i < n; i++ {
		j, v := i, order[i]
		for j > 0 && (score[order[j-1]] < score[v] || (score[order[j-1]] == score[v] && order[j-1] > v)) {
			order[j] = order[j-1]
			j--
		}
		order[j] = v
	}

	sel := moo.NewGenome(n)
	for _, i := range order {
		if score[i] == math.Inf(-1) {
			break // sorted: nothing after this improves the objective
		}
		sel.SetBit(i, true)
		if _, feasible := ev.Evaluate(sel); !feasible {
			sel.SetBit(i, false)
		}
	}
	objs, feasible := ev.Evaluate(sel)
	if !feasible {
		// The greedy fill only kept feasible prefixes, so this means even
		// the empty selection is infeasible (snapshot already over cap).
		return nil, fmt.Errorf("greedy: no feasible selection for %d-job window", n)
	}
	return []moo.Solution{{
		Genome:     sel,
		Objectives: append([]float64(nil), objs...),
	}}, nil
}
