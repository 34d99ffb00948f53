package lp

import (
	"fmt"
	"math"

	"bbsched/internal/moo"
	"bbsched/internal/solver"
)

// DefaultMaxExactDim is the largest window the exact backend accepts by
// default. Branch-and-bound with fractional bounds handles w ≈ 30 in
// well under a millisecond on typical window instances; beyond that the
// worst case grows too fast for a per-decision solve.
const DefaultMaxExactDim = 30

// Exact is the exact branch-and-bound backend for small windows: a
// depth-first search over include/exclude decisions in density order,
// pruned by per-node fractional-knapsack bounds (the minimum over
// constraint rows of each row's own fractional relaxation) and an early
// exit against the PDHG dual bound of the root relaxation, which is
// valid by weak duality whether or not the relaxation converged.
//
// The search is exact with respect to the problem's own Evaluate:
// Evaluate-feasible selections are a subset of row-feasible ones (the
// linear rows are a relaxation), so row-infeasibility pruning is safe,
// and every improving leaf is validated through Evaluate before it
// becomes the incumbent. It replaces moo.SolveExhaustive as the oracle
// at window sizes where 2ⁿ enumeration stops being practical.
type Exact struct {
	// MaxDim caps the accepted window size (default DefaultMaxExactDim).
	MaxDim int
	cfg    Config
}

// NewExact returns the exact backend; cfg parameterizes the root PDHG
// bound (zero value takes every default).
func NewExact(cfg Config) *Exact {
	return &Exact{MaxDim: DefaultMaxExactDim, cfg: cfg.withDefaults()}
}

// Name implements solver.Solver.
func (*Exact) Name() string { return "exact" }

// Capabilities implements solver.Solver: branch-and-bound needs the
// linear form for its bounds and returns one provably optimal selection,
// not a front.
func (*Exact) Capabilities() solver.Capabilities { return solver.Capabilities{} }

// Solve implements solver.Solver. It is deterministic and draws nothing
// from opts.Rand.
func (e *Exact) Solve(p moo.Problem, opts solver.Options) ([]moo.Solution, error) {
	form, ok := solver.Linearize(p)
	if !ok {
		return nil, fmt.Errorf("exact: problem has no linear form (multi-objective or placement-dependent objectives need the ga backend)")
	}
	n := p.Dim()
	if n != len(form.C) {
		return nil, fmt.Errorf("exact: linear form has %d coefficients for a %d-job window", len(form.C), n)
	}
	maxDim := e.MaxDim
	if maxDim <= 0 {
		maxDim = DefaultMaxExactDim
	}
	if n > maxDim {
		return nil, fmt.Errorf("exact: %d-job window exceeds the branch-and-bound limit of %d jobs", n, maxDim)
	}
	ev := moo.NewEvaluator(p) // no-op when p already is one

	b := newBnb(ev, form, n)

	// Incumbent: the empty selection (feasible unless the snapshot itself
	// violates capacity), improved by the greedy density fill when that
	// succeeds. A good incumbent up front is what makes the bounds bite.
	if objs, feasible := ev.Evaluate(b.g); feasible {
		b.bestVal, b.bestObjs, b.bestG = 0, objs, b.g.Clone()
	}
	if front, err := solver.NewGreedy().Solve(ev, solver.Options{}); err == nil && len(front) == 1 {
		val := 0.0
		for _, i := range front[0].Genome.Ones() {
			val += form.C[i]
		}
		if b.bestObjs == nil || val > b.bestVal {
			b.bestVal, b.bestObjs, b.bestG = val, front[0].Objectives, front[0].Genome
		}
	}

	// Root bound: the PDHG dual value upper-bounds every feasible 0/1
	// selection by weak duality, converged or not. If the incumbent
	// already meets it, the greedy fill was provably optimal.
	if b.bestObjs != nil && len(b.rows) > 0 {
		_, st := SolveRelaxation(form, e.cfg)
		if b.bestVal >= st.Dual-1e-9*(1+math.Abs(st.Dual)) {
			return b.solution(), nil
		}
	}

	b.dfs(0, 0)
	if b.bestObjs == nil {
		return nil, fmt.Errorf("exact: no feasible selection for %d-job window", n)
	}
	return b.solution(), nil
}

// bnb is one branch-and-bound search's state.
type bnb struct {
	ev *moo.Evaluator
	c  []float64

	rows [][]float64 // demand rows with positive capacity
	free []float64   // remaining capacity per kept row at the current node

	pinned   []bool  // variable can never be 1 (demand exceeds a capacity)
	order    []int   // global branching order: density descending
	pos      []int   // pos[order[d]] = d
	rowOrder [][]int // per-row bound order: positive-value items by c/weight descending
	sumPos   []float64

	g        moo.Genome
	bestVal  float64 // incumbent's linear objective C·x
	bestObjs []float64
	bestG    moo.Genome
}

func newBnb(ev *moo.Evaluator, form solver.LinearForm, n int) *bnb {
	b := &bnb{
		ev:     ev,
		c:      form.C,
		pinned: make([]bool, n),
		pos:    make([]int, n),
		g:      moo.NewGenome(n),
	}
	for ri, row := range form.Rows {
		capacity := form.Caps[ri]
		if capacity <= 0 {
			for i, a := range row {
				if a > 0 {
					b.pinned[i] = true
				}
			}
			continue
		}
		for i, a := range row {
			if a > capacity {
				b.pinned[i] = true
			}
		}
		b.rows = append(b.rows, row)
		b.free = append(b.free, capacity)
	}

	// Global branching order: capacity-normalized density descending, the
	// same score the greedy backend uses, so the include-first DFS finds
	// strong incumbents immediately.
	score := make([]float64, n)
	for i := 0; i < n; i++ {
		denom := 0.0
		for r, row := range b.rows {
			denom += row[i] / b.free[r]
		}
		switch {
		case b.c[i] <= 0:
			score[i] = math.Inf(-1)
		case denom == 0:
			score[i] = math.Inf(1)
		default:
			score[i] = b.c[i] / denom
		}
	}
	b.order = make([]int, n)
	for i := range b.order {
		b.order[i] = i
	}
	sortByValueDesc(b.order, score)
	for d, i := range b.order {
		b.pos[i] = d
	}

	// sumPos[d] = Σ of positive objective coefficients over order[d:] —
	// the capacity-free bound on what the undecided tail can still add.
	b.sumPos = make([]float64, n+1)
	for d := n - 1; d >= 0; d-- {
		b.sumPos[d] = b.sumPos[d+1]
		if ci := b.c[b.order[d]]; ci > 0 {
			b.sumPos[d] += ci
		}
	}

	// Per-row bound orders: positive-value unpinned items by their OWN
	// value/weight ratio in that row (zero weight sorts first). A global
	// density order is not a valid fractional-knapsack fill — each row's
	// bound needs its own ordering to dominate that row's relaxation.
	b.rowOrder = make([][]int, len(b.rows))
	ratio := make([]float64, n)
	for r, row := range b.rows {
		idx := make([]int, 0, n)
		for i := 0; i < n; i++ {
			if b.c[i] <= 0 || b.pinned[i] {
				continue
			}
			if row[i] == 0 {
				ratio[i] = math.Inf(1)
			} else {
				ratio[i] = b.c[i] / row[i]
			}
			idx = append(idx, i)
		}
		sortByValueDesc(idx, ratio)
		b.rowOrder[r] = idx
	}
	return b
}

func (b *bnb) solution() []moo.Solution {
	return []moo.Solution{{
		Genome:     b.bestG,
		Objectives: append([]float64(nil), b.bestObjs...),
	}}
}

// bound returns an upper bound on the best linear objective reachable
// below a node at the given depth carrying value val: the minimum over
// rows of that row's fractional-knapsack fill of the undecided tail
// (rows whose capacity never binds degrade to the capacity-free sum).
func (b *bnb) bound(depth int, val float64) float64 {
	ub := val + b.sumPos[depth]
	for r, row := range b.rows {
		rem := b.free[r]
		s := val
		for _, i := range b.rowOrder[r] {
			if b.pos[i] < depth {
				continue // already decided on this path
			}
			if w := row[i]; w <= rem {
				s += b.c[i]
				rem -= w
			} else {
				s += b.c[i] * rem / w
				break
			}
		}
		if s < ub {
			ub = s
		}
	}
	return ub
}

func (b *bnb) dfs(depth int, val float64) {
	eps := 1e-9 * (1 + math.Abs(b.bestVal))
	if b.bestObjs != nil && b.bound(depth, val) <= b.bestVal+eps {
		return
	}
	if depth == len(b.order) {
		if objs, feasible := b.ev.Evaluate(b.g); feasible {
			b.bestVal, b.bestObjs, b.bestG = val, objs, b.g.Clone()
		}
		return
	}
	i := b.order[depth]

	// Include first: density order means the all-include path is the
	// greedy fill, so the first leaves reached are already strong.
	if !b.pinned[i] {
		fits := true
		for r, row := range b.rows {
			if row[i] > b.free[r] {
				fits = false
				break
			}
		}
		if fits {
			for r, row := range b.rows {
				b.free[r] -= row[i]
			}
			b.g.SetBit(i, true)
			b.dfs(depth+1, val+b.c[i])
			b.g.SetBit(i, false)
			for r, row := range b.rows {
				b.free[r] += row[i]
			}
		}
	}
	b.dfs(depth+1, val)
}
