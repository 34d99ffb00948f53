// Package solver defines the pluggable window-solver contract: every
// optimization backend that can drive the §3.2.1 window job-selection
// problem — the paper's genetic algorithm (internal/moo), the LP-relaxation
// solver (internal/lp), or any future backend (greedy, ILP, learned) —
// implements the one Solver interface, and every scheduling method that
// optimizes (sched.Weighted, sched.Constrained, core.BBSched) calls
// through it instead of hard-wiring a solver.
//
// The contract deliberately speaks moo's vocabulary (Problem, Solution)
// so existing problems plug in unchanged: a backend receives the problem
// — typically already wrapped in a memoizing *moo.Evaluator — and returns
// a set of non-dominated solutions. Backends that need more structure
// than black-box evaluation declare it via Capabilities and discover it
// via optional problem interfaces (Linearizable). A backend keeps no state
// from one solve to the next, so every window's answer depends on that
// window alone.
package solver

import (
	"bbsched/internal/moo"
	"bbsched/internal/rng"
)

// Options carries the per-invocation inputs every backend receives.
type Options struct {
	// Rand is the invocation's deterministic stream. Backends must draw
	// all randomness from it (and only it), so a fixed simulation seed
	// reproduces every selection exactly.
	Rand *rng.Stream
}

// Capabilities is what a backend declares about itself — facts of its
// implementation, never settings: what it can solve, so methods can reject
// an incompatible solver at configuration time instead of failing deep in
// a scheduling pass.
type Capabilities struct {
	// ParetoFront reports that Solve returns a full Pareto set over
	// multi-objective problems. Backends without it handle only
	// single-objective (scalarized) problems; core.BBSched's §3.2.4
	// decision rule requires it.
	ParetoFront bool
	// NeedsLinear reports that the backend requires the problem to expose
	// an LP structure via Linearizable and fails on problems that do not.
	NeedsLinear bool
}

// Solver solves one window-selection problem instance. A solve is a pure
// function of its problem and its stream: a backend keeps nothing from one
// call to the next, so a run restored from a checkpoint chooses what the
// uninterrupted run chooses. Implementations must be safe for concurrent
// Solve calls on different problems (methods are shared across parallel
// sweep runs); one problem is used by one goroutine, the one solving it.
// They must route every candidate evaluation through p — which is
// typically a memoizing *moo.Evaluator — so repeated genomes, including
// ones revisited by rounding or repair phases, reuse cached objective
// evaluations.
type Solver interface {
	// Name is the backend's short registry name (e.g. "ga", "lp").
	Name() string
	// Capabilities reports what the backend can solve.
	Capabilities() Capabilities
	// Solve returns non-dominated feasible solutions of p: the Pareto set
	// for multi-objective backends, a best-found singleton for scalar
	// ones. The returned solutions must not alias solver scratch.
	Solve(p moo.Problem, opts Options) ([]moo.Solution, error)
}

// LinearForm is the LP structure of a 0/1 selection problem:
//
//	maximize  C·x   subject to   Rows[r]·x ≤ Caps[r] ∀r,   x ∈ [0,1]ⁿ
//
// with non-negative constraint coefficients (resource demands) and
// capacities (free resources). The integral problem restricts x to
// {0,1}ⁿ; dropping that restriction is the LP relaxation first-order
// backends solve.
type LinearForm struct {
	// C is the objective coefficient per window job.
	C []float64
	// Rows holds one dense demand row per resource constraint, each of
	// len(C) coefficients.
	Rows [][]float64
	// Caps holds the capacity of each constraint row.
	Caps []float64
}

// Linearizable is implemented by problems that can expose their LP
// structure. Ok is false when the instance has no exact linear form (for
// example a multi-objective problem with no scalarization, or an
// objective that depends on placement rather than selection alone); a
// false return carries no LinearForm.
type Linearizable interface {
	LinearForm() (LinearForm, bool)
}

// Linearize extracts the LP structure of p, unwrapping a memoizing
// Evaluator to reach the underlying problem.
func Linearize(p moo.Problem) (LinearForm, bool) {
	if ev, ok := p.(*moo.Evaluator); ok {
		p = ev.Problem()
	}
	lin, ok := p.(Linearizable)
	if !ok {
		return LinearForm{}, false
	}
	return lin.LinearForm()
}

// GA adapts the paper's §3.2.2 multi-objective genetic algorithm to the
// Solver interface; it is the default backend of every optimization
// method, preserving the pre-refactor behaviour bit for bit.
type GA struct {
	// Config holds the solver parameters (G, P, p_m).
	Config moo.GAConfig
}

// NewGA returns the genetic backend with the given configuration.
func NewGA(cfg moo.GAConfig) *GA { return &GA{Config: cfg} }

// Name implements Solver.
func (g *GA) Name() string { return "ga" }

// Capabilities implements Solver: the GA evolves full Pareto fronts and
// needs nothing beyond black-box evaluation.
func (g *GA) Capabilities() Capabilities { return Capabilities{ParetoFront: true} }

// Solve implements Solver by running moo.SolveGA.
func (g *GA) Solve(p moo.Problem, opts Options) ([]moo.Solution, error) {
	return moo.SolveGA(p, g.Config, opts.Rand)
}
