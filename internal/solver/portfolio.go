package solver

import (
	"errors"
	"fmt"

	"bbsched/internal/moo"
)

// Portfolio runs several backends on the same window instance and keeps
// the best feasible roster: the members solve in turn, each on its own
// split of the invocation stream, and the highest-objective feasible
// solution wins, ties breaking toward the earlier member. The portfolio is
// therefore never worse than its best member, and its wall clock is the
// sum of its members'.
//
// Every member is bounded by work (G·P evaluations, an iteration budget,
// one greedy pass), never by the clock, so fixed-seed runs are fully
// deterministic: each member's stream depends only on its index and the
// invocation stream.
type Portfolio struct {
	// Members are the backends, in run and tie-break priority order.
	Members []Solver
}

// NewPortfolio builds a portfolio over the given members.
func NewPortfolio(members ...Solver) *Portfolio {
	return &Portfolio{Members: members}
}

// Name implements Solver.
func (*Portfolio) Name() string { return "portfolio" }

// Capabilities implements Solver: the portfolio keeps one best solution,
// not a merged front, so it is scalar-only.
func (*Portfolio) Capabilities() Capabilities { return Capabilities{} }

// Solve implements Solver by running every member in turn. Each member
// gets its own memoizing evaluator, so its cache statistics and its GA
// scratch are its own, and an independent child stream split from
// opts.Rand by member index. Member errors (e.g. a linear-only backend
// rejecting a non-linear instance) are tolerated as long as one member
// succeeds.
func (pf *Portfolio) Solve(p moo.Problem, opts Options) ([]moo.Solution, error) {
	if len(pf.Members) == 0 {
		return nil, fmt.Errorf("portfolio: no member solvers")
	}
	if ev, ok := p.(*moo.Evaluator); ok {
		p = ev.Problem() // members each wrap their own evaluator
	}

	var best []moo.Solution
	var errs []error
	for i, m := range pf.Members {
		front, err := m.Solve(moo.NewEvaluator(p), Options{Rand: opts.Rand.SplitIndex(uint64(i))})
		if err != nil {
			errs = append(errs, fmt.Errorf("portfolio member %s: %w", m.Name(), err))
			continue
		}
		for _, sol := range front {
			// Only a strictly better objective wins, so ties keep the
			// earlier member and, within one member, the front's first
			// entry.
			if best == nil || sol.Objectives[0] > best[0].Objectives[0] {
				best = []moo.Solution{sol}
			}
		}
	}
	if best == nil {
		return nil, fmt.Errorf("portfolio: every member failed: %w", errors.Join(errs...))
	}
	return best, nil
}
