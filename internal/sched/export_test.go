package sched

import "bbsched/internal/moo"

// WindowDead exposes the helper's fit test to the external tests.
var WindowDead = windowDead

// PinnedCaps reports whether SolveWindow hands ctx's window to a backend
// that keeps memory through SolvePinned (given a problem with a linear
// form), and the capacities it hands over.
func PinnedCaps(ctx *Context) ([]float64, bool) {
	pinned, ssd := windowPinned(ctx)
	return appendCaps(nil, &ctx.Snap, ssd), pinned
}

// NewScalarized builds the weighted-sum problem Weighted solves, directly:
// the reference the pooled path is compared against.
func NewScalarized(inner *SelectionProblem, weights []float64, t Totals) moo.Problem {
	return &scalarized{inner: inner, weights: weights, denom: t.Denominators(inner.objectives)}
}
