package sched

import "bbsched/internal/moo"

// WindowDead exposes the helper's fit test to the external tests.
var WindowDead = windowDead

// NewScalarized builds the weighted-sum problem Weighted solves, directly:
// the reference the pooled path is compared against.
func NewScalarized(inner *SelectionProblem, weights []float64, t Totals) moo.Problem {
	return &scalarized{inner: inner, weights: weights, denom: t.Denominators(inner.objectives)}
}
