package core

import (
	"fmt"

	"bbsched/internal/sched"
)

// Adaptive wraps BBSched with online tuning of the decision rule's
// trade-off factor — the adaptive decision making §3.2.4 sketches as
// future work ("system managers dynamically adjust their selection policy
// according to scheduling performance").
//
// The controller watches relative scarcity at every invocation: when the
// burst buffer is proportionally scarcer than nodes (its free fraction is
// lower), the factor shrinks so the decision rule swaps toward
// BB-favoring Pareto points more readily; when nodes are the bottleneck
// the factor grows, anchoring on node utilization. Adjustment is
// multiplicative with clamping, so the factor reacts quickly but stays in
// a sane band.
type Adaptive struct {
	// Inner is the wrapped BBSched; its TradeoffFactor is the starting
	// point and is overwritten on every invocation.
	Inner *BBSched
	// MinFactor and MaxFactor clamp the adapted factor (defaults 0.5, 8).
	MinFactor, MaxFactor float64
	// Step is the multiplicative adjustment per invocation (default 1.25).
	Step float64

	factor float64
}

// NewAdaptive wraps inner with the default controller band.
func NewAdaptive(inner *BBSched) *Adaptive {
	return &Adaptive{Inner: inner, MinFactor: 0.5, MaxFactor: 8, Step: 1.25}
}

// Name implements sched.Method.
func (a *Adaptive) Name() string { return "BBSched_Adaptive" }

// SeesEveryPass implements sched.EveryPass: the controller steps its factor
// on every invocation, so Plugin calls it even on a pass no window job can
// start from.
func (a *Adaptive) SeesEveryPass() {}

// Factor returns the current adapted trade-off factor (for observability).
func (a *Adaptive) Factor() float64 {
	if a.factor == 0 {
		return a.Inner.TradeoffFactor
	}
	return a.factor
}

// Select implements sched.Method: adjust the factor from observed
// scarcity, then delegate to the wrapped BBSched.
func (a *Adaptive) Select(ctx *sched.Context) ([]int, error) {
	if a.Inner == nil {
		return nil, fmt.Errorf("core: adaptive wrapper without inner BBSched")
	}
	if a.factor == 0 {
		a.factor = a.Inner.TradeoffFactor
		if a.factor == 0 {
			a.factor = 2
		}
	}
	if a.Step <= 1 {
		return nil, fmt.Errorf("core: adaptive step %v must exceed 1", a.Step)
	}

	freeNodeFrac := 1.0
	if ctx.Totals.Nodes > 0 {
		freeNodeFrac = float64(ctx.Snap.FreeNodes()) / float64(ctx.Totals.Nodes)
	}
	freeBBFrac := 1.0
	if ctx.Totals.BBGB > 0 {
		freeBBFrac = float64(ctx.Snap.FreeBB) / float64(ctx.Totals.BBGB)
	}
	switch {
	case freeBBFrac < freeNodeFrac:
		a.factor /= a.Step // BB is the bottleneck: trade toward it
	case freeBBFrac > freeNodeFrac:
		a.factor *= a.Step // nodes are the bottleneck: hold node util
	}
	if a.factor < a.MinFactor {
		a.factor = a.MinFactor
	}
	if a.factor > a.MaxFactor {
		a.factor = a.MaxFactor
	}

	a.Inner.TradeoffFactor = a.factor
	return a.Inner.Select(ctx)
}

// WindowPolicy sizes the scheduling window from queue state — §3.1 notes
// the window "could be dynamically adjusted in response to system status"
// (queues are longer on workdays than weekends).
type WindowPolicy interface {
	// Name identifies the policy in output.
	Name() string
	// Size returns the window size for the given queue length; it must be
	// positive for positive queue lengths.
	Size(queueLen int) int
}

// AdaptiveWindow scales the window with queue length: size =
// queueLen/Divisor clamped to [Min, Max]. Long workday queues get wide
// windows (more optimization), short weekend queues keep base order.
type AdaptiveWindow struct {
	// Min and Max bound the window (defaults 5 and 50 via NewAdaptiveWindow).
	Min, Max int
	// Divisor maps queue length to window size (default 4).
	Divisor int
}

// NewAdaptiveWindow returns the default adaptive policy: queueLen/4
// clamped to [5, 50].
func NewAdaptiveWindow() AdaptiveWindow { return AdaptiveWindow{Min: 5, Max: 50, Divisor: 4} }

// Name implements WindowPolicy.
func (a AdaptiveWindow) Name() string {
	return fmt.Sprintf("adaptive(%d..%d,/%d)", a.Min, a.Max, a.Divisor)
}

// Size implements WindowPolicy.
func (a AdaptiveWindow) Size(queueLen int) int {
	d := a.Divisor
	if d <= 0 {
		d = 4
	}
	s := queueLen / d
	if s < a.Min {
		s = a.Min
	}
	if s > a.Max {
		s = a.Max
	}
	if s < 1 {
		s = 1
	}
	return s
}
