package solver

import (
	"errors"
	"fmt"

	"bbsched/internal/moo"
)

// Portfolio races several backends on the same window instance and keeps
// the best feasible roster: every member solves concurrently on its own
// split of the invocation stream, and when all members have finished the
// highest-objective feasible solution wins, ties breaking toward the
// earlier member. The portfolio is therefore never worse than its best
// member, and its wall clock is the slowest member's.
//
// The race waits for every member — each is bounded by work (G·P
// evaluations, an iteration budget, one greedy pass), never by the clock —
// so fixed-seed runs are fully deterministic: each member's stream
// depends only on its index and the invocation stream, and no decision
// depends on machine load.
type Portfolio struct {
	// Members are the raced backends, in tie-break priority order.
	Members []Solver
}

// NewPortfolio builds a racing portfolio over the given members.
func NewPortfolio(members ...Solver) *Portfolio {
	return &Portfolio{Members: members}
}

// Name implements Solver.
func (*Portfolio) Name() string { return "portfolio" }

// Capabilities implements Solver: the race keeps one best solution, not a
// merged front, so it is scalar-only; it needs the linear form only when
// every member does (a ga member handles any problem the others reject),
// and it keeps cross-pass memory as soon as one member does (every member
// is handed opts.Memory).
func (pf *Portfolio) Capabilities() Capabilities {
	caps := Capabilities{NeedsLinear: len(pf.Members) > 0}
	for _, m := range pf.Members {
		mc := m.Capabilities()
		caps.NeedsLinear = caps.NeedsLinear && mc.NeedsLinear
		caps.KeepsMemory = caps.KeepsMemory || mc.KeepsMemory
	}
	return caps
}

// Solve implements Solver by racing every member concurrently. Each
// member gets its own memoizing evaluator (the shared one is not safe for
// concurrent use) and an independent child stream split from opts.Rand by
// member index, so results are reproducible for a fixed seed regardless
// of goroutine scheduling. Member errors (e.g. a linear-only backend
// rejecting a non-linear instance) are tolerated as long as one member
// succeeds.
func (pf *Portfolio) Solve(p moo.Problem, opts Options) ([]moo.Solution, error) {
	if len(pf.Members) == 0 {
		return nil, fmt.Errorf("portfolio: no member solvers")
	}
	if ev, ok := p.(*moo.Evaluator); ok {
		p = ev.Problem() // members each wrap their own evaluator
	}

	type outcome struct {
		member int
		front  []moo.Solution
		err    error
	}
	results := make(chan outcome, len(pf.Members))
	for i, m := range pf.Members {
		go func(i int, m Solver) {
			front, err := m.Solve(moo.NewEvaluator(p), Options{
				Rand:   opts.Rand.SplitIndex(uint64(i)),
				Memory: opts.Memory,
			})
			results <- outcome{member: i, front: front, err: err}
		}(i, m)
	}

	bestMember := -1
	var best moo.Solution
	var errs []error
	for range pf.Members {
		out := <-results
		if out.err != nil {
			errs = append(errs, fmt.Errorf("portfolio member %s: %w", pf.Members[out.member].Name(), out.err))
			continue
		}
		for _, sol := range out.front {
			// Strictly-better objective wins; exact ties break toward
			// the earlier member (and, within one member, toward the
			// front's first entry) — a deterministic rule, so arrival
			// order under goroutine scheduling never shows.
			if bestMember < 0 || sol.Objectives[0] > best.Objectives[0] ||
				(sol.Objectives[0] == best.Objectives[0] && out.member < bestMember) {
				best, bestMember = sol, out.member
			}
		}
	}
	if bestMember < 0 {
		return nil, fmt.Errorf("portfolio: every member failed: %w", errors.Join(errs...))
	}
	return []moo.Solution{best}, nil
}

// SolvePinned implements Solver by telling every member, in order: Solve
// hands each member opts.Memory, so each advances its own memory. Members
// draw nothing here, so they need no split of opts.Rand and no goroutine.
func (pf *Portfolio) SolvePinned(n int, caps []float64, opts Options) {
	for _, m := range pf.Members {
		m.SolvePinned(n, caps, opts)
	}
}
