// Package lp implements a matrix-free first-order LP backend for the
// window job-selection problem: the 0/1 multi-dimensional knapsack of
// §3.2.1 is relaxed to a linear program over x ∈ [0,1]ⁿ, solved with
// restarted Halpern PDHG (Lu & Yang's rHPDHG: primal-dual hybrid gradient
// steps, Halpern anchoring, fixed-frequency restarts, duality-gap
// stopping), and the fractional solution is recovered into a feasible 0/1
// selection by deterministic randomized rounding plus the problem's own
// repair path.
//
// The backend implements solver.Solver for single-objective (scalarized)
// problems exposing solver.Linearizable — sched's weighted and constrained
// formulations — and routes every rounded candidate through the memoizing
// Evaluator it is handed, so repeated candidates cost one map lookup. On
// large windows it is far cheaper than the genetic algorithm: a few
// hundred O(m·n) iterations instead of G×P genome evaluations — with n
// counting only the jobs that could start on the free machine at all,
// since presolve (see relaxation) drops the rest before the first one.
// A window in which a row pins every job costs its m dual steps only:
// sched hands it to SolvePinned as (n, caps), with no problem or form.
package lp

import (
	"cmp"
	"fmt"
	"slices"
	"sync"

	"bbsched/internal/moo"
	"bbsched/internal/solver"
)

// Config parameterizes the backend. The zero value takes every default.
type Config struct {
	// MaxIters is the PDHG iteration budget per solve (default 4000).
	MaxIters int
	// RestartPeriod is the fixed restart frequency: the Halpern anchor is
	// reset to the current iterate every this many iterations (default 100).
	RestartPeriod int
	// Tol is the relative duality-gap and primal-feasibility tolerance
	// (default 1e-3). Selection quality needs far less than simplex-grade
	// precision — rounding re-checks exact feasibility and re-optimizes
	// greedily along the fractional order — and knapsack scalarizations
	// are often near-degenerate (jobs tie on value ratio), where the gap
	// tail converges slowly for no rounding benefit.
	Tol float64
	// RoundTrials is the number of randomized rounding draws recovering
	// 0/1 selections from the fractional optimum (default 8). The greedy
	// and threshold candidates are always tried in addition.
	RoundTrials int
	// PolishMaxDim bounds the windows that get the deterministic 1-bit
	// hill-climb after rounding (default 256; negative disables). The
	// polish scores flips through the problem's true Evaluate, so it
	// recovers accuracy the linear columns only approximate (the §5
	// SSD-waste term's joint-placement error) — worth O(n) evaluations
	// per sweep on oracle-grade windows, not on giant ones where the
	// backend is a throughput device.
	PolishMaxDim int
}

// DefaultConfig returns the default backend parameters.
func DefaultConfig() Config { return Config{}.withDefaults() }

func (c Config) withDefaults() Config {
	if c.MaxIters <= 0 {
		c.MaxIters = 4000
	}
	if c.RestartPeriod <= 0 {
		c.RestartPeriod = 100
	}
	if c.Tol <= 0 {
		c.Tol = 1e-3
	}
	if c.RoundTrials <= 0 {
		c.RoundTrials = 8
	}
	if c.PolishMaxDim == 0 {
		c.PolishMaxDim = 256
	}
	return c
}

// checkEvery is the residual-evaluation stride: residuals cost two
// mat-vecs, so they are sampled rather than computed per iteration.
func (c Config) checkEvery() int { return 25 }

// swapPolishMaxDim bounds the windows whose polish pass also tries
// drop-one/add-one swap moves (up to n² evaluations per sweep) — the
// oracle-suite sizes, where ratio-of-exact accuracy is the contract.
const swapPolishMaxDim = 64

// Solver is the restarted Halpern PDHG backend. It is safe for concurrent
// Solve calls: per-solve workspaces are pooled, never shared.
type Solver struct {
	cfg     Config
	scratch sync.Pool // *workspace
}

// workspace is one pooled solve's state: the PDHG workspace plus rounding
// buffers (the support of the fractional solution, the candidate genome).
type workspace struct {
	rel   relaxation
	order []int
	g     moo.Genome
}

// memo is the cross-window state the backend keeps in solver.Memory,
// keyed by its own instance: the previous window's final PDHG iterate
// (successive windows overlap heavily — the unscheduled tail carries
// over — so the old saddle point is a near-solution of the new instance)
// and the adaptively tuned duality-gap tolerance. A memo is immutable
// once stored; every solve stores a fresh one, so a racing portfolio
// member never observes a half-written iterate.
type memo struct {
	warmStart
	tol float64
}

// New returns an LP backend with the given configuration.
func New(cfg Config) *Solver { return &Solver{cfg: cfg.withDefaults()} }

// Name implements solver.Solver.
func (s *Solver) Name() string { return "lp" }

// Capabilities implements solver.Solver: the backend solves scalarized
// (single-objective) instances with an exposed linear form; it does not
// produce Pareto fronts. It keeps a memo in solver.Memory — the PDHG
// iterate the next window warm-starts from and the adapted tolerance — so
// it must see every window of a run, dead ones included: with no live
// column the dual iterate still takes its O(m) steps (see solveFrom), and
// skipping them would hand the next live window a different start. A
// window sched knows a row pins whole comes in through SolvePinned and
// costs those steps alone.
func (s *Solver) Capabilities() solver.Capabilities {
	return solver.Capabilities{NeedsLinear: true, KeepsMemory: true}
}

// Config returns the backend parameters (defaults resolved).
func (s *Solver) Config() Config { return s.cfg }

// Solve implements solver.Solver: solve the LP relaxation, then recover a
// feasible 0/1 selection. The returned front is a best-found singleton.
// All candidate evaluations go through p — typically a memoizing
// *moo.Evaluator — so the rounding and repair phases reuse cached
// objective evaluations instead of re-evaluating repeated selections.
func (s *Solver) Solve(p moo.Problem, opts solver.Options) ([]moo.Solution, error) {
	form, ok := solver.Linearize(p)
	if !ok {
		return nil, fmt.Errorf("lp: problem has no linear form (multi-objective or placement-dependent objectives need the ga backend)")
	}
	n := p.Dim()
	if n != len(form.C) {
		return nil, fmt.Errorf("lp: linear form has %d coefficients for a %d-job window", len(form.C), n)
	}
	ev := moo.NewEvaluator(p) // no-op when p already is one
	rep, _ := ev.Problem().(moo.Repairer)

	ws := s.workspace()
	defer s.scratch.Put(ws)
	rel := &ws.rel
	rel.load(form)
	tol, st := s.relax(rel, opts.Memory)

	// Pinned jobs have x = 0 and are infeasible even alone, so rounding
	// and polish only ever look at the live columns.
	x, live := rel.sol, rel.live

	if ws.g.Len() != n {
		ws.g = moo.NewGenome(n)
	}
	g := ws.g

	var bestObjs []float64
	var bestGenome moo.Genome
	consider := func() {
		objs, feasible := ev.Evaluate(g)
		if !feasible {
			return
		}
		if bestObjs == nil || objs[0] > bestObjs[0] {
			bestObjs = objs
			bestGenome = g.Clone() // detach from the reused scratch genome
		}
	}

	// The support of the fractional solution, by descending value (ties
	// toward the window front, i.e. base-policy order). When it is empty —
	// on a saturated machine, usually because nothing is live — every
	// candidate below is the empty selection and draws nothing from
	// opts.Rand, so only the backstop runs.
	support := ws.order[:0]
	for _, i := range live {
		if x[i] > 0 {
			support = append(support, i)
		}
	}
	ws.order = support
	sortByValueDesc(support, x)

	if len(support) > 0 {
		// Greedy candidate: walk the support in order and keep each job
		// that still fits. Exact feasibility comes from the problem's own
		// Evaluate, so placement-dependent constraints the relaxation only
		// approximated are honored here.
		g.Zero()
		for _, i := range support {
			g.SetBit(i, true)
			if _, feasible := ev.Evaluate(g); !feasible {
				g.SetBit(i, false)
			}
		}
		consider()

		// Threshold candidate: the integral part of the fractional
		// solution, repaired when the rounding pushed it over capacity.
		g.Zero()
		for _, i := range live {
			if x[i] >= 0.5 {
				g.SetBit(i, true)
			}
		}
		if _, feasible := ev.Evaluate(g); !feasible && rep != nil {
			rep.Repair(g, opts.Rand.Intn)
		}
		consider()

		// Randomized rounding: deterministic given the invocation stream —
		// bit i is drawn with probability x_i, infeasible draws are repaired.
		for t := 0; t < s.cfg.RoundTrials; t++ {
			g.Zero()
			for _, i := range live {
				if xi := x[i]; xi > 0 && opts.Rand.Float64() < xi {
					g.SetBit(i, true)
				}
			}
			if _, feasible := ev.Evaluate(g); !feasible && rep != nil {
				rep.Repair(g, opts.Rand.Intn)
			}
			consider()
		}
	}

	// The empty selection backstops over-tight instances (it is feasible
	// unless the snapshot itself violates capacity).
	g.Zero()
	consider()

	if bestObjs == nil {
		return nil, fmt.Errorf("lp: no feasible rounded solution for %d-job window", n)
	}

	// Local polish: a deterministic hill-climb on the incumbent, scored
	// through the true (placement-aware) Evaluate. The fractional order
	// that shaped the candidates came from the linear columns, which only
	// approximate placement effects (the §5 waste term); cumulative
	// single-bit flips — plus drop-one/add-one swaps on oracle-grade
	// windows, where a full machine leaves no room for a bare add — close
	// most of that gap. Small windows only: a flip sweep costs n
	// evaluations, a swap sweep up to n².
	if n <= s.cfg.PolishMaxDim {
		g.CopyFrom(bestGenome)
		swaps := n <= swapPolishMaxDim
		for improved, sweeps := true, 0; improved && sweeps < 8; sweeps++ {
			improved = false
			for _, i := range live {
				g.FlipBit(i)
				if objs, feasible := ev.Evaluate(g); feasible && objs[0] > bestObjs[0] {
					bestObjs = objs
					improved = true
				} else {
					g.FlipBit(i)
				}
			}
			if !swaps {
				continue
			}
			for _, i := range live {
				if !g.Bit(i) {
					continue
				}
				for _, j := range live {
					if g.Bit(j) {
						continue
					}
					g.FlipBit(i)
					g.FlipBit(j)
					if objs, feasible := ev.Evaluate(g); feasible && objs[0] > bestObjs[0] {
						bestObjs = objs
						improved = true
						break // i left the selection; move to the next i
					}
					g.FlipBit(i)
					g.FlipBit(j)
				}
			}
		}
		bestGenome = g.Clone()
	}

	if opts.Memory != nil {
		s.remember(opts.Memory, rel, tol, st.Primal, bestObjs[0])
	}
	return []moo.Solution{{
		Genome:     bestGenome,
		Objectives: append([]float64(nil), bestObjs...),
	}}, nil
}

// SolvePinned implements solver.Solver: Solve's no-live-column arm without
// the form. When every column is pinned, what Solve carries to the next
// window depends on n, on the positive entries of caps (the kept rows), on
// the stored iterate and on the tolerance, and on nothing else: every
// chunk loop is empty, operatorNorm returns 0, each partial sum is +0, so
// the dual iterate takes the same O(m) steps; Primal is 0, so only the
// tolerance clamp applies; x is n zeros and is stored as nil. So the
// workspace is sized to (n, kept rows, no live column), solved by the same
// solveFrom and stored by the same remember — memo, WarmRejected and its
// one-time log as Solve leaves them. Solve draws nothing on such a window
// either: the support is empty, so only the empty selection is evaluated.
func (s *Solver) SolvePinned(n int, caps []float64, opts solver.Options) {
	if opts.Memory == nil {
		return // a stateless solve carries nothing forward
	}
	ws := s.workspace()
	defer s.scratch.Put(ws)
	rel := &ws.rel
	rel.pin(n, caps)
	tol, st := s.relax(rel, opts.Memory)
	s.remember(opts.Memory, rel, tol, st.Primal, 0)
}

// workspace takes a pooled workspace, or builds one.
func (s *Solver) workspace() *workspace {
	if ws, _ := s.scratch.Get().(*workspace); ws != nil {
		return ws
	}
	return &workspace{}
}

// relax solves the loaded relaxation, warm-started from the previous
// window's iterate at the tolerance it tuned when mem holds them; a nil
// Memory (stateless callers, the historical default) cold-starts at the
// configured tolerance. It returns the tolerance it solved at.
func (s *Solver) relax(rel *relaxation, mem *solver.Memory) (float64, Stats) {
	cfg := s.cfg
	var warm *warmStart
	if mem != nil {
		if v, ok := mem.Load(s); ok {
			prev := v.(*memo)
			warm = &prev.warmStart
			if prev.tol > 0 {
				cfg.Tol = prev.tol
			}
		}
	}
	st := rel.solveFrom(cfg, warm)
	if st.WarmRejected {
		logWarmRejected(warm, rel.n, rel.m)
	}
	return cfg.Tol, st
}

// remember carries the final iterate forward for the next window and
// adapts the tolerance tol the window was solved at to observed rounding
// quality: when the rounded selection's objective best already recovers
// ≥99.5% of the relaxation's primal bound the gap tail buys nothing, so
// loosen; when it recovers <90% the fractional point was too sloppy to
// round well, so tighten. Clamped to [Tol/8, Tol·8] around the configured
// value.
func (s *Solver) remember(mem *solver.Memory, rel *relaxation, tol, primal, best float64) {
	if primal > 0 && best > 0 {
		switch q := best / primal; {
		case q >= 0.995:
			tol *= 2
		case q < 0.9:
			tol /= 2
		}
	}
	if min := s.cfg.Tol / 8; tol < min {
		tol = min
	}
	if max := s.cfg.Tol * 8; tol > max {
		tol = max
	}
	next := &memo{warmStart: warmStart{n: rel.n, y: append([]float64(nil), rel.y...)}, tol: tol}
	if len(rel.live) > 0 {
		// With no live column x is n zeros, which n alone says: the dead
		// windows of a saturated machine, nearly all of a deep queue's,
		// store no window-length vector.
		next.x = append([]float64(nil), rel.sol...)
	}
	mem.Store(s, next)
}

// sortByValueDesc sorts idx by descending x value, ties by ascending
// index (window front first) — a total order, so the unstable sort is
// deterministic.
func sortByValueDesc(idx []int, x []float64) {
	slices.SortFunc(idx, func(a, b int) int {
		return cmp.Or(cmp.Compare(x[b], x[a]), cmp.Compare(a, b))
	})
}
