package sched

import (
	"fmt"
	"slices"
	"sort"
	"sync"

	"bbsched/internal/cluster"
	"bbsched/internal/job"
	"bbsched/internal/moo"
	"bbsched/internal/rng"
	"bbsched/internal/solver"
)

// Context carries everything a scheduling method may use to pick jobs from
// the window at one scheduling invocation. Callers that run many passes
// (core.Plugin) reuse one Context so the unexported scratch buffers — the
// snapshot copy, selection indices, and placement buffers the heuristic
// methods draw on — persist across invocations and the steady-state pass
// allocates nothing.
type Context struct {
	// Now is the current simulation time in seconds.
	Now int64
	// Window is the job window in base-policy order (§3.1).
	Window []*job.Job
	// Snap is the machine's free resources; methods must not assume they
	// may keep it (clone before mutating).
	Snap cluster.Snapshot
	// Totals normalizes utilization objectives in weighted methods.
	Totals Totals
	// Rand is a per-invocation deterministic stream for stochastic solvers.
	Rand *rng.Stream

	// pooled scratch for the in-package heuristic methods (lazily grown;
	// meaningful reuse requires the caller to reuse the Context itself)
	scratch  cluster.Snapshot
	idxBuf   []int
	remBuf   []int
	placeBuf []int
}

// scratchSnapshot resets the pooled scratch snapshot to Snap's state.
func (c *Context) scratchSnapshot() *cluster.Snapshot {
	c.scratch.CopyFrom(c.Snap)
	return &c.scratch
}

// placementBuf returns the pooled per-class placement buffer for
// Snapshot.AllocInto calls whose placements are discarded.
func (c *Context) placementBuf() []int {
	n := c.Snap.NumClasses()
	if cap(c.placeBuf) < n {
		c.placeBuf = make([]int, n)
	}
	return c.placeBuf[:n]
}

// Method selects which window jobs to start now, returning indices into
// ctx.Window. Implementations never allocate on the live cluster; the
// caller does, in the returned order.
//
// core.Plugin calls Select only on a pass that can start a window job: one
// where some job of the window fits the free snapshot on its own
// (FitsAlone), or where the snapshot is over capacity (OverCapacity). On
// every other pass the empty selection is the only one that fits, so the
// Plugin answers it without the method. A method that must see those
// passes too — one that keeps state stepped by every call, like
// core.Adaptive — implements EveryPass. A method that is misconfigured
// (bad weights, a vetoed backend) therefore reports its error on the
// first pass that can start a job, not on the first pass.
type Method interface {
	// Name identifies the method in experiment output (§4.3 names).
	Name() string
	// Select returns the chosen window indices.
	Select(ctx *Context) ([]int, error)
}

// EveryPass is implemented by a method that core.Plugin must call on every
// scheduling pass, including those whose window no job can start from
// (see Method). core.Plugin checks for it once, when it wraps the method.
type EveryPass interface {
	SeesEveryPass()
}

// Baseline is the naive method (§1, §4.3): allocate window jobs strictly
// in base-policy order, stopping at the first job that does not fit —
// exactly Slurm's behaviour of walking the queue until either CPU or burst
// buffer is exhausted. Skipped-over combinations are left to backfilling.
type Baseline struct{}

// Name implements Method.
func (Baseline) Name() string { return "Baseline" }

// Select implements Method. It reuses the Context's pooled scratch, so a
// steady-state pass allocates nothing.
func (Baseline) Select(ctx *Context) ([]int, error) {
	scratch := ctx.scratchSnapshot()
	buf := ctx.placementBuf()
	out := ctx.idxBuf[:0]
	for i, j := range ctx.Window {
		if _, err := scratch.AllocInto(j.Demand, buf); err != nil {
			break
		}
		out = append(out, i)
	}
	ctx.idxBuf = out
	if len(out) == 0 {
		return nil, nil
	}
	return out, nil
}

// SolverConfigurable is implemented by methods whose optimization backend
// is pluggable (Weighted, Constrained, core.BBSched). SetSolver installs
// the backend; a nil solver restores the method's default (the genetic
// algorithm over its GA configuration). The override is synchronized, so
// concurrent configuration (e.g. sweep workers re-applying the same
// backend to a shared method) is safe; in-flight Selects use either the
// old or the new backend.
type SolverConfigurable interface {
	Method
	SetSolver(s solver.Solver)
}

// SolverVetoer is implemented by methods that can reject an incompatible
// backend at configuration time (core.BBSched requires the Pareto-front
// capability). registry.ApplySolver consults it before SetSolver, so
// misconfiguration fails at setup instead of mid-run.
type SolverVetoer interface {
	VetoSolver(s solver.Solver) error
}

// solverNamer is implemented by methods that report their backend name.
type solverNamer interface{ SolverName() string }

// SolverNameOf returns the optimization backend a method runs on: the
// solver's registry name for solver-backed methods, "-" for fixed
// heuristics (Baseline, BinPacking) that have no solver to swap.
func SolverNameOf(m Method) string {
	if n, ok := m.(solverNamer); ok {
		return n.SolverName()
	}
	return "-"
}

// SolverSlot holds a method's pluggable backend: the configured override
// (guarded — Set may race with in-flight Selects on a shared method
// instance) or a lazily built (once) GA backend over the method's GA
// configuration — the pre-refactor behaviour, bit for bit — and the
// storage its solves are built in (SolveWindow), kept between them. Embed one to give a
// custom method the same SetSolver/Select concurrency contract the
// built-in methods have.
type SolverSlot struct {
	mu       sync.RWMutex
	override solver.Solver

	once sync.Once
	ga   *solver.GA

	// idle holds the bindings no solve is using (guarded by mu). A free
	// list rather than a field keeps the method safe for concurrent
	// Selects — they draw separate bindings, as many as ever ran at once —
	// and rather than a sync.Pool keeps one run at exactly one binding: a
	// Pool holds one per P and drops them at every other collection, which
	// a deep-queue replay's live heap and allocation count both showed.
	idle []*binding
}

// binding is the storage one solve is built in, kept from one scheduling
// decision to the next: the memoizing evaluator (its cache capacity and
// the GA generation buffers parked on it), and the selection problem and
// the scalarization around it, each with its linear-form buffers.
type binding struct {
	ev   *moo.Evaluator
	prob SelectionProblem
	scal scalarized
}

// Set installs the backend override; nil restores the GA default.
func (b *SolverSlot) Set(s solver.Solver) {
	b.mu.Lock()
	b.override = s
	b.mu.Unlock()
}

// Resolve returns the configured backend, defaulting (once) to the
// genetic algorithm over cfg.
func (b *SolverSlot) Resolve(cfg moo.GAConfig) solver.Solver {
	b.mu.RLock()
	s := b.override
	b.mu.RUnlock()
	if s != nil {
		return s
	}
	b.once.Do(func() { b.ga = solver.NewGA(cfg) })
	return b.ga
}

// SolveWindow is the one solve path under every solver-backed method
// (Weighted, Constrained, core.BBSched): it states ctx's window as the
// selection problem over objectives — scalarized by weights against
// ctx.Totals when weights is non-nil — and hands it, wrapped in a
// memoizing evaluator, to the resolved backend. It returns the backend's
// front; a nil front means the empty selection.
//
// A window that has one answer is not solved. When the window is dead
// (windowDead) the empty selection is the only feasible one, so the
// backend is not called and no problem, evaluator or linear form is built:
// the pass costs one early-exit walk over the window. No backend keeps
// state between solves (solver.Solver), so this rule holds for every one.
// core.Plugin answers such windows before it calls the method (see
// Method), so under a scheduling pass this check is only reached by
// methods that see every pass; it stays for direct callers —
// core.BBSched.ParetoFront, the experiments and tests.
//
// What is built is built in place: problem, scalarization, evaluator and
// linear form live in one kept binding and are rebound to the window,
// so a steady-state solve allocates nothing that grows with it. A custom
// Method that wants neither the shortcut nor the kept storage calls its
// solver directly.
func (b *SolverSlot) SolveWindow(ctx *Context, cfg moo.GAConfig, objectives []Objective, weights []float64) ([]moo.Solution, error) {
	if len(ctx.Window) == 0 || windowDead(ctx) {
		return nil, nil
	}
	backend := b.Resolve(cfg)
	bd := b.takeBinding()
	bd.prob.Reset(ctx.Window, ctx.Snap, objectives)
	var p moo.Problem = &bd.prob
	if weights != nil {
		bd.scal.reset(&bd.prob, weights, ctx.Totals)
		p = &bd.scal
	}
	bd.ev = moo.ReuseEvaluator(bd.ev, p)
	front, err := backend.Solve(bd.ev, solver.Options{Rand: ctx.Rand})
	b.mu.Lock()
	b.idle = append(b.idle, bd)
	b.mu.Unlock()
	return front, err
}

// takeBinding returns an idle binding, or a new one.
func (b *SolverSlot) takeBinding() *binding {
	b.mu.Lock()
	defer b.mu.Unlock()
	n := len(b.idle)
	if n == 0 {
		return &binding{}
	}
	bd := b.idle[n-1]
	b.idle = b.idle[:n-1]
	return bd
}

// windowDead reports whether no job of ctx's window fits the free
// snapshot even alone — exactly when no single-job genome is feasible
// under SelectionProblem.Evaluate, and hence (demands are non-negative)
// when the empty selection is the only feasible one. Snapshot.CanFit
// mirrors AllocInto, which is what Evaluate's slow path runs and what its
// column-sum fast path reduces to on validated (≥ 1 node) demands. A job
// that needs more nodes or burst buffer than is free in total cannot fit,
// so those compares go first and FitsAlone runs only on the jobs they
// pass. An over-capacity snapshot is never dead (OverCapacity).
func windowDead(ctx *Context) bool {
	snap := &ctx.Snap
	if OverCapacity(snap) {
		return false
	}
	freeNodes, freeBB := int64(snap.FreeNodes()), snap.FreeBB
	for _, j := range ctx.Window {
		d := j.Demand
		if int64(d.NodeCount()) <= freeNodes && d.BB() <= freeBB && FitsAlone(snap, d) {
			return false
		}
	}
	return true
}

// FitsAlone reports whether demand d fits snap's free resources on its
// own (Snapshot.CanFit), for a caller that has already compared d's node
// and burst-buffer demands with the free totals: the extra dimensions'
// totals are compared first, and CanFit runs only on a demand they pass.
// It is the one fit-alone test behind a dead window, in windowDead and
// core.Plugin alike.
func FitsAlone(snap *cluster.Snapshot, d job.Demand) bool {
	for k, free := range snap.FreeExtra {
		if d.Extra(k) > free {
			return false
		}
	}
	return snap.CanFit(d)
}

// OverCapacity reports whether snap holds a negative free amount — nodes
// in total, burst buffer or an extra dimension. Such a snapshot is never
// called dead: there even the empty selection may be infeasible, and the
// method's or backend's own answer to that — an error, for every built-in
// one — is kept.
func OverCapacity(snap *cluster.Snapshot) bool {
	return snap.FreeNodes() < 0 || snap.FreeBB < 0 || slices.ContainsFunc(snap.FreeExtra, func(v int64) bool { return v < 0 })
}

// Weighted maximizes a weighted sum of machine-normalized resource
// utilizations (§4.3: Weighted 50/50, Weighted_CPU 80/20, Weighted_BB
// 20/80; §5 adds SSD terms). It returns the single best solution found.
type Weighted struct {
	// MethodName distinguishes the weight presets in output.
	MethodName string
	// Objectives lists the objectives combined; Weights aligns with it.
	Objectives []Objective
	// Weights are the scalarization weights (summing to 1 by convention).
	Weights []float64
	// GA configures the default genetic backend; SetSolver overrides the
	// backend entirely (nil restores the GA — the paper's behaviour).
	GA moo.GAConfig

	backend SolverSlot
}

// NewWeighted builds a weighted method over the two §3.2 objectives.
func NewWeighted(name string, wNode, wBB float64, ga moo.GAConfig) *Weighted {
	return &Weighted{MethodName: name, Objectives: TwoObjectives(), Weights: []float64{wNode, wBB}, GA: ga}
}

// NewWeightedFor builds an equally weighted method over an arbitrary
// objective list — typically ObjectivesFor(cfg, ssd), giving every
// resource dimension weight 1/n.
func NewWeightedFor(name string, objectives []Objective, ga moo.GAConfig) *Weighted {
	weights := make([]float64, len(objectives))
	for i := range weights {
		weights[i] = 1 / float64(len(objectives))
	}
	return &Weighted{MethodName: name, Objectives: objectives, Weights: weights, GA: ga}
}

// Name implements Method.
func (w *Weighted) Name() string { return w.MethodName }

// SetSolver implements SolverConfigurable.
func (w *Weighted) SetSolver(s solver.Solver) { w.backend.Set(s) }

// SolverName returns the backend's registry name.
func (w *Weighted) SolverName() string { return w.backend.Resolve(w.GA).Name() }

// Select implements Method: scalarize the utilization objectives and hand
// the single-objective problem to the configured backend (see
// SolverSlot.SolveWindow).
func (w *Weighted) Select(ctx *Context) ([]int, error) {
	if len(w.Weights) != len(w.Objectives) {
		return nil, fmt.Errorf("sched: %s has %d weights for %d objectives", w.MethodName, len(w.Weights), len(w.Objectives))
	}
	front, err := w.backend.SolveWindow(ctx, w.GA, w.Objectives, w.Weights)
	if err != nil {
		return nil, fmt.Errorf("sched: %s: %w", w.MethodName, err)
	}
	return bestScalar(front), nil
}

// Constrained maximizes one resource's utilization with the remaining
// resources acting purely as constraints (§4.3: Constrained_CPU,
// Constrained_BB; §5 adds Constrained_SSD).
type Constrained struct {
	// MethodName distinguishes the presets in output.
	MethodName string
	// Target is the single maximized objective.
	Target Objective
	// GA configures the default genetic backend; SetSolver overrides the
	// backend entirely (see Weighted).
	GA moo.GAConfig

	backend SolverSlot
}

// Name implements Method.
func (c *Constrained) Name() string { return c.MethodName }

// SetSolver implements SolverConfigurable.
func (c *Constrained) SetSolver(s solver.Solver) { c.backend.Set(s) }

// SolverName returns the backend's registry name.
func (c *Constrained) SolverName() string { return c.backend.Resolve(c.GA).Name() }

// Select implements Method.
func (c *Constrained) Select(ctx *Context) ([]int, error) {
	front, err := c.backend.SolveWindow(ctx, c.GA, []Objective{c.Target}, nil)
	if err != nil {
		return nil, fmt.Errorf("sched: %s: %w", c.MethodName, err)
	}
	return bestScalar(front), nil
}

// bestScalar returns the window indices of the front's solution with the
// highest first objective — the first such solution in front order when
// several tie — and nil for an empty front or an empty selection.
func bestScalar(front []moo.Solution) []int {
	if len(front) == 0 {
		return nil
	}
	best := 0
	for i := 1; i < len(front); i++ {
		if front[i].Objectives[0] > front[best].Objectives[0] {
			best = i
		}
	}
	return Selected(front[best].Genome)
}

// BinPacking is the Tetris-style heuristic of [18] (§4.3): repeatedly
// start the fitting job whose demand vector has the largest dot product
// with the machine's remaining resources (both machine-normalized), until
// nothing fits.
type BinPacking struct{}

// Name implements Method.
func (BinPacking) Name() string { return "Bin_Packing" }

// Select implements Method. It reuses the Context's pooled scratch, so a
// steady-state pass allocates nothing.
func (BinPacking) Select(ctx *Context) ([]int, error) {
	scratch := ctx.scratchSnapshot()
	buf := ctx.placementBuf()
	remaining := ctx.remBuf[:0]
	for i := range ctx.Window {
		remaining = append(remaining, i)
	}
	ctx.remBuf = remaining
	out := ctx.idxBuf[:0]
	for len(remaining) > 0 {
		bestIdx, bestPos := -1, -1
		bestScore := -1.0
		for pos, i := range remaining {
			d := ctx.Window[i].Demand
			if !scratch.CanFit(d) {
				continue
			}
			s := alignment(d, *scratch, ctx.Totals)
			if s > bestScore {
				bestScore, bestIdx, bestPos = s, i, pos
			}
		}
		if bestIdx < 0 {
			break
		}
		if _, err := scratch.AllocInto(ctx.Window[bestIdx].Demand, buf); err != nil {
			ctx.idxBuf = out
			return nil, fmt.Errorf("sched: bin packing alloc after CanFit: %w", err)
		}
		out = append(out, bestIdx)
		remaining = append(remaining[:bestPos], remaining[bestPos+1:]...)
	}
	sort.Ints(out)
	ctx.idxBuf = out
	if len(out) == 0 {
		return nil, nil
	}
	return out, nil
}

// alignment is the Tetris score: ⟨demand, free⟩ with every dimension
// normalized by machine totals so nodes, bytes, and any extra dimension's
// units are comparable.
func alignment(d job.Demand, snap cluster.Snapshot, t Totals) float64 {
	score := 0.0
	if t.Nodes > 0 {
		score += (float64(d.NodeCount()) / float64(t.Nodes)) * (float64(snap.FreeNodes()) / float64(t.Nodes))
	}
	if t.BBGB > 0 {
		score += (float64(d.BB()) / float64(t.BBGB)) * (float64(snap.FreeBB) / float64(t.BBGB))
	}
	if t.SSDGB > 0 {
		var freeSSD int64
		for i := 0; i < snap.NumClasses(); i++ {
			freeSSD += int64(snap.FreeByClass[i]) * snap.ClassCapacity(i)
		}
		score += (float64(d.TotalSSD()) / float64(t.SSDGB)) * (float64(freeSSD) / float64(t.SSDGB))
	}
	for k := 0; k < snap.NumExtra() && k < len(t.Extra); k++ {
		if total := t.Extra[k]; total > 0 {
			score += (float64(d.Extra(k)) / float64(total)) * (float64(snap.FreeExtra[k]) / float64(total))
		}
	}
	return score
}
