// Package core implements BBSched, the paper's contribution: a
// multi-resource scheduling plugin that formulates window job selection as
// a multi-objective optimization problem (§3.2.1), solves it with a
// multi-objective genetic algorithm (§3.2.2), and picks the dispatched
// solution from the resulting Pareto set with the §3.2.4 decision rule.
//
// The package has two layers:
//
//   - BBSched, a sched.Method: MOO solve + decision rule over one window.
//   - Plugin, the window-based scheduling pass of §3.1 that wraps any
//     sched.Method (BBSched or a §4.3 comparison method) behind a base
//     scheduler's job ordering, with dependency gating and the starvation
//     bound.
//
// The Plugin orders its window on demand. A pass first reads the window
// unordered (queue.Ranking.Window): starvation forcing and the test for a
// dead window need only the window jobs that may fit the free machine,
// compared with each other. Only a live window, or a method that sees
// every pass (sched.EveryPass), is read in base order and handed to the
// method. Either way the window is aged by counting: the queue counts the
// pass for its front, whose slots hold their jobs' window ages
// (queue.Ranking.AgeWindow and Age); no job is written. Backfilling reads
// only what it needs of a dead window (Plugin.Ahead); Plugin.LeftBehind
// orders it on demand.
package core

import (
	"errors"
	"fmt"
	"strings"

	"bbsched/internal/cluster"
	"bbsched/internal/job"
	"bbsched/internal/moo"
	"bbsched/internal/queue"
	"bbsched/internal/rng"
	"bbsched/internal/sched"
	"bbsched/internal/solver"
)

// BBSched selects window jobs by Pareto optimization. It implements
// sched.Method.
type BBSched struct {
	// Objectives lists the maximized objectives; Objectives[0] must be
	// sched.NodeUtil (the decision rule anchors on node utilization).
	Objectives []sched.Objective
	// GA configures the MOO solver (§3.2.3 defaults: G=500, P=20,
	// p_m=0.05%).
	GA moo.GAConfig
	// TradeoffFactor is the decision rule's replacement threshold: the
	// preferred max-node-utilization solution is swapped for another
	// Pareto solution whose summed gain on the non-node objectives
	// exceeds TradeoffFactor times the node-utilization loss. The paper
	// uses 2 for the two-objective problem and 4 for four objectives.
	TradeoffFactor float64

	// Pluggable backend (SetSolver); unset runs the genetic algorithm
	// over the GA configuration. BBSched's §3.2.4 decision rule consumes
	// a Pareto set, so the backend must report the ParetoFront capability
	// — scalar-only backends (lp) are vetoed at configuration time; they
	// back the scalarized methods (Weighted_LP, Constrained_LP) instead.
	// The slot also keeps the storage solves are built in — one binding
	// per concurrent solve, so BBSched stays safe for concurrent Selects.
	backend sched.SolverSlot
}

// New returns BBSched with the paper's §4.3 defaults for the two-objective
// CPU + burst-buffer problem.
func New() *BBSched { return NewForObjectives(sched.TwoObjectives()) }

// NewForObjectives returns BBSched over an objective list — typically
// sched.ObjectivesFor(cfg, ssd), one utilization objective per resource
// dimension, plus the §5 SSD pair (sched.FourObjectives on the paper's
// machine). Objectives[0] must be sched.NodeUtil. The trade-off factor is
// the objective count, the paper's choices: 2 for the two-objective
// problem, 4 for four objectives.
func NewForObjectives(objectives []sched.Objective) *BBSched {
	return &BBSched{Objectives: objectives, GA: moo.DefaultGAConfig(), TradeoffFactor: float64(len(objectives))}
}

// Name implements sched.Method.
func (b *BBSched) Name() string { return "BBSched" }

// SetSolver implements sched.SolverConfigurable.
func (b *BBSched) SetSolver(s solver.Solver) { b.backend.Set(s) }

// VetoSolver implements sched.SolverVetoer: the decision rule needs a
// Pareto set over the multi-objective problem, so scalar-only backends
// are rejected up front.
func (b *BBSched) VetoSolver(s solver.Solver) error {
	if len(b.Objectives) > 1 && !s.Capabilities().ParetoFront {
		return fmt.Errorf("core: BBSched needs a Pareto-front-capable solver; %q solves scalarizations only (use Weighted_%s / Constrained_%s)",
			s.Name(), strings.ToUpper(s.Name()), strings.ToUpper(s.Name()))
	}
	return nil
}

// SolverName returns the backend's registry name.
func (b *BBSched) SolverName() string { return b.backend.Resolve(b.GA).Name() }

func (b *BBSched) validate() error {
	if len(b.Objectives) == 0 {
		return errors.New("core: BBSched with no objectives")
	}
	if b.Objectives[0] != sched.NodeUtil {
		return fmt.Errorf("core: BBSched objective 0 is %s, must be node_util", b.Objectives[0])
	}
	if b.TradeoffFactor < 0 {
		return fmt.Errorf("core: negative trade-off factor %v", b.TradeoffFactor)
	}
	if err := b.VetoSolver(b.backend.Resolve(b.GA)); err != nil {
		return err // defense in depth: backends installed without SetSolver vetting
	}
	return nil
}

// ParetoFront solves the window-selection MOO problem and returns the
// Pareto set, for decision support and the Fig. 2/4 experiments. The
// front is nil when the window is empty or no job in it fits the free
// machine: the empty selection is then the only feasible one and nothing
// is solved (sched.SolverSlot.SolveWindow). Nil starts what a front
// holding only the empty selection starts: nothing.
func (b *BBSched) ParetoFront(ctx *sched.Context) ([]moo.Solution, error) {
	if err := b.validate(); err != nil {
		return nil, err
	}
	return b.backend.SolveWindow(ctx, b.GA, b.Objectives, nil)
}

// Select implements sched.Method: solve the MOO problem, then apply the
// decision rule to the Pareto set.
func (b *BBSched) Select(ctx *sched.Context) ([]int, error) {
	front, err := b.ParetoFront(ctx)
	if err != nil {
		return nil, err
	}
	if len(front) == 0 {
		return nil, nil
	}
	pick := Decide(front, b.Objectives, ctx.Totals, b.TradeoffFactor)
	return sched.Selected(front[pick].Genome), nil
}

// Decide implements the §3.2.4 (and §5) decision rule over a Pareto front:
//
//  1. Prefer the solution maximizing node utilization; among ties, the one
//     selecting jobs nearest the front of the window (preserving base
//     order).
//  2. Replace it with another Pareto solution if that solution's summed
//     normalized improvement on all non-node objectives exceeds factor ×
//     the normalized node-utilization loss; among several such solutions
//     take the one with the maximum improvement.
//
// Objective values are normalized by machine totals so "2× the loss" means
// percentage points against percentage points, as in the paper's example.
// It returns an index into front and panics on an empty front.
func Decide(front []moo.Solution, objectives []sched.Objective, totals sched.Totals, factor float64) int {
	if len(front) == 0 {
		panic("core: decision over empty Pareto front")
	}
	denom := totals.Denominators(objectives)
	for k := range denom {
		if denom[k] == 0 {
			denom[k] = 1
		}
	}
	norm := func(i, k int) float64 { return front[i].Objectives[k] / denom[k] }

	// Step 1: max node utilization, ties toward front-of-window selections.
	pref := 0
	for i := 1; i < len(front); i++ {
		ni, np := norm(i, 0), norm(pref, 0)
		switch {
		case ni > np:
			pref = i
		case ni == np && frontOfWindowLess(front[pref].Genome, front[i].Genome):
			pref = i
		}
	}

	// Step 2: trade-off replacement.
	best := pref
	bestGain := 0.0
	for i := range front {
		if i == pref {
			continue
		}
		loss := norm(pref, 0) - norm(i, 0)
		gain := 0.0
		for k := 1; k < len(objectives); k++ {
			gain += norm(i, k) - norm(pref, k)
		}
		if loss < 0 {
			// Cannot happen within a Pareto front unless node utilization
			// ties; such a solution never loses, treat as zero loss.
			loss = 0
		}
		if gain > factor*loss && gain > bestGain {
			best, bestGain = i, gain
		}
	}
	return best
}

// frontOfWindowLess reports whether selection b selects jobs strictly
// nearer the window front than a (first differing position selected by b
// but not a), word-at-a-time over the packed genomes.
func frontOfWindowLess(a, b moo.Genome) bool {
	bw := b.Words()
	for i, aw := range a.Words() {
		if diff := aw ^ bw[i]; diff != 0 {
			return bw[i]&(diff&-diff) != 0
		}
	}
	return false
}

// PluginConfig parameterizes the window-based scheduling pass of §3.1.
type PluginConfig struct {
	// WindowSize is w, the number of queue-front jobs optimized over.
	// Paper default 20.
	WindowSize int
	// StarvationBound forces a job to be dispatched once it has sat in
	// the window for this many scheduling iterations (paper example: 50).
	// Zero disables forcing.
	StarvationBound int
	// WindowPolicy, when non-nil, sizes the window dynamically from the
	// queue length instead of the static WindowSize (§3.1's dynamic
	// adjustment option).
	WindowPolicy WindowPolicy
}

// DefaultPluginConfig returns the paper's defaults: w=20, bound=50.
func DefaultPluginConfig() PluginConfig {
	return PluginConfig{WindowSize: 20, StarvationBound: 50}
}

// Validate checks the configuration.
func (c PluginConfig) Validate() error {
	if c.WindowSize <= 0 && c.WindowPolicy == nil {
		return fmt.Errorf("core: window size %d without a window policy", c.WindowSize)
	}
	if c.StarvationBound < 0 {
		return fmt.Errorf("core: negative starvation bound %d", c.StarvationBound)
	}
	if c.WindowPolicy != nil && c.WindowPolicy.Size(1) < 1 {
		return fmt.Errorf("core: window policy %s returns a non-positive size", c.WindowPolicy.Name())
	}
	return nil
}

// Plugin performs window-based scheduling passes: it extracts the window
// from the base-ordered queue, force-starts starved jobs, and delegates
// the remaining selection to the wrapped method when some window job can
// start (see Decide). The same Plugin wraps
// BBSched and every §4.3 comparison method, so all methods see identical
// window semantics (§4.3: "we use the same window size for all methods").
//
// A Plugin pools its per-pass scratch (window, selection, and snapshot
// buffers) across Decide calls, so it is not safe for concurrent use —
// each concurrent simulation builds its own Plugin (methods, by contrast,
// may be shared; they pool per-solve state internally).
type Plugin struct {
	cfg    PluginConfig
	method sched.Method
	// everyPass: the method implements sched.EveryPass, so Decide calls it
	// on dead windows too.
	everyPass bool

	// pooled per-pass scratch; left aliases the ranking's storage, which
	// after a dead pass (aged) holds only what backfilling needs of it
	rest     []*job.Job
	left     []queue.Entry
	ranking  *queue.Ranking
	aged     bool
	started  []*job.Job
	forced   []bool
	chosen   []bool
	scratch  cluster.Snapshot
	verify   cluster.Snapshot
	placeBuf []int
	mctx     sched.Context
}

// NewPlugin wraps method with window semantics.
func NewPlugin(cfg PluginConfig, method sched.Method) (*Plugin, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if method == nil {
		return nil, errors.New("core: nil method")
	}
	_, everyPass := method.(sched.EveryPass)
	return &Plugin{cfg: cfg, method: method, everyPass: everyPass}, nil
}

// Method returns the wrapped selection method.
func (p *Plugin) Method() sched.Method { return p.method }

// Config returns the plugin configuration.
func (p *Plugin) Config() PluginConfig { return p.cfg }

// DecideContext is one scheduling invocation's inputs.
type DecideContext struct {
	// Now is the simulation time in seconds.
	Now int64
	// Ranking is the dep-ready waiting queue in base-policy order at Now
	// (queue.Queue.Pass or Rank), made with WindowSize(QueueLen) as its
	// front: Decide reads, forces from and ages only the queue's front,
	// and fails on a ranking whose front is not the window. Decide takes
	// its window off the front; what it leaves is what EASY backfilling
	// walks after Ahead.
	Ranking *queue.Ranking
	// QueueLen is the number of waiting jobs, dependency-blocked ones
	// included — what a WindowPolicy sizes the window from.
	QueueLen int
	// Snap is the machine's current free resources.
	Snap cluster.Snapshot
	// Totals provides machine capacities for normalization.
	Totals sched.Totals
	// Rand is the invocation's deterministic stream.
	Rand *rng.Stream
}

// WindowSize returns the window a pass over queueLen waiting jobs takes:
// the configured size, or the window policy's. The caller ranks the queue
// with it as the front (queue.Queue.Pass), so the window is the queue's
// front.
func (p *Plugin) WindowSize(queueLen int) int {
	if p.cfg.WindowPolicy != nil {
		return p.cfg.WindowPolicy.Size(queueLen)
	}
	return p.cfg.WindowSize
}

// Decide runs one scheduling pass and returns the jobs to start, in start
// order. It mutates no job: the window jobs left behind age by one pass in
// the ranking's queue (queue.Ranking.AgeWindow, or Age on a dead pass),
// and resource allocation is the caller's job. The returned slice is
// pooled scratch, valid only until the next Decide call.
//
// A dead window — one where, after starvation forcing, no job fits the
// free machine on its own (sched.FitsAlone), on a snapshot that is not
// over capacity (sched.OverCapacity) — has one answer, the empty
// selection, and Decide gives it without calling the method. Only a method
// that implements sched.EveryPass is called on such a pass. Decide first
// reads the window unordered (queue.Ranking.Window): forcing can start,
// and the liveness test can find, only jobs that pass MayFit against the
// free totals before forcing starts any, since forcing only takes from
// them. Only a live window, or a method that sees every pass, is read in
// order; a dead one is aged and taken unordered (queue.Ranking.Age).
func (p *Plugin) Decide(ctx DecideContext) ([]*job.Job, error) {
	size := p.WindowSize(ctx.QueueLen)
	r := ctx.Ranking
	if w := min(size, r.Len()); r.FrontLen() != w {
		return nil, fmt.Errorf("core: the ranking's front holds %d jobs, the window %d: rank the queue with WindowSize(QueueLen) as the front", r.FrontLen(), w)
	}
	p.scratch.CopyFrom(ctx.Snap)
	freeNodes := p.scratch.FreeNodes()
	// The window is the ranking's own storage: its jobs that may fit.
	window := r.Window(freeNodes, p.scratch.FreeBB)
	p.left, p.ranking, p.aged = window[:0], r, false
	if min(size, r.Len()) == 0 {
		return nil, nil
	}
	if n := p.scratch.NumClasses(); cap(p.placeBuf) < n {
		p.placeBuf = make([]int, n)
	}
	buf := p.placeBuf[:p.scratch.NumClasses()]
	if cap(p.forced) < len(window) {
		p.forced = make([]bool, len(window))
	}
	forced := p.forced[:len(window)]
	clear(forced)

	// Starvation forcing (§3.1): jobs over the bound must be selected.
	// They are dispatched first, in window (base-priority) order, when
	// they fit; a starved job that does not fit cannot be started by any
	// selection, so it stays and keeps aging. Each start is the best job
	// ranked after the last that is starved and fits what is left. On a
	// full machine that is few window jobs, so the entry's necessary
	// condition (MayFit against the free totals, refreshed after each
	// start) is asked first, before the job's age is loaded: a job that
	// cannot fit costs no load of it.
	p.started = p.started[:0]
	for last := -1; p.cfg.StarvationBound > 0; {
		pick := -1
		for k, e := range window {
			if forced[k] || !e.MayFit(freeNodes, p.scratch.FreeBB) || last >= 0 && r.Before(k, last) || pick >= 0 && r.Before(pick, k) {
				continue
			}
			if r.WindowAge(k) >= p.cfg.StarvationBound && p.scratch.CanFit(e.Job.Demand) {
				pick = k
			}
		}
		if pick < 0 {
			break
		}
		j := window[pick].Job
		if _, err := p.scratch.AllocInto(j.Demand, buf); err != nil {
			return nil, fmt.Errorf("core: starved job %d fits but does not allocate: %w", j.ID, err)
		}
		p.started = append(p.started, j)
		freeNodes -= j.Demand.NodeCount()
		forced[pick], last = true, pick
	}

	if !p.everyPass && !p.live(window, forced, freeNodes) {
		p.left, p.aged = r.Age(p.started, freeNodes, p.scratch.FreeBB), true
		return p.started, nil
	}

	// The method sees the whole window in order, but for the jobs forcing
	// started, which come in the same order. The jobs it leaves behind are
	// compacted in place.
	started, kept := p.started, 0
	window = r.Front(size)
	p.rest = p.rest[:0]
	for _, e := range window {
		if len(started) > 0 && e.Job == started[0] {
			started = started[1:]
			continue
		}
		window[kept] = e
		kept++
		p.rest = append(p.rest, e.Job)
	}
	window, p.left = window[:kept], window[:0]
	p.mctx.Now, p.mctx.Window, p.mctx.Snap = ctx.Now, p.rest, p.scratch
	p.mctx.Totals, p.mctx.Rand = ctx.Totals, ctx.Rand
	idx, err := p.method.Select(&p.mctx)
	if err != nil {
		return nil, fmt.Errorf("core: %s selection: %w", p.method.Name(), err)
	}
	if cap(p.chosen) < len(p.rest) {
		p.chosen = make([]bool, len(p.rest))
	}
	chosen := p.chosen[:len(p.rest)]
	for i := range chosen {
		chosen[i] = false
	}
	for _, i := range idx {
		if i < 0 || i >= len(p.rest) {
			return nil, fmt.Errorf("core: %s selected out-of-range index %d", p.method.Name(), i)
		}
		if chosen[i] {
			return nil, fmt.Errorf("core: %s selected index %d twice", p.method.Name(), i)
		}
		chosen[i] = true
		p.started = append(p.started, p.rest[i])
	}

	// Verify the combined selection actually fits (methods work against a
	// snapshot that already excludes the forced jobs, so this holds unless
	// a method is buggy — fail loudly rather than oversubscribe).
	p.verify.CopyFrom(ctx.Snap)
	for _, j := range p.started {
		if _, err := p.verify.AllocInto(j.Demand, buf); err != nil {
			return nil, fmt.Errorf("core: %s over-selected: job %d does not fit: %w", p.method.Name(), j.ID, err)
		}
	}

	// The window jobs left behind age by the pass.
	for i := range p.rest {
		if !chosen[i] {
			p.left = append(p.left, window[i])
		}
	}
	r.AgeWindow(p.started)
	return p.started, nil
}

// live reports whether the method must be asked about window, whose
// forced jobs forcing started: some other job fits the free scratch
// snapshot on its own, or the snapshot is over capacity. Only the jobs
// that pass MayFit against the totals forcing left (freeNodes and the
// scratch's burst buffer) are put to sched.FitsAlone.
func (p *Plugin) live(window []queue.Entry, forced []bool, freeNodes int) bool {
	for k, e := range window {
		if !forced[k] && e.MayFit(freeNodes, p.scratch.FreeBB) && sched.FitsAlone(&p.scratch, e.Job.Demand) {
			return true
		}
	}
	return sched.OverCapacity(&p.scratch)
}

// LeftBehind returns the window jobs the last Decide call did not start,
// in window (base-priority) order: the jobs that rank ahead of everything
// still in that call's Ranking. After a dead pass it is that window's
// ordered read (queue.Ranking.Aged), so it must come before anything
// changes the queue; backfilling reads Ahead instead. It aliases that
// Ranking's storage, valid until the queue is ranked again.
func (p *Plugin) LeftBehind() []queue.Entry {
	if p.aged {
		p.left, p.aged = p.ranking.Aged(p.left[:0], p.started), false
	}
	return p.left
}

// Ahead returns what EASY backfilling must walk, after the last Decide
// call, ahead of the rest of its Ranking: the jobs LeftBehind returns,
// but after a dead pass at most the best of them (queue.Ranking.Age) —
// none of them fits what the pass left free, so backfilling needs only
// the job to reserve for, and even that only if a job behind the window
// may fit. It aliases that Ranking's storage, valid until the queue is
// ranked again.
func (p *Plugin) Ahead() []queue.Entry { return p.left }
