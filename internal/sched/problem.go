// Package sched implements the multi-resource scheduling methods compared
// in §4.3/§5: the Slurm-style naive baseline, weighted-sum scalarizations,
// constrained single-resource optimizations, Tetris-style multi-dimensional
// bin packing, and the shared MOO problem formulation that BBSched
// (internal/core) optimizes.
package sched

import (
	"fmt"
	"math/bits"
	"slices"

	"bbsched/internal/cluster"
	"bbsched/internal/job"
	"bbsched/internal/moo"
	"bbsched/internal/solver"
)

// Objective identifies one maximized objective: one of the paper's four
// canonical objectives, or the utilization of an extra resource dimension
// (see ExtraUtil).
type Objective int

const (
	// NodeUtil is f1: Σ nᵢ·xᵢ, maximize node allocation (§3.2.1).
	NodeUtil Objective = iota
	// BBUtil is f2: Σ bᵢ·xᵢ, maximize burst-buffer allocation (§3.2.1).
	BBUtil
	// SSDUtil is f3: Σ sᵢ·nᵢ·xᵢ, maximize local SSD allocation (§5).
	SSDUtil
	// SSDWasteNeg is f4: −Σ (assigned − requested SSD), minimize wasted
	// local SSD expressed as a maximization objective (§5).
	SSDWasteNeg
)

// extraUtilBase offsets extra-dimension utilization objectives so they
// never collide with the canonical objective constants.
const extraUtilBase Objective = 1 << 16

// ExtraUtil returns the objective maximizing allocation in extra resource
// dimension k (aligned to the cluster config's Extra specs): Σ eᵢₖ·xᵢ,
// the natural generalization of f1/f2 to any pool-style dimension.
func ExtraUtil(k int) Objective {
	if k < 0 {
		panic(fmt.Sprintf("sched: negative extra dimension %d", k))
	}
	return extraUtilBase + Objective(k)
}

// IsExtra reports whether o is an extra-dimension utilization objective.
func (o Objective) IsExtra() bool { return o >= extraUtilBase }

// ExtraIndex returns the extra dimension an ExtraUtil objective targets;
// it panics on canonical objectives.
func (o Objective) ExtraIndex() int {
	if !o.IsExtra() {
		panic(fmt.Sprintf("sched: %s is not an extra-dimension objective", o))
	}
	return int(o - extraUtilBase)
}

// String returns the objective's short name.
func (o Objective) String() string {
	switch o {
	case NodeUtil:
		return "node_util"
	case BBUtil:
		return "bb_util"
	case SSDUtil:
		return "ssd_util"
	case SSDWasteNeg:
		return "ssd_waste_neg"
	}
	if o.IsExtra() {
		return fmt.Sprintf("extra_util(%d)", o.ExtraIndex())
	}
	return fmt.Sprintf("objective(%d)", int(o))
}

// TwoObjectives is the §3.2 CPU + burst-buffer formulation.
func TwoObjectives() []Objective { return []Objective{NodeUtil, BBUtil} }

// FourObjectives is the §5 formulation adding local SSD utilization and
// (negated) SSD waste.
func FourObjectives() []Objective {
	return []Objective{NodeUtil, BBUtil, SSDUtil, SSDWasteNeg}
}

// ObjectivesFor generates the per-dimension utilization objective list
// from a machine's resource spec instead of the fixed node/BB pair: node
// and burst-buffer utilization, one ExtraUtil per extra dimension, and —
// when ssd is set — the §5 SSD utilization/waste pair. On a machine with
// no extra dimensions this reduces exactly to TwoObjectives (or
// FourObjectives with ssd), so spec-driven methods coincide with the
// paper's formulations there.
func ObjectivesFor(cfg cluster.Config, ssd bool) []Objective {
	objs := []Objective{NodeUtil, BBUtil}
	for k := range cfg.Extra {
		objs = append(objs, ExtraUtil(k))
	}
	if ssd {
		objs = append(objs, SSDUtil, SSDWasteNeg)
	}
	return objs
}

// SelectionProblem is the window job-selection MOO problem of §3.2.1: bit
// i selects window job i; objectives are maximized subject to the free
// resources in the snapshot. It implements moo.Problem, moo.Repairer and
// moo.LiveSetter.
//
// A problem is storage as much as it is an instance: Reset rebinds it to
// the next window in place, so the solver-backed methods keep one per
// concurrent solve (see SolverSlot.SolveWindow) and a scheduling pass builds
// its problem without allocating once the columns have grown to the
// window. A problem is not safe for concurrent use: one solve on one
// goroutine uses it at a time.
type SelectionProblem struct {
	jobs       []*job.Job
	snap       cluster.Snapshot
	objectives []Objective

	// Pre-extracted demand columns; on single-node-class machines (no
	// SSD heterogeneity) Evaluate runs entirely off these sums with no
	// snapshot clone — the GA calls Evaluate G×P times per scheduling
	// decision, so this path dominates whole-simulation cost. extras
	// holds one column per extra resource dimension of the machine.
	nodes, bb []int64
	extras    [][]int64
	fastPath  bool
	freeNodes int64
	freeBB    int64
	freeExtra []int64

	// lin is the instance's LP structure, built when a backend first asks.
	lin linearCache

	// scratch is the evaluation workspace, so the slow (SSD-class) path
	// reuses one snapshot + placement buffer across the GA's G×P candidate
	// evaluations instead of cloning cluster state per candidate. It
	// outlives a bind: it depends on the machine's shape only, so Reset
	// keeps it unless that changed. Nil until a call needs it.
	scratch *evalScratch
}

// evalScratch is the evaluation workspace. Repair holds ones across the
// Evaluate calls of its slow path, so Evaluate uses only the other fields.
type evalScratch struct {
	snap   cluster.Snapshot
	placed []int
	ones   []int
	sums   []int64 // per-extra-dimension selection totals
}

// NewSelectionProblem builds the problem over the window jobs and the
// machine's current free resources. The snapshot is copied; callers may
// keep using theirs.
func NewSelectionProblem(window []*job.Job, snap cluster.Snapshot, objectives []Objective) *SelectionProblem {
	p := &SelectionProblem{}
	p.Reset(window, snap, objectives)
	return p
}

// Reset rebinds p to a new window, free-resource snapshot and objective
// list, reusing the demand columns, the snapshot copy, the linear-form
// buffers and the evaluation workspace of the previous bind. The window
// slice is kept, the snapshot and the objective list are copied. Nothing of
// the previous instance survives it, so no call on p may be in flight.
func (p *SelectionProblem) Reset(window []*job.Job, snap cluster.Snapshot, objectives []Objective) {
	if len(objectives) == 0 {
		panic("sched: selection problem with no objectives")
	}
	n, nExtra := len(window), snap.NumExtra()
	if p.snap.NumClasses() != snap.NumClasses() || len(p.extras) != nExtra {
		p.scratch = nil // the workspace is sized by the machine's shape
	}
	p.jobs = window
	p.objectives = append(p.objectives[:0], objectives...) // copied: a caller's list may live on its stack
	p.snap.CopyFrom(snap)
	p.lin.reset()

	p.nodes = resized(p.nodes, n)
	p.bb = resized(p.bb, n)
	p.extras = resized(p.extras, nExtra)
	for k := range p.extras {
		p.extras[k] = resized(p.extras[k], n)
	}
	p.freeExtra = append(p.freeExtra[:0], snap.FreeExtra...)
	p.freeNodes = int64(snap.FreeNodes())
	p.freeBB = snap.FreeBB
	p.fastPath = snap.NumClasses() == 1
	for i, j := range window {
		p.nodes[i] = int64(j.Demand.NodeCount())
		p.bb[i] = j.Demand.BB()
		for k := range p.extras {
			p.extras[k][i] = j.Demand.Extra(k)
		}
		// A per-node SSD demand on a single-class machine still consumes
		// capacity uniformly; feasibility reduces to the class capacity
		// check, which Alloc enforces — fall back if any job wants SSD.
		// Likewise fall back when a demand carries dimensions beyond the
		// machine's (only Alloc knows they make the job unfittable).
		if j.Demand.SSDPerNode() > 0 || j.Demand.NumExtra() > nExtra {
			p.fastPath = false
		}
	}
}

// exceeds reports whether any extra-dimension selection total sums[k]
// overruns the free pool.
func (p *SelectionProblem) exceeds(sums []int64) bool {
	for k, v := range sums {
		if v > p.freeExtra[k] {
			return true
		}
	}
	return false
}

// Dim implements moo.Problem.
func (p *SelectionProblem) Dim() int { return len(p.jobs) }

// NumObjectives implements moo.Problem.
func (p *SelectionProblem) NumObjectives() int { return len(p.objectives) }

// Evaluate implements moo.Problem: it allocates the selected jobs into a
// scratch copy of the snapshot (feasibility, and SSD waste for f4)
// and returns the objective vector. Placement totals are order-independent
// (see internal/cluster), so evaluating jobs in window order is exact.
// Selected jobs are walked word-at-a-time off the packed genome; the
// single-class fast path touches only the pre-extracted demand columns.
func (p *SelectionProblem) Evaluate(g moo.Genome) ([]float64, bool) {
	if g.Len() != len(p.jobs) {
		panic(fmt.Sprintf("sched: evaluating %d bits over %d jobs", g.Len(), len(p.jobs)))
	}
	var nodes, bb, ssd, waste int64
	sc := p.workspace()
	ex := sc.sums[:len(p.extras)]
	clear(ex)
	if p.fastPath {
		for wi, w := range g.Words() {
			base := wi * 64
			for w != 0 {
				i := base + bits.TrailingZeros64(w)
				w &= w - 1
				nodes += p.nodes[i]
				bb += p.bb[i]
				for k := range p.extras {
					ex[k] += p.extras[k][i]
				}
			}
		}
		if nodes > p.freeNodes || bb > p.freeBB || p.exceeds(ex) {
			return nil, false
		}
	} else {
		sc.snap.CopyFrom(p.snap)
		ok := true
		for wi, w := range g.Words() {
			base := wi * 64
			for w != 0 {
				i := base + bits.TrailingZeros64(w)
				w &= w - 1
				d := p.jobs[i].Demand
				placed, err := sc.snap.AllocInto(d, sc.placed)
				if err != nil {
					ok = false
					break
				}
				nodes += p.nodes[i]
				bb += p.bb[i]
				ssd += d.TotalSSD()
				waste += placed.WastedSSD
				for k := range p.extras {
					ex[k] += p.extras[k][i]
				}
			}
			if !ok {
				break
			}
		}
		if !ok {
			return nil, false
		}
	}
	objs := make([]float64, len(p.objectives))
	for k, o := range p.objectives {
		switch {
		case o == NodeUtil:
			objs[k] = float64(nodes)
		case o == BBUtil:
			objs[k] = float64(bb)
		case o == SSDUtil:
			objs[k] = float64(ssd)
		case o == SSDWasteNeg:
			objs[k] = -float64(waste)
		case o.IsExtra() && o.ExtraIndex() < len(ex):
			objs[k] = float64(ex[o.ExtraIndex()])
		case o.IsExtra():
			objs[k] = 0 // objective over a dimension this machine lacks
		default:
			panic("sched: unknown objective " + o.String())
		}
	}
	return objs, true
}

// LiveSet implements moo.LiveSetter: the window jobs that fit the free
// snapshot alone. Allocation only consumes, so a job that does not fit the
// snapshot does not fit what other jobs left of it, and every feasible
// selection is made of live jobs — provided no demand is negative (a
// hand-built negative one hands resources back to the jobs after it);
// with one in the window the problem declares no live set.
//
// "Fits alone" is Evaluate's answer on the one-job genome, restated
// without the objective vector: the column compare on the fast path —
// which, unlike CanFit, passes a hand-built zero-node demand — and CanFit,
// the mirror of the AllocInto the slow path runs, on the other.
func (p *SelectionProblem) LiveSet(dst []int) ([]int, bool) {
	for i, j := range p.jobs {
		if p.nodes[i] < 0 || p.bb[i] < 0 {
			return dst, false
		}
		fits := p.nodes[i] <= p.freeNodes && p.bb[i] <= p.freeBB
		for k := range p.extras {
			if p.extras[k][i] < 0 {
				return dst, false
			}
			fits = fits && p.extras[k][i] <= p.freeExtra[k]
		}
		if !p.fastPath {
			fits = p.snap.CanFit(j.Demand)
		}
		if fits {
			dst = append(dst, i)
		}
	}
	return dst, true
}

// workspace returns the evaluation workspace, building it on first use.
func (p *SelectionProblem) workspace() *evalScratch {
	if p.scratch == nil {
		p.scratch = &evalScratch{
			placed: make([]int, p.snap.NumClasses()),
			sums:   make([]int64, len(p.extras)),
		}
	}
	return p.scratch
}

// Repair implements moo.Repairer by deselecting jobs (chosen by drop over
// the currently selected positions) until the selection fits. On the
// single-class fast path the resource sums are maintained incrementally,
// so each drop is O(1) instead of a full re-evaluation; the selected-index
// buffer is the workspace's.
func (p *SelectionProblem) Repair(g moo.Genome, drop func(n int) int) {
	sc := p.workspace()
	on := g.AppendOnes(sc.ones[:0])
	if p.fastPath {
		var nodes, bb int64
		ex := sc.sums[:len(p.extras)]
		for k := range ex {
			ex[k] = 0
		}
		for _, i := range on {
			nodes += p.nodes[i]
			bb += p.bb[i]
			for k := range p.extras {
				ex[k] += p.extras[k][i]
			}
		}
		for (nodes > p.freeNodes || bb > p.freeBB || (len(ex) > 0 && p.exceeds(ex))) && len(on) > 0 {
			k := drop(len(on))
			i := on[k]
			g.SetBit(i, false)
			nodes -= p.nodes[i]
			bb -= p.bb[i]
			for e := range p.extras {
				ex[e] -= p.extras[e][i]
			}
			on = append(on[:k], on[k+1:]...)
		}
	} else {
		for {
			if _, ok := p.Evaluate(g); ok {
				break
			}
			if len(on) == 0 {
				break
			}
			k := drop(len(on))
			g.SetBit(on[k], false)
			on = append(on[:k], on[k+1:]...)
		}
	}
	sc.ones = on[:0:cap(on)]
}

// addObjectiveColumn adds w times one objective's per-job linear
// coefficient column — the amount job i contributes to o when selected —
// into c, with no temporary column: a scalarization sums its objectives
// in objective-then-job order either way, so c is the same bit for bit.
// Every objective the package constructs has one; it reports false only
// for an unknown Objective value.
func (p *SelectionProblem) addObjectiveColumn(c []float64, w float64, o Objective) bool {
	switch {
	case o == NodeUtil:
		for i, v := range p.nodes {
			c[i] += w * float64(v)
		}
	case o == BBUtil:
		for i, v := range p.bb {
			c[i] += w * float64(v)
		}
	case o == SSDUtil:
		for i, j := range p.jobs {
			c[i] += w * float64(j.Demand.TotalSSD())
		}
	case o == SSDWasteNeg:
		// Build-time linearization of the §5 waste term: each job is
		// costed as if placed alone on the free snapshot. Joint placement
		// can push later jobs onto bigger-SSD classes, so C·x can
		// understate a selection's true waste — an approximation the LP
		// rounding phase corrects by scoring every candidate through
		// Evaluate. On the fast path (single class, no SSD demands)
		// Evaluate scores waste 0 for every selection, so the zero column
		// is exact there.
		if !p.fastPath {
			for i, j := range p.jobs {
				c[i] += w * -float64(p.linearWaste(j.Demand))
			}
		}
	case o.IsExtra() && o.ExtraIndex() < len(p.extras):
		for i, v := range p.extras[o.ExtraIndex()] {
			c[i] += w * float64(v)
		}
	case o.IsExtra():
		// Objective over a dimension this machine lacks: Evaluate scores
		// it 0 for every selection, so the zero column is exact.
	default:
		return false // unknown objective
	}
	return true
}

// linearWaste is the SSD volume job d wastes when placed alone on the
// problem's snapshot, mirroring the allocator's rule exactly: fill the
// smallest eligible SSD classes first, wasting (class capacity − per-node
// demand) GB per assigned node — including jobs with no SSD demand at
// all, which waste each assigned node's full capacity. Unplaceable
// demands cost whatever eligible nodes exist; the constraint rows pin
// such jobs out of the LP separately.
func (p *SelectionProblem) linearWaste(d job.Demand) int64 {
	per := d.SSDPerNode()
	need := d.NodeCount()
	var waste int64
	for c := 0; c < p.snap.NumClasses() && need > 0; c++ {
		capc := p.snap.ClassCapacity(c)
		if capc < per {
			continue
		}
		take := p.snap.FreeByClass[c]
		if take > need {
			take = need
		}
		waste += int64(take) * (capc - per)
		need -= take
	}
	return waste
}

// linearCache holds a bound problem's LP structure. The form is built when
// a backend first asks for it and only read from then on — each member of
// a solver.Portfolio linearizes the same problem — and its C, Rows and
// Caps storage is what the next bind builds into.
type linearCache struct {
	built bool
	ok    bool
	form  solver.LinearForm
}

// reset forgets the built form, keeping its storage.
func (lc *linearCache) reset() { lc.built = false }

// get returns the bind's form, calling build — which fills the form in
// place and reports whether the instance has one — on the first request.
func (lc *linearCache) get(build func(*solver.LinearForm) bool) (solver.LinearForm, bool) {
	if !lc.built {
		lc.ok = build(&lc.form)
		lc.built = true
	}
	if !lc.ok {
		return solver.LinearForm{}, false
	}
	return lc.form, true
}

// resized returns buf at length n with unspecified contents, reusing its
// storage when that is large enough. New storage is a whole number of
// 64-entry blocks: a window that grows by a job a pass reallocates once
// in 64 passes, and what is kept is never a block larger than the window.
func resized[T any](buf []T, n int) []T {
	if cap(buf) < n {
		return make([]T, n, (n+63)&^63)
	}
	return buf[:n]
}

// zeroed is resized with every entry 0.
func zeroed(buf []float64, n int) []float64 {
	buf = resized(buf, n)
	clear(buf)
	return buf
}

// linearConstraints fills f's knapsack rows: one demand row per machine
// resource against its free capacity — nodes, burst buffer, each extra
// dimension and, when some window job demands local SSD, the aggregate
// free local SSD. On SSD-class machines the per-class placement constraint
// is thus relaxed to the aggregate capacity — a valid LP relaxation; exact
// feasibility of rounded selections still comes from Evaluate.
func (p *SelectionProblem) linearConstraints(f *solver.LinearForm) {
	n := len(p.jobs)
	f.Rows, f.Caps = f.Rows[:0], f.Caps[:0]
	addRow := func(capacity float64) []float64 {
		k := len(f.Rows)
		if k < cap(f.Rows) {
			f.Rows = f.Rows[:k+1] // the row an earlier bind left here is this one's storage
		} else {
			f.Rows = append(f.Rows, nil)
		}
		f.Rows[k] = zeroed(f.Rows[k], n)
		f.Caps = append(f.Caps, capacity)
		return f.Rows[k]
	}
	intRow := func(col []int64, free int64) {
		row := addRow(float64(free))
		for i, v := range col {
			row[i] = float64(v)
		}
	}
	intRow(p.nodes, int64(p.snap.FreeNodes()))
	intRow(p.bb, p.snap.FreeBB)
	for k := range p.extras {
		intRow(p.extras[k], p.snap.FreeExtra[k])
	}
	if slices.ContainsFunc(p.jobs, func(j *job.Job) bool { return j.Demand.TotalSSD() > 0 }) {
		var free int64
		for c := 0; c < p.snap.NumClasses(); c++ {
			free += int64(p.snap.FreeByClass[c]) * p.snap.ClassCapacity(c)
		}
		row := addRow(float64(free))
		for i, j := range p.jobs {
			row[i] = float64(j.Demand.TotalSSD())
		}
	}
}

// LinearForm implements solver.LinearProblem for single-objective
// instances (the constrained methods' formulation): maximize the
// objective's demand column under the machine's knapsack rows.
// Multi-objective instances have no scalar linear form. The form is built
// once per bind and shared by every caller, who must only read it.
func (p *SelectionProblem) LinearForm() (solver.LinearForm, bool) {
	if len(p.objectives) != 1 {
		return solver.LinearForm{}, false
	}
	return p.lin.get(func(f *solver.LinearForm) bool {
		f.C = zeroed(f.C, len(p.jobs))
		if !p.addObjectiveColumn(f.C, 1, p.objectives[0]) {
			return false
		}
		p.linearConstraints(f)
		return true
	})
}

// Selected converts a solution genome to window indices.
func Selected(g moo.Genome) []int { return g.Ones() }

// scalarized wraps a SelectionProblem into a single weighted-sum objective
// over machine-normalized utilizations, for the weighted methods. Weights
// align with the inner problem's objective list.
type scalarized struct {
	inner   *SelectionProblem
	weights []float64
	// denom[k] normalizes objective k to [0,1] (machine totals).
	denom []float64

	// lin is the scalarization's LP structure (see linearCache).
	lin linearCache
}

// reset rebinds the wrapper around a freshly Reset inner problem, reusing
// the denominator and linear-form buffers.
func (s *scalarized) reset(inner *SelectionProblem, weights []float64, t Totals) {
	s.inner, s.weights = inner, weights
	s.denom = t.appendDenominators(s.denom[:0], inner.objectives)
	s.lin.reset()
}

// Dim implements moo.Problem.
func (s *scalarized) Dim() int { return s.inner.Dim() }

// NumObjectives implements moo.Problem.
func (s *scalarized) NumObjectives() int { return 1 }

// Evaluate implements moo.Problem.
func (s *scalarized) Evaluate(g moo.Genome) ([]float64, bool) {
	objs, ok := s.inner.Evaluate(g)
	if !ok {
		return nil, false
	}
	var sum float64
	for k, v := range objs {
		if s.denom[k] > 0 {
			v /= s.denom[k]
		}
		sum += s.weights[k] * v
	}
	return []float64{sum}, true
}

// Repair implements moo.Repairer.
func (s *scalarized) Repair(g moo.Genome, drop func(n int) int) { s.inner.Repair(g, drop) }

// LiveSet implements moo.LiveSetter: the scalarization is feasible exactly
// where the inner problem is.
func (s *scalarized) LiveSet(dst []int) ([]int, bool) { return s.inner.LiveSet(dst) }

// LinearForm implements solver.LinearProblem: the weighted sum of linear
// objective columns is itself linear, with coefficients
// Σₖ wₖ·colₖ[i]/denomₖ (matching Evaluate's normalization). With the §5
// waste term's build-time linearization every canonical objective
// contributes a column — including SSDWasteNeg, whose negative
// coefficients the LP and branch-and-bound backends handle — so
// four-objective scalarizations get the fast path; it reports false only
// when some combined objective has no linear column at all. Like
// SelectionProblem.LinearForm it is built once per bind and read-only.
func (s *scalarized) LinearForm() (solver.LinearForm, bool) {
	return s.lin.get(func(f *solver.LinearForm) bool {
		f.C = zeroed(f.C, s.inner.Dim())
		for k, o := range s.inner.objectives {
			w := s.weights[k]
			if s.denom[k] > 0 {
				w /= s.denom[k]
			}
			if !s.inner.addObjectiveColumn(f.C, w, o) {
				return false
			}
		}
		s.inner.linearConstraints(f)
		return true
	})
}

// Totals carries machine capacity totals used to normalize objectives in
// the weighted methods' scalarization and the decision rule.
type Totals struct {
	// Nodes is the machine node count.
	Nodes int
	// BBGB is the shared burst-buffer pool in GB.
	BBGB int64
	// SSDGB is the aggregate local SSD capacity in GB.
	SSDGB int64
	// Extra holds the capacity of each extra resource dimension, aligned
	// to the cluster config's Extra specs. Nil on 2-dimension machines.
	Extra []int64
	// ExtraNames labels Extra for reports.
	ExtraNames []string
}

// TotalsOf derives Totals from a cluster config.
func TotalsOf(cfg cluster.Config) Totals {
	t := Totals{Nodes: cfg.Nodes, BBGB: cfg.BurstBufferGB}
	for _, cl := range cfg.SSDClasses {
		t.SSDGB += cl.CapacityGB * int64(cl.Count)
	}
	for _, r := range cfg.Extra {
		t.Extra = append(t.Extra, r.Capacity)
		t.ExtraNames = append(t.ExtraNames, r.Name)
	}
	return t
}

// ExtraTotal returns extra dimension k's capacity (0 when absent).
func (t Totals) ExtraTotal(k int) int64 {
	if k < 0 || k >= len(t.Extra) {
		return 0
	}
	return t.Extra[k]
}

// Denominators maps objectives to their machine-capacity normalization
// constants (0 when the machine lacks the dimension).
func (t Totals) Denominators(objectives []Objective) []float64 {
	return t.appendDenominators(make([]float64, 0, len(objectives)), objectives)
}

// appendDenominators appends the objectives' Denominators to dst.
func (t Totals) appendDenominators(dst []float64, objectives []Objective) []float64 {
	for _, o := range objectives {
		var d float64
		switch {
		case o == NodeUtil:
			d = float64(t.Nodes)
		case o == BBUtil:
			d = float64(t.BBGB)
		case o == SSDUtil || o == SSDWasteNeg:
			d = float64(t.SSDGB)
		case o.IsExtra():
			d = float64(t.ExtraTotal(o.ExtraIndex()))
		}
		dst = append(dst, d)
	}
	return dst
}
