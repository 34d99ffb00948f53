// Package registry is the single roster of scheduling methods and window
// solvers: every shipped §4.3 / §5 method is one entry of the methods
// table, every optimization backend (the genetic algorithm, the
// LP-relaxation PDHG solver, ...) one entry of the solvers table, and
// every consumer — the bbsim CLI's -method/-methods/-solver flags, the
// experiments matrices, sweep drivers — lists or instantiates from the
// same tables, so the rosters can never drift apart. Adding a method or a
// backend means adding a table entry; the tables are fixed at build time.
package registry

import (
	"errors"
	"fmt"
	"slices"

	"bbsched/internal/cluster"
	"bbsched/internal/core"
	"bbsched/internal/lp"
	"bbsched/internal/moo"
	"bbsched/internal/sched"
	"bbsched/internal/solver"
)

// Builder constructs a fresh method instance over the objective list of
// the machine it runs on (sched.ObjectivesFor) and the shared solver
// configuration (§4.3 uses one solver configuration for every method).
// Fixed heuristics and the fixed-weight or single-target presets ignore
// the list.
type Builder func(ga moo.GAConfig, objectives []sched.Objective) sched.Method

// MethodSpec describes one registered scheduling method.
type MethodSpec struct {
	// Name is the method's unique §4.3 presentation name (what
	// sched.Method.Name returns).
	Name string
	// Desc is a one-line description for listings.
	Desc string
	// New builds the method. The paper's §4 two-objective, §5
	// four-objective and N-dimension builds are the same builder over
	// different objective lists.
	New Builder
	// Solver names the optimization backend the builder attaches (see
	// the solver registry): "" for a method's own default (the genetic
	// algorithm for optimization methods, nothing for fixed heuristics).
	// Listings surface it so method variants like Weighted_LP are
	// self-describing.
	Solver string
	// Section4 and Section5 flag membership in the §4.3 and §5 rosters
	// Roster builds. A method with both false (the LP variants) is
	// instantiable by name without joining the paper rosters.
	Section4, Section5 bool
}

// Methods returns every registered method in table order (the paper's
// presentation order first).
func Methods() []MethodSpec { return slices.Clone(methods) }

// Names returns the registered method names in table order.
func Names() []string {
	out := make([]string, len(methods))
	for i, spec := range methods {
		out[i] = spec.Name
	}
	return out
}

// Lookup returns the spec registered under name.
func Lookup(name string) (MethodSpec, bool) {
	for _, spec := range methods {
		if spec.Name == name {
			return spec, true
		}
	}
	return MethodSpec{}, false
}

// New instantiates the named method for the paper's machine shape, nodes
// and burst buffer only: over sched.TwoObjectives, or with ssd over
// sched.FourObjectives. It is NewForCluster on a machine without extra
// resource dimensions.
func New(name string, ga moo.GAConfig, ssd bool) (sched.Method, error) {
	return NewForCluster(name, ga, cluster.Config{}, ssd)
}

// NewForCluster instantiates the named method for a concrete machine,
// over the objective list generated from the cluster's resource spec
// (sched.ObjectivesFor): one utilization objective per dimension, plus
// the §5 SSD pair with ssd. On a machine without extra dimensions that
// list is exactly the paper's.
func NewForCluster(name string, ga moo.GAConfig, cfg cluster.Config, ssd bool) (sched.Method, error) {
	spec, ok := Lookup(name)
	if !ok {
		return nil, fmt.Errorf("registry: unknown method %q (have %v)", name, Names())
	}
	return spec.New(ga, sched.ObjectivesFor(cfg, ssd)), nil
}

// Roster builds the §4.3 comparison methods (or, with ssd, the §5
// case-study methods) in the paper's order, each as NewForCluster builds
// it for the machine cfg describes.
func Roster(ga moo.GAConfig, cfg cluster.Config, ssd bool) []sched.Method {
	var out []sched.Method
	for _, spec := range methods {
		if (ssd && spec.Section5) || (!ssd && spec.Section4) {
			out = append(out, spec.New(ga, sched.ObjectivesFor(cfg, ssd)))
		}
	}
	return out
}

// methods is the method roster, in listing order: the paper's §4.3
// presentation order, then the variants outside the paper rosters.
var methods = []MethodSpec{
	{
		Name:     "Baseline",
		Desc:     "Slurm-style naive: walk the queue in base order until a job does not fit",
		New:      fixed(sched.Baseline{}),
		Section4: true, Section5: true,
		// Dimension-agnostic: feasibility in every dimension gates the walk.
	},
	{
		Name: "Weighted",
		Desc: "maximize an equally weighted utilization sum (§4: node+BB 50/50; §5: four objectives; N dims: 1/n each)",
		New: func(ga moo.GAConfig, objs []sched.Objective) sched.Method {
			return sched.NewWeightedFor("Weighted", objs, ga)
		},
		Section4: true, Section5: true,
	},
	{
		Name:     "Weighted_CPU",
		Desc:     "weighted utilization sum favoring nodes (80/20)",
		New:      weighted("Weighted_CPU", 0.8, 0.2),
		Section4: true,
	},
	{
		Name:     "Weighted_BB",
		Desc:     "weighted utilization sum favoring burst buffer (20/80)",
		New:      weighted("Weighted_BB", 0.2, 0.8),
		Section4: true,
	},
	{
		Name:     "Constrained_CPU",
		Desc:     "maximize node utilization under the other resources' constraints",
		New:      constrained("Constrained_CPU", sched.NodeUtil),
		Section4: true, Section5: true,
	},
	{
		Name:     "Constrained_BB",
		Desc:     "maximize burst-buffer utilization under the other resources' constraints",
		New:      constrained("Constrained_BB", sched.BBUtil),
		Section4: true, Section5: true,
	},
	{
		Name:     "Constrained_SSD",
		Desc:     "maximize local-SSD utilization under the other resources' constraints (§5 only)",
		New:      constrained("Constrained_SSD", sched.SSDUtil),
		Section5: true,
	},
	{
		Name:     "Bin_Packing",
		Desc:     "Tetris-style alignment heuristic: repeatedly start the best-aligned fitting job",
		New:      fixed(sched.BinPacking{}),
		Section4: true, Section5: true,
		// Dimension-agnostic: the alignment score spans every machine dimension.
	},
	{
		Name: "BBSched",
		Desc: "the paper's method: MOO solve + §3.2.4 decision rule (§5: four objectives, 4x trade-off; N dims: one objective per dimension)",
		New: func(ga moo.GAConfig, objs []sched.Objective) sched.Method {
			b := core.NewForObjectives(objs)
			b.GA = ga
			return b
		},
		Section4: true, Section5: true,
	},

	// LP-backed method variants: the scalarized formulations re-solved by
	// the first-order backend. Not part of the paper's §4/§5 rosters —
	// those stay MOGA-backed and golden-pinned — but instantiable by name
	// everywhere methods are.
	{
		Name: "Weighted_LP",
		Desc: "Weighted's equally weighted utilization sum solved by LP relaxation + rounding",
		New: func(ga moo.GAConfig, objs []sched.Objective) sched.Method {
			// Every objective has a linear column — the §5 SSD-waste term
			// linearizes at build time via the allocator's
			// smallest-eligible-class-first rule — so with ssd this is the
			// full four-objective scalarization.
			return withLP(sched.NewWeightedFor("Weighted_LP", objs, ga))
		},
		Solver: "lp",
	},
	{
		Name: "Constrained_LP",
		Desc: "Constrained_CPU's node-utilization maximization solved by LP relaxation + rounding",
		New: func(ga moo.GAConfig, _ []sched.Objective) sched.Method {
			return withLP(&sched.Constrained{MethodName: "Constrained_LP", Target: sched.NodeUtil, GA: ga})
		},
		Solver: "lp",
	},
}

// SolverSpec describes one registered optimization backend.
type SolverSpec struct {
	// Name is the backend's unique registry name (what solver.Solver.Name
	// returns), e.g. "ga", "lp".
	Name string
	// Desc is a one-line description for listings.
	Desc string
	// New builds a backend instance. The GA configuration is the shared
	// §4.3 solver configuration; backends that do not use it (lp) ignore
	// it.
	New func(ga moo.GAConfig) solver.Solver
}

// solvers is the backend roster, in listing order.
var solvers = []SolverSpec{
	{
		Name: "ga",
		Desc: "the paper's §3.2.2 multi-objective genetic algorithm (Pareto fronts; any problem)",
		New:  func(ga moo.GAConfig) solver.Solver { return solver.NewGA(ga) },
	},
	{
		Name: "lp",
		Desc: "matrix-free LP relaxation via restarted Halpern PDHG + randomized rounding (scalarized problems; presolved to the jobs that fit the free machine)",
		New:  func(moo.GAConfig) solver.Solver { return lp.New(lp.DefaultConfig()) },
	},
	{
		Name: "greedy",
		Desc: "density-ratio baseline: fill by objective value per capacity-normalized demand (scalarized problems; near-free at huge windows)",
		New:  func(moo.GAConfig) solver.Solver { return solver.NewGreedy() },
	},
	{
		Name: "exact",
		Desc: fmt.Sprintf("exact branch-and-bound with LP-relaxation bounds (scalarized problems, windows ≤ %d jobs)", lp.DefaultMaxExactDim),
		New:  func(moo.GAConfig) solver.Solver { return lp.NewExact(lp.DefaultConfig()) },
	},
	{
		Name: "portfolio",
		Desc: "run ga, lp and greedy in turn per decision, keep the best feasible roster (scalarized problems)",
		New: func(ga moo.GAConfig) solver.Solver {
			return solver.NewPortfolio(solver.NewGA(ga), lp.New(lp.DefaultConfig()), solver.NewGreedy())
		},
	},
}

// Solvers returns every registered backend in table order.
func Solvers() []SolverSpec { return slices.Clone(solvers) }

// SolverNames returns the registered backend names in table order.
func SolverNames() []string {
	out := make([]string, len(solvers))
	for i, spec := range solvers {
		out[i] = spec.Name
	}
	return out
}

// NewSolver instantiates the named backend.
func NewSolver(name string, ga moo.GAConfig) (solver.Solver, error) {
	for _, spec := range solvers {
		if spec.Name == name {
			return spec.New(ga), nil
		}
	}
	return nil, fmt.Errorf("registry: unknown solver %q (have %v)", name, SolverNames())
}

// ErrIncompatibleSolver marks a method×solver pair that can never work:
// the method has no solver to swap (fixed heuristics) or vetoes the
// backend's capabilities (BBSched needs Pareto fronts). Grid drivers —
// cmd/bbsim's sweep-all and the farm coordinator — match it with
// errors.Is to skip the cell with a marker instead of failing the run;
// an unknown solver name stays a hard error.
var ErrIncompatibleSolver = errors.New("incompatible method×solver pair")

// ApplySolver instantiates the named backend and attaches it to m, which
// must be solver-configurable (Weighted, Constrained, BBSched). Fixed
// heuristics reject the override, and methods with capability
// requirements (BBSched needs Pareto fronts) veto incompatible backends
// here, at configuration time, instead of failing mid-run; both
// rejections wrap ErrIncompatibleSolver.
func ApplySolver(m sched.Method, name string, ga moo.GAConfig) error {
	sc, ok := m.(sched.SolverConfigurable)
	if !ok {
		return fmt.Errorf("registry: method %s has a fixed selection heuristic, no solver to swap: %w", m.Name(), ErrIncompatibleSolver)
	}
	sv, err := NewSolver(name, ga)
	if err != nil {
		return err
	}
	if v, ok := m.(sched.SolverVetoer); ok {
		if err := v.VetoSolver(sv); err != nil {
			return fmt.Errorf("%w: %w", ErrIncompatibleSolver, err)
		}
	}
	sc.SetSolver(sv)
	return nil
}

// withLP attaches the default LP backend to a solver-configurable method.
func withLP(m sched.SolverConfigurable) sched.Method {
	m.SetSolver(lp.New(lp.DefaultConfig()))
	return m
}

// fixed builds a selection heuristic that has no objectives to optimize.
func fixed(m sched.Method) Builder {
	return func(moo.GAConfig, []sched.Objective) sched.Method { return m }
}

// weighted builds a fixed node/burst-buffer weight preset.
func weighted(name string, wNode, wBB float64) Builder {
	return func(ga moo.GAConfig, _ []sched.Objective) sched.Method {
		return sched.NewWeighted(name, wNode, wBB, ga)
	}
}

// constrained builds a single-target preset.
func constrained(name string, target sched.Objective) Builder {
	return func(ga moo.GAConfig, _ []sched.Objective) sched.Method {
		return &sched.Constrained{MethodName: name, Target: target, GA: ga}
	}
}
