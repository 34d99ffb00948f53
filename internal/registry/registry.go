// Package registry is the single roster of scheduling methods and window
// solvers: every shipped §4.3 / §5 method registers here once, every
// optimization backend (the genetic algorithm, the LP-relaxation PDHG
// solver) registers once, and every consumer — the bbsim CLI's
// -method/-methods/-solver flags, the experiments matrices, sweep
// drivers — lists or instantiates from the same tables, so the rosters
// can never drift apart. RegisterMethod and RegisterSolver let downstream
// code add its own entries to the same namespaces.
package registry

import (
	"errors"
	"fmt"
	"sync"

	"bbsched/internal/cluster"
	"bbsched/internal/core"
	"bbsched/internal/lp"
	"bbsched/internal/moo"
	"bbsched/internal/sched"
	"bbsched/internal/solver"
)

// Builder constructs a fresh method instance sharing the given solver
// configuration (§4.3 uses one solver configuration for every method).
type Builder func(ga moo.GAConfig) sched.Method

// MethodSpec describes one registered scheduling method. A method may
// have distinct builds for the two-objective §4 evaluation and the
// four-objective §5 SSD case study (e.g. Weighted and BBSched do); a spec
// with only one builder belongs to only that roster but can always be
// instantiated by name.
type MethodSpec struct {
	// Name is the method's unique §4.3 presentation name (what
	// sched.Method.Name returns).
	Name string
	// Desc is a one-line description for listings.
	Desc string
	// New builds the §4 (node + burst buffer) variant; nil when the
	// method is §5-only.
	New Builder
	// NewSSD builds the §5 four-objective variant; nil when the method
	// has no SSD-specific build (New is used in both rosters).
	NewSSD Builder
	// NewDim builds a variant over an explicit per-dimension objective
	// list generated from a cluster's resource spec (see
	// sched.ObjectivesFor); nil when the method is dimension-agnostic
	// (it adapts to any machine through feasibility alone) or has no
	// generalized build. NewForCluster uses it on machines with extra
	// resource dimensions.
	NewDim DimBuilder
	// Dimensions names the resource dimensions the method's standard
	// builds optimize (e.g. ["nodes", "bb_gb"]), for listings and
	// tooling. Nil means the method is dimension-agnostic: it optimizes
	// (or respects) every dimension the machine defines.
	Dimensions []string
	// Solver names the optimization backend the spec's builders attach
	// (see the solver registry): "" for a method's own default (the
	// genetic algorithm for optimization methods, nothing for fixed
	// heuristics). Listings surface it so method variants like
	// Weighted_LP are self-describing.
	Solver string
	// Section4 and Section5 flag membership in the §4.3 and §5 rosters
	// returned by the Section4/Section5 builders. Custom methods
	// registered by downstream code may leave both false: they are
	// instantiable by name without joining the paper rosters.
	Section4, Section5 bool
}

// DimBuilder constructs a method over an explicit objective list, one
// utilization objective per optimized resource dimension.
type DimBuilder func(ga moo.GAConfig, objectives []sched.Objective) sched.Method

// builder selects the build for a variant: the four-objective one when
// asked for (or when it is the only one), the two-objective one
// otherwise.
func (s MethodSpec) builder(ssd bool) Builder {
	b := s.New
	if (ssd || b == nil) && s.NewSSD != nil {
		b = s.NewSSD
	}
	return b
}

var (
	mu     sync.RWMutex
	order  []string
	byName = make(map[string]MethodSpec)
)

// Register adds a method to the registry. The name must be unique and at
// least one builder must be present.
func Register(spec MethodSpec) error {
	if spec.Name == "" {
		return fmt.Errorf("registry: method with empty name")
	}
	if spec.New == nil && spec.NewSSD == nil {
		return fmt.Errorf("registry: method %q has no builder", spec.Name)
	}
	if spec.Section4 && spec.New == nil {
		return fmt.Errorf("registry: method %q is in the §4 roster without a two-objective builder", spec.Name)
	}
	mu.Lock()
	defer mu.Unlock()
	if _, dup := byName[spec.Name]; dup {
		return fmt.Errorf("registry: method %q already registered", spec.Name)
	}
	byName[spec.Name] = spec
	order = append(order, spec.Name)
	return nil
}

// MustRegister is Register but panics on error; for package init blocks.
func MustRegister(spec MethodSpec) {
	if err := Register(spec); err != nil {
		panic(err)
	}
}

// Methods returns every registered method in registration order (built-in
// methods in the paper's presentation order first).
func Methods() []MethodSpec {
	mu.RLock()
	defer mu.RUnlock()
	out := make([]MethodSpec, len(order))
	for i, name := range order {
		out[i] = byName[name]
	}
	return out
}

// Names returns the registered method names in registration order.
func Names() []string {
	mu.RLock()
	defer mu.RUnlock()
	return append([]string(nil), order...)
}

// Lookup returns the spec registered under name.
func Lookup(name string) (MethodSpec, bool) {
	mu.RLock()
	defer mu.RUnlock()
	spec, ok := byName[name]
	return spec, ok
}

// New instantiates the named method. ssd selects the four-objective §5
// build when the method has one; either way a method with a single
// builder is instantiated from it, so every registered name resolves.
func New(name string, ga moo.GAConfig, ssd bool) (sched.Method, error) {
	spec, ok := Lookup(name)
	if !ok {
		return nil, fmt.Errorf("registry: unknown method %q (have %v)", name, Names())
	}
	return spec.builder(ssd)(ga), nil
}

// NewForCluster instantiates the named method for a concrete machine. On
// a machine with extra resource dimensions, methods with a NewDim build
// receive the per-dimension objective list generated from the cluster's
// resource spec (sched.ObjectivesFor); dimension-agnostic methods and
// machines without extra dimensions fall back to New, so 2-dimension
// behaviour is exactly the paper's.
func NewForCluster(name string, ga moo.GAConfig, cfg cluster.Config, ssd bool) (sched.Method, error) {
	if len(cfg.Extra) == 0 {
		return New(name, ga, ssd)
	}
	spec, ok := Lookup(name)
	if !ok {
		return nil, fmt.Errorf("registry: unknown method %q (have %v)", name, Names())
	}
	if spec.NewDim == nil {
		return spec.builder(ssd)(ga), nil
	}
	return spec.NewDim(ga, sched.ObjectivesFor(cfg, ssd)), nil
}

// Section4 builds the eight §4.3 comparison methods in the paper's order.
func Section4(ga moo.GAConfig) []sched.Method {
	return roster(ga, false)
}

// Section5 builds the seven §5 case-study methods in the paper's order.
func Section5(ga moo.GAConfig) []sched.Method {
	return roster(ga, true)
}

// roster instantiates the registered methods belonging to one evaluation
// section, preferring the four-objective build for §5 when a method has
// one.
func roster(ga moo.GAConfig, ssd bool) []sched.Method {
	var out []sched.Method
	for _, spec := range Methods() {
		if (ssd && !spec.Section5) || (!ssd && !spec.Section4) {
			continue
		}
		out = append(out, spec.builder(ssd)(ga))
	}
	return out
}

// RosterForCluster builds the §4.3 (or, with ssd, §5) roster for a
// concrete machine: the same section membership as Section4/Section5,
// with each member instantiated via NewForCluster so methods with a
// NewDim build pick up the machine's per-dimension objectives. On a
// machine without extra dimensions it is exactly Section4/Section5.
func RosterForCluster(ga moo.GAConfig, cfg cluster.Config, ssd bool) ([]sched.Method, error) {
	var out []sched.Method
	for _, spec := range Methods() {
		if (ssd && !spec.Section5) || (!ssd && !spec.Section4) {
			continue
		}
		m, err := NewForCluster(spec.Name, ga, cfg, ssd)
		if err != nil {
			return nil, err
		}
		out = append(out, m)
	}
	return out, nil
}

func init() {
	MustRegister(MethodSpec{
		Name:     "Baseline",
		Desc:     "Slurm-style naive: walk the queue in base order until a job does not fit",
		New:      func(moo.GAConfig) sched.Method { return sched.Baseline{} },
		Section4: true, Section5: true,
		// Dimension-agnostic: feasibility in every dimension gates the walk.
	})
	MustRegister(MethodSpec{
		Name:   "Weighted",
		Desc:   "maximize an equally weighted utilization sum (§4: node+BB 50/50; §5: four objectives; N dims: 1/n each)",
		New:    func(ga moo.GAConfig) sched.Method { return sched.NewWeighted("Weighted", 0.5, 0.5, ga) },
		NewSSD: weightedSSD,
		NewDim: func(ga moo.GAConfig, objs []sched.Objective) sched.Method {
			return sched.NewWeightedFor("Weighted", objs, ga)
		},
		Dimensions: []string{cluster.ResourceNodes, cluster.ResourceBB},
		Section4:   true, Section5: true,
	})
	MustRegister(MethodSpec{
		Name:       "Weighted_CPU",
		Desc:       "weighted utilization sum favoring nodes (80/20)",
		New:        func(ga moo.GAConfig) sched.Method { return sched.NewWeighted("Weighted_CPU", 0.8, 0.2, ga) },
		Dimensions: []string{cluster.ResourceNodes, cluster.ResourceBB},
		Section4:   true,
	})
	MustRegister(MethodSpec{
		Name:       "Weighted_BB",
		Desc:       "weighted utilization sum favoring burst buffer (20/80)",
		New:        func(ga moo.GAConfig) sched.Method { return sched.NewWeighted("Weighted_BB", 0.2, 0.8, ga) },
		Dimensions: []string{cluster.ResourceNodes, cluster.ResourceBB},
		Section4:   true,
	})
	MustRegister(MethodSpec{
		Name:       "Constrained_CPU",
		Desc:       "maximize node utilization under the other resources' constraints",
		New:        constrained("Constrained_CPU", sched.NodeUtil),
		Dimensions: []string{cluster.ResourceNodes},
		Section4:   true, Section5: true,
	})
	MustRegister(MethodSpec{
		Name:       "Constrained_BB",
		Desc:       "maximize burst-buffer utilization under the other resources' constraints",
		New:        constrained("Constrained_BB", sched.BBUtil),
		Dimensions: []string{cluster.ResourceBB},
		Section4:   true, Section5: true,
	})
	MustRegister(MethodSpec{
		Name:       "Constrained_SSD",
		Desc:       "maximize local-SSD utilization under the other resources' constraints (§5 only)",
		NewSSD:     constrained("Constrained_SSD", sched.SSDUtil),
		Dimensions: []string{cluster.ResourceSSD},
		Section5:   true,
	})
	MustRegister(MethodSpec{
		Name:     "Bin_Packing",
		Desc:     "Tetris-style alignment heuristic: repeatedly start the best-aligned fitting job",
		New:      func(moo.GAConfig) sched.Method { return sched.BinPacking{} },
		Section4: true, Section5: true,
		// Dimension-agnostic: the alignment score spans every machine dimension.
	})
	MustRegister(MethodSpec{
		Name: "BBSched",
		Desc: "the paper's method: MOO solve + §3.2.4 decision rule (§5: four objectives, 4x trade-off; N dims: one objective per dimension)",
		New: func(ga moo.GAConfig) sched.Method {
			b := core.New()
			b.GA = ga
			return b
		},
		NewSSD: func(ga moo.GAConfig) sched.Method {
			b := core.NewFourObjective()
			b.GA = ga
			return b
		},
		NewDim: func(ga moo.GAConfig, objs []sched.Objective) sched.Method {
			b := core.NewForObjectives(objs)
			b.GA = ga
			return b
		},
		Section4: true, Section5: true,
	})
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

var (
	solverMu     sync.RWMutex
	solverOrder  []string
	solverByName = make(map[string]SolverSpec)
)

// RegisterSolver adds an optimization backend to the registry. The name
// must be unique and the builder non-nil.
func RegisterSolver(spec SolverSpec) error {
	if spec.Name == "" {
		return fmt.Errorf("registry: solver with empty name")
	}
	if spec.New == nil {
		return fmt.Errorf("registry: solver %q has no builder", spec.Name)
	}
	solverMu.Lock()
	defer solverMu.Unlock()
	if _, dup := solverByName[spec.Name]; dup {
		return fmt.Errorf("registry: solver %q already registered", spec.Name)
	}
	solverByName[spec.Name] = spec
	solverOrder = append(solverOrder, spec.Name)
	return nil
}

// MustRegisterSolver is RegisterSolver but panics on error.
func MustRegisterSolver(spec SolverSpec) {
	if err := RegisterSolver(spec); err != nil {
		panic(err)
	}
}

// Solvers returns every registered backend in registration order.
func Solvers() []SolverSpec {
	solverMu.RLock()
	defer solverMu.RUnlock()
	out := make([]SolverSpec, len(solverOrder))
	for i, name := range solverOrder {
		out[i] = solverByName[name]
	}
	return out
}

// SolverNames returns the registered backend names in registration order.
func SolverNames() []string {
	solverMu.RLock()
	defer solverMu.RUnlock()
	return append([]string(nil), solverOrder...)
}

// NewSolver instantiates the named backend.
func NewSolver(name string, ga moo.GAConfig) (solver.Solver, error) {
	solverMu.RLock()
	spec, ok := solverByName[name]
	solverMu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("registry: unknown solver %q (have %v)", name, SolverNames())
	}
	return spec.New(ga), nil
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

func init() {
	MustRegisterSolver(SolverSpec{
		Name: "ga",
		Desc: "the paper's §3.2.2 multi-objective genetic algorithm (Pareto fronts; any problem)",
		New:  func(ga moo.GAConfig) solver.Solver { return solver.NewGA(ga) },
	})
	MustRegisterSolver(SolverSpec{
		Name: "lp",
		Desc: "matrix-free LP relaxation via restarted Halpern PDHG + randomized rounding (scalarized problems; presolved to the jobs that fit the free machine)",
		New:  func(moo.GAConfig) solver.Solver { return lp.New(lp.DefaultConfig()) },
	})
	MustRegisterSolver(SolverSpec{
		Name: "greedy",
		Desc: "density-ratio baseline: fill by objective value per capacity-normalized demand (scalarized problems; near-free at huge windows)",
		New:  func(moo.GAConfig) solver.Solver { return solver.NewGreedy() },
	})
	MustRegisterSolver(SolverSpec{
		Name: "exact",
		Desc: fmt.Sprintf("exact branch-and-bound with LP-relaxation bounds (scalarized problems, windows ≤ %d jobs)", lp.DefaultMaxExactDim),
		New:  func(moo.GAConfig) solver.Solver { return lp.NewExact(lp.DefaultConfig()) },
	})
	MustRegisterSolver(SolverSpec{
		Name: "portfolio",
		Desc: "race ga, lp and greedy per decision, keep the best feasible roster (scalarized problems)",
		New: func(ga moo.GAConfig) solver.Solver {
			return solver.NewPortfolio(solver.NewGA(ga), lp.New(lp.DefaultConfig()), solver.NewGreedy())
		},
	})

	// LP-backed method variants: the scalarized formulations re-solved by
	// the first-order backend. Not part of the paper's §4/§5 rosters —
	// those stay MOGA-backed and golden-pinned — but instantiable by name
	// everywhere methods are.
	MustRegister(MethodSpec{
		Name: "Weighted_LP",
		Desc: "Weighted's equally weighted utilization sum solved by LP relaxation + rounding",
		New: func(ga moo.GAConfig) sched.Method {
			return withLP(sched.NewWeighted("Weighted_LP", 0.5, 0.5, ga))
		},
		NewDim: func(ga moo.GAConfig, objs []sched.Objective) sched.Method {
			// Every canonical objective now has a linear column — the §5
			// SSD-waste term linearizes at build time via the allocator's
			// smallest-eligible-class-first rule — so on SSD machines this
			// is the full four-objective scalarization. The filter stays as
			// a guard for future placement-only objectives.
			return withLP(sched.NewWeightedFor("Weighted_LP", sched.LinearObjectives(objs), ga))
		},
		Dimensions: []string{cluster.ResourceNodes, cluster.ResourceBB},
		Solver:     "lp",
	})
	MustRegister(MethodSpec{
		Name: "Constrained_LP",
		Desc: "Constrained_CPU's node-utilization maximization solved by LP relaxation + rounding",
		New: func(ga moo.GAConfig) sched.Method {
			return withLP(&sched.Constrained{MethodName: "Constrained_LP", Target: sched.NodeUtil, GA: ga})
		},
		Dimensions: []string{cluster.ResourceNodes},
		Solver:     "lp",
	})
}

// withLP attaches the default LP backend to a solver-configurable method.
func withLP(m sched.SolverConfigurable) sched.Method {
	m.SetSolver(lp.New(lp.DefaultConfig()))
	return m
}

func weightedSSD(ga moo.GAConfig) sched.Method {
	return &sched.Weighted{
		MethodName: "Weighted",
		Objectives: sched.FourObjectives(),
		Weights:    []float64{0.25, 0.25, 0.25, 0.25},
		GA:         ga,
	}
}

func constrained(name string, target sched.Objective) Builder {
	return func(ga moo.GAConfig) sched.Method {
		return &sched.Constrained{MethodName: name, Target: target, GA: ga}
	}
}
