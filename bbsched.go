// Package bbsched is a reproduction of "Scheduling Beyond CPUs for HPC"
// (Fan, Lan, Rich, Allcock, Papka, Austin, Paul — HPDC 2019): BBSched, a
// multi-resource HPC batch-scheduling plugin that selects which window
// jobs to dispatch by solving a multi-objective optimization problem over
// node, burst-buffer (and, optionally, local-SSD) utilization with a
// genetic algorithm, then picking from the resulting Pareto set with a
// utilization trade-off rule.
//
// This root package is the public API: a thin facade over the
// implementation packages under internal/. The typical flow builds a
// reusable Simulator engine:
//
//	system := bbsched.ScaleSystem(bbsched.Theta(), 32)
//	workload := bbsched.Generate(bbsched.GenConfig{System: system, Jobs: 1000, Seed: 1})
//	s, err := bbsched.NewSimulator(workload, bbsched.New(), // BBSched, paper defaults
//	    bbsched.WithWindow(20, 50), bbsched.WithSeed(1))
//	result, err := s.Run(ctx)
//
// The engine can equally be driven step by step (Step / RunUntil) with
// mid-run inspection, observed live (WithObserver, WithEventLog), or
// fanned out over a methods × workloads × seeds grid with RunSweep.
// NewSimulator is the one way to run a workload: a Workload that carries
// jobs and a streamed trace (WithSource) go through the same engine path.
// The method registry (Methods / RegisterMethod / NewMethod) names every
// shipped scheduling method.
//
// Lower-level entry points expose the pieces directly: ClusterConfig /
// NewCluster model the machine, SelectionProblem + SolveGA /
// SolveExhaustive solve one window instance, and Decide applies the
// §3.2.4 decision rule to any Pareto front.
package bbsched

import (
	"bbsched/internal/checkpoint"
	"bbsched/internal/cluster"
	"bbsched/internal/core"
	"bbsched/internal/farm"
	"bbsched/internal/job"
	"bbsched/internal/lp"
	"bbsched/internal/metrics"
	"bbsched/internal/moo"
	"bbsched/internal/queue"
	"bbsched/internal/registry"
	"bbsched/internal/rng"
	"bbsched/internal/sched"
	"bbsched/internal/sim"
	"bbsched/internal/solver"
	"bbsched/internal/trace"
)

// Job model.
type (
	// Job is a batch job with multi-resource demands.
	Job = job.Job
	// Demand is a job's requested resources (nodes, burst buffer GB,
	// local SSD GB per node).
	Demand = job.Demand
	// Resource indexes one demand dimension.
	Resource = job.Resource
)

// Demand dimensions.
const (
	Nodes             = job.Nodes
	BurstBufferGB     = job.BurstBufferGB
	LocalSSDGBPerNode = job.LocalSSDGBPerNode
)

// NewDemand builds a demand vector; NewJob a validated job; MustNewJob
// panics on invalid input (tests and literals).
var (
	NewDemand = job.NewDemand
	// NewDemandVector builds a demand carrying extra-dimension amounts
	// aligned to the cluster's extra resource specs.
	NewDemandVector = job.NewDemandVector
	NewJob          = job.New
	MustNewJob      = job.MustNew
)

// Machine model.
type (
	// ClusterConfig describes a machine (nodes, burst buffer, SSD classes,
	// extra resource dimensions).
	ClusterConfig = cluster.Config
	// ResourceSpec names one extra pool-style resource dimension and its
	// machine capacity (power budget, NVRAM tier, ...).
	ResourceSpec = cluster.ResourceSpec
	// SSDClass is one group of nodes with identical local SSD capacity.
	SSDClass = cluster.SSDClass
	// Cluster is live machine state.
	Cluster = cluster.Cluster
	// Snapshot is a copyable view of free resources.
	Snapshot = cluster.Snapshot
)

// NewCluster builds a machine from its config.
var NewCluster = cluster.New

// MOO solver.
type (
	// GAConfig holds the genetic algorithm parameters (G, P, p_m).
	GAConfig = moo.GAConfig
	// Solution is an evaluated candidate selection.
	Solution = moo.Solution
	// Problem is a pseudo-boolean multi-objective maximization problem.
	Problem = moo.Problem
	// Genome is a packed bit-vector solution encoding.
	Genome = moo.Genome
	// Evaluator memoizes Problem evaluations by genome.
	Evaluator = moo.Evaluator
	// EvalStats is an Evaluator's cache hit/miss accounting.
	EvalStats = moo.EvalStats
)

var (
	// DefaultGAConfig returns the paper's solver defaults (G=500, P=20,
	// p_m=0.05%).
	DefaultGAConfig = moo.DefaultGAConfig
	// NewGenome returns an all-zero genome; GenomeFromBools packs a
	// []bool selection vector.
	NewGenome       = moo.NewGenome
	GenomeFromBools = moo.FromBools
	// NewEvaluator wraps a Problem with a genome-memoization cache;
	// ReuseEvaluator rebinds one across scheduling decisions.
	NewEvaluator   = moo.NewEvaluator
	ReuseEvaluator = moo.ReuseEvaluator
	// SolveGA runs the multi-objective genetic algorithm.
	SolveGA = moo.SolveGA
	// SolveExhaustive enumerates 2^w solutions for an exact front.
	SolveExhaustive = moo.SolveExhaustive
	// GenerationalDistance measures front approximation quality.
	GenerationalDistance = moo.GenerationalDistance
	// Dominates tests Pareto dominance under maximization.
	Dominates = moo.Dominates
)

// Pluggable window solvers: every optimization backend that can drive
// the window job-selection problem implements Solver; scheduling methods
// accept one via SetSolver / ApplySolver / WithSolver.
type (
	// Solver is the window-solver contract (Name, Capabilities, Solve).
	Solver = solver.Solver
	// SolverOptions carries per-invocation solver inputs (the random
	// stream).
	SolverOptions = solver.Options
	// SolverCapabilities describes what a backend can solve.
	SolverCapabilities = solver.Capabilities
	// LinearProblemForm is the LP structure of a 0/1 selection problem
	// (maximize C·x subject to Rows·x ≤ Caps, x ∈ [0,1]ⁿ).
	LinearProblemForm = solver.LinearForm
	// Linearizable is implemented by problems exposing an LP structure.
	Linearizable = solver.Linearizable
	// GASolver adapts the §3.2.2 genetic algorithm to the Solver
	// interface (the default backend of every optimization method).
	GASolver = solver.GA
	// LPSolver is the matrix-free LP-relaxation backend: restarted
	// Halpern PDHG on the knapsack relaxation + randomized rounding.
	LPSolver = lp.Solver
	// LPConfig parameterizes the LP backend.
	LPConfig = lp.Config
	// LPStats reports one LP-relaxation solve.
	LPStats = lp.Stats
	// LPIterate is a serializable PDHG iterate for warm-starting
	// SolveLPRelaxationWarm across related instances (checkpoint resume,
	// successive scheduling passes).
	LPIterate = lp.Iterate
	// GreedySolver is the density-ratio baseline backend: fill by
	// objective value per capacity-normalized demand.
	GreedySolver = solver.Greedy
	// PortfolioSolver races member backends per decision and keeps the
	// best feasible solution.
	PortfolioSolver = solver.Portfolio
	// ExactSolver is the branch-and-bound backend with LP-relaxation
	// bounds — exact optima on windows up to DefaultMaxExactDim jobs.
	ExactSolver = lp.Exact
	// SolverMemory is the per-run cross-invocation store backends use to
	// carry state between scheduling passes (the LP backend keeps its
	// previous PDHG iterate there for warm starts).
	SolverMemory = solver.Memory
	// SolverSpec describes one registered backend.
	SolverSpec = registry.SolverSpec
	// SolverConfigurable is implemented by methods whose backend is
	// pluggable (Weighted, Constrained, BBSched).
	SolverConfigurable = sched.SolverConfigurable
	// SolverVetoer is implemented by methods that reject incompatible
	// backends at configuration time (BBSched needs Pareto fronts; the
	// scalarized methods veto linear-only backends over non-linear
	// objectives).
	SolverVetoer = sched.SolverVetoer
	// SolverSlot is the embeddable backend holder custom methods can use
	// for the same SetSolver/Select concurrency contract as the built-in
	// methods.
	SolverSlot = sched.SolverSlot
)

var (
	// NewGASolver returns the genetic backend over a GA configuration.
	NewGASolver = solver.NewGA
	// NewLPSolver returns the LP-relaxation backend; DefaultLPConfig its
	// default parameters.
	NewLPSolver     = lp.New
	DefaultLPConfig = lp.DefaultConfig
	// SolveLPRelaxation solves just the fractional relaxation of a linear
	// selection instance (diagnostics and custom rounding schemes);
	// SolveLPRelaxationWarm additionally seeds PDHG from a prior iterate
	// and returns the final one (a dimension-mismatched seed cold-starts
	// the solve and sets LPStats.WarmRejected).
	SolveLPRelaxation     = lp.SolveRelaxation
	SolveLPRelaxationWarm = lp.SolveRelaxationWarm
	// NewGreedySolver returns the density-ratio baseline backend.
	NewGreedySolver = solver.NewGreedy
	// NewPortfolioSolver returns a racing portfolio over the given members;
	// a decision waits for all of them.
	NewPortfolioSolver = solver.NewPortfolio
	// NewExactSolver returns the branch-and-bound backend.
	NewExactSolver = lp.NewExact
	// NewSolverMemory returns an empty cross-invocation solver store.
	NewSolverMemory = solver.NewMemory
	// ErrIncompatibleSolver marks a method×solver pair that can never work
	// (match with errors.Is to skip instead of fail).
	ErrIncompatibleSolver = registry.ErrIncompatibleSolver
	// LinearizeProblem extracts a problem's LP structure (unwrapping a
	// memoizing Evaluator).
	LinearizeProblem = solver.Linearize
	// RegisterSolver adds a custom backend to the shared solver registry;
	// Solvers / SolverNames list it; NewSolver instantiates by name.
	RegisterSolver = registry.RegisterSolver
	Solvers        = registry.Solvers
	SolverNames    = registry.SolverNames
	NewSolver      = registry.NewSolver
	// ApplySolver attaches a registered backend to a method by name.
	ApplySolver = registry.ApplySolver
	// SolverNameOf reports the backend a method runs on ("-" for fixed
	// heuristics).
	SolverNameOf = sched.SolverNameOf
)

// DefaultMaxExactDim is the largest window the exact branch-and-bound
// backend accepts by default (2^w leaves bound the practical range).
const DefaultMaxExactDim = lp.DefaultMaxExactDim

// Scheduling methods and the window-selection problem.
type (
	// Method selects which window jobs to start now.
	Method = sched.Method
	// MethodContext carries one scheduling invocation's inputs.
	MethodContext = sched.Context
	// Objective identifies one optimization objective.
	Objective = sched.Objective
	// SelectionProblem is the §3.2.1 window job-selection MOO problem.
	SelectionProblem = sched.SelectionProblem
	// Totals carries machine capacities for normalization.
	Totals = sched.Totals
	// Baseline is the Slurm-style naive method.
	Baseline = sched.Baseline
	// Weighted maximizes a weighted utilization sum.
	Weighted = sched.Weighted
	// Constrained maximizes one resource under the others' constraints.
	Constrained = sched.Constrained
	// BinPacking is the Tetris-style alignment heuristic.
	BinPacking = sched.BinPacking
)

// Objectives.
const (
	NodeUtil    = sched.NodeUtil
	BBUtil      = sched.BBUtil
	SSDUtil     = sched.SSDUtil
	SSDWasteNeg = sched.SSDWasteNeg
)

var (
	// NewSelectionProblem builds the window-selection problem.
	NewSelectionProblem = sched.NewSelectionProblem
	// TwoObjectives is the §3.2 node + burst-buffer objective set.
	TwoObjectives = sched.TwoObjectives
	// FourObjectives adds the §5 SSD objectives.
	FourObjectives = sched.FourObjectives
	// TotalsOf derives Totals from a cluster config.
	TotalsOf = sched.TotalsOf
	// NewWeighted builds a two-objective weighted method.
	NewWeighted = sched.NewWeighted
	// NewWeightedFor builds an equally weighted method over any
	// objective list (typically ObjectivesFor).
	NewWeightedFor = sched.NewWeightedFor
	// ObjectivesFor generates one utilization objective per resource
	// dimension from a cluster's resource spec.
	ObjectivesFor = sched.ObjectivesFor
	// ExtraUtil is the utilization objective of extra dimension k.
	ExtraUtil = sched.ExtraUtil
)

// BBSched itself.
type (
	// BBSched is the paper's method: MOO solve + decision rule.
	BBSched = core.BBSched
	// PluginConfig configures the §3.1 scheduling window.
	PluginConfig = core.PluginConfig
	// Plugin wraps any Method with window semantics.
	Plugin = core.Plugin
	// Adaptive wraps BBSched with online trade-off-factor tuning
	// (§3.2.4's adaptive decision making).
	Adaptive = core.Adaptive
	// WindowPolicy sizes the window dynamically (§3.1).
	WindowPolicy = core.WindowPolicy
	// FixedWindow is the paper's static window size.
	FixedWindow = core.FixedWindow
	// AdaptiveWindow scales the window with queue length.
	AdaptiveWindow = core.AdaptiveWindow
)

var (
	// New returns two-objective BBSched with paper defaults.
	New = core.New
	// NewFourObjective returns the §5 four-objective variant.
	NewFourObjective = core.NewFourObjective
	// Decide applies the §3.2.4 decision rule to a Pareto front.
	Decide = core.Decide
	// DefaultPluginConfig returns w=20, starvation bound 50.
	DefaultPluginConfig = core.DefaultPluginConfig
	// NewPlugin wraps a method with window semantics.
	NewPlugin = core.NewPlugin
	// NewAdaptive wraps BBSched with the default adaptive controller.
	NewAdaptive = core.NewAdaptive
	// NewAdaptiveWindow returns the default dynamic window policy.
	NewAdaptiveWindow = core.NewAdaptiveWindow
)

// Queue and base policies.
type (
	// Queue is the base-policy-ordered waiting queue.
	Queue = queue.Queue
	// FCFS orders jobs by arrival (Cori / Slurm default).
	FCFS = queue.FCFS
	// WFP is ALCF's utility policy (Theta / Cobalt).
	WFP = queue.WFP
	// Multifactor approximates Slurm's multifactor priority plugin.
	Multifactor = queue.Multifactor
)

// NewQueue builds an empty waiting queue.
var NewQueue = queue.New

// Workloads.
type (
	// SystemModel couples a machine with its workload character.
	SystemModel = trace.SystemModel
	// Workload is a job trace targeting a system.
	Workload = trace.Workload
	// GenConfig parameterizes the workload generator.
	GenConfig = trace.GenConfig
	// SSDMix is a §5 local-SSD request mix.
	SSDMix = trace.SSDMix
	// SWFOptions controls Standard Workload Format import.
	SWFOptions = trace.SWFOptions
	// JobSource is the pull-based streaming workload contract: Next
	// returns jobs in submit order until io.EOF. Materialized slices
	// adapt via SliceSource; files via OpenSWF/OpenCSV.
	JobSource = trace.JobSource
	// SliceSource adapts a materialized job slice to JobSource.
	SliceSource = trace.SliceSource
	// SourceHorizoner is the optional JobSource refinement reporting the
	// last submit time, which resolves fractional measurement trims.
	SourceHorizoner = trace.Horizoner
	// SourceCloser is the optional JobSource refinement for file-backed
	// sources holding an OS handle.
	SourceCloser = trace.Closer
	// SWFSource and CSVSource stream trace files without materializing
	// them; TraceCSVWriter is the matching incremental writer.
	SWFSource      = trace.SWFSource
	CSVSource      = trace.CSVSource
	TraceCSVWriter = trace.CSVWriter
	// StreamWorkload is a stream-backed sweep entry: a fresh JobSource
	// is opened per grid cell.
	StreamWorkload = sim.StreamWorkload
)

// BasePolicy names a queue base policy in a SystemModel.
type BasePolicy = trace.BasePolicy

// Base policies.
const (
	PolicyFCFS = trace.FCFS
	PolicyWFP  = trace.WFP
)

var (
	// Cori and Theta return the Table 2 system models.
	Cori  = trace.Cori
	Theta = trace.Theta
	// WorkloadVariants lists the variant names ("Original", S1–S7);
	// ApplyVariant derives one from a generated base workload.
	WorkloadVariants = trace.Variants
	ApplyVariant     = trace.ApplyVariant
	// IsSSDVariant reports whether a variant pairs with the §5 roster.
	IsSSDVariant = trace.IsSSDVariant
	// ScaleSystem shrinks a system model for laptop-scale runs.
	ScaleSystem = trace.Scale
	// WithSSD splits a system's nodes into 128/256 GB SSD classes.
	WithSSD = trace.WithSSD
	// WithExtraResource appends an extra pool-style resource dimension
	// to a system model.
	WithExtraResource = trace.WithExtraResource
	// Generate synthesizes a workload.
	Generate = trace.Generate
	// ExpandBB applies the S1–S4 burst-buffer expansion.
	ExpandBB = trace.ExpandBB
	// AddSSD applies the S5–S7 local-SSD mixes.
	AddSSD = trace.AddSSD
	// AddExtraDemand retrofits per-node demands in an extra resource
	// dimension onto a generated workload.
	AddExtraDemand = trace.AddExtraDemand
	// WorkloadMatrix returns the ten §4 workloads.
	WorkloadMatrix = trace.Matrix
	// ReadTraceCSV and WriteTraceCSV persist workloads.
	ReadTraceCSV  = trace.ReadCSV
	WriteTraceCSV = trace.WriteCSV
	// ReadTraceCSVNamed also returns the extra-dimension column names.
	ReadTraceCSVNamed = trace.ReadCSVNamed
	// ReadSWF and WriteSWF exchange Standard Workload Format logs.
	ReadSWF  = trace.ReadSWF
	WriteSWF = trace.WriteSWF
	// BBFloors calibrates the S1-S4 expansion floors for a workload.
	BBFloors = trace.BBFloors
	// WithStageOut adds Slurm-style stage-out phases to BB jobs.
	WithStageOut = trace.WithStageOut
	// WithPersistentBB reserves a fraction of the pool persistently.
	WithPersistentBB = trace.WithPersistentBB

	// Streaming workloads: sources pull jobs on demand so trace length
	// never bounds memory. NewSliceSource / SourceOf adapt materialized
	// slices; CollectSource drains a source back into a slice.
	NewSliceSource = trace.NewSliceSource
	SourceOf       = trace.SourceOf
	CollectSource  = trace.Collect
	// OpenSWF / OpenCSV stream trace files, transparently gunzipping
	// paths ending in .gz; OpenTrace picks the parser from the
	// extension (.swf[.gz] vs CSV); NewSWFSource / NewCSVSource wrap an
	// arbitrary reader; NewTraceCSVWriter writes incrementally.
	OpenSWF           = trace.OpenSWF
	OpenCSV           = trace.OpenCSV
	OpenTrace         = trace.OpenTrace
	NewSWFSource      = trace.NewSWFSource
	NewCSVSource      = trace.NewCSVSource
	NewTraceCSVWriter = trace.NewCSVWriter
	// GenSource is the streaming workload generator; LimitSource caps a
	// source's job count.
	GenSource   = trace.GenSource
	LimitSource = trace.LimitSource
	// Streaming counterparts of the workload transforms: StageOutSource
	// mirrors WithStageOut; ExpandBBSource / AddSSDSource approximate
	// ExpandBB / AddSSD distributionally; ApplyVariantSource derives any
	// named variant; EstimateBBFloors calibrates expansion floors without
	// a materialized workload.
	StageOutSource     = trace.StageOutSource
	ExpandBBSource     = trace.ExpandBBSource
	AddSSDSource       = trace.AddSSDSource
	ApplyVariantSource = trace.ApplyVariantSource
	EstimateBBFloors   = trace.EstimateBBFloors
)

// S5, S6, S7 are the §5 SSD request mixes.
var (
	S5 = trace.S5
	S6 = trace.S6
	S7 = trace.S7
)

// Simulation engine.
type (
	// Simulator is the stateful, reusable simulation engine: step-driven
	// or run-to-completion, with observers and mid-run inspection.
	Simulator = sim.Simulator
	// SimOption is a functional option for NewSimulator.
	SimOption = sim.Option
	// Observer receives live simulation callbacks (job state changes and
	// scheduling passes).
	Observer = sim.Observer
	// NopObserver is an embeddable no-op Observer.
	NopObserver = sim.NopObserver
	// SimEvent is one job state-change notification.
	SimEvent = sim.Event
	// ScheduleInfo describes one completed scheduling pass.
	ScheduleInfo = sim.ScheduleInfo
	// Sweep describes a workloads × methods × seeds run grid.
	Sweep = sim.Sweep
	// SweepRun is one completed run of a sweep.
	SweepRun = sim.SweepRun
	// SimResult is a finished run's metrics.
	SimResult = sim.Result
	// Report is the §4.2 metric set.
	Report = metrics.Report
	// EventRecord is one line of the simulation event log.
	EventRecord = sim.EventRecord
)

var (
	// NewSimulator builds the reusable engine over a workload and method.
	NewSimulator = sim.NewSimulator
	// RunSweep executes a Sweep on a deterministic parallel worker pool.
	RunSweep = sim.RunSweep

	// Simulator options.
	WithPlugin        = sim.WithPlugin
	WithWindow        = sim.WithWindow
	WithBackfill      = sim.WithBackfill
	WithSeed          = sim.WithSeed
	WithMeasurement   = sim.WithMeasurement
	WithSlowdownFloor = sim.WithSlowdownFloor
	WithBuckets       = sim.WithBuckets
	WithObserver      = sim.WithObserver
	WithEventLog      = sim.WithEventLog
	WithSolver        = sim.WithSolver
	// Streaming ingestion: WithSource replaces the preloaded trace with
	// online arrivals from a JobSource; WithLookahead bounds how many
	// pending arrivals are buffered; WithStreamingMetrics swaps the
	// float64 kept per measured job (exact wait percentiles) for
	// constant-memory P² percentile sketches, every other metric being
	// the same accumulator either way; WithMeasureWindow measures an
	// absolute submit-time window when a stream's horizon is unknown.
	WithSource           = sim.WithSource
	WithLookahead        = sim.WithLookahead
	WithStreamingMetrics = sim.WithStreamingMetrics
	WithMeasureWindow    = sim.WithMeasureWindow
)

// Checkpoint / restore: Simulator.Checkpoint writes a versioned binary
// snapshot of the complete engine state at an event boundary;
// RestoreSimulator rebuilds a simulator from it that continues with a
// byte-identical event stream and an identical final Result. The caller
// re-supplies the same workload, method, and options (streaming runs also
// re-supply a fresh source via WithSource; the restore repositions it).
var RestoreSimulator = sim.Restore

// SnapshotVersion is the snapshot format version RestoreSimulator
// accepts; ErrSnapshotVersion is returned (wrapped) for any other.
const SnapshotVersion = checkpoint.Version

var ErrSnapshotVersion = checkpoint.ErrVersion

// Distributed sweep farm: a Coordinator shards a workloads × methods ×
// solvers × seeds grid onto Workers over HTTP/JSON, retrying failed or
// preempted cells from their last uploaded checkpoint, and assembles
// results in grid order identical to a serial RunSweep.
type (
	// FarmGrid declares the sweep: workload recipes × method specs ×
	// solver names × seeds, plus per-run options and checkpoint cadence.
	FarmGrid = farm.Grid
	// FarmCell is one grid cell, the unit of leased work.
	FarmCell = farm.Cell
	// FarmWorkloadSpec is a workload recipe every worker rebuilds
	// bit-for-bit (materialized or stream-backed).
	FarmWorkloadSpec = farm.WorkloadSpec
	// FarmMethodSpec names a registry method build.
	FarmMethodSpec = farm.MethodSpec
	// FarmRunOptions is the serializable per-run simulator options.
	FarmRunOptions = farm.RunOptions
	// FarmCoordinator owns one sweep: Handler serves the worker API,
	// Wait blocks for the assembled grid.
	FarmCoordinator = farm.Coordinator
	// FarmWorker leases and executes cells against a coordinator URL.
	FarmWorker = farm.Worker
	// FarmStats counts coordinator-side recovery and throughput events
	// (expiries, retries, steals, relay segments, cache dedups,
	// journal replays).
	FarmStats = farm.Stats
	// FarmWorkerStats counts worker-side events: leases, completions,
	// cache hits/stores, terminal relay segments, lease retries.
	FarmWorkerStats = farm.WorkerStats
	// FarmCoordinatorOption configures NewFarmCoordinator.
	FarmCoordinatorOption = farm.CoordinatorOption
)

var (
	// NewFarmCoordinator validates a grid and prepares the sweep.
	NewFarmCoordinator = farm.NewCoordinator
	// WithFarmLeaseTTL sets the worker lease duration (checkpoint
	// uploads renew it); WithFarmMaxAttempts bounds retries per cell.
	WithFarmLeaseTTL    = farm.WithLeaseTTL
	WithFarmMaxAttempts = farm.WithMaxAttempts
	// WithFarmSpeculation toggles straggler work-stealing: idle workers
	// duplicate the oldest in-flight cell from its latest checkpoint,
	// first result wins (on by default).
	WithFarmSpeculation = farm.WithSpeculation
	// WithFarmJournal persists completed cells and relay segments to an
	// append-only log a replacement coordinator replays after a crash.
	WithFarmJournal = farm.WithJournal
	// FarmRecipeKey is the canonical content address of a cell — the
	// SHA-256 under which its result is cached (FarmWorker.CacheDir).
	FarmRecipeKey = farm.RecipeKey
)

// ReadEventLog parses a JSONL simulation event log.
var ReadEventLog = sim.ReadEventLog

// Method registry: the single roster shared by the CLI and experiments.
type (
	// MethodSpec describes one registered scheduling method.
	MethodSpec = registry.MethodSpec
	// MethodBuilder constructs a method for a solver configuration.
	MethodBuilder = registry.Builder
)

var (
	// Methods lists every registered method in the paper's order.
	Methods = registry.Methods
	// MethodNames lists the registered method names.
	MethodNames = registry.Names
	// RegisterMethod adds a custom method to the shared roster.
	RegisterMethod = registry.Register
	// LookupMethod finds a registered method by name.
	LookupMethod = registry.Lookup
	// NewMethod instantiates a registered method by name (the ssd flag
	// selects the four-objective §5 build when the method has one).
	NewMethod = registry.New
	// NewMethodForCluster instantiates a method with per-dimension
	// objectives generated from a concrete machine's resource spec.
	NewMethodForCluster = registry.NewForCluster
	// Section4Methods and Section5Methods build the §4.3 and §5 rosters.
	Section4Methods = registry.Section4
	Section5Methods = registry.Section5
)

// HypervolumeMC estimates N-dimensional front hypervolume by sampling.
var HypervolumeMC = moo.HypervolumeMC

// NewRand returns a deterministic random stream for solver calls.
func NewRand(seed uint64) *rng.Stream { return rng.New(seed) }
