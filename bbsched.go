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
// The method registry (Methods / NewMethod) names every shipped
// scheduling method.
//
// Lower-level entry points expose the pieces directly: ClusterConfig /
// NewCluster model the machine, and SelectionProblem + SolveGA /
// SolveExhaustive solve one window instance.
package bbsched

import (
	"bbsched/internal/cluster"
	"bbsched/internal/core"
	"bbsched/internal/farm"
	"bbsched/internal/job"
	"bbsched/internal/lp"
	"bbsched/internal/moo"
	"bbsched/internal/registry"
	"bbsched/internal/rng"
	"bbsched/internal/sched"
	"bbsched/internal/sim"
	"bbsched/internal/solver"
	"bbsched/internal/trace"
)

// Job is a batch job with multi-resource demands.
type Job = job.Job

// NewDemand builds a demand vector (nodes, burst buffer GB, local SSD GB
// per node); MustNewJob builds a job and panics on invalid input (tests
// and literals).
var (
	NewDemand  = job.NewDemand
	MustNewJob = job.MustNew
)

// Machine model.
type (
	// ClusterConfig describes a machine (nodes, burst buffer, SSD classes,
	// extra resource dimensions).
	ClusterConfig = cluster.Config
	// ResourceSpec names one extra pool-style resource dimension and its
	// machine capacity (power budget, NVRAM tier, ...).
	ResourceSpec = cluster.ResourceSpec
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
)

var (
	// DefaultGAConfig returns the paper's solver defaults (G=500, P=20,
	// p_m=0.05%).
	DefaultGAConfig = moo.DefaultGAConfig
	// NewEvaluator wraps a Problem with a genome-memoization cache.
	NewEvaluator = moo.NewEvaluator
	// SolveGA runs the multi-objective genetic algorithm.
	SolveGA = moo.SolveGA
	// SolveExhaustive enumerates 2^w solutions for an exact front.
	SolveExhaustive = moo.SolveExhaustive
)

// Pluggable window solvers: every optimization backend that can drive
// the window job-selection problem implements Solver.
type (
	// Solver is the window-solver contract (Name, Capabilities, Solve).
	Solver = solver.Solver
	// SolverOptions carries per-invocation solver inputs (the random
	// stream).
	SolverOptions = solver.Options
	// LPConfig parameterizes the LP backend.
	LPConfig = lp.Config
)

var (
	// NewGASolver returns the genetic backend over a GA configuration.
	NewGASolver = solver.NewGA
	// NewLPSolver returns the LP-relaxation backend; DefaultLPConfig its
	// default parameters.
	NewLPSolver     = lp.New
	DefaultLPConfig = lp.DefaultConfig
	// SolveLPRelaxation solves just the fractional relaxation of a linear
	// selection instance (diagnostics and custom rounding schemes).
	SolveLPRelaxation = lp.SolveRelaxation
	// LinearizeProblem extracts a problem's LP structure (unwrapping a
	// memoizing Evaluator).
	LinearizeProblem = solver.Linearize
	// SolverNameOf reports the backend a method runs on ("-" for fixed
	// heuristics).
	SolverNameOf = sched.SolverNameOf
)

// Scheduling methods and the window-selection problem.
type (
	// Method selects which window jobs to start now.
	Method = sched.Method
	// Objective identifies one optimization objective.
	Objective = sched.Objective
	// SelectionProblem is the §3.2.1 window job-selection MOO problem.
	SelectionProblem = sched.SelectionProblem
	// Baseline is the Slurm-style naive method.
	Baseline = sched.Baseline
	// BBSched is the paper's method: MOO solve + decision rule.
	BBSched = core.BBSched
)

// NodeUtil is the node-utilization objective.
const NodeUtil = sched.NodeUtil

var (
	// NewSelectionProblem builds the window-selection problem.
	NewSelectionProblem = sched.NewSelectionProblem
	// New returns two-objective BBSched with paper defaults.
	New = core.New
)

// Workloads.
type (
	// SystemModel couples a machine with its workload character.
	SystemModel = trace.SystemModel
	// Workload is a job trace targeting a system.
	Workload = trace.Workload
	// GenConfig parameterizes the workload generator.
	GenConfig = trace.GenConfig
	// SWFOptions controls Standard Workload Format import.
	SWFOptions = trace.SWFOptions
)

// PolicyFCFS orders a SystemModel's queue by arrival (Cori / Slurm
// default).
const PolicyFCFS = trace.FCFS

var (
	// Cori and Theta return the Table 2 system models.
	Cori  = trace.Cori
	Theta = trace.Theta
	// ApplyVariant derives a named variant ("Original", S1–S7) from a
	// generated base workload.
	ApplyVariant = trace.ApplyVariant
	// IsSSDVariant reports whether a variant pairs with the §5 roster.
	IsSSDVariant = trace.IsSSDVariant
	// ScaleSystem shrinks a system model for laptop-scale runs.
	ScaleSystem = trace.Scale
	// WithExtraResource appends an extra pool-style resource dimension
	// to a system model.
	WithExtraResource = trace.WithExtraResource
	// Generate synthesizes a workload.
	Generate = trace.Generate
	// AddExtraDemand retrofits per-node demands in an extra resource
	// dimension onto a generated workload.
	AddExtraDemand = trace.AddExtraDemand

	// Streaming workloads: sources pull jobs on demand so trace length
	// never bounds memory. OpenSWF / OpenCSV stream trace files,
	// transparently gunzipping paths ending in .gz; GenSource is the
	// streaming workload generator; ApplyVariantSource derives any named
	// variant from a source.
	OpenSWF            = trace.OpenSWF
	OpenCSV            = trace.OpenCSV
	GenSource          = trace.GenSource
	ApplyVariantSource = trace.ApplyVariantSource
)

// Simulation engine.
type (
	// Simulator is the stateful, reusable simulation engine: step-driven
	// or run-to-completion, with observers and mid-run inspection.
	Simulator = sim.Simulator
	// SimOption is a functional option for NewSimulator.
	SimOption = sim.Option
	// NopObserver is an embeddable no-op Observer.
	NopObserver = sim.NopObserver
	// ScheduleInfo describes one completed scheduling pass.
	ScheduleInfo = sim.ScheduleInfo
	// Sweep describes a workloads × methods × seeds run grid.
	Sweep = sim.Sweep
	// SweepRun is one completed run of a sweep.
	SweepRun = sim.SweepRun
)

var (
	// NewSimulator builds the reusable engine over a workload and method.
	NewSimulator = sim.NewSimulator
	// RunSweep executes a Sweep on a deterministic parallel worker pool.
	RunSweep = sim.RunSweep

	// Simulator options.
	WithWindow      = sim.WithWindow
	WithSeed        = sim.WithSeed
	WithMeasurement = sim.WithMeasurement
	WithObserver    = sim.WithObserver
	WithEventLog    = sim.WithEventLog
	// Streaming ingestion: WithSource replaces the preloaded trace with
	// online arrivals from a source; WithStreamingMetrics swaps the
	// float64 kept per measured job (exact wait percentiles) for
	// constant-memory P² percentile sketches, every other metric being
	// the same accumulator either way.
	WithSource           = sim.WithSource
	WithStreamingMetrics = sim.WithStreamingMetrics
)

// Distributed sweep farm: a coordinator shards a workloads × methods ×
// solvers × seeds grid onto FarmWorkers over HTTP, retrying failed or
// preempted cells from their last uploaded checkpoint, and assembles
// results in grid order identical to a serial RunSweep.
type (
	// FarmGrid declares the sweep: workload recipes × method specs ×
	// solver names × seeds, plus per-run options and checkpoint cadence.
	FarmGrid = farm.Grid
	// FarmWorkloadSpec is a workload recipe every worker rebuilds
	// bit-for-bit (materialized or stream-backed).
	FarmWorkloadSpec = farm.WorkloadSpec
	// FarmMethodSpec names a registry method build.
	FarmMethodSpec = farm.MethodSpec
	// FarmRunOptions is the serializable per-run simulator options.
	FarmRunOptions = farm.RunOptions
	// FarmWorker leases and executes cells against a coordinator URL.
	FarmWorker = farm.Worker
	// FarmStats counts coordinator-side recovery and throughput events
	// (expiries, retries, steals, relay segments, cache dedups,
	// journal replays).
	FarmStats = farm.Stats
	// FarmCoordinatorOption configures NewFarmCoordinator.
	FarmCoordinatorOption = farm.CoordinatorOption
)

var (
	// NewFarmCoordinator validates a grid and prepares the sweep: its
	// Handler serves the worker API, Wait blocks for the assembled grid.
	NewFarmCoordinator = farm.NewCoordinator
	// WithFarmLeaseTTL sets the worker lease duration (checkpoint
	// uploads renew it).
	WithFarmLeaseTTL = farm.WithLeaseTTL
	// WithFarmSpeculation toggles straggler work-stealing: idle workers
	// duplicate the oldest in-flight cell from its latest checkpoint,
	// first result wins (on by default).
	WithFarmSpeculation = farm.WithSpeculation
)

// Method registry: the single roster shared by the CLI and experiments.
var (
	// Methods lists every registered method in the paper's order.
	Methods = registry.Methods
	// NewMethod instantiates a registered method by name for the paper's
	// machine: over the two §4 objectives, or with ssd the four §5 ones.
	NewMethod = registry.New
	// NewMethodForCluster instantiates a registered method by name over
	// the objective list generated from a concrete machine's resource
	// spec: one utilization objective per dimension, plus the §5 SSD pair
	// with ssd. NewMethod is it on a machine without extra dimensions.
	NewMethodForCluster = registry.NewForCluster
)

// NewRand returns a deterministic random stream for solver calls.
func NewRand(seed uint64) *rng.Stream { return rng.New(seed) }
