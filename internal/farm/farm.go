// Package farm is the distributed sweep service: a coordinator that
// shards a workloads × methods × solvers × seeds grid of simulation runs
// onto workers over HTTP, streams per-run Reports back, and retries
// failed or preempted workers by resuming from their last uploaded
// simulator checkpoint (internal/checkpoint). Leases, results and
// failures travel as JSON; a checkpoint upload is the raw snapshot bytes.
//
// Every run is deterministic in its grid cell — the workload is rebuilt
// from a generation recipe, the method from the registry, the engine from
// the cell seed — so the coordinator can hand the same cell to any
// worker, any number of times, and assemble results in grid order that
// are identical to a serial sim.RunSweep over the same grid, regardless
// of worker count, scheduling, or mid-run failures. Checkpoint resume
// rides on the engine's bit-identical restore guarantee: a cell retried
// from a snapshot produces the same Report as one run uninterrupted.
// Jobs are read-only, so a worker builds a materialized recipe once and
// runs every consecutive cell of that workload over the same jobs.
package farm

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"

	"bbsched/internal/cluster"
	"bbsched/internal/moo"
	"bbsched/internal/registry"
	"bbsched/internal/sched"
	"bbsched/internal/sim"
	"bbsched/internal/trace"
)

// WorkloadSpec is the workload recipe a grid cell carries: every worker
// rebuilds the workload bit-for-bit from it alone, so the farm ships
// recipes, never job tables.
type WorkloadSpec = trace.Recipe

// MethodSpec names a registry method build for the grid.
type MethodSpec struct {
	// Name is the registry method name (e.g. "BBSched", "Baseline").
	Name string `json:"name"`
	// GA configures the method's stochastic solver.
	GA moo.GAConfig `json:"ga"`
	// SSD selects the four-objective §5 build where the method has one.
	SSD bool `json:"ssd,omitempty"`
}

// methodWire is MethodSpec as grid files, journal headers and recipe keys
// have spelled it since the farm existed: the GA parameters under their Go
// field names, in this order. Parallelism was a moo.GAConfig field until
// the GA's batch-parallel evaluation was deleted (it never changed a
// result), and Archive and Selection until the GA's unused Archive and
// NSGA-II Crowding modes were. They stay on the wire, always 0, false and
// 0, so that every grid file still parses and every cache entry and
// journal keeps its address.
type methodWire struct {
	Name string `json:"name"`
	GA   gaWire `json:"ga"`
	SSD  bool   `json:"ssd,omitempty"`
}

type gaWire struct {
	Generations  int
	Population   int
	MutationProb float64
	Parallelism  int
	Archive      bool
	Selection    int
}

// MarshalJSON implements json.Marshaler; see methodWire.
func (ms MethodSpec) MarshalJSON() ([]byte, error) {
	return json.Marshal(methodWire{Name: ms.Name, SSD: ms.SSD, GA: gaWire{
		Generations: ms.GA.Generations, Population: ms.GA.Population, MutationProb: ms.GA.MutationProb,
	}})
}

// UnmarshalJSON implements json.Unmarshaler. It is strict — an unknown
// field is an error, as sweepd's grid decode has always required — and
// rejects a retired field set to anything but its zero value rather than
// silently running the one GA there is.
func (ms *MethodSpec) UnmarshalJSON(data []byte) error {
	var w methodWire
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&w); err != nil {
		return err
	}
	switch {
	case w.GA.Parallelism != 0:
		return fmt.Errorf("farm: method %q: ga.Parallelism = %d, but the GA evaluates serially; remove the field", w.Name, w.GA.Parallelism)
	case w.GA.Archive:
		return fmt.Errorf("farm: method %q: ga.Archive = true, but the GA returns only its final generation's front; remove the field", w.Name)
	case w.GA.Selection != 0:
		return fmt.Errorf("farm: method %q: ga.Selection = %d, but the GA has only the paper's age-based selection; remove the field", w.Name, w.GA.Selection)
	}
	*ms = MethodSpec{Name: w.Name, SSD: w.SSD, GA: moo.GAConfig{
		Generations: w.GA.Generations, Population: w.GA.Population, MutationProb: w.GA.MutationProb,
	}}
	return nil
}

// Build instantiates the method for the given machine, optionally
// overriding its solver backend with the named registry solver.
func (ms MethodSpec) Build(cfg cluster.Config, solverName string) (sched.Method, error) {
	m, err := registry.NewForCluster(ms.Name, ms.GA, cfg, ms.SSD)
	if err != nil {
		return nil, err
	}
	if solverName != "" {
		if err := registry.ApplySolver(m, solverName, ms.GA); err != nil {
			return nil, err
		}
	}
	return m, nil
}

// RunOptions is the serializable slice of simulator options a grid
// applies to every cell (the cell seed is supplied separately).
type RunOptions struct {
	// Window and StarvationBound configure the scheduling window; zero
	// keeps the simulator defaults (w=20, bound 50).
	Window          int `json:"window,omitempty"`
	StarvationBound int `json:"starvation_bound,omitempty"`
	// Measure selects the measurement interval: "" keeps the simulator's
	// fractional trim defaults, "full" measures the whole run, "window"
	// measures the absolute [MeasureStart, MeasureEnd] interval. Stream
	// cells have no known horizon, so they require "full" or "window".
	Measure      string `json:"measure,omitempty"`
	MeasureStart int64  `json:"measure_start,omitempty"`
	MeasureEnd   int64  `json:"measure_end,omitempty"`
}

// Options lowers the serializable options to simulator options.
func (ro RunOptions) Options() ([]sim.Option, error) {
	var opts []sim.Option
	if ro.Window != 0 || ro.StarvationBound != 0 {
		opts = append(opts, sim.WithWindow(ro.Window, ro.StarvationBound))
	}
	switch ro.Measure {
	case "":
	case "full":
		opts = append(opts, sim.WithMeasurement(0, 0))
	case "window":
		opts = append(opts, sim.WithMeasureWindow(ro.MeasureStart, ro.MeasureEnd))
	default:
		return nil, fmt.Errorf("farm: unknown measure mode %q (want \"\", \"full\", or \"window\")", ro.Measure)
	}
	return opts, nil
}

// Grid is a distributed sweep: the full cross product of workloads ×
// methods × solvers × seeds, swept cell-by-cell in deterministic
// workload-major order (workload, then method, then solver, then seed) —
// the same order sim.RunSweep uses, extended by the solver axis.
type Grid struct {
	Workloads []WorkloadSpec `json:"workloads"`
	Methods   []MethodSpec   `json:"methods"`
	// Solvers optionally sweeps each method under every named registry
	// solver backend. Empty means one pass per method with its built-in
	// backend (a single "" entry is equivalent).
	Solvers []string   `json:"solvers,omitempty"`
	Seeds   []uint64   `json:"seeds"`
	Opts    RunOptions `json:"opts"`
	// CheckpointEvents is the worker checkpoint cadence in event instants:
	// every N instants the worker uploads a snapshot, renewing its lease
	// and bounding lost work on failure to N instants. Zero disables
	// mid-run checkpoints (failed cells restart from scratch).
	CheckpointEvents int `json:"checkpoint_events,omitempty"`
	// RelayJobs enables checkpoint-relay sharding of giant stream cells:
	// a stream cell expected to exceed RelayJobs jobs runs as sequential
	// segments of RelayJobs source jobs each, chained by terminal
	// snapshots — segment k+1 is leasable (by any worker) the moment
	// segment k's boundary snapshot uploads, so one giant cell pipelines
	// across the fleet and migrates off slow workers at every boundary.
	// Segment splits are bit-exact: the snapshot records the source
	// position, so the assembled result is identical to an unsharded run.
	// Zero disables relaying; positive values must be at least 512 (four
	// times sim.Lookahead, the engine's source look-ahead: a segment spans
	// several refills, so every segment makes progress).
	RelayJobs int `json:"relay_jobs,omitempty"`
}

// relayCell reports whether a workload's cells run as relay segments:
// stream-backed and expected to exceed the relay threshold (an uncapped
// trace file has unknown length and is assumed giant).
func (g Grid) relayCell(ws WorkloadSpec) bool {
	if g.RelayJobs <= 0 || !ws.Stream {
		return false
	}
	n := ws.Gen.Jobs
	if ws.TracePath != "" {
		n = ws.MaxJobs
	}
	return n == 0 || n > g.RelayJobs
}

// Cell identifies one grid cell and its resolved specs — the unit of
// work a lease hands to a worker.
type Cell struct {
	Workload WorkloadSpec `json:"workload"`
	Method   MethodSpec   `json:"method"`
	Solver   string       `json:"solver,omitempty"`
	Seed     uint64       `json:"seed"`
	Opts     RunOptions   `json:"opts"`
}

// solverAxis returns the grid's solver axis, normalized to at least one
// entry so the cross product is never empty.
func (g Grid) solverAxis() []string {
	if len(g.Solvers) == 0 {
		return []string{""}
	}
	return g.Solvers
}

// Cells enumerates the grid in its deterministic order.
func (g Grid) Cells() []Cell {
	var cells []Cell
	for _, ws := range g.Workloads {
		for _, ms := range g.Methods {
			for _, sv := range g.solverAxis() {
				for _, seed := range g.Seeds {
					cells = append(cells, Cell{Workload: ws, Method: ms, Solver: sv, Seed: seed, Opts: g.Opts})
				}
			}
		}
	}
	return cells
}

// Validate rejects malformed grids at submission time: every method and
// solver name must resolve in the registry (instantiating each pairing
// once also runs solver vetoes), every workload recipe must pass
// trace.Recipe.Validate, and stream cells must carry a resolvable
// measurement mode.
func (g Grid) Validate() error {
	if len(g.Workloads) == 0 {
		return fmt.Errorf("farm: grid with no workloads")
	}
	if len(g.Methods) == 0 {
		return fmt.Errorf("farm: grid with no methods")
	}
	if len(g.Seeds) == 0 {
		return fmt.Errorf("farm: grid with no seeds")
	}
	if _, err := g.Opts.Options(); err != nil {
		return err
	}
	if g.RelayJobs != 0 && g.RelayJobs < 512 {
		return fmt.Errorf("farm: relay segment size %d too small (want >= 512, four times the source look-ahead)", g.RelayJobs)
	}
	for _, ws := range g.Workloads {
		if err := ws.Validate(); err != nil {
			return err
		}
		if ws.Stream && g.Opts.Measure == "" {
			return fmt.Errorf("farm: stream workload %q needs measure \"full\" or \"window\" (streams have no known horizon)", ws.Name)
		}
	}
	for _, ms := range g.Methods {
		for _, sv := range g.solverAxis() {
			for _, ws := range g.Workloads {
				if _, err := ms.Build(ws.Gen.System.Cluster, sv); err != nil {
					// An incompatible method×solver pair is a legal grid
					// cell: the coordinator marks it skipped instead of
					// sweeping it, exactly like `bbsim -sweep all -solver`
					// notes-and-skips the pair. Only genuinely malformed
					// cells (unknown names, bad configs) fail the grid.
					if errors.Is(err, registry.ErrIncompatibleSolver) {
						continue
					}
					return fmt.Errorf("farm: method %q / solver %q: %w", ms.Name, sv, err)
				}
			}
		}
	}
	return nil
}
