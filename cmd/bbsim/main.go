// Command bbsim runs trace-driven scheduling simulations and prints the
// §4.2 metrics.
//
// The trace comes either from a CSV file written by tracegen (-trace) or
// from the built-in generator (-system/-jobs/-variant as in tracegen).
// Generated and -stream workloads are built through trace.Recipe, the
// recipe tracegen and the sweep farm build theirs through too.
// Methods are listed and instantiated from the shared method registry, so
// -methods always matches what the experiments harness runs.
//
// Beyond the canonical node + burst-buffer pair, any number of extra
// pool-style resource dimensions can be declared with -extra (repeatable)
// and given synthetic per-node demands with -extra-demand; methods then
// optimize one utilization objective per dimension:
//
//	bbsim -extra power_kw:400:kW -extra-demand power_kw:1-4 -method BBSched
//
// Large traces can be replayed through the streaming engine with
// -stream: the file (SWF or CSV by extension) is decoded job by job,
// metrics accumulate in constant memory, and peak usage is bounded by
// queue depth plus the ingestion look-ahead instead of trace length.
// -max-jobs caps how much of the file is ingested.
//
// Usage:
//
//	bbsim -system theta -scale 32 -jobs 500 -variant S4 -method BBSched
//	bbsim -trace theta-s4.csv -system theta -method Constrained_CPU
//	bbsim -variant S2 -sweep Baseline,BBSched -seeds 42,43   # parallel sweep
//	bbsim -stream thetalog.swf -max-jobs 1000000 -method BBSched
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"

	"bbsched/internal/cluster"
	"bbsched/internal/core"
	"bbsched/internal/job"
	"bbsched/internal/moo"
	"bbsched/internal/registry"
	"bbsched/internal/sched"
	"bbsched/internal/sim"
	"bbsched/internal/trace"
)

// extraResFlag is one -extra declaration: name:capacity[:unit].
type extraResFlag struct{ specs []cluster.ResourceSpec }

func (f *extraResFlag) String() string { return fmt.Sprintf("%v", f.specs) }

func (f *extraResFlag) Set(v string) error {
	parts := strings.Split(v, ":")
	if len(parts) < 2 || len(parts) > 3 {
		return fmt.Errorf("want name:capacity[:unit], got %q", v)
	}
	capacity, err := strconv.ParseInt(parts[1], 10, 64)
	if err != nil {
		return fmt.Errorf("capacity in %q: %w", v, err)
	}
	spec := cluster.ResourceSpec{Name: parts[0], Capacity: capacity}
	if len(parts) == 3 {
		spec.Unit = parts[2]
	}
	f.specs = append(f.specs, spec)
	return nil
}

// extraDemandFlag is one -extra-demand declaration: name:min-max[:frac],
// assigning each job (with probability frac, default 1) a demand of
// nodes × uniform[min, max] in the named dimension.
type extraDemandFlag struct {
	demands []extraDemand
}

type extraDemand struct {
	name     string
	min, max int64
	frac     float64
}

func (f *extraDemandFlag) String() string { return fmt.Sprintf("%v", f.demands) }

func (f *extraDemandFlag) Set(v string) error {
	parts := strings.Split(v, ":")
	if len(parts) < 2 || len(parts) > 3 {
		return fmt.Errorf("want name:min-max[:frac], got %q", v)
	}
	lohi := strings.SplitN(parts[1], "-", 2)
	d := extraDemand{name: parts[0], frac: 1}
	var err error
	if d.min, err = strconv.ParseInt(lohi[0], 10, 64); err != nil {
		return fmt.Errorf("min in %q: %w", v, err)
	}
	d.max = d.min
	if len(lohi) == 2 {
		if d.max, err = strconv.ParseInt(lohi[1], 10, 64); err != nil {
			return fmt.Errorf("max in %q: %w", v, err)
		}
	}
	if len(parts) == 3 {
		if d.frac, err = strconv.ParseFloat(parts[2], 64); err != nil {
			return fmt.Errorf("frac in %q: %w", v, err)
		}
	}
	f.demands = append(f.demands, d)
	return nil
}

func main() {
	var (
		traceFile  = flag.String("trace", "", "CSV trace file (optional; otherwise generated)")
		streamFile = flag.String("stream", "", "replay a trace file (.swf or .csv) through the streaming engine without materializing it: bounded-memory metrics, full-run measurement")
		maxJobs    = flag.Int("max-jobs", 0, "with -stream, ingest at most this many jobs from the file (0 = all)")
		system     = flag.String("system", "theta", "system model: cori or theta")
		scale      = flag.Int("scale", 32, "machine scale divisor (1 = full size; tracegen defaults to 1, so pass the same -scale to both)")
		jobs       = flag.Int("jobs", 500, "generated job count (ignored with -trace)")
		variant    = flag.String("variant", "original", "original, S1..S7")
		seed       = flag.Uint64("seed", 42, "seed")
		methodName = flag.String("method", "BBSched", "scheduling method (see -methods)")
		solverName = flag.String("solver", "", "optimization backend override: ga, lp, greedy, exact, or portfolio (default: the method's own; see -methods)")
		window     = flag.Int("window", 20, "window size")
		starve     = flag.Int("starvation", 50, "starvation bound (0 = off)")
		gens       = flag.Int("generations", 500, "GA generations")
		pop        = flag.Int("population", 20, "GA population")
		noBackfill = flag.Bool("no-backfill", false, "disable EASY backfilling")
		adaptive   = flag.Bool("adaptive", false, "wrap BBSched with the adaptive trade-off controller")
		dynWindow  = flag.Bool("dynamic-window", false, "size the window from queue length (a quarter of it, clamped to [5, 50]) instead of -window")
		stageOut   = flag.Float64("bb-drain-gbps", 0, "add stage-out phases at this drain bandwidth (0 = off)")
		eventLog   = flag.String("eventlog", "", "write a JSONL event log to this file")
		listM      = flag.Bool("methods", false, "list method names and exit")
		sweep      = flag.String("sweep", "", "comma-separated methods (or 'all') to sweep instead of one -method run")
		seedList   = flag.String("seeds", "", "comma-separated sweep seeds (default: -seed)")
		workers    = flag.Int("workers", 0, "sweep worker count (0 = GOMAXPROCS)")
		cpuProf    = flag.String("cpuprofile", "", "write a pprof CPU profile of the run to this file")
		memProf    = flag.String("memprofile", "", "write a pprof allocation profile to this file at exit")

		extraRes     extraResFlag
		extraDemands extraDemandFlag
	)
	flag.Var(&extraRes, "extra", "declare an extra resource dimension as name:capacity[:unit] (repeatable)")
	flag.Var(&extraDemands, "extra-demand", "give jobs demands in an -extra dimension as name:min-max[:frac] per node (repeatable)")
	flag.Parse()

	// Profiling hooks: grab pprof data from real single runs and sweeps,
	// so perf work can profile production-shaped workloads instead of
	// synthetic benches. stopProfiles runs on every exit path (fail()
	// included) to keep the CPU profile well-formed.
	if err := startProfiles(*cpuProf, *memProf); err != nil {
		fail(err)
	}
	defer stopProfiles()

	if *listM {
		for _, spec := range registry.Methods() {
			name := spec.Name
			if spec.Solver != "" {
				name += " [" + spec.Solver + "]"
			}
			fmt.Printf("%-21s %s\n", name, spec.Desc)
		}
		fmt.Println("\nsolvers (-solver):")
		for _, spec := range registry.Solvers() {
			fmt.Printf("%-21s %s\n", spec.Name, spec.Desc)
		}
		return
	}

	ga := moo.GAConfig{Generations: *gens, Population: *pop, MutationProb: 0.0005}

	if *sweep != "" {
		// Per-run flags that cannot apply to a grid of parallel runs.
		if *eventLog != "" {
			fail(fmt.Errorf("-eventlog is incompatible with -sweep (one log per run; use the single-run mode)"))
		}
		if *adaptive {
			fail(fmt.Errorf("-adaptive is incompatible with -sweep (the controller is stateful per run)"))
		}
	}

	rec, err := recipe(*system, *scale, *jobs, *seed, *variant, *stageOut)
	if err != nil {
		fail(err)
	}
	opts := baseOptions(*window, *starve, *dynWindow, *noBackfill)
	var (
		w    trace.Workload
		open func() (trace.JobSource, error)
	)
	if *streamFile != "" {
		if *traceFile != "" {
			fail(fmt.Errorf("-stream and -trace are mutually exclusive"))
		}
		if len(extraRes.specs) > 0 || len(extraDemands.demands) > 0 {
			fail(fmt.Errorf("-extra/-extra-demand retrofit a materialized workload; use -trace"))
		}
		// The workload is named by its file and its jobs are re-opened per
		// run. Metrics accumulate in bounded memory and cover the full run:
		// a file stream has no known horizon for the fractional trim.
		rec.Name, rec.TracePath, rec.MaxJobs, rec.Stream = *streamFile, *streamFile, *maxJobs, true
		if err := rec.Validate(); err != nil {
			fail(err)
		}
		w = trace.Workload{Name: rec.Name, System: rec.System()}
		open = func() (trace.JobSource, error) {
			_, src, err := rec.Open()
			return src, err
		}
		opts = append(opts, sim.WithStreamingMetrics(), sim.WithMeasurement(0, 0))
	} else {
		if *maxJobs > 0 {
			fail(fmt.Errorf("-max-jobs only applies to -stream (use -jobs for the generator)"))
		}
		var csvExtraNames []string
		if w, csvExtraNames, err = loadWorkload(*traceFile, rec); err != nil {
			fail(err)
		}
		// Extra resource dimensions: extend the machine, bind any CSV extra
		// columns to the declared dimensions by name, then retrofit the
		// requested synthetic demands onto the workload.
		for _, spec := range extraRes.specs {
			w.System = trace.WithExtraResource(w.System, spec)
		}
		if w, err = bindTraceExtras(w, csvExtraNames); err != nil {
			fail(err)
		}
		for _, d := range extraDemands.demands {
			dim := -1
			for i, spec := range w.System.Cluster.Extra {
				if spec.Name == d.name {
					dim = i
					break
				}
			}
			if dim < 0 {
				fail(fmt.Errorf("-extra-demand %s: no such -extra dimension", d.name))
			}
			w = trace.AddExtraDemand(w, "", dim, d.min, d.max, d.frac, *seed+uint64(dim))
		}
	}
	// SSD-equipped workloads pair with the four-objective §5 method
	// variants; plain workloads with the two-objective §4 ones.
	ssd := len(w.System.Cluster.SSDClasses) > 0

	if *sweep != "" {
		err = runSweep(w, open, *sweep, *seedList, *seed, ga, ssd, *solverName, *workers, opts)
	} else {
		err = runSingle(w, open, *methodName, *solverName, *adaptive, *eventLog, *seed, ga, ssd, opts)
	}
	if err != nil {
		fail(err)
	}
}

// runSingle is the one single-run path: it builds the method (-method,
// the -solver override, the -adaptive wrap), opens -eventlog, runs the
// workload to completion and prints the report. A non-nil open supplies
// the jobs of a job-less workload shell as a stream.
func runSingle(w trace.Workload, open func() (trace.JobSource, error), methodName, solverName string,
	adaptive bool, eventLog string, seed uint64, ga moo.GAConfig, ssd bool, opts []sim.Option) error {
	method, err := registry.NewForCluster(methodName, ga, w.System.Cluster, ssd)
	if err != nil {
		return err
	}
	if solverName != "" {
		if err := registry.ApplySolver(method, solverName, ga); err != nil {
			return err
		}
	}
	if adaptive {
		bb, isBB := method.(*core.BBSched)
		if !isBB {
			return fmt.Errorf("-adaptive requires a BBSched method, got %s", method.Name())
		}
		method = core.NewAdaptive(bb)
	}
	if eventLog != "" {
		f, err := os.Create(eventLog)
		if err != nil {
			return err
		}
		defer f.Close()
		opts = append(opts, sim.WithEventLog(f))
	}
	if open != nil {
		src, err := open()
		if err != nil {
			return err
		}
		opts = append(opts, sim.WithSource(src))
	}
	opts = append(opts, sim.WithSeed(seed))
	s, err := sim.NewSimulator(w, method, opts...)
	if err != nil {
		return err
	}
	res, err := s.Run(context.Background())
	if err != nil {
		return err
	}
	printResult(res)
	return nil
}

// baseOptions are the simulator options shared by every run mode.
func baseOptions(window, starve int, dynWindow, noBackfill bool) []sim.Option {
	opts := []sim.Option{
		sim.WithPlugin(core.PluginConfig{WindowSize: window, StarvationBound: starve, DynamicWindow: dynWindow}),
		sim.WithBackfill(!noBackfill),
	}
	return opts
}

// runSweep runs method × seed combinations over one workload on the
// deterministic parallel sweep driver and prints a comparison table. A
// non-nil open sweeps the workload as a stream, re-opening a fresh
// source per grid cell.
func runSweep(w trace.Workload, open func() (trace.JobSource, error), methodCSV, seedCSV string, defaultSeed uint64, ga moo.GAConfig, ssd bool, solverName string, workers int, opts []sim.Option) error {
	var methods []sched.Method
	if methodCSV == "all" {
		methods = registry.Roster(ga, w.System.Cluster, ssd)
	} else {
		for _, n := range strings.Split(methodCSV, ",") {
			if n = strings.TrimSpace(n); n == "" {
				continue
			}
			m, err := registry.NewForCluster(n, ga, w.System.Cluster, ssd)
			if err != nil {
				return err
			}
			methods = append(methods, m)
		}
	}
	// A solver override applies to the methods that can take it; the rest
	// of the roster (fixed heuristics, capability mismatches like
	// BBSched+portfolio) is skipped with a note rather than aborting the
	// sweep — `-sweep all -solver lp` compares every LP-capable method.
	// Anything other than an incompatible pairing (an unknown solver name,
	// a bad config) is a real error and aborts.
	if solverName != "" {
		kept := methods[:0]
		for _, m := range methods {
			if err := registry.ApplySolver(m, solverName, ga); err != nil {
				if !errors.Is(err, registry.ErrIncompatibleSolver) {
					return err
				}
				fmt.Fprintf(os.Stderr, "bbsim: skipping %s: %v\n", m.Name(), err)
				continue
			}
			kept = append(kept, m)
		}
		methods = kept
		if len(methods) == 0 {
			return fmt.Errorf("no swept method accepts solver %q", solverName)
		}
	}

	seeds := []uint64{defaultSeed}
	if seedCSV != "" {
		seeds = seeds[:0]
		for _, f := range strings.Split(seedCSV, ",") {
			v, err := strconv.ParseUint(strings.TrimSpace(f), 10, 64)
			if err != nil {
				return fmt.Errorf("bad -seeds entry %q: %w", f, err)
			}
			seeds = append(seeds, v)
		}
	}

	grid := sim.Sweep{
		Methods: methods,
		Seeds:   seeds,
		Options: opts,
		Workers: workers,
	}
	if open != nil {
		grid.Streams = []sim.StreamWorkload{{Name: w.Name, System: w.System, Open: open}}
	} else {
		grid.Workloads = []trace.Workload{w}
	}
	runs, err := sim.RunSweep(context.Background(), grid)
	if err != nil {
		return err
	}
	solverOf := make(map[string]string, len(methods))
	for _, m := range methods {
		solverOf[m.Name()] = sched.SolverNameOf(m)
	}
	if open != nil {
		fmt.Printf("workload: %s (streamed)\n\n", w.Name)
	} else {
		fmt.Printf("workload: %s (%d jobs)\n\n", w.Name, len(w.Jobs))
	}
	fmt.Printf("%-16s %-7s %-8s %10s %10s %12s %12s %10s\n",
		"method", "solver", "seed", "node use", "bb use", "avg wait", "avg slowdown", "makespan")
	for _, r := range runs {
		fmt.Printf("%-16s %-7s %-8d %9.2f%% %9.2f%% %11.0fs %12.2f %9ds\n",
			r.Method, solverOf[r.Method], r.Seed, r.Result.NodeUsage*100, r.Result.BBUsage*100,
			r.Result.AvgWaitSec, r.Result.AvgSlowdown, r.Result.MakespanSec)
	}
	return nil
}

// recipe is the workload recipe the generator flags describe: -seed
// seeds both the generator and the variant's draws.
func recipe(system string, scale, jobs int, seed uint64, variant string, drainGBps float64) (trace.Recipe, error) {
	sys, err := trace.SystemByName(system, scale)
	if err != nil {
		return trace.Recipe{}, err
	}
	return trace.Recipe{
		Gen:     trace.GenConfig{System: sys, Jobs: jobs, Seed: seed},
		Variant: variant, VariantSeed: seed, StageOutGBps: drainGBps,
	}, nil
}

// loadWorkload builds rec, or with a CSV trace file reads its jobs onto
// rec's machine (rec.System) with rec's stage-out. For a file it also
// returns the extra-resource column names (res:<name>), in file order;
// the caller binds them to declared -extra dimensions by name.
func loadWorkload(traceFile string, rec trace.Recipe) (trace.Workload, []string, error) {
	if traceFile == "" {
		if err := rec.Validate(); err != nil {
			return trace.Workload{}, nil, err
		}
		w, err := rec.Build()
		return w, nil, err
	}
	f, err := os.Open(traceFile)
	if err != nil {
		return trace.Workload{}, nil, err
	}
	defer f.Close()
	js, extraNames, err := trace.ReadCSVNamed(f)
	if err != nil {
		return trace.Workload{}, nil, err
	}
	w := trace.Workload{Name: traceFile, System: rec.System(), Jobs: js}
	if rec.StageOutGBps > 0 {
		w = trace.WithStageOut(w, rec.StageOutGBps)
	}
	return w, extraNames, nil
}

// bindTraceExtras re-aligns CSV extra-demand columns (in csvNames order)
// to the machine's declared extra dimensions, matching by name. Every
// column must name a declared -extra dimension: binding by position
// would silently charge one resource's demands against another's budget.
func bindTraceExtras(w trace.Workload, csvNames []string) (trace.Workload, error) {
	if len(csvNames) == 0 {
		return w, nil
	}
	specs := w.System.Cluster.Extra
	perm := make([]int, len(csvNames)) // csv column -> spec index
	for k, name := range csvNames {
		perm[k] = -1
		for i, spec := range specs {
			if spec.Name == name {
				perm[k] = i
				break
			}
		}
		if perm[k] < 0 {
			return trace.Workload{}, fmt.Errorf(
				"trace column res:%s names no declared dimension; declare it with -extra %s:<capacity>", name, name)
		}
	}
	jobs := make([]*job.Job, len(w.Jobs))
	for n, j := range w.Jobs {
		aligned := make([]int64, len(specs))
		for k, i := range perm {
			aligned[i] = j.Demand.Extra(k)
		}
		c := *j
		c.Demand = job.NewDemandVector(j.Demand.NodeCount(), j.Demand.BB(), j.Demand.SSDPerNode(), aligned...)
		jobs[n] = &c
	}
	w.Jobs = jobs
	return w, nil
}

func printResult(r *sim.Result) {
	fmt.Printf("workload:          %s\n", r.Workload)
	fmt.Printf("method:            %s\n", r.Method)
	fmt.Printf("jobs:              %d total, %d measured\n", r.TotalJobs, r.MeasuredJobs)
	fmt.Printf("node usage:        %.2f%%\n", r.NodeUsage*100)
	fmt.Printf("bb usage:          %.2f%%\n", r.BBUsage*100)
	if r.SSDUsage > 0 {
		fmt.Printf("ssd usage:         %.2f%%\n", r.SSDUsage*100)
		fmt.Printf("wasted ssd:        %.2f%%\n", r.WastedSSDFrac*100)
	}
	for _, dim := range r.ExtraUsage {
		fmt.Printf("%-18s %.2f%%\n", dim.Name+" usage:", dim.Usage*100)
	}
	fmt.Printf("avg wait:          %.0fs\n", r.AvgWaitSec)
	fmt.Printf("avg slowdown:      %.2f\n", r.AvgSlowdown)
	fmt.Printf("makespan:          %ds\n", r.MakespanSec)
	fmt.Printf("sched invocations: %d (avg %v, max %v per decision)\n",
		r.SchedInvocations, r.AvgDecisionTime, r.MaxDecisionTime)
}

// profileCleanup finishes any active profiles; set by startProfiles.
var profileCleanup func()

// startProfiles begins CPU profiling and/or arms the exit-time heap
// profile write. Either path may be empty.
func startProfiles(cpuPath, memPath string) error {
	var stops []func()
	if cpuPath != "" {
		f, err := os.Create(cpuPath)
		if err != nil {
			return err
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			f.Close()
			return err
		}
		stops = append(stops, func() {
			pprof.StopCPUProfile()
			f.Close()
		})
	}
	if memPath != "" {
		stops = append(stops, func() {
			f, err := os.Create(memPath)
			if err != nil {
				fmt.Fprintln(os.Stderr, "bbsim: memprofile:", err)
				return
			}
			defer f.Close()
			runtime.GC() // settle accounting so the profile reflects live heap
			if err := pprof.Lookup("allocs").WriteTo(f, 0); err != nil {
				fmt.Fprintln(os.Stderr, "bbsim: memprofile:", err)
			}
		})
	}
	profileCleanup = func() {
		for _, stop := range stops {
			stop()
		}
		profileCleanup = nil
	}
	return nil
}

func stopProfiles() {
	if profileCleanup != nil {
		profileCleanup()
	}
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "bbsim:", err)
	stopProfiles()
	os.Exit(1)
}
