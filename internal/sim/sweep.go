package sim

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"

	"bbsched/internal/sched"
	"bbsched/internal/trace"
)

// Sweep describes a grid of simulation runs: every workload × method ×
// seed combination, each an independent Simulator run sharing the same
// base Options. The paper's evaluation (§4, §5) is exactly such a grid.
type Sweep struct {
	// Workloads are the traces to replay.
	Workloads []trace.Workload
	// Streams are stream-backed workloads swept after Workloads: each run
	// opens a fresh JobSource (sources are single-use) and drives it
	// through the streaming ingestion path (WithSource).
	Streams []StreamWorkload
	// Methods are the window job-selection methods under test. Instances
	// are shared across runs — all shipped methods are safe for
	// concurrent use and reuse their pooled solver evaluators across
	// runs, but a custom stateful method (e.g. core.Adaptive) must not be
	// swept over more than one run.
	Methods []sched.Method
	// Seeds drive the methods' stochastic solvers, one run per seed.
	Seeds []uint64
	// Options apply to every run (the grid seed is appended after them
	// and wins over any WithSeed here). An Observer registered here is
	// shared by concurrent runs and must tolerate that; prefer PerRun for
	// stateful per-run observers.
	Options []Option
	// PerRun, when non-nil, returns extra options for one run, appended
	// last — after Options and the grid seed — so it can specialize
	// anything per run (per-workload metric buckets, per-run observers).
	PerRun func(w trace.Workload, m sched.Method, seed uint64) []Option
	// Workers bounds concurrent runs (0 = GOMAXPROCS). Results are
	// deterministic regardless of worker count.
	Workers int
}

// StreamWorkload is a stream-backed sweep entry: a workload identified by
// name and system whose jobs come from a freshly opened JobSource per run
// instead of a materialized slice.
type StreamWorkload struct {
	// Name identifies the workload in results.
	Name string
	// System is the machine model the stream targets.
	System trace.SystemModel
	// Open returns a fresh source for one run. It is called once per
	// (method, seed) grid cell, possibly from concurrent workers.
	Open func() (trace.JobSource, error)
}

// SweepRun is one cell of a sweep grid: a completed run's metrics, or a
// cancellation marker for a cell the sweep never finished.
type SweepRun struct {
	// Workload, Method, and Seed identify the run. They are populated on
	// every returned cell, completed or not.
	Workload, Method string
	Seed             uint64
	// Result is the run's metrics; nil when the cell did not complete.
	Result *Result
	// Canceled marks a cell that was skipped or aborted because the sweep
	// was cancelled (by the caller's ctx or by another cell's failure)
	// before it could finish. Completed cells are never marked: a partial
	// sweep keeps every finished Result.
	Canceled bool
	// Skipped marks a cell that can never run — a method×solver pair the
	// method rejects (registry.ErrIncompatibleSolver) — as opposed to one
	// that merely did not run this time (Canceled). Skipped cells are not
	// failures and not worth resubmitting; grid drivers (the farm
	// coordinator) emit them so assembled grids stay rectangular.
	Skipped bool
}

// RunSweep executes every run of the sweep on a worker pool and returns
// the results in deterministic workload-major order (workload, then
// method, then seed) — the same runs, in the same order, with the same
// per-run Reports, for any worker count. A failure cancels the remaining
// runs and the lowest-indexed genuine failure (cancellation fallout is
// filtered out) is returned.
//
// Cancellation drains rather than discards: when ctx is cancelled (or a
// cell's failure cancels the rest), the returned slice still spans the
// full grid in grid order — every cell that completed keeps its Result,
// and every unfinished cell carries its identity with Canceled set — so
// a caller can harvest hours of completed work from an interrupted
// sweep and resubmit only the marked cells.
func RunSweep(ctx context.Context, sw Sweep) ([]SweepRun, error) {
	if len(sw.Workloads) == 0 && len(sw.Streams) == 0 {
		return nil, fmt.Errorf("sim: sweep with no workloads")
	}
	if len(sw.Methods) == 0 {
		return nil, fmt.Errorf("sim: sweep with no methods")
	}
	if len(sw.Seeds) == 0 {
		return nil, fmt.Errorf("sim: sweep with no seeds")
	}
	for _, st := range sw.Streams {
		if st.Open == nil {
			return nil, fmt.Errorf("sim: stream workload %q has no Open", st.Name)
		}
	}
	type task struct {
		w    trace.Workload
		open func() (trace.JobSource, error)
		m    sched.Method
		seed uint64
	}
	var tasks []task
	for _, w := range sw.Workloads {
		for _, m := range sw.Methods {
			for _, seed := range sw.Seeds {
				tasks = append(tasks, task{w: w, m: m, seed: seed})
			}
		}
	}
	for _, st := range sw.Streams {
		shell := trace.Workload{Name: st.Name, System: st.System}
		for _, m := range sw.Methods {
			for _, seed := range sw.Seeds {
				tasks = append(tasks, task{w: shell, open: st.Open, m: m, seed: seed})
			}
		}
	}

	workers := sw.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(tasks) {
		workers = len(tasks)
	}

	ctx, cancel := context.WithCancel(ctx)
	defer cancel()

	results := make([]SweepRun, len(tasks))
	errs := make([]error, len(tasks))
	idx := make(chan int)
	var wg sync.WaitGroup
	for range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range idx {
				tk := tasks[i]
				// The identity is set on pick-up, so a cell that fails below
				// for any reason still says which cell it was.
				results[i] = SweepRun{Workload: tk.w.Name, Method: tk.m.Name(), Seed: tk.seed}
				if err := ctx.Err(); err != nil {
					results[i].Canceled = true
					errs[i] = err
					continue
				}
				opts := append([]Option(nil), sw.Options...)
				opts = append(opts, WithSeed(tk.seed))
				var src trace.JobSource
				if tk.open != nil {
					var err error
					if src, err = tk.open(); err != nil {
						errs[i] = fmt.Errorf("sim: sweep %s/%s/seed %d: opening source: %w",
							tk.w.Name, tk.m.Name(), tk.seed, err)
						cancel()
						continue
					}
					opts = append(opts, WithSource(src))
				}
				if sw.PerRun != nil {
					opts = append(opts, sw.PerRun(tk.w, tk.m, tk.seed)...)
				}
				s, err := NewSimulator(tk.w, tk.m, opts...)
				if err == nil {
					// The simulator owns the source from here; Close on every
					// exit path releases a stream a cancelled or failed run
					// abandoned mid-pull (idempotent, so a drained source is
					// not closed twice).
					var res *Result
					if res, err = s.Run(ctx); err == nil {
						results[i].Result = res
						s.Close()
						continue
					}
					s.Close()
				} else if c, ok := src.(trace.Closer); ok {
					// Construction failed after the open: the simulator never
					// took ownership, so the source is closed here.
					c.Close()
				}
				errs[i] = fmt.Errorf("sim: sweep %s/%s/seed %d: %w",
					tk.w.Name, tk.m.Name(), tk.seed, err)
				if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
					// Aborted mid-run by cancellation, not a genuine failure:
					// mark the cell so the caller can resubmit it.
					results[i].Canceled = true
				}
				cancel()
			}
		}()
	}
	for i := range tasks {
		idx <- i
	}
	close(idx)
	wg.Wait()

	// Prefer the lowest-indexed genuine failure; runs that merely aborted
	// because some other run failed first report context.Canceled and only
	// surface when there is nothing more specific (the caller cancelled).
	var firstCancel error
	for _, err := range errs {
		if err == nil {
			continue
		}
		if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
			if firstCancel == nil {
				firstCancel = err
			}
			continue
		}
		return results, err
	}
	if firstCancel != nil {
		return results, firstCancel
	}
	return results, nil
}
