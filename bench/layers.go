package main

import (
	"bytes"
	"io"
	"os"
	"runtime"
	"sort"
	"time"

	"bbsched/internal/backfill"
	"bbsched/internal/checkpoint"
	"bbsched/internal/cluster"
	"bbsched/internal/job"
	"bbsched/internal/lp"
	"bbsched/internal/moo"
	"bbsched/internal/queue"
	"bbsched/internal/registry"
	"bbsched/internal/sim"
	"bbsched/internal/solver"
	"bbsched/internal/trace"
)

// replayLayers turns one traced round's spans and counters into per-layer
// metrics. Durations are scaled to reference seconds by the round's own
// speed factor, like the end-to-end metrics.
//
// The accounting identity (README, "Tracing"): per replay,
//
//	wall = trace.next_s + sim.schedule_s + sim.engine_self_s + sim.new_s + metrics.report_s + residual
//	sim.schedule_s = sched.select_s + sim.schedule_self_s
//
// where sim.engine_self_s is the Step loop's time outside scheduling
// passes and source pulls, and the residual is what the benchmark itself
// spends between those spans (opening files, building methods, digests).
func replayLayers(tr *tracer, rd round, c replayCounts, mallocs, gcCycles float64) layerValues {
	f := rd.factor
	next, schedule := tr.seconds(layTraceNext)*f, tr.seconds(laySimSchedule)*f
	sel, solve := tr.seconds(laySchedSelect)*f, tr.seconds(laySolverSolve)*f
	newS, report := tr.seconds(laySimNew)*f, tr.seconds(layMetricsReport)*f
	engine := c.loop.Seconds()*f - schedule - next
	v := layerValues{
		"trace.next_calls":    tr.calls(layTraceNext),
		"trace.next_s":        next,
		"sched.select_calls":  tr.calls(laySchedSelect),
		"sched.select_s":      sel,
		"sched.select_self_s": sel - solve,
		"solver.solve_calls":  tr.calls(laySolverSolve),
		"solver.solve_s":      solve,
		"solver.solve_p50_ms": tr.percentileMs(laySolverSolve, 0.50) * f,
		"solver.solve_p99_ms": tr.percentileMs(laySolverSolve, 0.99) * f,
		"sim.steps":           float64(c.steps),
		"sim.schedule_calls":  tr.calls(laySimSchedule),
		"sim.schedule_s":      schedule,
		"sim.schedule_self_s": schedule - sel,
		"sim.engine_self_s":   engine,
		"sim.new_s":           newS,
		"sim.gc_cycles":       gcCycles - float64(c.forcedGCs),
		"sim.decision_p99_ms": rd.p99,
		"metrics.avg_wait_s":  rd.waitSec,
		"metrics.report_s":    report,
		"trace.wall_s":        rd.wall,
		"trace.residual_frac": (rd.wall - next - schedule - engine - newS - report) / rd.wall,
		"bench.speed_factor":  f,
	}
	if rd.jobs > 0 {
		v["sim.allocs_per_job"] = mallocs / float64(rd.jobs)
	}
	if n := tr.calls(laySolverSolve); n > 0 {
		v["solver.window_dim_mean"] = c.solveDims / n
		v["solver.front_size_mean"] = c.solveFronts / n
	}
	return v
}

// lpProbe cold-solves the LP relaxation of the sampled windows, outside
// every timed span: the iteration count is exact and repeats, and the
// time per iteration is the PDHG kernel's cost without warm starts.
func lpProbe(forms []solver.LinearForm, v layerValues) {
	if len(forms) == 0 {
		return
	}
	var iters []float64
	var total time.Duration
	var totalIters int
	for _, form := range forms {
		start := time.Now()
		_, st := lp.SolveRelaxation(form, lp.DefaultConfig())
		total += time.Since(start)
		totalIters += st.Iters
		iters = append(iters, float64(st.Iters))
	}
	v["lp.cold_iters_p50"] = median(iters)
	if totalIters > 0 {
		v["lp.cold_iter_us"] = float64(total.Microseconds()) / float64(totalIters)
	}
}

// decodeProbe drains a trace file on its own: the decoder's rate with no
// simulator behind it.
func decodeProbe(path string, v layerValues) error {
	if path == "" {
		return nil
	}
	st, err := os.Stat(path)
	if err != nil {
		return err
	}
	v["trace.file_mb"] = float64(st.Size()) / 1e6
	src, err := trace.OpenTrace(path, trace.SWFOptions{})
	if err != nil {
		return err
	}
	start, n := time.Now(), 0
	for {
		if _, err := src.Next(); err == io.EOF {
			break
		} else if err != nil {
			return err
		}
		n++
	}
	v["trace.decode_jobs_per_s"] = float64(n) / time.Since(start).Seconds()
	return nil
}

// engineProbe times the layers that have no seam inside a replay — queue
// windowing, EASY planning, checkpointing — on engine state taken from the
// workload itself. build returns a fresh simulator for the probed trace;
// restore resumes one from a snapshot. It replays the trace once to find
// the steps at which the queue is at its median and maximum depth, then
// again to snapshot the engine there and at mid-run; the snapshots, opened
// with checkpoint.Decode, are the public view of queue, running set and
// free resources the probes rebuild their inputs from.
func engineProbe(build func() (*sim.Simulator, error), restore func(snap []byte) (*sim.Simulator, error),
	sys trace.SystemModel, window int, v layerValues) error {
	s, err := build()
	if err != nil {
		return err
	}
	var depths, running []int
	for {
		more, err := s.Step()
		if err != nil {
			s.Close()
			return err
		}
		if !more {
			break
		}
		depths = append(depths, s.QueueDepth())
		running = append(running, s.RunningJobs())
	}
	s.Close()
	if len(depths) == 0 {
		return nil
	}
	sortedDepth := append([]int(nil), depths...)
	sort.Ints(sortedDepth)
	p50, deepest := sortedDepth[len(sortedDepth)/2], sortedDepth[len(sortedDepth)-1]
	sort.Ints(running)
	v["queue.depth_p50"], v["queue.depth_max"] = float64(p50), float64(deepest)
	v["backfill.running_p50"] = float64(running[len(running)/2])
	firstAt := func(depth int) int {
		for i, d := range depths {
			if d == depth {
				return i + 1
			}
		}
		return len(depths)
	}
	stops := map[int]string{firstAt(p50): "_at_p50", firstAt(deepest): "_at_max"}
	mid := len(depths) / 2
	last := mid
	for step := range stops {
		last = max(last, step)
	}

	if s, err = build(); err != nil {
		return err
	}
	defer s.Close()
	var buf bytes.Buffer
	for step := 1; step <= last; step++ {
		if _, err := s.Step(); err != nil {
			return err
		}
		suffix, atStop := stops[step]
		if !atStop && step != mid {
			continue
		}
		buf.Reset()
		if err := s.Checkpoint(&buf); err != nil {
			return err
		}
		snap, err := checkpoint.Decode(bytes.NewReader(buf.Bytes()))
		if err != nil {
			return err
		}
		if atStop {
			if err := queueProbe(snap, sys, window, suffix, v); err != nil {
				return err
			}
		}
		if step == mid {
			if err := checkpointProbe(s, buf.Bytes(), restore, v); err != nil {
				return err
			}
		}
	}
	return nil
}

// perCallUs times fn until it has run for 20 ms (at least 3 calls) and
// returns the mean microseconds per call.
func perCallUs(fn func()) float64 {
	start, n := time.Now(), 0
	for n < 3 || time.Since(start) < 20*time.Millisecond {
		fn()
		n++
	}
	return float64(time.Since(start).Nanoseconds()) / 1e3 / float64(n)
}

// queueProbe rebuilds the waiting queue, release timeline and free
// resources of a snapshot through the packages' public constructors — the
// way sim.Restore does — and times queue.WindowInto and
// backfill.Planner.Plan on them.
func queueProbe(snap *checkpoint.Snapshot, sys trace.SystemModel, window int, suffix string, v layerValues) error {
	jobs := make(map[int64]*job.Job, len(snap.Jobs))
	for i := range snap.Jobs {
		r := &snap.Jobs[i]
		jobs[r.ID] = &job.Job{
			ID: int(r.ID), User: r.User, SubmitTime: r.SubmitTime, Runtime: r.Runtime,
			WalltimeEst: r.WalltimeEst, Demand: job.Demand{Res: r.Res}, StageOutSec: r.StageOutSec,
			StartTime: r.StartTime, WindowAge: int(r.WindowAge), State: job.State(r.State),
		}
	}
	pol, err := queue.ByName(string(sys.Policy))
	if err != nil {
		return err
	}
	q := queue.New(pol)
	for _, id := range snap.QueueIDs {
		if err := q.Add(jobs[id]); err != nil {
			return err
		}
	}
	cl, err := cluster.New(sys.Cluster)
	if err != nil {
		return err
	}
	var tl backfill.Timeline
	for _, rr := range snap.Running {
		nodes := make([]int, len(rr.Alloc.NodesByClass))
		for i, n := range rr.Alloc.NodesByClass {
			nodes[i] = int(n)
		}
		stored, err := cl.RestoreAllocation(cluster.Allocation{
			JobID: int(rr.JobID), NodesByClass: nodes, BB: rr.Alloc.BB,
			WastedSSD: rr.Alloc.WastedSSD, Extra: rr.Alloc.Extra,
		})
		if err != nil {
			return err
		}
		// No workload here stages burst buffers out, so every running job
		// releases everything it holds at once.
		tl.Insert(backfill.Running{ReleaseTime: rr.Release, JobID: int(rr.JobID),
			NodesByClass: stored.NodesByClass, BB: rr.Alloc.BB, Extra: stored.Extra})
	}
	ready := func(int) bool { return true } // generated traces carry no dependencies
	var dst []*job.Job
	v["queue.window_full_us"+suffix] = perCallUs(func() { dst = q.WindowInto(dst[:0], snap.Now, q.Len(), ready) })
	v["queue.window_top_us"+suffix] = perCallUs(func() { dst = q.WindowInto(dst[:0], snap.Now, window, ready) })

	waiting := q.WindowInto(nil, snap.Now, q.Len(), ready)
	var free cluster.Snapshot
	cl.SnapshotInto(&free)
	var planner backfill.Planner
	v["backfill.plan_us"+suffix] = perCallUs(func() { planner.Plan(free, &tl, waiting, snap.Now) })
	return nil
}

// checkpointProbe times the snapshot path at mid-run: encode
// (Simulator.Checkpoint), decode (checkpoint.Decode) and restore
// (sim.Restore, with its allocation count).
func checkpointProbe(s *sim.Simulator, snap []byte, restore func([]byte) (*sim.Simulator, error), v layerValues) error {
	v["checkpoint.snapshot_mb"] = float64(len(snap)) / 1e6
	var buf bytes.Buffer
	v["checkpoint.encode_ms"] = perCallUs(func() {
		buf.Reset()
		s.Checkpoint(&buf) // cannot fail: the same call just succeeded on this state
	}) / 1e3
	v["checkpoint.decode_ms"] = perCallUs(func() {
		checkpoint.Decode(bytes.NewReader(snap)) // likewise
	}) / 1e3

	var before, after runtime.MemStats
	var times []float64
	for i := 0; i < 3; i++ {
		runtime.ReadMemStats(&before)
		start := time.Now()
		r, err := restore(snap)
		if err != nil {
			return err
		}
		times = append(times, float64(time.Since(start).Microseconds())/1e3)
		runtime.ReadMemStats(&after)
		r.Close()
	}
	v["checkpoint.restore_ms"] = median(times)
	v["checkpoint.restore_allocs"] = float64(after.Mallocs - before.Mallocs)
	return nil
}

// probe runs a replay workload's once-per-run probes on its first trace.
func (sp replaySpec) probe(in replayInput, forms []solver.LinearForm, v layerValues) error {
	lpProbe(forms, v)
	if err := decodeProbe(in.path, v); err != nil {
		return err
	}
	m, err := registry.New(sp.method, moo.DefaultGAConfig(), false)
	if err != nil {
		return err
	}
	build := func() (*sim.Simulator, error) { return sp.newSimulator(in, m, nil, nil) }
	restore := func(snap []byte) (*sim.Simulator, error) { return sp.newSimulator(in, m, nil, snap) }
	return engineProbe(build, restore, in.w.System, sp.window, v)
}

// probe runs the grid workload's once-per-run probes: the engine probes on
// the grid's first cell, built the way a farm worker builds it, and the
// same grid swept on one worker, against which sweepWall — the parallel
// sweep's time — gives RunSweep's speed-up.
func (sp gridSpec) probe(in gridInput, sweepWall float64, v layerValues) error {
	_, serial, _, err := sp.sweep(in, 1)
	if err != nil {
		return err
	}
	v["sim.runsweep_serial_s"] = serial.wall
	if sweepWall > 0 {
		v["sim.runsweep_speedup"] = serial.wall / sweepWall
	}
	cell := in.grid.Cells()[0]
	m, err := cell.Method.Build(in.workloads[0].System.Cluster, cell.Solver)
	if err != nil {
		return err
	}
	opts, err := cell.Opts.Options()
	if err != nil {
		return err
	}
	opts = append(opts, sim.WithSeed(cell.Seed))
	build := func() (*sim.Simulator, error) { return sim.NewSimulator(in.workloads[0], m, opts...) }
	restore := func(snap []byte) (*sim.Simulator, error) {
		return sim.Restore(in.workloads[0], m, bytes.NewReader(snap), opts...)
	}
	return engineProbe(build, restore, in.workloads[0].System, in.grid.Opts.Window, v)
}
