package sim

import (
	"bytes"
	"context"
	"crypto/sha256"
	"errors"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"bbsched/internal/cluster"
	"bbsched/internal/job"
	"bbsched/internal/moo"
	"bbsched/internal/registry"
	"bbsched/internal/sched"
	"bbsched/internal/trace"
)

func sweepWorkloads(t *testing.T) []trace.Workload {
	t.Helper()
	sys := trace.Scale(trace.Cori(), 128)
	a := trace.Generate(trace.GenConfig{System: sys, Jobs: 50, Seed: 5})
	a.Name = "sweep-a"
	b := trace.Generate(trace.GenConfig{System: sys, Jobs: 50, Seed: 6})
	b.Name = "sweep-b"
	return []trace.Workload{a, b}
}

// TestRunSweepParallelMatchesSerial is the determinism contract of the
// parallel driver: N workers yield the same runs, in the same order, with
// the same per-run Reports as serial execution.
func TestRunSweepParallelMatchesSerial(t *testing.T) {
	sw := Sweep{
		Workloads: sweepWorkloads(t),
		Methods:   []sched.Method{sched.Baseline{}, fastBBSched()},
		Seeds:     []uint64{1, 2},
		Options:   engineOpts(),
	}

	sw.Workers = 1
	serial, err := RunSweep(context.Background(), sw)
	if err != nil {
		t.Fatal(err)
	}
	sw.Workers = 8
	parallel, err := RunSweep(context.Background(), sw)
	if err != nil {
		t.Fatal(err)
	}

	if len(serial) != 8 || len(parallel) != 8 {
		t.Fatalf("run counts: serial %d, parallel %d, want 8", len(serial), len(parallel))
	}
	for i := range serial {
		s, p := serial[i], parallel[i]
		if s.Workload != p.Workload || s.Method != p.Method || s.Seed != p.Seed {
			t.Fatalf("run %d identity differs: %s/%s/%d vs %s/%s/%d",
				i, s.Workload, s.Method, s.Seed, p.Workload, p.Method, p.Seed)
		}
		if !reflect.DeepEqual(s.Result.Report, p.Result.Report) {
			t.Fatalf("run %d (%s/%s/%d) reports differ", i, s.Workload, s.Method, s.Seed)
		}
		if s.Result.MakespanSec != p.Result.MakespanSec {
			t.Fatalf("run %d makespan %d vs %d", i, s.Result.MakespanSec, p.Result.MakespanSec)
		}
	}
}

// TestRunSweepMatchesIndividualRuns: each sweep cell equals a standalone
// Simulator run with the same inputs (shared method instances do not leak
// state across runs).
func TestRunSweepMatchesIndividualRuns(t *testing.T) {
	ws := sweepWorkloads(t)[:1]
	m := fastBBSched()
	runs, err := RunSweep(context.Background(), Sweep{
		Workloads: ws,
		Methods:   []sched.Method{m},
		Seeds:     []uint64{1, 9},
		Options:   engineOpts(),
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range runs {
		s, err := NewSimulator(ws[0], fastBBSched(), WithWindow(5, 50), WithMeasurement(0, 0), WithSeed(r.Seed))
		if err != nil {
			t.Fatal(err)
		}
		solo, err := s.Run(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(solo.Report, r.Result.Report) {
			t.Fatalf("seed %d: sweep report differs from standalone run", r.Seed)
		}
	}
}

func TestRunSweepValidation(t *testing.T) {
	ws := sweepWorkloads(t)[:1]
	ms := []sched.Method{sched.Baseline{}}
	seeds := []uint64{1}
	for _, sw := range []Sweep{
		{Methods: ms, Seeds: seeds},
		{Workloads: ws, Seeds: seeds},
		{Workloads: ws, Methods: ms},
	} {
		if _, err := RunSweep(context.Background(), sw); err == nil {
			t.Fatalf("incomplete sweep %+v accepted", sw)
		}
	}
}

func TestRunSweepFailureSurfacesRunIdentity(t *testing.T) {
	// An oversized job makes the second workload unrunnable; the error
	// must name it and still be deterministic under parallelism.
	good := sweepWorkloads(t)[0]
	bad := mkWorkload(tinySystem(2, 0), job.MustNew(0, 0, 10, 10, job.NewDemand(100, 0, 0)))
	bad.Name = "sweep-bad"
	_, err := RunSweep(context.Background(), Sweep{
		Workloads: []trace.Workload{good, bad},
		Methods:   []sched.Method{sched.Baseline{}},
		Seeds:     []uint64{1},
		Options:   engineOpts(),
		Workers:   4,
	})
	if err == nil {
		t.Fatal("unrunnable workload did not fail the sweep")
	}
	if want := "sweep-bad"; !strings.Contains(err.Error(), want) {
		t.Fatalf("error %q does not name the failing run %q", err, want)
	}
}

func TestRunSweepCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	runs, err := RunSweep(ctx, Sweep{
		Workloads: sweepWorkloads(t),
		Methods:   []sched.Method{sched.Baseline{}},
		Seeds:     []uint64{1},
		Options:   engineOpts(),
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled sweep returned %v", err)
	}
	// Even a sweep cancelled before any cell ran returns the full grid in
	// grid order, every cell identified and marked Canceled.
	if len(runs) != 2 {
		t.Fatalf("cancelled sweep returned %d cells, want the full 2-cell grid", len(runs))
	}
	for i, r := range runs {
		if !r.Canceled || r.Result != nil {
			t.Errorf("cell %d: Canceled=%v Result=%v, want a bare cancellation marker", i, r.Canceled, r.Result)
		}
		if r.Workload == "" || r.Method == "" {
			t.Errorf("cell %d: cancellation marker lost the run identity: %+v", i, r)
		}
	}
}

// TestRunSweepCancellationDrainsPartialResults pins the drain contract:
// cancelling mid-sweep keeps every completed cell's Result (identical to
// an uninterrupted sweep's) and marks the rest Canceled, in grid order.
func TestRunSweepCancellationDrainsPartialResults(t *testing.T) {
	sw := Sweep{
		Workloads: sweepWorkloads(t),
		Methods:   []sched.Method{sched.Baseline{}, sched.BinPacking{}},
		Seeds:     []uint64{1, 2},
		Options:   engineOpts(),
		Workers:   1,
	}
	full, err := RunSweep(context.Background(), sw)
	if err != nil {
		t.Fatal(err)
	}

	// Cancel after the third completed cell: with one worker the first
	// three grid cells finish, the rest must drain as markers.
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	done := 0
	sw.PerRun = func(w trace.Workload, m sched.Method, seed uint64) []Option {
		done++
		if done > 3 {
			cancel()
		}
		return nil
	}
	runs, err := RunSweep(ctx, sw)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled sweep returned %v", err)
	}
	if len(runs) != len(full) {
		t.Fatalf("cancelled sweep returned %d cells, want the full %d-cell grid", len(runs), len(full))
	}
	completed, canceled := 0, 0
	for i, r := range runs {
		if r.Workload != full[i].Workload || r.Method != full[i].Method || r.Seed != full[i].Seed {
			t.Fatalf("cell %d identity diverges: %s/%s/%d vs %s/%s/%d",
				i, r.Workload, r.Method, r.Seed, full[i].Workload, full[i].Method, full[i].Seed)
		}
		switch {
		case r.Canceled:
			canceled++
			if r.Result != nil {
				t.Errorf("cell %d is marked Canceled but carries a Result", i)
			}
		case r.Result != nil:
			completed++
			if !reflect.DeepEqual(r.Result.Report, full[i].Result.Report) {
				t.Errorf("cell %d: partial-sweep Result differs from uninterrupted sweep", i)
			}
		default:
			t.Errorf("cell %d is neither completed nor marked Canceled: %+v", i, r)
		}
	}
	if completed == 0 || canceled == 0 {
		t.Fatalf("want a mix of completed and canceled cells, got %d completed / %d canceled", completed, canceled)
	}
}

// TestRunSweepFailedCellKeepsIdentity: a cell that fails for a genuine
// reason — here an Open that errors in the middle of the grid — still
// comes back identified, with no Result and not marked Canceled, between
// a completed cell and a cancelled one.
func TestRunSweepFailedCellKeepsIdentity(t *testing.T) {
	sys := streamTestSystem()
	w := trace.Generate(trace.GenConfig{System: sys, Jobs: 30, Seed: 5})
	stream := func(name string, open func() (trace.JobSource, error)) StreamWorkload {
		return StreamWorkload{Name: name, System: sys, Open: open}
	}
	good := func() (trace.JobSource, error) { return trace.SourceOf(w), nil }
	runs, err := RunSweep(context.Background(), Sweep{
		Streams: []StreamWorkload{
			stream("first", good),
			stream("broken", func() (trace.JobSource, error) { return nil, errors.New("injected open failure") }),
			stream("last", good),
		},
		Methods: []sched.Method{sched.Baseline{}},
		Seeds:   []uint64{7},
		Options: []Option{WithWindow(5, 50), WithMeasurement(0, 0)},
		Workers: 1,
	})
	if err == nil || !strings.Contains(err.Error(), "injected open failure") {
		t.Fatalf("sweep error %v, want the injected open failure", err)
	}
	if len(runs) != 3 {
		t.Fatalf("got %d cells, want the full 3-cell grid", len(runs))
	}
	for i, name := range []string{"first", "broken", "last"} {
		if r := runs[i]; r.Workload != name || r.Method != "Baseline" || r.Seed != 7 {
			t.Errorf("cell %d lost its identity: %+v", i, r)
		}
	}
	if runs[0].Result == nil || runs[0].Canceled {
		t.Errorf("cell before the failure: %+v, want a completed run", runs[0])
	}
	if runs[1].Result != nil || runs[1].Canceled {
		t.Errorf("failed cell: %+v, want no Result and Canceled == false", runs[1])
	}
	if runs[2].Result != nil || !runs[2].Canceled {
		t.Errorf("cell after the failure: %+v, want a cancellation marker", runs[2])
	}
}

// TestRunSweepWithSolverShared drives a sweep whose parallel workers all
// share one method instance whose backend registry.ApplySolver attached
// once beforehand: concurrent Select calls on one solver-backed method,
// exercised under -race by the CI short suite.
func TestRunSweepWithSolverShared(t *testing.T) {
	theta := trace.Scale(trace.Theta(), 64)
	w := trace.Generate(trace.GenConfig{System: theta, Jobs: 40, Seed: 3})
	w.Name = "sweep-withsolver"
	m := sched.NewWeighted("Weighted", 0.5, 0.5, moo.DefaultGAConfig())
	if err := registry.ApplySolver(m, "lp", moo.DefaultGAConfig()); err != nil {
		t.Fatal(err)
	}
	runs, err := RunSweep(context.Background(), Sweep{
		Workloads: []trace.Workload{w},
		Methods:   []sched.Method{m},
		Seeds:     []uint64{1, 2, 3, 4},
		Workers:   4,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(runs) != 4 {
		t.Fatalf("got %d runs, want 4", len(runs))
	}
	for _, r := range runs {
		if r.Result == nil {
			t.Fatalf("seed %d: missing result", r.Seed)
		}
	}
	if got := sched.SolverNameOf(m); got != "lp" {
		t.Fatalf("shared method backend = %q, want lp", got)
	}
}

// TestSharedWorkloadNeverWritten: runs share their workload instead of
// copying it, which is sound only because nothing writes a job once its
// trace has built it. One materialized workload — dependencies, stage-out
// and starvation forcing included — is swept at two workers over several
// methods, replayed as a stream through a transform, and, at the same
// time, checkpointed mid-run and restored into a new run over the same
// jobs. The batch transforms (ExpandBB, AddSSD, AddExtraDemand,
// WithStageOut) hand on the jobs they leave unchanged, so the workloads
// they derive from it are swept too, sharing its jobs and one another's.
// Every field of every job must hash the same after as before, and under
// -race no run may write what another reads.
func TestSharedWorkloadNeverWritten(t *testing.T) {
	sys := trace.Scale(trace.Theta(), 32)
	w := trace.Generate(trace.GenConfig{System: sys, Jobs: 150, Seed: 8, TargetLoad: 2, DependencyFraction: 0.2, BBDrainGBps: 20})
	w.System.Policy = trace.WFP
	moderate, _ := trace.BBFloors(w)
	expanded := trace.ExpandBB(w, "shared-S2", 0.75, moderate, 9)
	powered := w
	powered.System = trace.WithExtraResource(w.System, cluster.ResourceSpec{Name: "power_kw", Capacity: 400, Unit: "kW"})
	derived := []trace.Workload{
		expanded,
		trace.AddSSD(expanded, "shared-S6", trace.S6, 10),
		trace.WithStageOut(expanded, 5),
		trace.AddExtraDemand(powered, "shared-power", 0, 1, 4, 0.5, 11),
	}
	hash := func() [sha256.Size]byte {
		h := sha256.New()
		for _, d := range append([]trace.Workload{w}, derived...) {
			for _, j := range d.Jobs {
				fmt.Fprintf(h, "%#v\n", *j)
			}
		}
		return [sha256.Size]byte(h.Sum(nil))
	}
	before := hash()
	opts := engineOpts(WithWindow(8, 3))

	done := make(chan error, 1)
	go func() {
		s, err := NewSimulator(w, sched.BinPacking{}, append(opts, WithSeed(3))...)
		if err != nil {
			done <- err
			return
		}
		for i := 0; i < len(w.Jobs)/2; i++ {
			if _, err := s.Step(); err != nil {
				done <- err
				return
			}
		}
		var snap bytes.Buffer
		if err := s.Checkpoint(&snap); err != nil {
			done <- err
			return
		}
		r, err := Restore(w, sched.BinPacking{}, &snap, append(opts, WithSeed(3))...)
		if err == nil {
			_, err = r.Run(context.Background())
		}
		done <- err
	}()
	runs, err := RunSweep(context.Background(), Sweep{
		Workloads: append([]trace.Workload{w}, derived...),
		Streams: []StreamWorkload{{Name: w.Name + "-stream", System: w.System, Open: func() (trace.JobSource, error) {
			return trace.StageOutSource(trace.SourceOf(w), 5), nil
		}}},
		Methods: []sched.Method{sched.Baseline{}, sched.BinPacking{}, fastBBSched()},
		Seeds:   []uint64{1, 2},
		Options: opts,
		Workers: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	for _, r := range runs {
		if r.Result == nil || r.Result.TotalJobs != len(w.Jobs) {
			t.Fatalf("%s/%s/seed %d did not run every job: %+v", r.Workload, r.Method, r.Seed, r.Result)
		}
	}
	if hash() != before {
		t.Fatal("a run wrote a job of the workload it shares")
	}
}
