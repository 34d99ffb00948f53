package farm

import (
	"context"
	"errors"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"bbsched/internal/moo"
	"bbsched/internal/sched"
	"bbsched/internal/sim"
	"bbsched/internal/trace"
)

func testGA() moo.GAConfig {
	return moo.GAConfig{Generations: 8, Population: 6, MutationProb: 0.0005}
}

// testGrid is the smoke grid: one materialized workload (with an S2
// variant applied) and one stream-backed workload, swept under three
// methods — Baseline, Bin_Packing, and a down-sized BBSched — for one
// seed each: 6 cells.
func testGrid() Grid {
	sys := trace.Scale(trace.Cori(), 128)
	return Grid{
		Workloads: []WorkloadSpec{
			{Name: "farm-mat", Gen: trace.GenConfig{System: sys, Jobs: 40, Seed: 5}, Variant: "S2", VariantSeed: 11},
			{Name: "farm-stream", Gen: trace.GenConfig{System: sys, Jobs: 50, Seed: 6}, Stream: true},
		},
		Methods: []MethodSpec{
			{Name: "Baseline", GA: testGA()},
			{Name: "Bin_Packing", GA: testGA()},
			{Name: "BBSched", GA: testGA()},
		},
		Seeds:            []uint64{3},
		Opts:             RunOptions{Window: 5, StarvationBound: 50, Measure: "full"},
		CheckpointEvents: 5,
	}
}

// serialReference runs the grid's cells through sim.RunSweep on one
// worker — the ground truth the farm must reproduce bit-for-bit.
func serialReference(t *testing.T, g Grid) []sim.SweepRun {
	t.Helper()
	var mats []trace.Workload
	var streams []sim.StreamWorkload
	for _, ws := range g.Workloads {
		if ws.Stream {
			spec := ws
			streams = append(streams, sim.StreamWorkload{
				Name:   spec.Name,
				System: spec.Gen.System,
				Open: func() (trace.JobSource, error) {
					_, src, err := spec.Open()
					return src, err
				},
			})
			continue
		}
		w, err := ws.Build()
		if err != nil {
			t.Fatal(err)
		}
		mats = append(mats, w)
	}
	sw := sim.Sweep{
		Workloads: mats,
		Streams:   streams,
		Seeds:     g.Seeds,
		Options:   []sim.Option{sim.WithWindow(g.Opts.Window, g.Opts.StarvationBound), sim.WithMeasurement(0, 0)},
		Workers:   1,
		// Stream cells run under streaming metrics, exactly as a farm
		// worker runs them.
		PerRun: func(w trace.Workload, m sched.Method, seed uint64) []sim.Option {
			if isStreamCell(g, w.Name) {
				return []sim.Option{sim.WithStreamingMetrics()}
			}
			return nil
		},
	}
	// The farm sweeps methods per workload with fresh instances; shipped
	// methods are stateless across runs, so shared instances match.
	cfg := g.Workloads[0].Gen.System.Cluster
	for _, ms := range g.Methods {
		m, err := ms.Build(cfg, "")
		if err != nil {
			t.Fatal(err)
		}
		sw.Methods = append(sw.Methods, m)
	}
	runs, err := sim.RunSweep(context.Background(), sw)
	if err != nil {
		t.Fatal(err)
	}
	return runs
}

func isStreamCell(g Grid, workload string) bool {
	for _, ws := range g.Workloads {
		if ws.Stream && ws.Name == workload {
			return true
		}
	}
	return false
}

// compareRuns asserts the farm's assembled grid equals the serial
// reference cell-for-cell: identity, Report, and the deterministic
// Result fields. Wall-clock decision times are legitimately different.
func compareRuns(t *testing.T, got, want []sim.SweepRun) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("grid length %d, want %d", len(got), len(want))
	}
	for i := range want {
		g, w := got[i], want[i]
		if g.Workload != w.Workload || g.Method != w.Method || g.Seed != w.Seed {
			t.Fatalf("cell %d identity %s/%s/%d, want %s/%s/%d",
				i, g.Workload, g.Method, g.Seed, w.Workload, w.Method, w.Seed)
		}
		if g.Canceled {
			t.Fatalf("cell %d (%s/%s) marked Canceled in a completed sweep", i, g.Workload, g.Method)
		}
		if g.Result == nil {
			t.Fatalf("cell %d (%s/%s) has no Result", i, g.Workload, g.Method)
		}
		if !reflect.DeepEqual(g.Result.Report, w.Result.Report) {
			t.Errorf("cell %d (%s/%s/seed %d): farm Report differs from serial sweep:\nfarm:   %+v\nserial: %+v",
				i, g.Workload, g.Method, g.Seed, g.Result.Report, w.Result.Report)
		}
		if g.Result.TotalJobs != w.Result.TotalJobs ||
			g.Result.MeasuredJobs != w.Result.MeasuredJobs ||
			g.Result.SchedInvocations != w.Result.SchedInvocations ||
			g.Result.MakespanSec != w.Result.MakespanSec {
			t.Errorf("cell %d (%s/%s): deterministic counters differ: farm {jobs %d/%d inv %d mk %d}, serial {jobs %d/%d inv %d mk %d}",
				i, g.Workload, g.Method,
				g.Result.TotalJobs, g.Result.MeasuredJobs, g.Result.SchedInvocations, g.Result.MakespanSec,
				w.Result.TotalJobs, w.Result.MeasuredJobs, w.Result.SchedInvocations, w.Result.MakespanSec)
		}
	}
}

// TestFarmSweepWithFaultInjection is the farm's equivalence contract
// under failure: three workers sweep the grid while two injected crashes
// kill a worker mid-cell — once before any checkpoint (the retry
// restarts from scratch) and once past an uploaded checkpoint (the retry
// resumes from the snapshot). The assembled grid must be identical to a
// serial sim.RunSweep over the same cells.
func TestFarmSweepWithFaultInjection(t *testing.T) {
	g := testGrid()
	want := serialReference(t, g)

	// Speculation off: this test pins the lease-expiry recovery path, and
	// a speculative twin would legitimately rescue a crashed cell before
	// its lease expires (TestFarmStragglerSpeculation covers that path).
	coord, err := NewCoordinator(g, WithLeaseTTL(400*time.Millisecond), WithSpeculation(false))
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(coord.Handler())
	defer srv.Close()

	// Two one-shot crashes, triggered by global step counts: the first
	// fires before the cell's first checkpoint (CheckpointEvents=5), the
	// second after two checkpoints have been uploaded.
	var crashEarly, crashLate atomic.Bool
	hook := func(cell, steps int) error {
		if steps == 2 && crashEarly.CompareAndSwap(false, true) {
			return errors.New("injected crash before first checkpoint")
		}
		if steps == 12 && crashLate.CompareAndSwap(false, true) {
			return errors.New("injected crash past checkpoint")
		}
		return nil
	}

	var wg sync.WaitGroup
	workerErrs := make([]error, 3)
	for i := range workerErrs {
		w := &Worker{
			Coordinator: srv.URL,
			ID:          []string{"w1", "w2", "w3"}[i],
			Poll:        20 * time.Millisecond,
			StepHook:    hook,
		}
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			workerErrs[i] = w.Run(context.Background())
		}(i)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	got, err := coord.Wait(ctx)
	if err != nil {
		t.Fatalf("sweep failed: %v", err)
	}
	wg.Wait()
	for i, werr := range workerErrs {
		if werr != nil {
			t.Fatalf("worker %d: %v", i, werr)
		}
	}

	if !crashEarly.Load() || !crashLate.Load() {
		t.Fatalf("crash injection incomplete: early=%v late=%v", crashEarly.Load(), crashLate.Load())
	}
	st := coord.Stats()
	if st.Retries < 2 {
		t.Errorf("Retries = %d, want >= 2 (both crashed cells re-leased)", st.Retries)
	}
	if st.Resumes < 1 {
		t.Errorf("Resumes = %d, want >= 1 (post-checkpoint crash must resume from the snapshot)", st.Resumes)
	}
	if st.Expired < 2 {
		t.Errorf("Expired = %d, want >= 2 (silent crashes are caught by lease expiry)", st.Expired)
	}

	compareRuns(t, got, want)
}

// TestFarmSingleWorkerMatchesSerial: the no-failure path with one
// worker — equivalence must hold for any worker count.
func TestFarmSingleWorkerMatchesSerial(t *testing.T) {
	if testing.Short() {
		t.Skip("fault-injection smoke covers the farm in -short")
	}
	g := testGrid()
	g.CheckpointEvents = 0 // no mid-run snapshots either
	want := serialReference(t, g)

	coord, err := NewCoordinator(g)
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(coord.Handler())
	defer srv.Close()

	done := make(chan error, 1)
	go func() {
		w := &Worker{Coordinator: srv.URL, ID: "solo"}
		done <- w.Run(context.Background())
	}()
	got, err := coord.Wait(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if werr := <-done; werr != nil {
		t.Fatal(werr)
	}
	compareRuns(t, got, want)
}

// TestFarmWorkerBuildsEachRecipeOnce: one worker sweeping a grid in its
// workload-major order builds each materialized workload once and shares
// it across that workload's cells, and opens a stream-backed workload's
// source afresh for every cell; either way the grid equals serial
// RunSweep.
func TestFarmWorkerBuildsEachRecipeOnce(t *testing.T) {
	sys := trace.Scale(trace.Cori(), 128)
	g := Grid{
		Workloads: []WorkloadSpec{
			{Name: "farm-mat-a", Gen: trace.GenConfig{System: sys, Jobs: 40, Seed: 5}, Variant: "S2", VariantSeed: 11},
			{Name: "farm-mat-b", Gen: trace.GenConfig{System: sys, Jobs: 40, Seed: 8}},
		},
		Methods: []MethodSpec{
			{Name: "Baseline", GA: testGA()},
			{Name: "Bin_Packing", GA: testGA()},
		},
		Seeds:            []uint64{3, 4},
		Opts:             RunOptions{Window: 5, StarvationBound: 50, Measure: "full"},
		CheckpointEvents: 5,
	}
	sweep := func(g Grid) WorkerStats {
		t.Helper()
		coord, err := NewCoordinator(g)
		if err != nil {
			t.Fatal(err)
		}
		w := &Worker{ID: "solo", Poll: 10 * time.Millisecond}
		compareRuns(t, runFarm(t, coord, []*Worker{w}, time.Minute), serialReference(t, g))
		return w.Stats()
	}
	if st := sweep(g); st.Builds != 2 {
		t.Errorf("Builds = %d over 8 cells of 2 materialized workloads, want 2", st.Builds)
	}

	g.Workloads = append(g.Workloads, WorkloadSpec{
		Name: "farm-stream", Gen: trace.GenConfig{System: sys, Jobs: 50, Seed: 6}, Stream: true,
	})
	streamCells := len(g.Methods) * len(g.Seeds)
	if st := sweep(g); st.Builds != 2+streamCells {
		t.Errorf("Builds = %d with a stream workload of %d cells, want %d", st.Builds, streamCells, 2+streamCells)
	}
}

// TestFarmWaitCancellationDrains: cancelling Wait returns the full grid
// in grid order with unfinished cells marked Canceled — mirroring
// sim.RunSweep's drain contract.
func TestFarmWaitCancellationDrains(t *testing.T) {
	g := testGrid()
	coord, err := NewCoordinator(g)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	runs, err := coord.Wait(ctx)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled Wait returned %v", err)
	}
	if len(runs) != len(g.Cells()) {
		t.Fatalf("cancelled Wait returned %d cells, want the full %d-cell grid", len(runs), len(g.Cells()))
	}
	for i, r := range runs {
		if !r.Canceled || r.Result != nil {
			t.Errorf("cell %d: Canceled=%v Result=%v, want a bare cancellation marker", i, r.Canceled, r.Result)
		}
		if r.Workload == "" || r.Method == "" {
			t.Errorf("cell %d lost its identity: %+v", i, r)
		}
	}
}

// TestFarmStaleAttemptsRejected: messages from a reaped attempt must not
// corrupt the re-issued attempt's state.
func TestFarmStaleAttemptsRejected(t *testing.T) {
	g := testGrid()
	coord, err := NewCoordinator(g, WithLeaseTTL(time.Hour))
	if err != nil {
		t.Fatal(err)
	}
	lease := coord.lease("w1")
	if lease.Cell != 0 || lease.Attempt != 1 {
		t.Fatalf("first lease = cell %d attempt %d, want cell 0 attempt 1", lease.Cell, lease.Attempt)
	}
	// The worker dies; the coordinator reaps past the hour-long lease and
	// re-issues.
	coord.mu.Lock()
	coord.m.reap(time.Now().Add(2 * time.Hour))
	coord.mu.Unlock()
	lease2 := coord.lease("w2")
	if lease2.Cell != 0 || lease2.Attempt != 2 {
		t.Fatalf("re-lease = cell %d attempt %d, want cell 0 attempt 2", lease2.Cell, lease2.Attempt)
	}
	if coord.Stats().Expired != 1 || coord.Stats().Retries != 1 {
		t.Fatalf("stats after reap: %+v", coord.Stats())
	}
	// Attempt 1's messages are all stale now.
	if live, err := coord.acceptCheckpoint(CheckpointMsg{Cell: 0, Attempt: 1, Data: []byte("x")}); err != nil || live {
		t.Errorf("stale checkpoint: live %v, err %v", live, err)
	}
	if live, err := coord.acceptResult(ResultMsg{Cell: 0, Attempt: 1, Result: &sim.Result{}}); err != nil || live {
		t.Errorf("stale result: live %v, err %v", live, err)
	}
	if coord.acceptFailure(FailMsg{Cell: 0, Attempt: 1, Error: "boom"}) {
		t.Error("stale failure accepted")
	}
	// Attempt 2's are live.
	if live, err := coord.acceptCheckpoint(CheckpointMsg{Cell: 0, Attempt: 2, Data: []byte("y")}); err != nil || !live {
		t.Errorf("live checkpoint: live %v, err %v", live, err)
	}
	if live, err := coord.acceptResult(ResultMsg{Cell: 0, Attempt: 2, Result: &sim.Result{}}); err != nil || !live {
		t.Errorf("live result: live %v, err %v", live, err)
	}
}

// TestFarmExhaustedAttemptsFailSweep: a cell that keeps failing takes
// the sweep down with a descriptive error after MaxAttempts, and the
// assembled grid still carries every cell's identity.
func TestFarmExhaustedAttemptsFailSweep(t *testing.T) {
	g := testGrid()
	coord, err := NewCoordinator(g, WithMaxAttempts(2), WithLeaseTTL(time.Hour))
	if err != nil {
		t.Fatal(err)
	}
	for attempt := 1; attempt <= 2; attempt++ {
		lease := coord.lease("w1")
		if lease.Cell != 0 {
			t.Fatalf("attempt %d leased cell %d", attempt, lease.Cell)
		}
		if !coord.acceptFailure(FailMsg{Cell: 0, Attempt: lease.Attempt, Worker: "w1", Error: "boom"}) {
			t.Fatalf("attempt %d failure rejected", attempt)
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	runs, err := coord.Wait(ctx)
	if err == nil {
		t.Fatal("exhausted cell did not fail the sweep")
	}
	for _, want := range []string{"farm-mat", "Baseline", "boom", "2 attempts"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error %q does not mention %q", err, want)
		}
	}
	if len(runs) != len(g.Cells()) {
		t.Fatalf("failed sweep returned %d cells, want %d", len(runs), len(g.Cells()))
	}
}

// TestFarmSkippedCells: an incompatible method×solver pairing is a legal
// grid — Validate accepts it, the coordinator marks its cells skipped up
// front, workers sweep only the compatible cells, and the assembled grid
// carries the skip markers in grid order.
func TestFarmSkippedCells(t *testing.T) {
	sys := trace.Scale(trace.Cori(), 128)
	g := Grid{
		Workloads: []WorkloadSpec{
			{Name: "skip-mat", Gen: trace.GenConfig{System: sys, Jobs: 40, Seed: 5}},
		},
		// Baseline is a fixed heuristic: Baseline×lp can never run. The
		// solver-configurable Constrained_CPU sweeps under lp normally.
		Methods: []MethodSpec{
			{Name: "Baseline", GA: testGA()},
			{Name: "Constrained_CPU", GA: testGA()},
		},
		Solvers: []string{"lp"},
		Seeds:   []uint64{3, 4},
		Opts:    RunOptions{Window: 5, StarvationBound: 50, Measure: "full"},
	}
	if err := g.Validate(); err != nil {
		t.Fatalf("grid with an incompatible pairing rejected: %v", err)
	}

	coord, err := NewCoordinator(g)
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(coord.Handler())
	defer srv.Close()

	done := make(chan error, 1)
	go func() {
		w := &Worker{Coordinator: srv.URL, ID: "solo"}
		done <- w.Run(context.Background())
	}()
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	runs, err := coord.Wait(ctx)
	if err != nil {
		t.Fatalf("sweep failed: %v", err)
	}
	if werr := <-done; werr != nil {
		t.Fatal(werr)
	}

	if len(runs) != 4 {
		t.Fatalf("assembled %d cells, want 4", len(runs))
	}
	// Grid order: Baseline×lp (both seeds), then Constrained_CPU×lp.
	for i, r := range runs[:2] {
		if !r.Skipped || r.Canceled || r.Result != nil {
			t.Errorf("cell %d (%s/%s): Skipped=%v Canceled=%v Result=%v, want a bare skip marker",
				i, r.Workload, r.Method, r.Skipped, r.Canceled, r.Result)
		}
		if r.Workload != "skip-mat" || r.Method != "Baseline" {
			t.Errorf("cell %d lost its identity: %+v", i, r)
		}
	}
	for i, r := range runs[2:] {
		if r.Skipped || r.Canceled || r.Result == nil {
			t.Errorf("cell %d (%s/%s): Skipped=%v Canceled=%v Result=%v, want a completed run",
				i+2, r.Workload, r.Method, r.Skipped, r.Canceled, r.Result)
		}
	}
}

// TestFarmAllCellsSkipped: a grid whose every pairing is incompatible
// drains at construction — Wait returns the skip markers immediately,
// without any worker.
func TestFarmAllCellsSkipped(t *testing.T) {
	sys := trace.Scale(trace.Cori(), 128)
	g := Grid{
		Workloads: []WorkloadSpec{
			{Name: "skip-all", Gen: trace.GenConfig{System: sys, Jobs: 10, Seed: 1}},
		},
		Methods: []MethodSpec{{Name: "Baseline", GA: testGA()}},
		Solvers: []string{"greedy"},
		Seeds:   []uint64{1},
		Opts:    RunOptions{Measure: "full"},
	}
	coord, err := NewCoordinator(g)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	runs, err := coord.Wait(ctx)
	if err != nil {
		t.Fatalf("all-skipped sweep returned %v, want immediate drain", err)
	}
	if len(runs) != 1 || !runs[0].Skipped {
		t.Fatalf("runs = %+v, want one skipped cell", runs)
	}
	// A late worker sees the sweep as done.
	lease := coord.lease("late")
	if !lease.Done {
		t.Fatalf("lease on a drained sweep = %+v, want Done", lease)
	}
}

// TestFarmGridValidation rejects malformed grids at submission.
func TestFarmGridValidation(t *testing.T) {
	base := testGrid()
	mutate := func(f func(*Grid)) Grid {
		g := testGrid()
		f(&g)
		return g
	}
	cases := map[string]Grid{
		"no workloads":   mutate(func(g *Grid) { g.Workloads = nil }),
		"no methods":     mutate(func(g *Grid) { g.Methods = nil }),
		"no seeds":       mutate(func(g *Grid) { g.Seeds = nil }),
		"zero jobs":      mutate(func(g *Grid) { g.Workloads[0].Gen.Jobs = 0 }),
		"bad variant":    mutate(func(g *Grid) { g.Workloads[0].Variant = "S99" }),
		"bad measure":    mutate(func(g *Grid) { g.Opts.Measure = "sideways" }),
		"stream horizon": mutate(func(g *Grid) { g.Opts.Measure = "" }),
		"unknown method": mutate(func(g *Grid) { g.Methods[0].Name = "Nope" }),
		"unknown solver": mutate(func(g *Grid) { g.Solvers = []string{"simplex9000"} }),
	}
	for name, g := range cases {
		if err := g.Validate(); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
	if err := base.Validate(); err != nil {
		t.Errorf("valid grid rejected: %v", err)
	}
	if n := len(base.Cells()); n != 6 {
		t.Errorf("grid has %d cells, want 6", n)
	}
}
