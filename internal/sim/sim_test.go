package sim

import (
	"context"
	"math"
	"reflect"
	"testing"

	"bbsched/internal/cluster"
	"bbsched/internal/core"
	"bbsched/internal/job"
	"bbsched/internal/moo"
	"bbsched/internal/sched"
	"bbsched/internal/trace"
)

// tinySystem returns a small FCFS machine for hand-built scenarios.
func tinySystem(nodes int, bb int64) trace.SystemModel {
	return trace.SystemModel{
		Cluster: cluster.Config{Name: "tiny", Nodes: nodes, BurstBufferGB: bb},
		Policy:  trace.FCFS,
	}
}

func mkWorkload(sys trace.SystemModel, jobs ...*job.Job) trace.Workload {
	return trace.Workload{Name: "hand", System: sys, Jobs: jobs}
}

// fastGA keeps hand-scenario solver cost negligible.
func fastGA() moo.GAConfig {
	return moo.GAConfig{Generations: 60, Population: 12, MutationProb: 0.01}
}

func fastBBSched() *core.BBSched {
	b := core.New()
	b.GA = fastGA()
	return b
}

// run drains w under m with the hand-scenario options (engineOpts: w=5
// window, seed 1, every job measured) plus any overrides.
func run(w trace.Workload, m sched.Method, extra ...Option) (*Result, error) {
	s, err := NewSimulator(w, m, engineOpts(extra...)...)
	if err != nil {
		return nil, err
	}
	return s.Run(context.Background())
}

func TestSingleJobRuns(t *testing.T) {
	j := job.MustNew(0, 0, 100, 100, job.NewDemand(4, 10, 0))
	was := *j
	w := mkWorkload(tinySystem(10, 100), j)
	res, err := run(w, sched.Baseline{})
	if err != nil {
		t.Fatal(err)
	}
	if res.TotalJobs != 1 {
		t.Fatalf("total jobs = %d", res.TotalJobs)
	}
	if !reflect.DeepEqual(*w.Jobs[0], was) {
		t.Fatal("Run mutated the input workload")
	}
	if res.MakespanSec != 100 {
		t.Fatalf("makespan = %d, want 100", res.MakespanSec)
	}
}

func TestSequentialWhenMachineFull(t *testing.T) {
	// Two full-machine jobs: the second waits for the first.
	a := job.MustNew(0, 0, 100, 100, job.NewDemand(10, 0, 0))
	b := job.MustNew(1, 0, 100, 100, job.NewDemand(10, 0, 0))
	w := mkWorkload(tinySystem(10, 0), a, b)
	res, err := run(w, sched.Baseline{})
	if err != nil {
		t.Fatal(err)
	}
	if res.MakespanSec != 200 {
		t.Fatalf("makespan = %d, want 200 (sequential)", res.MakespanSec)
	}
}

func TestParallelWhenFits(t *testing.T) {
	a := job.MustNew(0, 0, 100, 100, job.NewDemand(5, 0, 0))
	b := job.MustNew(1, 0, 100, 100, job.NewDemand(5, 0, 0))
	w := mkWorkload(tinySystem(10, 0), a, b)
	res, err := run(w, sched.Baseline{})
	if err != nil {
		t.Fatal(err)
	}
	if res.MakespanSec != 100 {
		t.Fatalf("makespan = %d, want 100 (parallel)", res.MakespanSec)
	}
}

func TestBackfillShortensMakespan(t *testing.T) {
	// J0 holds 8/10 nodes for 100s. J1 (head) needs 10 nodes. J2 needs 2
	// nodes for 50s: backfills beside J0 only when EASY is on.
	j0 := job.MustNew(0, 0, 100, 100, job.NewDemand(8, 0, 0))
	j1 := job.MustNew(1, 1, 100, 100, job.NewDemand(10, 0, 0))
	j2 := job.MustNew(2, 2, 50, 50, job.NewDemand(2, 0, 0))
	w := mkWorkload(tinySystem(10, 0), j0, j1, j2)

	on, err := run(w, sched.Baseline{})
	if err != nil {
		t.Fatal(err)
	}
	off, err := run(w, sched.Baseline{}, WithBackfill(false))
	if err != nil {
		t.Fatal(err)
	}
	if on.MakespanSec >= off.MakespanSec {
		t.Fatalf("backfill on %d >= off %d", on.MakespanSec, off.MakespanSec)
	}
	if on.MakespanSec != 200 { // J2 inside J0's window, J1 after J0
		t.Fatalf("makespan with backfill = %d, want 200", on.MakespanSec)
	}
}

func TestBackfillDoesNotDelayHead(t *testing.T) {
	// Same as above but J2 runs 500s: starting it would delay J1.
	j0 := job.MustNew(0, 0, 100, 100, job.NewDemand(8, 0, 0))
	j1 := job.MustNew(1, 1, 100, 100, job.NewDemand(10, 0, 0))
	j2 := job.MustNew(2, 2, 500, 500, job.NewDemand(2, 0, 0))
	w := mkWorkload(tinySystem(10, 0), j0, j1, j2)
	res, err := run(w, sched.Baseline{})
	if err != nil {
		t.Fatal(err)
	}
	// J1 must start at 100 (when J0 ends), J2 only after J1 at 200.
	if w2 := res; w2.MakespanSec != 700 {
		t.Fatalf("makespan = %d, want 700 (J2 after J1)", res.MakespanSec)
	}
}

// TestOverflowingWalltimeRefused: a walltime estimate past job.MaxDemand
// would wrap now + estimate negative, so EASY would take a job that runs
// for ever for one that ends before the head's shadow time and start it
// ahead of the head. Such a job is refused; one at the cap waits behind
// the head.
func TestOverflowingWalltimeRefused(t *testing.T) {
	j0 := job.MustNew(0, 0, 100, 100, job.NewDemand(9, 0, 0))
	j1 := job.MustNew(1, 1, 100, 100, job.NewDemand(10, 0, 0))
	j2 := &job.Job{ID: 2, SubmitTime: 2, Runtime: 1000, WalltimeEst: math.MaxInt64, Demand: job.NewDemand(1, 0, 0)}
	if _, err := NewSimulator(mkWorkload(tinySystem(10, 0), j0, j1, j2), sched.Baseline{}, engineOpts()...); err == nil {
		t.Fatal("a walltime estimate of MaxInt64 was accepted")
	}
	j2.WalltimeEst = job.MaxDemand
	res, err := run(mkWorkload(tinySystem(10, 0), j0, j1, j2), sched.Baseline{})
	if err != nil {
		t.Fatal(err)
	}
	// J1 runs [100, 200) as J0 ends; J2 after it, [200, 1200).
	if res.MakespanSec != 1200 {
		t.Fatalf("makespan = %d, want 1200 (J2 after J1)", res.MakespanSec)
	}
}

func TestDependencyOrdering(t *testing.T) {
	a := job.MustNew(0, 0, 100, 100, job.NewDemand(1, 0, 0))
	b := job.MustNew(1, 0, 50, 50, job.NewDemand(1, 0, 0))
	b.Deps = []int{0}
	w := mkWorkload(tinySystem(10, 0), a, b)
	res, err := run(w, sched.Baseline{})
	if err != nil {
		t.Fatal(err)
	}
	// b cannot start before a finishes even though nodes are free.
	if res.MakespanSec != 150 {
		t.Fatalf("makespan = %d, want 150", res.MakespanSec)
	}
}

func TestUsageMetricsAccounting(t *testing.T) {
	// One job: 5 of 10 nodes, 50 of 100 BB for the whole measured span.
	j := job.MustNew(0, 0, 1000, 1000, job.NewDemand(5, 50, 0))
	j2 := job.MustNew(1, 1000, 1, 1, job.NewDemand(1, 0, 0)) // horizon marker
	w := mkWorkload(tinySystem(10, 100), j, j2)
	res, err := run(w, sched.Baseline{})
	if err != nil {
		t.Fatal(err)
	}
	// Measured window ≈ [0, 1000]; j uses 50% nodes, 50% BB.
	if res.NodeUsage < 0.45 || res.NodeUsage > 0.55 {
		t.Fatalf("NodeUsage = %v, want ~0.5", res.NodeUsage)
	}
	if res.BBUsage < 0.45 || res.BBUsage > 0.55 {
		t.Fatalf("BBUsage = %v, want ~0.5", res.BBUsage)
	}
}

func TestWaitTimeMetric(t *testing.T) {
	// Machine-filling first job forces the second to wait 100s.
	a := job.MustNew(0, 0, 100, 100, job.NewDemand(10, 0, 0))
	b := job.MustNew(1, 0, 100, 100, job.NewDemand(10, 0, 0))
	w := mkWorkload(tinySystem(10, 0), a, b)
	res, err := run(w, sched.Baseline{})
	if err != nil {
		t.Fatal(err)
	}
	if res.MeasuredJobs != 2 {
		t.Fatalf("measured jobs = %d", res.MeasuredJobs)
	}
	if res.AvgWaitSec != 50 { // (0 + 100) / 2
		t.Fatalf("AvgWaitSec = %v, want 50", res.AvgWaitSec)
	}
}

func TestWarmupCooldownTrimming(t *testing.T) {
	var jobs []*job.Job
	for i := 0; i < 10; i++ {
		jobs = append(jobs, job.MustNew(i, int64(i*100), 10, 10, job.NewDemand(1, 0, 0)))
	}
	w := mkWorkload(tinySystem(10, 0), jobs...)
	res, err := run(w, sched.Baseline{}, WithMeasurement(0.25, 0.25))
	if err != nil {
		t.Fatal(err)
	}
	// Horizon 900: warm-up trims submits < 225, cool-down trims > 675,
	// leaving submits 300, 400, 500, 600.
	if res.MeasuredJobs != 4 {
		t.Fatalf("measured jobs = %d, want 4", res.MeasuredJobs)
	}
}

func TestAllMethodsDrainGeneratedWorkload(t *testing.T) {
	sys := trace.Scale(trace.Cori(), 128)
	w := trace.Generate(trace.GenConfig{System: sys, Jobs: 120, Seed: 5})
	methods := []sched.Method{
		sched.Baseline{},
		sched.BinPacking{},
		sched.NewWeighted("Weighted", 0.5, 0.5, fastGA()),
		&sched.Constrained{MethodName: "Constrained_CPU", Target: sched.NodeUtil, GA: fastGA()},
		fastBBSched(),
	}
	for _, m := range methods {
		res, err := run(w, m)
		if err != nil {
			t.Fatalf("%s: %v", m.Name(), err)
		}
		if res.SchedInvocations == 0 {
			t.Fatalf("%s: no scheduling invocations", m.Name())
		}
		if res.NodeUsage <= 0 || res.NodeUsage > 1 {
			t.Fatalf("%s: NodeUsage = %v out of (0,1]", m.Name(), res.NodeUsage)
		}
	}
}

func TestWFPWorkloadDrains(t *testing.T) {
	sys := trace.Scale(trace.Theta(), 64)
	w := trace.Generate(trace.GenConfig{System: sys, Jobs: 100, Seed: 7})
	res, err := run(w, fastBBSched())
	if err != nil {
		t.Fatal(err)
	}
	if res.MeasuredJobs == 0 {
		t.Fatal("nothing measured")
	}
}

func TestSSDWorkloadDrains(t *testing.T) {
	sys := trace.Scale(trace.Theta(), 64)
	base := trace.Generate(trace.GenConfig{System: sys, Jobs: 80, Seed: 9})
	w := trace.AddSSD(base, "ssd", trace.S6, 11)
	b := core.NewFourObjective()
	b.GA = fastGA()
	res, err := run(w, b)
	if err != nil {
		t.Fatal(err)
	}
	if res.SSDUsage <= 0 {
		t.Fatalf("SSDUsage = %v, want > 0", res.SSDUsage)
	}
	if res.WastedSSDFrac < 0 {
		t.Fatalf("WastedSSDFrac = %v, want >= 0", res.WastedSSDFrac)
	}
}

func TestDeterminism(t *testing.T) {
	sys := trace.Scale(trace.Cori(), 128)
	w := trace.Generate(trace.GenConfig{System: sys, Jobs: 100, Seed: 13})
	a, err := run(w, fastBBSched())
	if err != nil {
		t.Fatal(err)
	}
	b, err := run(w, fastBBSched())
	if err != nil {
		t.Fatal(err)
	}
	if a.AvgWaitSec != b.AvgWaitSec || a.NodeUsage != b.NodeUsage || a.MakespanSec != b.MakespanSec {
		t.Fatalf("same seed diverged: %+v vs %+v", a.Report, b.Report)
	}
}

func TestDependentWorkloadDrains(t *testing.T) {
	sys := trace.Scale(trace.Cori(), 128)
	w := trace.Generate(trace.GenConfig{System: sys, Jobs: 100, Seed: 17, DependencyFraction: 0.3})
	res, err := run(w, sched.Baseline{})
	if err != nil {
		t.Fatal(err)
	}
	if res.TotalJobs != 100 {
		t.Fatalf("jobs = %d", res.TotalJobs)
	}
}

func TestInvalidWorkloadRejected(t *testing.T) {
	j := job.MustNew(0, 0, 100, 100, job.NewDemand(100, 0, 0)) // > machine
	w := mkWorkload(tinySystem(10, 0), j)
	if _, err := run(w, sched.Baseline{}); err == nil {
		t.Fatal("oversized job accepted")
	}
}

func TestInvalidPluginConfigRejected(t *testing.T) {
	j := job.MustNew(0, 0, 100, 100, job.NewDemand(1, 0, 0))
	w := mkWorkload(tinySystem(10, 0), j)
	if _, err := run(w, sched.Baseline{}, WithWindow(-3, 0)); err == nil {
		t.Fatal("invalid plugin config accepted")
	}
}

func TestStarvationBoundEventuallyRunsBigJob(t *testing.T) {
	// Continuous stream of small jobs + one big job; with bin packing and
	// no starvation bound the big job could starve behind the stream.
	// The bound forces it through.
	var jobs []*job.Job
	big := job.MustNew(0, 0, 100, 100, job.NewDemand(9, 0, 0))
	jobs = append(jobs, big)
	for i := 1; i <= 60; i++ {
		jobs = append(jobs, job.MustNew(i, int64(i), 40, 40, job.NewDemand(2, 0, 0)))
	}
	w := mkWorkload(tinySystem(10, 0), jobs...)
	res, err := run(w, sched.BinPacking{}, WithWindow(4, 5))
	if err != nil {
		t.Fatal(err)
	}
	if res.TotalJobs != 61 {
		t.Fatalf("total = %d", res.TotalJobs)
	}
}

func TestSchedulerOverheadRecorded(t *testing.T) {
	sys := trace.Scale(trace.Cori(), 128)
	w := trace.Generate(trace.GenConfig{System: sys, Jobs: 60, Seed: 19})
	res, err := run(w, fastBBSched())
	if err != nil {
		t.Fatal(err)
	}
	if res.AvgDecisionTime <= 0 || res.MaxDecisionTime < res.AvgDecisionTime {
		t.Fatalf("decision timing wrong: avg %v max %v", res.AvgDecisionTime, res.MaxDecisionTime)
	}
}
