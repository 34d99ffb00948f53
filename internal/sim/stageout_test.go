package sim

import (
	"bytes"
	"context"
	"testing"

	"bbsched/internal/core"
	"bbsched/internal/job"
	"bbsched/internal/moo"
	"bbsched/internal/sched"
	"bbsched/internal/trace"
)

func TestStageOutHoldsBBAfterNodes(t *testing.T) {
	// One BB job with a 50s stage-out on a 10-node / 100 GB machine,
	// followed by a job that needs the full burst buffer: it must wait for
	// the drain, not just the nodes.
	a := job.MustNew(0, 0, 100, 100, job.NewDemand(5, 100, 0))
	a.StageOutSec = 50
	b := job.MustNew(1, 0, 10, 10, job.NewDemand(5, 100, 0))
	w := mkWorkload(tinySystem(10, 100), a, b)
	res, err := run(w, sched.Baseline{})
	if err != nil {
		t.Fatal(err)
	}
	// a ends at 100, BB drains until 150, b runs 150..160.
	if res.MakespanSec != 160 {
		t.Fatalf("makespan = %d, want 160 (BB held through stage-out)", res.MakespanSec)
	}
}

func TestStageOutFreesNodesEarly(t *testing.T) {
	// A node-only job must start the moment the nodes free, mid stage-out.
	a := job.MustNew(0, 0, 100, 100, job.NewDemand(10, 100, 0))
	a.StageOutSec = 500
	b := job.MustNew(1, 0, 20, 20, job.NewDemand(10, 0, 0))
	w := mkWorkload(tinySystem(10, 100), a, b)
	res, err := run(w, sched.Baseline{})
	if err != nil {
		t.Fatal(err)
	}
	// b runs 100..120 while the BB drains until 600; the sim ends when the
	// last event (BB release) fires.
	if res.MakespanSec != 600 {
		t.Fatalf("makespan = %d, want 600 (drain is the last event)", res.MakespanSec)
	}
	if res.AvgWaitSec != 50 { // waits (0 + 100)/2
		t.Fatalf("avg wait = %v, want 50 (node job not delayed by drain)", res.AvgWaitSec)
	}
}

func TestStageOutBBUsageIntegral(t *testing.T) {
	// BB held 0..150 (100 run + 50 drain) out of a 150s window: the BB
	// usage integral must include the drain.
	a := job.MustNew(0, 0, 100, 100, job.NewDemand(1, 100, 0))
	a.StageOutSec = 50
	marker := job.MustNew(1, 150, 1, 1, job.NewDemand(1, 0, 0))
	w := mkWorkload(tinySystem(10, 100), a, marker)
	res, err := run(w, sched.Baseline{})
	if err != nil {
		t.Fatal(err)
	}
	if res.BBUsage < 0.95 {
		t.Fatalf("BBUsage = %v, want ~1.0 (drain counted)", res.BBUsage)
	}
}

func TestStageOutBackfillRespectsDrain(t *testing.T) {
	// Head job needs the full BB. A backfill candidate with stage-out
	// whose drain would outlive the head's shadow must not start.
	hold := job.MustNew(0, 0, 100, 100, job.NewDemand(8, 0, 0))
	head := job.MustNew(1, 1, 100, 100, job.NewDemand(10, 100, 0))
	// Candidate: 2 nodes, small BB, 30s walltime but 200s drain → ends
	// effectively at ~230 > shadow (100): would delay the head's BB.
	cand := job.MustNew(2, 2, 30, 30, job.NewDemand(2, 50, 0))
	cand.StageOutSec = 200
	w := mkWorkload(tinySystem(10, 100), hold, head, cand)
	res, err := run(w, sched.Baseline{})
	if err != nil {
		t.Fatal(err)
	}
	// Drain-aware EASY: the candidate must not backfill (its 200s drain
	// holds BB past the head's shadow at t=100). Head runs 100..200, the
	// candidate only after: waits are 0, 99, 198 → avg 99. If the drain
	// were ignored, the candidate would start at t=2 and its BB would
	// push the head to t≈232 → avg ≈ 110.
	if res.AvgWaitSec > 105 {
		t.Fatalf("avg wait = %v: head delayed by a draining backfill", res.AvgWaitSec)
	}
}

func TestGeneratorStageOut(t *testing.T) {
	sys := trace.Scale(trace.Theta(), 64)
	w := trace.Generate(trace.GenConfig{System: sys, Jobs: 300, Seed: 3, BBDrainGBps: 10})
	withBB, withStage := 0, 0
	for _, j := range w.Jobs {
		if j.Demand.BB() > 0 {
			withBB++
			if j.StageOutSec != int64(float64(j.Demand.BB())/10) {
				t.Fatalf("job %d stage-out %d for %d GB", j.ID, j.StageOutSec, j.Demand.BB())
			}
			if j.StageOutSec > 0 {
				withStage++
			}
		} else if j.StageOutSec != 0 {
			t.Fatalf("job %d has stage-out without BB", j.ID)
		}
	}
	if withBB == 0 || withStage == 0 {
		t.Fatalf("no staged jobs generated (bb=%d stage=%d)", withBB, withStage)
	}
	if err := w.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestWithStageOutRetrofit(t *testing.T) {
	sys := trace.Scale(trace.Theta(), 64)
	base := trace.Generate(trace.GenConfig{System: sys, Jobs: 200, Seed: 5})
	_, heavy := trace.BBFloors(base)
	s4 := trace.ExpandBB(base, "S4", 0.75, heavy, 7)
	staged := trace.WithStageOut(s4, 50)
	n := 0
	for _, j := range staged.Jobs {
		if j.Demand.BB() > 0 {
			if j.StageOutSec != int64(float64(j.Demand.BB())/50) {
				t.Fatalf("wrong stage-out on job %d", j.ID)
			}
			n++
		}
	}
	if n < 100 {
		t.Fatalf("only %d staged jobs", n)
	}
	// Original untouched.
	for _, j := range s4.Jobs {
		if j.StageOutSec != 0 {
			t.Fatal("WithStageOut mutated its input")
		}
	}
	// And the staged workload still drains through the simulator.
	res, err := run(staged, sched.Baseline{})
	if err != nil {
		t.Fatal(err)
	}
	if res.TotalJobs != 200 {
		t.Fatalf("total = %d", res.TotalJobs)
	}
}

func TestPersistentBBReservation(t *testing.T) {
	// Half the pool persistently reserved: a job needing more than the
	// remainder can never run → workload with such a job must error, and
	// a fitting job sees reduced capacity.
	sys := tinySystem(10, 100)
	sys.PersistentBBGB = 50
	ok := job.MustNew(0, 0, 100, 100, job.NewDemand(1, 50, 0))
	w := mkWorkload(sys, ok)
	res, err := run(w, sched.Baseline{})
	if err != nil {
		t.Fatal(err)
	}
	// Reserved 50 + job 50 = full pool for the job's duration.
	if res.BBUsage < 0.9 {
		t.Fatalf("BBUsage = %v, want ~1.0 (reservation counted)", res.BBUsage)
	}

	// A job needing 60 GB with only 50 usable: it stays queued forever —
	// the sim surfaces this as a drain failure rather than hanging.
	stuck := job.MustNew(0, 0, 100, 100, job.NewDemand(1, 60, 0))
	w2 := mkWorkload(sys, stuck)
	if _, err := run(w2, sched.Baseline{}); err == nil {
		t.Fatal("unschedulable job (pool shrunk by reservation) not reported")
	}
}

func TestWithPersistentBBHelper(t *testing.T) {
	m := trace.WithPersistentBB(trace.Cori(), 1.0/3)
	if m.PersistentBBGB != trace.Cori().Cluster.BurstBufferGB/3 {
		t.Fatalf("persistent = %d", m.PersistentBBGB)
	}
	if trace.WithPersistentBB(trace.Cori(), -1).PersistentBBGB != 0 {
		t.Fatal("negative fraction should clamp to 0")
	}
	scaled := trace.Scale(m, 64)
	if scaled.PersistentBBGB != m.PersistentBBGB/64 {
		t.Fatal("Scale should scale the persistent reservation")
	}
}

// TestExtensionsComposeInOneRun runs the beyond-the-paper pieces together
// in one simulation: a persistent BB reservation, an S4-style expansion
// with stage-out phases, the adaptive trade-off controller under a
// dynamic window, and the event log.
func TestExtensionsComposeInOneRun(t *testing.T) {
	system := trace.WithPersistentBB(trace.Scale(trace.Theta(), 64), 0.1)
	base := trace.Generate(trace.GenConfig{System: system, Jobs: 60, Seed: 2})
	_, heavy := trace.BBFloors(base)
	w := trace.ExpandBB(base, "ext-S4", 0.5, heavy, 3)
	w = trace.WithStageOut(w, 25)

	inner := core.New()
	inner.GA = moo.GAConfig{Generations: 40, Population: 10, MutationProb: 0.01}
	var events bytes.Buffer
	s, err := NewSimulator(w, core.NewAdaptive(inner),
		WithPlugin(core.PluginConfig{
			DynamicWindow:   true,
			StarvationBound: 50,
		}),
		WithSeed(1), WithEventLog(&events))
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if res.Method != "BBSched_Adaptive" {
		t.Fatalf("method = %s", res.Method)
	}
	recs, err := ReadEventLog(&events)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) < 120 { // 60 submits + 60 starts at minimum
		t.Fatalf("event log has %d records", len(recs))
	}
}
