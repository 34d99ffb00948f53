package experiments

import (
	"testing"

	"bbsched/internal/moo"
	"bbsched/internal/sched"
	"bbsched/internal/sim"
	"bbsched/internal/trace"
)

// TestPaperClaimsOnS4 checks the paper's headline qualitative claims on a
// burst-buffer-bound workload (deterministic under the fixed seed):
//
//  1. BBSched reduces average wait versus the naive baseline (§4.4 reports
//     up to 41%).
//  2. BBSched's burst-buffer usage is at least the baseline's (§4.4: best
//     BB usage on all workloads).
//  3. Constrained_BB sacrifices node usage relative to Constrained_CPU
//     (the biased-method trade-off of Figs. 6–7).
func TestPaperClaimsOnS4(t *testing.T) {
	// Paper GA configuration and a trace long enough for sustained
	// contention: BBSched's advantage is a steady-state effect (the paper
	// averages over months); short traces are dominated by fill/drain
	// transients where any method can win a given seed. In -short mode a
	// reduced workload still exercises the full pipeline but only the
	// transient-robust claims are asserted.
	o := Defaults()
	o.Jobs = 400
	if testing.Short() {
		o.Jobs = 100
		o.GA = moo.GAConfig{Generations: 100, Population: 16, MutationProb: 0.01}
	}
	_, theta := o.systems()
	base := trace.Generate(trace.GenConfig{System: theta, Jobs: o.Jobs, Seed: o.Seed})
	base.Name = "Theta-S4"
	_, heavy := trace.BBFloors(base)
	s4 := trace.ExpandBB(base, "Theta-S4", 0.75, heavy, o.Seed+4)

	run := func(m sched.Method) *sim.Result {
		t.Helper()
		res, err := runOne(s4, m, sim.WithPlugin(o.plugin()), sim.WithSeed(o.Seed))
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	baseline := run(sched.Baseline{})
	bbsched := run(bbsched2(o.GA))

	for _, r := range []*sim.Result{baseline, bbsched} {
		if r.TotalJobs != o.Jobs {
			t.Fatalf("%s finished %d of %d jobs", r.Method, r.TotalJobs, o.Jobs)
		}
		if r.NodeUsage <= 0 || r.NodeUsage > 1.0001 || r.BBUsage < 0 || r.BBUsage > 1.0001 {
			t.Fatalf("%s usages out of range: node %v, bb %v", r.Method, r.NodeUsage, r.BBUsage)
		}
	}
	// Claim 2 survives short traces: BBSched's burst-buffer usage stays at
	// least the baseline's.
	if bbsched.BBUsage < baseline.BBUsage-0.02 {
		t.Errorf("claim 2 failed: BBSched BB usage %.3f well below baseline %.3f",
			bbsched.BBUsage, baseline.BBUsage)
	}
	if testing.Short() {
		t.Logf("short mode (%d jobs): baseline wait %.0fs, BBSched wait %.0fs",
			o.Jobs, baseline.AvgWaitSec, bbsched.AvgWaitSec)
		return
	}

	ccpu := run(&sched.Constrained{MethodName: "Constrained_CPU", Target: sched.NodeUtil, GA: o.GA})
	cbb := run(&sched.Constrained{MethodName: "Constrained_BB", Target: sched.BBUtil, GA: o.GA})

	if bbsched.AvgWaitSec >= baseline.AvgWaitSec {
		t.Errorf("claim 1 failed: BBSched wait %.0fs >= baseline %.0fs",
			bbsched.AvgWaitSec, baseline.AvgWaitSec)
	}
	if cbb.NodeUsage > ccpu.NodeUsage+0.02 {
		t.Errorf("claim 3 failed: Constrained_BB node usage %.3f above Constrained_CPU %.3f",
			cbb.NodeUsage, ccpu.NodeUsage)
	}
	t.Logf("baseline wait %.0fs, BBSched wait %.0fs (%.1f%% reduction); BB usage %.1f%% vs %.1f%%",
		baseline.AvgWaitSec, bbsched.AvgWaitSec,
		100*(1-bbsched.AvgWaitSec/baseline.AvgWaitSec),
		100*baseline.BBUsage, 100*bbsched.BBUsage)
}
