package sched_test

import (
	"math"
	"slices"
	"testing"

	"bbsched/internal/cluster"
	"bbsched/internal/job"
	"bbsched/internal/moo"
	"bbsched/internal/rng"
	"bbsched/internal/sched"
	"bbsched/internal/sched/schedtest"
)

// noLiveSet is a problem with its live set hidden: evaluation and repair
// pass through, moo.LiveSetter does not, so SolveGA runs all G generations
// on it — draw for draw what it ran before it had a certificate.
type noLiveSet struct{ p repairable }

type repairable interface {
	moo.Problem
	moo.Repairer
}

func (n noLiveSet) Dim() int                                  { return n.p.Dim() }
func (n noLiveSet) NumObjectives() int                        { return n.p.NumObjectives() }
func (n noLiveSet) Evaluate(g moo.Genome) ([]float64, bool)   { return n.p.Evaluate(g) }
func (n noLiveSet) Repair(g moo.Genome, drop func(n int) int) { n.p.Repair(g, drop) }

// certifiedGA is large enough that its G·P = 4 000 evaluations cover the
// certificate's walk over every live set up to eleven jobs (2^11 ≤ 4 000),
// and its G = 200 the walk over busy ones beyond, and small enough for a
// few hundred paired solves.
var certifiedGA = moo.GAConfig{Generations: 200, Population: 20, MutationProb: 0.01}

// checkCertifiedStop is the differential check behind the test and the
// fuzz target: on the decision drawn from seed, as the multi-objective
// problem and as its weighted scalarization, SolveGA with the live set
// declared returns the genomes and the bit-identical objectives it returns
// with the live set hidden. It reports how many of the two solves stopped
// before generation G.
func checkCertifiedStop(t testing.TB, seed uint64) (stopped int) {
	cfg, ctx := schedtest.Window(seed)
	objectives := sched.ObjectivesFor(cfg, len(cfg.SSDClasses) > 0)
	weights := make([]float64, len(objectives))
	for k := range weights {
		weights[k] = 1 / float64(1+k)
	}
	multi := sched.NewSelectionProblem(ctx.Window, ctx.Snap, objectives)
	scalar := sched.NewScalarized(sched.NewSelectionProblem(ctx.Window, ctx.Snap, objectives), weights, ctx.Totals)
	for pi, p := range []repairable{multi, scalar.(repairable)} {
		ev := moo.NewEvaluator(p)
		got, gotErr := moo.SolveGA(ev, certifiedGA, rng.New(seed))
		want, wantErr := moo.SolveGA(noLiveSet{p}, certifiedGA, rng.New(seed))
		if (gotErr != nil) != (wantErr != nil) {
			t.Fatalf("seed %d problem %d: error %v, with the live set hidden %v", seed, pi, gotErr, wantErr)
		}
		if len(got) != len(want) {
			t.Fatalf("seed %d problem %d: front of %d, with the live set hidden %d", seed, pi, len(got), len(want))
		}
		for i := range want {
			if !got[i].Genome.Equal(want[i].Genome) {
				t.Fatalf("seed %d problem %d: member %d selects %v, with the live set hidden %v",
					seed, pi, i, got[i].Genome, want[i].Genome)
			}
			for k := range want[i].Objectives {
				if math.Float64bits(got[i].Objectives[k]) != math.Float64bits(want[i].Objectives[k]) {
					t.Fatalf("seed %d problem %d: member %d scores %v, with the live set hidden %v",
						seed, pi, i, got[i].Objectives, want[i].Objectives)
				}
			}
		}
		if ev.Stats().Generations < uint64(certifiedGA.Generations) {
			stopped++
		}
	}
	return stopped
}

// TestGACertifiedStopMatchesFullRun: stopping on the certificate changes
// nothing a solve returns — over random windows on plain, extra-dimension
// and two-SSD-class machines, dead ones (no certificate) included.
func TestGACertifiedStopMatchesFullRun(t *testing.T) {
	windows := 300
	if testing.Short() {
		windows = 75 // the hidden-live-set side runs every generation, slowly under -race
	}
	stopped := 0
	for seed := uint64(0); seed < uint64(windows); seed++ {
		stopped += checkCertifiedStop(t, seed)
	}
	// About half the windows are dead and some live sets exceed the budget;
	// the rest should mostly settle: at least one solve in eight.
	t.Logf("%d of %d solves stopped on their certificate", stopped, 2*windows)
	if stopped < windows/4 {
		t.Fatalf("%d of %d solves stopped on their certificate: the check compares little", stopped, 2*windows)
	}
}

// FuzzGACertifiedStop walks the same check over fuzzer-chosen seeds.
func FuzzGACertifiedStop(f *testing.F) {
	for _, seed := range []uint64{0, 1, 2, 42, 1 << 40} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, seed uint64) {
		checkCertifiedStop(t, seed)
	})
}

// TestFeasibleGenomesInsideLiveSet is the guarantee LiveSet gives moo,
// checked by enumeration on windows of up to 16 jobs on all three machine
// kinds: the live set is the jobs whose one-job genome Evaluate accepts;
// selecting one more job never makes an infeasible genome feasible (the
// premise the certificate's walk prunes by — on the SSD machine AllocInto
// places jobs greedily by class); so every feasible genome selects live
// jobs only, and the exhaustive front over the whole window lies inside
// the live set.
func TestFeasibleGenomesInsideLiveSet(t *testing.T) {
	checked := 0
	kinds := map[string]int{}
	for seed := uint64(0); checked < 120; seed++ {
		cfg, ctx := schedtest.Window(seed)
		n := len(ctx.Window)
		if n > 16 || (n > 12 && seed%4 > 0) { // 2^16 evaluations on a few, 2^12 on the rest
			continue
		}
		checked++
		switch {
		case len(cfg.SSDClasses) > 0:
			kinds["SSD classes"]++
		case len(cfg.Extra) > 0:
			kinds["extra dimension"]++
		default:
			kinds["plain"]++
		}
		p := sched.NewSelectionProblem(ctx.Window, ctx.Snap, sched.ObjectivesFor(cfg, len(cfg.SSDClasses) > 0))
		live, ok := p.LiveSet(nil)
		if !ok {
			t.Fatalf("seed %d: a generated window declares no live set", seed)
		}
		var liveMask uint64
		for _, i := range live {
			liveMask |= 1 << uint(i)
		}
		g := moo.NewGenome(n)
		for i := 0; i < n; i++ {
			g.SetBit(i, true)
			_, feasible := p.Evaluate(g)
			g.SetBit(i, false)
			if feasible != slices.Contains(live, i) {
				t.Fatalf("seed %d: job %d alone is feasible=%v, live set %v", seed, i, feasible, live)
			}
		}
		feasible := make([]bool, 1<<uint(n))
		for mask := range feasible {
			for i := 0; i < n; i++ {
				g.SetBit(i, mask&(1<<uint(i)) != 0)
			}
			if _, feasible[mask] = p.Evaluate(g); feasible[mask] && uint64(mask)&^liveMask != 0 {
				t.Fatalf("seed %d: feasible genome %v selects outside the live set %v", seed, g, live)
			}
		}
		for mask, ok := range feasible {
			for i := 0; i < n && !ok; i++ {
				if feasible[mask|1<<uint(i)] {
					t.Fatalf("seed %d (%d SSD classes): selection %b does not fit, yet fits with job %d added",
						seed, len(cfg.SSDClasses), mask, i)
				}
			}
		}
		front, err := moo.SolveExhaustive(p)
		if err != nil {
			t.Fatal(err)
		}
		for _, sol := range front {
			if sol.Genome.Words()[0]&^liveMask != 0 {
				t.Fatalf("seed %d: exhaustive front member %v selects outside the live set %v", seed, sol.Genome, live)
			}
		}
	}
	for _, kind := range []string{"plain", "extra dimension", "SSD classes"} {
		if kinds[kind] < 20 {
			t.Fatalf("%d of %d windows on the %s machine: %v", kinds[kind], checked, kind, kinds)
		}
	}
}

// TestLiveSetRefusesNegativeDemand: a hand-built negative demand hands
// resources back to the jobs placed after it, so a job that does not fit
// alone can fit behind it — the problem must declare no live set, and the
// GA must run all its generations.
func TestLiveSetRefusesNegativeDemand(t *testing.T) {
	cfg := cluster.Config{Name: "neg", Nodes: 16, BurstBufferGB: 100}
	snap := cluster.MustNew(cfg).Snapshot()
	window := []*job.Job{
		{ID: 1, Demand: job.NewDemand(4, -50, 0)},
		{ID: 2, Demand: job.NewDemand(4, 140, 0)}, // fits only behind job 1
		{ID: 3, Demand: job.NewDemand(2, 10, 0)},
	}
	p := sched.NewSelectionProblem(window, snap, sched.TwoObjectives())
	g := moo.FromBools([]bool{true, true, false})
	if _, feasible := p.Evaluate(g); !feasible {
		t.Fatal("the window no longer shows what the guard is for: {1,2} should be feasible")
	}
	if live, ok := p.LiveSet(nil); ok {
		t.Fatalf("live set %v declared over a negative demand", live)
	}
	ev := moo.NewEvaluator(p)
	if _, err := moo.SolveGA(ev, certifiedGA, rng.New(1)); err != nil {
		t.Fatal(err)
	}
	if gens := ev.Stats().Generations; gens != uint64(certifiedGA.Generations) {
		t.Fatalf("ran %d of %d generations with no live set declared", gens, certifiedGA.Generations)
	}
}
