package lp_test

import (
	"testing"

	"bbsched/internal/cluster"
	"bbsched/internal/job"
	"bbsched/internal/lp"
	"bbsched/internal/moo"
	"bbsched/internal/rng"
	"bbsched/internal/sched"
)

// ssdWindow builds a window of random SSD-demanding jobs on a two-class
// SSD machine tight enough that the node row binds and placement wastes
// capacity — the §5 shape.
func ssdWindow(tb testing.TB, w int, seed uint64) ([]*job.Job, *cluster.Cluster) {
	tb.Helper()
	s := rng.New(seed)
	cl := cluster.MustNew(cluster.Config{
		Name: "ssd", Nodes: 16, BurstBufferGB: 4000,
		SSDClasses: []cluster.SSDClass{{CapacityGB: 128, Count: 8}, {CapacityGB: 256, Count: 8}},
	})
	jobs := make([]*job.Job, w)
	for i := range jobs {
		per := []int64{0, 64, 100, 200}[s.Intn(4)]
		jobs[i] = job.MustNew(i+1, 0, 600, 600,
			job.NewDemand(1+s.Intn(6), int64(s.Intn(1200)), per))
	}
	return jobs, cl
}

// TestOracleScalarizedSSD extends the oracle suite to the scalarized §5
// build: the four-objective equal-weight scalarization — SSD waste
// linearized at build time — solved by LP relaxation + rounding must land
// within ratio 0.9 of the exact branch-and-bound optimum on every ≤24-job
// SSD window. The waste columns are an alone-on-the-free-machine
// approximation, so rounding (which scores candidates through the true
// Evaluate) carries the accuracy burden this test pins.
func TestOracleScalarizedSSD(t *testing.T) {
	const ratio = 0.9
	objs := sched.FourObjectives()
	for _, w := range []int{6, 10, 16, 20, 24} {
		for _, seed := range []uint64{1, 2, 3} {
			jobs, cl := ssdWindow(t, w, seed*1000+uint64(w))
			totals := sched.TotalsOf(cl.Config())
			den := totals.Denominators(objs)
			mkCtx := func() *sched.Context {
				return &sched.Context{Window: jobs, Snap: cl.Snapshot(), Totals: totals, Rand: rng.New(seed)}
			}
			// value recomputes the method's scalarization for a returned
			// selection from the problem's own (placement-true) Evaluate.
			value := func(kind string, sel []int) float64 {
				p := sched.NewSelectionProblem(jobs, cl.Snapshot(), objs)
				g := moo.NewGenome(len(jobs))
				for _, i := range sel {
					g.SetBit(i, true)
				}
				vals, feasible := p.Evaluate(g)
				if !feasible {
					t.Fatalf("w=%d seed=%d: %s returned infeasible selection %v", w, seed, kind, sel)
				}
				v := 0.0
				for k := range vals {
					v += 0.25 * vals[k] / den[k]
				}
				return v
			}

			exactM := sched.NewWeightedFor("W4_exact", objs, moo.DefaultGAConfig())
			exactM.SetSolver(lp.NewExact(lp.DefaultConfig()))
			exactSel, err := exactM.Select(mkCtx())
			if err != nil {
				t.Fatal(err)
			}
			lpM := sched.NewWeightedFor("W4_lp", objs, moo.DefaultGAConfig())
			lpM.SetSolver(lp.New(lp.DefaultConfig()))
			lpSel, err := lpM.Select(mkCtx())
			if err != nil {
				t.Fatal(err)
			}

			best := value("exact", exactSel)
			got := value("lp", lpSel)
			if best <= 0 {
				// A non-positive optimum (waste dominating) makes the ratio
				// meaningless; the feasibility checks above still ran.
				continue
			}
			if got < ratio*best {
				t.Errorf("w=%d seed=%d: scalarized §5 LP value %v below %.0f%% of exact optimum %v",
					w, seed, got, ratio*100, best)
			}
		}
	}
}
