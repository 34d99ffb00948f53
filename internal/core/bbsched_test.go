package core

import (
	"slices"
	"strings"
	"testing"

	"bbsched/internal/cluster"
	"bbsched/internal/job"
	"bbsched/internal/moo"
	"bbsched/internal/queue"
	"bbsched/internal/rng"
	"bbsched/internal/sched"
)

func table1() ([]*job.Job, *cluster.Cluster) {
	c := cluster.MustNew(cluster.Config{Name: "ex", Nodes: 100, BurstBufferGB: 100})
	jobs := []*job.Job{
		job.MustNew(1, 0, 100, 100, job.NewDemand(80, 20, 0)),
		job.MustNew(2, 1, 100, 100, job.NewDemand(10, 85, 0)),
		job.MustNew(3, 2, 100, 100, job.NewDemand(40, 5, 0)),
		job.MustNew(4, 3, 100, 100, job.NewDemand(10, 0, 0)),
		job.MustNew(5, 4, 100, 100, job.NewDemand(20, 0, 0)),
	}
	return jobs, c
}

func ctxFor(jobs []*job.Job, c *cluster.Cluster, seed uint64) *sched.Context {
	return &sched.Context{
		Now:    10,
		Window: jobs,
		Snap:   c.Snapshot(),
		Totals: sched.TotalsOf(c.Config()),
		Rand:   rng.New(seed),
	}
}

func sol(objs ...float64) moo.Solution {
	return moo.Solution{Objectives: objs}
}

func TestDecidePaperExample(t *testing.T) {
	// Table 1: preferred = (100, 20); solution (80, 90) improves BB by 70
	// points at a 20-point node cost; 70 > 2×20, so it replaces.
	front := []moo.Solution{sol(100, 20), sol(80, 90)}
	totals := sched.Totals{Nodes: 100, BBGB: 100}
	if got := Decide(front, sched.TwoObjectives(), totals, 2); got != 1 {
		t.Fatalf("Decide picked %d, want 1 (the 80/90 trade-off)", got)
	}
	// With a 4× threshold the swap no longer pays (70 < 4×20).
	if got := Decide(front, sched.TwoObjectives(), totals, 4); got != 0 {
		t.Fatalf("Decide(4x) picked %d, want 0", got)
	}
}

func TestDecidePrefersMaxNodeWithoutWorthwhileTradeoff(t *testing.T) {
	front := []moo.Solution{sol(100, 20), sol(90, 35)} // gain 15 < 2×10
	totals := sched.Totals{Nodes: 100, BBGB: 100}
	if got := Decide(front, sched.TwoObjectives(), totals, 2); got != 0 {
		t.Fatalf("Decide picked %d, want 0", got)
	}
}

func TestDecideMaxImprovementAmongCandidates(t *testing.T) {
	// Two qualifying trade-offs; pick the larger gain.
	front := []moo.Solution{sol(100, 10), sol(90, 60), sol(85, 80)}
	totals := sched.Totals{Nodes: 100, BBGB: 100}
	// Candidate 1: gain 50, loss 10 → 50 > 20 ✓. Candidate 2: gain 70,
	// loss 15 → 70 > 30 ✓ and larger gain.
	if got := Decide(front, sched.TwoObjectives(), totals, 2); got != 2 {
		t.Fatalf("Decide picked %d, want 2", got)
	}
}

func TestDecideTieBreaksTowardWindowFront(t *testing.T) {
	a := moo.Solution{Genome: moo.FromBools([]bool{false, true, true}), Objectives: []float64{50, 10}}
	b := moo.Solution{Genome: moo.FromBools([]bool{true, true, false}), Objectives: []float64{50, 10}}
	totals := sched.Totals{Nodes: 100, BBGB: 100}
	got := Decide([]moo.Solution{a, b}, sched.TwoObjectives(), totals, 2)
	if got != 1 {
		t.Fatalf("tie should break toward the selection containing the window head, got %d", got)
	}
}

func TestDecidePanicsOnEmptyFront(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	Decide(nil, sched.TwoObjectives(), sched.Totals{}, 2)
}

func TestDecideFourObjective(t *testing.T) {
	// §5 rule: summed gain on BB + SSD + waste reduction must exceed 4×
	// node loss.
	objs := sched.FourObjectives()
	totals := sched.Totals{Nodes: 100, BBGB: 100, SSDGB: 100}
	pref := sol(100, 10, 10, -50)
	// gain = (50-10)/100 + (50-10)/100 + (-10 - -50)/100 = 1.2; loss = 0.2;
	// 1.2 > 4×0.2 ✓
	swap := sol(80, 50, 50, -10)
	if got := Decide([]moo.Solution{pref, swap}, objs, totals, 4); got != 1 {
		t.Fatalf("four-objective Decide picked %d, want 1", got)
	}
	// Smaller gains: 0.3 < 4×0.2 → keep preferred.
	weak := sol(80, 20, 20, -40)
	if got := Decide([]moo.Solution{pref, weak}, objs, totals, 4); got != 0 {
		t.Fatalf("four-objective Decide picked %d, want 0", got)
	}
}

func TestBBSchedSelectsSolution3OnTable1(t *testing.T) {
	// The headline example: BBSched's decision rule swaps the 100%-node
	// solution for J2–J5 (80% node, 90% BB).
	jobs, c := table1()
	b := New()
	b.GA = moo.GAConfig{Generations: 300, Population: 20, MutationProb: 0.01}
	idx, err := b.Select(ctxFor(jobs, c, 1))
	if err != nil {
		t.Fatal(err)
	}
	var nodes, bb int64
	for _, i := range idx {
		nodes += int64(jobs[i].Demand.NodeCount())
		bb += jobs[i].Demand.BB()
	}
	if nodes != 80 || bb != 90 {
		t.Fatalf("BBSched chose (%d, %d) via %v, want (80, 90)", nodes, bb, idx)
	}
}

func TestBBSchedValidation(t *testing.T) {
	b := &BBSched{Objectives: []sched.Objective{sched.BBUtil}, GA: moo.DefaultGAConfig(), TradeoffFactor: 2}
	jobs, c := table1()
	if _, err := b.Select(ctxFor(jobs, c, 1)); err == nil || !strings.Contains(err.Error(), "node_util") {
		t.Fatalf("objective-0 validation missing: %v", err)
	}
	b2 := New()
	b2.TradeoffFactor = -1
	if _, err := b2.Select(ctxFor(jobs, c, 1)); err == nil {
		t.Fatal("negative trade-off factor accepted")
	}
	b3 := &BBSched{GA: moo.DefaultGAConfig()}
	if _, err := b3.Select(ctxFor(jobs, c, 1)); err == nil {
		t.Fatal("empty objectives accepted")
	}
}

func TestBBSchedEmptyWindow(t *testing.T) {
	_, c := table1()
	idx, err := New().Select(ctxFor(nil, c, 1))
	if err != nil || idx != nil {
		t.Fatalf("empty window: %v, %v", idx, err)
	}
}

// TestNewFourObjectiveDefaults: the §5 build is NewForObjectives over
// the four objectives, with the 4x trade-off rule, and New is the same
// constructor over the two §3.2 objectives with the 2x rule.
func TestNewFourObjectiveDefaults(t *testing.T) {
	b := NewForObjectives(sched.FourObjectives())
	if len(b.Objectives) != 4 || b.TradeoffFactor != 4 {
		t.Fatalf("four-objective defaults wrong: %+v", b)
	}
	if b.GA.Generations != 500 || b.GA.Population != 20 {
		t.Fatalf("GA defaults wrong: %+v", b.GA)
	}
	if two := New(); !slices.Equal(two.Objectives, sched.TwoObjectives()) || two.TradeoffFactor != 2 || two.GA != b.GA {
		t.Fatalf("two-objective defaults wrong: %+v", two)
	}
}

func TestPluginConfigValidate(t *testing.T) {
	if err := DefaultPluginConfig().Validate(); err != nil {
		t.Fatal(err)
	}
	if err := (PluginConfig{WindowSize: 0}).Validate(); err == nil {
		t.Fatal("zero window accepted")
	}
	if err := (PluginConfig{WindowSize: 5, StarvationBound: -1}).Validate(); err == nil {
		t.Fatal("negative bound accepted")
	}
	if _, err := NewPlugin(DefaultPluginConfig(), nil); err == nil {
		t.Fatal("nil method accepted")
	}
}

func pluginCtx(q *queue.Queue, c *cluster.Cluster, seed uint64) DecideContext {
	return DecideContext{
		Now:      10,
		Ranking:  q.Rank(10, func(int) bool { return false }, q.Len()),
		QueueLen: q.Len(),
		Snap:     c.Snapshot(),
		Totals:   sched.TotalsOf(c.Config()),
		Rand:     rng.New(seed),
	}
}

func TestPluginBaselinePass(t *testing.T) {
	jobs, c := table1()
	q := queue.New(queue.FCFS{})
	for _, j := range jobs {
		q.Add(j)
	}
	p, err := NewPlugin(PluginConfig{WindowSize: 5, StarvationBound: 50}, sched.Baseline{})
	if err != nil {
		t.Fatal(err)
	}
	started, err := p.Decide(pluginCtx(q, c, 1))
	if err != nil {
		t.Fatal(err)
	}
	if len(started) != 1 || started[0].ID != 1 {
		t.Fatalf("baseline pass started %v, want [J1]", idsOf(started))
	}
	// Unselected window jobs aged.
	for _, j := range jobs[1:] {
		if age := q.WindowAge(j.ID); age != 1 {
			t.Fatalf("job %d age = %d, want 1", j.ID, age)
		}
	}
	if q.WindowAge(jobs[0].ID) != 0 {
		t.Fatal("started job should not age")
	}
}

// TestPluginRefusesRankingNotMadeForWindow: Decide reads, forces from and
// ages only the queue's front, so a ranking whose front is wider or
// narrower than the window fails loudly instead of forcing a job from
// outside the window or leaving window jobs unaged.
func TestPluginRefusesRankingNotMadeForWindow(t *testing.T) {
	jobs, c := table1()
	q := queue.New(queue.FCFS{})
	for _, j := range jobs {
		q.Add(j)
	}
	p, err := NewPlugin(PluginConfig{WindowSize: 3, StarvationBound: 50}, sched.Baseline{})
	if err != nil {
		t.Fatal(err)
	}
	ctx := pluginCtx(q, c, 1)
	for _, front := range []int{1, 2, 4, 5} {
		ctx.Ranking = q.Pass(ctx.Now, func(int) bool { return false }, front)
		if _, err := p.Decide(ctx); err == nil {
			t.Errorf("a ranking made with front %d for a window of 3 was accepted", front)
		}
	}
	ctx.Ranking = q.Pass(ctx.Now, func(int) bool { return false }, 3)
	if _, err := p.Decide(ctx); err != nil {
		t.Fatalf("a ranking made for the window: %v", err)
	}
}

func TestPluginStarvationForcing(t *testing.T) {
	jobs, c := table1()
	q := queue.New(queue.FCFS{})
	// J2 has sat in the window past the bound: it must start even though
	// the baseline method would stop at it.
	for i, j := range jobs {
		q.AddAged(j, map[int]int{1: 50}[i])
	}
	p, err := NewPlugin(PluginConfig{WindowSize: 5, StarvationBound: 50}, sched.Baseline{})
	if err != nil {
		t.Fatal(err)
	}
	started, err := p.Decide(pluginCtx(q, c, 1))
	if err != nil {
		t.Fatal(err)
	}
	got := idsOf(started)
	if len(got) == 0 || got[0] != 2 {
		t.Fatalf("starved J2 not forced first: started %v", got)
	}
}

func TestPluginStarvedJobTooBigKeepsAging(t *testing.T) {
	cases := []struct {
		name     string
		cfg      cluster.Config
		occupied job.Demand
		starved  job.Demand
		mayFit   bool // the starved job passes the pass's prefilter
	}{
		// Most of the machine is occupied: the starved job's node count
		// alone rules it out.
		{"too many nodes", cluster.Config{Name: "x", Nodes: 10, BurstBufferGB: 10},
			job.NewDemand(5, 0, 0), job.NewDemand(10, 0, 0), false},
		// The prefilter's blind side: nodes and burst buffer fit the free
		// totals (4 ≤ 8, 10 ≤ 10), but only 3 nodes carry a 256 GB SSD, so
		// queue.Entry.MayFit passes the job on and AllocInto refuses it.
		{"too few nodes of its SSD class", cluster.Config{Name: "x", Nodes: 10, BurstBufferGB: 10,
			SSDClasses: []cluster.SSDClass{{CapacityGB: 128, Count: 7}, {CapacityGB: 256, Count: 3}}},
			job.NewDemand(2, 0, 0), job.NewDemand(4, 10, 256), true},
	}
	for _, tc := range cases {
		c := cluster.MustNew(tc.cfg)
		if _, err := c.Allocate(job.MustNew(3, 0, 10, 10, tc.occupied)); err != nil {
			t.Fatal(err)
		}
		big := job.MustNew(1, 0, 10, 10, tc.starved)
		small := job.MustNew(2, 1, 10, 10, job.NewDemand(2, 0, 0))
		q := queue.New(queue.FCFS{})
		q.AddAged(big, 99)
		q.Add(small)
		ctx := pluginCtx(q, c, 1)
		if may := queue.EntryOf(big).MayFit(ctx.Snap.FreeNodes(), ctx.Snap.FreeBB); may != tc.mayFit || ctx.Snap.CanFit(big.Demand) {
			t.Fatalf("%s: prefilter says %v, want %v, and CanFit must refuse", tc.name, may, tc.mayFit)
		}
		p, _ := NewPlugin(PluginConfig{WindowSize: 5, StarvationBound: 50}, sched.Baseline{})
		started, err := p.Decide(ctx)
		if err != nil {
			t.Fatal(err)
		}
		// The starved big job cannot be forced, so it stays in the window.
		// The small job fits alone, so the window is live and the method is
		// asked; Baseline stops at the big job at its head: nothing starts,
		// and both jobs age.
		if len(started) != 0 {
			t.Fatalf("%s: started %v, want none", tc.name, idsOf(started))
		}
		if b, s := q.WindowAge(big.ID), q.WindowAge(small.ID); b != 100 || s != 1 {
			t.Fatalf("%s: ages %d and %d, want 100 and 1", tc.name, b, s)
		}
		if left := p.LeftBehind(); len(left) != 2 || left[0].Job != big || left[1].Job != small {
			t.Fatalf("%s: left behind %v, want both jobs in window order", tc.name, left)
		}
	}
}

func TestPluginZeroBoundDisablesForcing(t *testing.T) {
	jobs, c := table1()
	q := queue.New(queue.FCFS{})
	for i, j := range jobs {
		q.AddAged(j, map[int]int{1: 1000}[i])
	}
	p, _ := NewPlugin(PluginConfig{WindowSize: 5, StarvationBound: 0}, sched.Baseline{})
	started, err := p.Decide(pluginCtx(q, c, 1))
	if err != nil {
		t.Fatal(err)
	}
	if got := idsOf(started); len(got) != 1 || got[0] != 1 {
		t.Fatalf("bound=0 should not force: started %v", got)
	}
}

func TestPluginRejectsBadMethodIndices(t *testing.T) {
	jobs, c := table1()
	q := queue.New(queue.FCFS{})
	for _, j := range jobs {
		q.Add(j)
	}
	for _, bad := range []badMethod{{idx: []int{99}}, {idx: []int{0, 0}}} {
		p, _ := NewPlugin(DefaultPluginConfig(), bad)
		if _, err := p.Decide(pluginCtx(q, c, 1)); err == nil {
			t.Fatalf("bad method indices %v accepted", bad.idx)
		}
	}
}

func TestPluginRejectsOversubscribingMethod(t *testing.T) {
	jobs, c := table1()
	q := queue.New(queue.FCFS{})
	for _, j := range jobs {
		q.Add(j)
	}
	// Selecting every window job exceeds both resources.
	p, _ := NewPlugin(DefaultPluginConfig(), badMethod{idx: []int{0, 1, 2, 3, 4}})
	if _, err := p.Decide(pluginCtx(q, c, 1)); err == nil {
		t.Fatal("oversubscribing selection accepted")
	}
}

// badMethod returns fixed indices regardless of fit.
type badMethod struct{ idx []int }

func (badMethod) Name() string                           { return "bad" }
func (b badMethod) Select(*sched.Context) ([]int, error) { return b.idx, nil }

func TestPluginWindowRespectsBasePriority(t *testing.T) {
	// With WFP, a large long-waiting job leads the window even if
	// submitted later.
	c := cluster.MustNew(cluster.Config{Name: "x", Nodes: 100, BurstBufferGB: 100})
	early := job.MustNew(1, 0, 100, 1000, job.NewDemand(1, 0, 0))
	late := job.MustNew(2, 1, 100, 1000, job.NewDemand(90, 0, 0))
	q := queue.New(queue.WFP{})
	q.Add(early)
	q.Add(late)
	p, _ := NewPlugin(PluginConfig{WindowSize: 1, StarvationBound: 0}, sched.Baseline{})
	ctx := pluginCtx(q, c, 1)
	ctx.Now = 1000
	ctx.Ranking = q.Rank(ctx.Now, func(int) bool { return false }, 1)
	started, err := p.Decide(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(started) != 1 || started[0].ID != 2 {
		t.Fatalf("WFP window head should be the 90-node job, started %v", idsOf(started))
	}
}

func idsOf(jobs []*job.Job) []int {
	out := make([]int, len(jobs))
	for i, j := range jobs {
		out[i] = j.ID
	}
	return out
}
