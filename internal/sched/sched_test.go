package sched

import (
	"fmt"
	"testing"
	"testing/quick"

	"bbsched/internal/cluster"
	"bbsched/internal/job"
	"bbsched/internal/moo"
	"bbsched/internal/rng"
)

// table1Window builds the paper's Table 1 example: 100 nodes, 100 TB of
// burst buffer (expressed in TB units directly), five jobs.
func table1Window() ([]*job.Job, *cluster.Cluster) {
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

func ctxFor(jobs []*job.Job, c *cluster.Cluster, seed uint64) *Context {
	return &Context{
		Now:    10,
		Window: jobs,
		Snap:   c.Snapshot(),
		Totals: TotalsOf(c.Config()),
		Rand:   rng.New(seed),
	}
}

func testGA() moo.GAConfig {
	return moo.GAConfig{Generations: 300, Population: 20, MutationProb: 0.01}
}

func selectedObjs(t *testing.T, jobs []*job.Job, idx []int) (nodes, bb int64) {
	t.Helper()
	for _, i := range idx {
		nodes += int64(jobs[i].Demand.NodeCount())
		bb += jobs[i].Demand.BB()
	}
	return nodes, bb
}

func TestBaselineStopsAtFirstNonFitting(t *testing.T) {
	jobs, c := table1Window()
	idx, err := Baseline{}.Select(ctxFor(jobs, c, 1))
	if err != nil {
		t.Fatal(err)
	}
	// J1 (80 nodes) fits; J2 (10 nodes, 85 BB) does not (BB 85 > 80);
	// naive stops there — J4/J5 are left for backfilling (Table 1b).
	if len(idx) != 1 || idx[0] != 0 {
		t.Fatalf("baseline selected %v, want [0]", idx)
	}
}

func TestBaselineSelectsPrefixWhenAllFit(t *testing.T) {
	c := cluster.MustNew(cluster.Config{Name: "x", Nodes: 100, BurstBufferGB: 100})
	jobs := []*job.Job{
		job.MustNew(1, 0, 10, 10, job.NewDemand(30, 10, 0)),
		job.MustNew(2, 1, 10, 10, job.NewDemand(30, 10, 0)),
		job.MustNew(3, 2, 10, 10, job.NewDemand(30, 10, 0)),
	}
	idx, err := Baseline{}.Select(ctxFor(jobs, c, 1))
	if err != nil {
		t.Fatal(err)
	}
	if len(idx) != 3 {
		t.Fatalf("baseline selected %v, want all three", idx)
	}
}

func TestWeightedCPUPicksSolution2(t *testing.T) {
	// Table 1b: the 80/20 weighted method selects {J1, J5}: 100% node,
	// 20% BB utilization.
	jobs, c := table1Window()
	m := NewWeighted("Weighted_CPU", 0.8, 0.2, testGA())
	idx, err := m.Select(ctxFor(jobs, c, 2))
	if err != nil {
		t.Fatal(err)
	}
	nodes, bb := selectedObjs(t, jobs, idx)
	if nodes != 100 || bb != 20 {
		t.Fatalf("Weighted_CPU chose (%d nodes, %d bb), want (100, 20); idx %v", nodes, bb, idx)
	}
}

func TestWeightedEqualPicksSolution3(t *testing.T) {
	// With 50/50 weights the J2–J5 combination scores 0.5·0.8+0.5·0.9 =
	// 0.85 against 0.60 for {J1,J5}.
	jobs, c := table1Window()
	m := NewWeighted("Weighted", 0.5, 0.5, testGA())
	idx, err := m.Select(ctxFor(jobs, c, 3))
	if err != nil {
		t.Fatal(err)
	}
	nodes, bb := selectedObjs(t, jobs, idx)
	if nodes != 80 || bb != 90 {
		t.Fatalf("Weighted chose (%d, %d), want (80, 90)", nodes, bb)
	}
}

func TestConstrainedCPUMaximizesNodes(t *testing.T) {
	jobs, c := table1Window()
	m := &Constrained{MethodName: "Constrained_CPU", Target: NodeUtil, GA: testGA()}
	idx, err := m.Select(ctxFor(jobs, c, 4))
	if err != nil {
		t.Fatal(err)
	}
	nodes, _ := selectedObjs(t, jobs, idx)
	if nodes != 100 {
		t.Fatalf("Constrained_CPU reached %d nodes, want 100", nodes)
	}
}

func TestConstrainedBBMaximizesBB(t *testing.T) {
	jobs, c := table1Window()
	m := &Constrained{MethodName: "Constrained_BB", Target: BBUtil, GA: testGA()}
	idx, err := m.Select(ctxFor(jobs, c, 5))
	if err != nil {
		t.Fatal(err)
	}
	_, bb := selectedObjs(t, jobs, idx)
	if bb != 90 {
		t.Fatalf("Constrained_BB reached %d BB, want 90", bb)
	}
}

func TestBinPackingMatchesTable1(t *testing.T) {
	// Tetris picks J1 first (highest alignment), then J5, then nothing
	// fits: Solution 2.
	jobs, c := table1Window()
	idx, err := BinPacking{}.Select(ctxFor(jobs, c, 6))
	if err != nil {
		t.Fatal(err)
	}
	nodes, bb := selectedObjs(t, jobs, idx)
	if nodes != 100 || bb != 20 {
		t.Fatalf("Bin_Packing chose (%d, %d) via %v, want (100, 20)", nodes, bb, idx)
	}
}

func TestBinPackingSkipsNonFittingJobs(t *testing.T) {
	// Unlike the naive method, bin packing skips a non-fitting job and
	// keeps packing later ones.
	c := cluster.MustNew(cluster.Config{Name: "x", Nodes: 100, BurstBufferGB: 100})
	jobs := []*job.Job{
		job.MustNew(1, 0, 10, 10, job.NewDemand(90, 0, 0)),
		job.MustNew(2, 1, 10, 10, job.NewDemand(50, 0, 0)), // never fits after J1
		job.MustNew(3, 2, 10, 10, job.NewDemand(10, 0, 0)),
	}
	idx, err := BinPacking{}.Select(ctxFor(jobs, c, 7))
	if err != nil {
		t.Fatal(err)
	}
	nodes, _ := selectedObjs(t, jobs, idx)
	if nodes != 100 {
		t.Fatalf("bin packing reached %d nodes, want 100 (skip the 50-node job)", nodes)
	}
}

func TestMethodsNeverOversubscribe(t *testing.T) {
	r := rng.New(99)
	methods := []Method{
		Baseline{},
		BinPacking{},
		NewWeighted("Weighted", 0.5, 0.5, moo.GAConfig{Generations: 40, Population: 10, MutationProb: 0.01}),
		&Constrained{MethodName: "Constrained_CPU", Target: NodeUtil, GA: moo.GAConfig{Generations: 40, Population: 10, MutationProb: 0.01}},
	}
	f := func(seed uint16) bool {
		st := r.SplitIndex(uint64(seed))
		c := cluster.MustNew(cluster.Config{Name: "p", Nodes: 60, BurstBufferGB: 500})
		n := 3 + st.Intn(12)
		jobs := make([]*job.Job, n)
		for i := range jobs {
			jobs[i] = job.MustNew(i, int64(i), 10, 10, job.NewDemand(1+st.Intn(50), st.Int63n(400), 0))
		}
		for _, m := range methods {
			idx, err := m.Select(ctxFor(jobs, c, uint64(seed)))
			if err != nil {
				t.Logf("%s: %v", m.Name(), err)
				return false
			}
			scratch := c.Snapshot()
			seen := map[int]bool{}
			for _, i := range idx {
				if i < 0 || i >= n || seen[i] {
					t.Logf("%s: bad index %d", m.Name(), i)
					return false
				}
				seen[i] = true
				if _, err := scratch.Alloc(jobs[i].Demand); err != nil {
					t.Logf("%s: oversubscribed at %d", m.Name(), i)
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func TestSelectionProblemEvaluate(t *testing.T) {
	jobs, c := table1Window()
	p := NewSelectionProblem(jobs, c.Snapshot(), TwoObjectives())
	objs, ok := p.Evaluate(moo.FromBools([]bool{false, true, true, true, true}))
	if !ok {
		t.Fatal("J2-J5 should be feasible")
	}
	if objs[0] != 80 || objs[1] != 90 {
		t.Fatalf("objs = %v, want [80 90]", objs)
	}
	if _, ok := p.Evaluate(moo.FromBools([]bool{true, true, false, false, false})); ok {
		t.Fatal("J1+J2 exceeds burst buffer, must be infeasible")
	}
}

func TestSelectionProblemUsesFreeNotTotal(t *testing.T) {
	// With N_used > 0 the constraint is N - N_used (§3.2.1).
	jobs, c := table1Window()
	occupier := job.MustNew(99, 0, 10, 10, job.NewDemand(30, 0, 0))
	if _, err := c.Allocate(occupier); err != nil {
		t.Fatal(err)
	}
	p := NewSelectionProblem(jobs, c.Snapshot(), TwoObjectives())
	if _, ok := p.Evaluate(moo.FromBools([]bool{true, false, false, false, false})); ok {
		t.Fatal("J1 (80 nodes) reported feasible with only 70 nodes free")
	}
	// J3 (40 nodes) still fits in the 70 free nodes.
	if _, ok := p.Evaluate(moo.FromBools([]bool{false, false, true, false, false})); !ok {
		t.Fatal("J3 (40 nodes) should fit in 70 free nodes")
	}
}

func TestSelectionProblemFourObjectives(t *testing.T) {
	c := cluster.MustNew(cluster.Config{
		Name: "ssd", Nodes: 4, BurstBufferGB: 100,
		SSDClasses: []cluster.SSDClass{{CapacityGB: 128, Count: 2}, {CapacityGB: 256, Count: 2}},
	})
	jobs := []*job.Job{
		job.MustNew(1, 0, 10, 10, job.NewDemand(2, 10, 64)),  // small SSD
		job.MustNew(2, 1, 10, 10, job.NewDemand(2, 10, 200)), // needs 256GB nodes
	}
	p := NewSelectionProblem(jobs, c.Snapshot(), FourObjectives())
	objs, ok := p.Evaluate(moo.FromBools([]bool{true, true}))
	if !ok {
		t.Fatal("both jobs should fit")
	}
	// f3 = 2*64 + 2*200 = 528; waste = 2*(128-64) + 2*(256-200) = 240.
	if objs[2] != 528 {
		t.Fatalf("ssd util = %v, want 528", objs[2])
	}
	if objs[3] != -240 {
		t.Fatalf("ssd waste = %v, want -240", objs[3])
	}
}

func TestSelectionProblemRepair(t *testing.T) {
	jobs, c := table1Window()
	p := NewSelectionProblem(jobs, c.Snapshot(), TwoObjectives())
	s := rng.New(8)
	g := moo.FromBools([]bool{true, true, true, true, true}) // infeasible
	p.Repair(g, s.Intn)
	if _, ok := p.Evaluate(g); !ok {
		t.Fatal("Repair left infeasible selection")
	}
}

func TestSelectionProblemDimMismatchPanics(t *testing.T) {
	jobs, c := table1Window()
	p := NewSelectionProblem(jobs, c.Snapshot(), TwoObjectives())
	defer func() {
		if recover() == nil {
			t.Fatal("no panic for wrong bit count")
		}
	}()
	p.Evaluate(moo.FromBools([]bool{true}))
}

func TestTotalsOf(t *testing.T) {
	tt := TotalsOf(cluster.Config{
		Nodes: 10, BurstBufferGB: 500,
		SSDClasses: []cluster.SSDClass{{CapacityGB: 128, Count: 4}, {CapacityGB: 256, Count: 6}},
	})
	if tt.Nodes != 10 || tt.BBGB != 500 {
		t.Fatalf("totals = %+v", tt)
	}
	if tt.SSDGB != 128*4+256*6 {
		t.Fatalf("ssd total = %d", tt.SSDGB)
	}
}

func TestWeightedRejectsMismatchedWeights(t *testing.T) {
	jobs, c := table1Window()
	m := &Weighted{MethodName: "bad", Objectives: TwoObjectives(), Weights: []float64{1}, GA: testGA()}
	if _, err := m.Select(ctxFor(jobs, c, 1)); err == nil {
		t.Fatal("mismatched weights accepted")
	}
}

func TestEmptyWindowSelections(t *testing.T) {
	c := cluster.MustNew(cluster.Config{Name: "x", Nodes: 10, BurstBufferGB: 10})
	methods := []Method{
		Baseline{}, BinPacking{},
		NewWeighted("Weighted", 0.5, 0.5, testGA()),
		&Constrained{MethodName: "Constrained_CPU", Target: NodeUtil, GA: testGA()},
	}
	for _, m := range methods {
		idx, err := m.Select(ctxFor(nil, c, 1))
		if err != nil || len(idx) != 0 {
			t.Errorf("%s on empty window: %v, %v", m.Name(), idx, err)
		}
	}
}

func TestObjectiveString(t *testing.T) {
	names := map[Objective]string{NodeUtil: "node_util", BBUtil: "bb_util", SSDUtil: "ssd_util", SSDWasteNeg: "ssd_waste_neg"}
	for o, want := range names {
		if o.String() != want {
			t.Errorf("%d.String() = %q", o, o.String())
		}
	}
}

func TestSelectedHelper(t *testing.T) {
	got := Selected(moo.FromBools([]bool{true, false, true}))
	if len(got) != 2 || got[0] != 0 || got[1] != 2 {
		t.Fatalf("Selected = %v", got)
	}
	if Selected(moo.Genome{}) != nil {
		t.Fatal("Selected of an empty genome should be nil")
	}
}

// TestGAFrontOnSelectionProblemMatchesExhaustive cross-checks the shared
// formulation end to end on the Table 1 instance.
func TestGAFrontOnSelectionProblemMatchesExhaustive(t *testing.T) {
	jobs, c := table1Window()
	p := NewSelectionProblem(jobs, c.Snapshot(), TwoObjectives())
	ref, err := moo.SolveExhaustive(p)
	if err != nil {
		t.Fatal(err)
	}
	front, err := moo.SolveGA(p, testGA(), rng.New(11))
	if err != nil {
		t.Fatal(err)
	}
	if gd := moo.GenerationalDistance(front, ref); gd > 1e-9 {
		t.Fatalf("GD = %v on the 5-job example, want 0", gd)
	}
}

// TestSelectionProblemWorkspaceReuse reuses one SSD-class problem across
// interleaved Repair and Evaluate calls. On this slow path every call
// takes the problem's one workspace, and Repair holds its selected-index
// buffer while the Evaluate calls it makes reuse that workspace: each
// answer must be the one a fresh problem gives for the same call.
func TestSelectionProblemWorkspaceReuse(t *testing.T) {
	c := cluster.MustNew(cluster.Config{
		Name: "ssd", Nodes: 16, BurstBufferGB: 200,
		SSDClasses: []cluster.SSDClass{{CapacityGB: 128, Count: 8}, {CapacityGB: 256, Count: 8}},
	})
	var jobs []*job.Job
	s := rng.New(5)
	for i := 0; i < 12; i++ {
		jobs = append(jobs, job.MustNew(i+1, int64(i), 10, 10,
			job.NewDemand(1+s.Intn(4), int64(s.Intn(60)), int64(32*(1+s.Intn(7))))))
	}
	fresh := func() *SelectionProblem { return NewSelectionProblem(jobs, c.Snapshot(), FourObjectives()) }
	reused := fresh()
	pick := rng.New(100)
	random := func() []bool {
		bitvec := make([]bool, len(jobs))
		for k := range bitvec {
			bitvec[k] = pick.Bool(0.5)
		}
		return bitvec
	}
	evaluate := func(i int, g moo.Genome) {
		got, gotOK := reused.Evaluate(g)
		want, wantOK := fresh().Evaluate(g)
		if gotOK != wantOK || fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("call %d: Evaluate(%s) on the reused problem gave %v/%v, a fresh one %v/%v", i, g, got, gotOK, want, wantOK)
		}
	}
	for i := 0; i < 200; i++ {
		bitvec := random()
		g, h := moo.FromBools(bitvec), moo.FromBools(bitvec)
		seed := pick.Uint64()
		reused.Repair(g, rng.New(seed).Intn)
		fresh().Repair(h, rng.New(seed).Intn)
		if !g.Equal(h) {
			t.Fatalf("call %d: Repair(%s) on the reused problem gave %s, a fresh one %s", i, moo.FromBools(bitvec), g, h)
		}
		evaluate(i, g)
		evaluate(i, moo.FromBools(random()))
	}
}
