package moo

import (
	"math"
	"testing"

	"bbsched/internal/rng"
)

func TestNonDominatedSortRanks(t *testing.T) {
	pool := []Solution{
		{Genome: FromBools([]bool{true}), Objectives: []float64{10, 10}},       // front 0
		{Genome: FromBools([]bool{false}), Objectives: []float64{12, 5}},       // front 0
		{Genome: FromBools([]bool{true, true}), Objectives: []float64{9, 9}},   // front 1
		{Genome: FromBools([]bool{false, false}), Objectives: []float64{1, 1}}, // front 2
	}
	fronts := nonDominatedSort(pool)
	if len(fronts) != 3 {
		t.Fatalf("fronts = %d, want 3", len(fronts))
	}
	if len(fronts[0]) != 2 || len(fronts[1]) != 1 || len(fronts[2]) != 1 {
		t.Fatalf("front sizes = %d/%d/%d", len(fronts[0]), len(fronts[1]), len(fronts[2]))
	}
	if pool[fronts[1][0]].Objectives[0] != 9 {
		t.Fatal("front 1 member wrong")
	}
}

func TestNonDominatedSortAllEqual(t *testing.T) {
	pool := []Solution{
		{Objectives: []float64{5, 5}},
		{Objectives: []float64{5, 5}},
	}
	fronts := nonDominatedSort(pool)
	if len(fronts) != 1 || len(fronts[0]) != 2 {
		t.Fatalf("equal solutions should share front 0: %v", fronts)
	}
}

func TestCrowdingDistances(t *testing.T) {
	front := []Solution{
		{Objectives: []float64{0, 10}},
		{Objectives: []float64{5, 5}},
		{Objectives: []float64{10, 0}},
	}
	d := crowdingDistances(front)
	if !math.IsInf(d[0], 1) || !math.IsInf(d[2], 1) {
		t.Fatalf("boundary points should be infinite: %v", d)
	}
	// Middle: gap (10-0)/10 per objective = 1 + 1 = 2.
	if math.Abs(d[1]-2) > 1e-12 {
		t.Fatalf("middle distance = %v, want 2", d[1])
	}
}

func TestCrowdingDistanceDegenerateObjective(t *testing.T) {
	front := []Solution{
		{Objectives: []float64{1, 3}},
		{Objectives: []float64{1, 7}},
		{Objectives: []float64{1, 5}},
	}
	d := crowdingDistances(front)
	for _, v := range d {
		if math.IsNaN(v) {
			t.Fatal("constant objective produced NaN distance")
		}
	}
	if crowdingDistances(nil) == nil {
		// len-0 front returns empty non-nil slice per make; just ensure no panic
		t.Log("empty front handled")
	}
}

func TestSelectCrowdingKeepsBoundaryPoints(t *testing.T) {
	pool := []Solution{
		{Genome: FromBools([]bool{true, false, false}), Objectives: []float64{10, 0}},
		{Genome: FromBools([]bool{false, true, false}), Objectives: []float64{0, 10}},
		{Genome: FromBools([]bool{false, false, true}), Objectives: []float64{5, 5}},
		{Genome: FromBools([]bool{true, true, false}), Objectives: []float64{5.1, 4.9}},
		{Genome: FromBools([]bool{false, true, true}), Objectives: []float64{4.9, 5.1}},
	}
	next := selectCrowding(pool, 3)
	if len(next) != 3 {
		t.Fatalf("selected %d", len(next))
	}
	// The extreme points must survive; the crowded middle gets cut.
	var hasMaxX, hasMaxY bool
	for _, i := range next {
		if pool[i].Objectives[0] == 10 {
			hasMaxX = true
		}
		if pool[i].Objectives[1] == 10 {
			hasMaxY = true
		}
	}
	if !hasMaxX || !hasMaxY {
		t.Fatalf("boundary points evicted: kept pool indices %v", next)
	}
}

func TestGACrowdingFindsTable1Front(t *testing.T) {
	cfg := GAConfig{Generations: 300, Population: 20, MutationProb: 0.01, Selection: Crowding}
	front, err := SolveGA(table1(), cfg, rng.New(1))
	if err != nil {
		t.Fatal(err)
	}
	found := map[[2]float64]bool{}
	for _, s := range front {
		found[[2]float64{s.Objectives[0], s.Objectives[1]}] = true
	}
	if !found[[2]float64{100, 20}] || !found[[2]float64{80, 90}] {
		t.Fatalf("crowding GA front %v missing a paper Pareto point", objsOf(front))
	}
}

func TestGACrowdingFrontNonDominatedAndFeasible(t *testing.T) {
	st := rng.New(61)
	k := &knapsack2{capNodes: 120, capBB: 120}
	for i := 0; i < 14; i++ {
		k.nodes = append(k.nodes, float64(1+st.Intn(50)))
		k.bb = append(k.bb, float64(st.Intn(70)))
	}
	cfg := GAConfig{Generations: 200, Population: 20, MutationProb: 0.01, Selection: Crowding}
	front, err := SolveGA(k, cfg, rng.New(62))
	if err != nil {
		t.Fatal(err)
	}
	if len(front) == 0 {
		t.Fatal("empty front")
	}
	for i, a := range front {
		if _, ok := k.Evaluate(a.Genome); !ok {
			t.Fatal("infeasible front member")
		}
		for j, b := range front {
			if i != j && Dominates(b.Objectives, a.Objectives) {
				t.Fatal("dominated front member")
			}
		}
	}
}
