package moo

import (
	"math"
	mathbits "math/bits"
	"testing"
	"testing/quick"

	"bbsched/internal/rng"
)

// knapsack2 is a two-objective selection problem mirroring the paper's
// formulation: item i contributes (nodes[i], bb[i]); both sums are
// maximized subject to capacity caps. It implements Repairer.
type knapsack2 struct {
	nodes, bb       []float64
	capNodes, capBB float64

	// ones mirrors SelectionProblem's kept repair workspace.
	ones []int
}

func (k *knapsack2) Dim() int           { return len(k.nodes) }
func (k *knapsack2) NumObjectives() int { return 2 }

func (k *knapsack2) sums(g Genome) (n, b float64) {
	for wi, w := range g.Words() {
		base := wi * 64
		for w != 0 {
			i := base + mathbits.TrailingZeros64(w)
			w &= w - 1
			n += k.nodes[i]
			b += k.bb[i]
		}
	}
	return n, b
}

func (k *knapsack2) Evaluate(g Genome) ([]float64, bool) {
	n, b := k.sums(g)
	return []float64{n, b}, n <= k.capNodes && b <= k.capBB
}

// Repair mirrors SelectionProblem's incremental fast path: sums are
// maintained across drops instead of re-evaluating per drop, and the
// selected-index buffer is reused.
func (k *knapsack2) Repair(g Genome, drop func(int) int) {
	n, b := k.sums(g)
	on := g.AppendOnes(k.ones[:0])
	for (n > k.capNodes || b > k.capBB) && len(on) > 0 {
		d := drop(len(on))
		i := on[d]
		g.SetBit(i, false)
		n -= k.nodes[i]
		b -= k.bb[i]
		on = append(on[:d], on[d+1:]...)
	}
	k.ones = on[:0:cap(on)]
}

// table1 returns the paper's illustrative example: 100 nodes, 100 TB BB,
// five jobs (Table 1a).
func table1() *knapsack2 {
	return &knapsack2{
		nodes:    []float64{80, 10, 40, 10, 20},
		bb:       []float64{20, 85, 5, 0, 0},
		capNodes: 100, capBB: 100,
	}
}

func TestDominates(t *testing.T) {
	cases := []struct {
		a, b []float64
		want bool
	}{
		{[]float64{2, 2}, []float64{1, 1}, true},
		{[]float64{2, 1}, []float64{1, 1}, true},
		{[]float64{1, 1}, []float64{1, 1}, false}, // equal: no strict gain
		{[]float64{2, 0}, []float64{1, 1}, false}, // trade-off
		{[]float64{0, 2}, []float64{1, 1}, false},
		{[]float64{1, 1}, []float64{2, 2}, false},
	}
	for _, c := range cases {
		if got := Dominates(c.a, c.b); got != c.want {
			t.Errorf("Dominates(%v, %v) = %v, want %v", c.a, c.b, got, c.want)
		}
	}
}

func TestDominatesPanicsOnDimMismatch(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic for mismatched dims")
		}
	}()
	Dominates([]float64{1}, []float64{1, 2})
}

func TestDominanceIsStrictPartialOrder(t *testing.T) {
	f := func(raw [3][2]int8) bool {
		v := make([][]float64, 3)
		for i, r := range raw {
			v[i] = []float64{float64(r[0]), float64(r[1])}
		}
		// Irreflexive.
		for _, x := range v {
			if Dominates(x, x) {
				return false
			}
		}
		// Asymmetric.
		if Dominates(v[0], v[1]) && Dominates(v[1], v[0]) {
			return false
		}
		// Transitive.
		if Dominates(v[0], v[1]) && Dominates(v[1], v[2]) && !Dominates(v[0], v[2]) {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

func TestParetoFilter(t *testing.T) {
	sols := []Solution{
		{Genome: FromBools([]bool{true}), Objectives: []float64{100, 20}},
		{Genome: FromBools([]bool{false}), Objectives: []float64{80, 90}},
		{Genome: FromBools([]bool{true, true}), Objectives: []float64{90, 20}}, // dominated by first
	}
	front := ParetoFilter(sols)
	if len(front) != 2 {
		t.Fatalf("front size = %d, want 2", len(front))
	}
}

func TestParetoFilterPropertyNoMemberDominated(t *testing.T) {
	s := rng.New(5)
	f := func(seed uint16) bool {
		st := s.SplitIndex(uint64(seed))
		n := 2 + st.Intn(30)
		sols := make([]Solution, n)
		for i := range sols {
			sols[i] = Solution{
				Genome:     FromBools([]bool{i%2 == 0}),
				Objectives: []float64{float64(st.Intn(10)), float64(st.Intn(10)), float64(st.Intn(10))},
			}
		}
		front := ParetoFilter(sols)
		if len(front) == 0 {
			return false // non-empty input always has a non-dominated member
		}
		// No front member is dominated by any input solution.
		for _, fm := range front {
			for _, sm := range sols {
				if Dominates(sm.Objectives, fm.Objectives) {
					return false
				}
			}
		}
		// Every excluded solution is dominated by some front member.
		inFront := func(x Solution) bool {
			for _, fm := range front {
				if &fm.Genome.w[0] == &x.Genome.w[0] && equalObjs(fm.Objectives, x.Objectives) {
					return true
				}
			}
			return false
		}
		for _, sm := range sols {
			if inFront(sm) {
				continue
			}
			dominated := false
			for _, fm := range front {
				if Dominates(fm.Objectives, sm.Objectives) {
					dominated = true
					break
				}
			}
			if !dominated {
				// Non-dominated solutions must all be in the front.
				found := false
				for _, fm := range front {
					if equalObjs(fm.Objectives, sm.Objectives) {
						found = true
						break
					}
				}
				if !found {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestTable1ExhaustiveFront(t *testing.T) {
	front, err := SolveExhaustive(table1())
	if err != nil {
		t.Fatal(err)
	}
	// The paper's Pareto set: Solution 2 {J1,J5} = (100, 20) and
	// Solution 3 {J2,J3,J4,J5} = (80, 90).
	want := map[[2]float64]bool{{100, 20}: false, {80, 90}: false}
	for _, s := range front {
		key := [2]float64{s.Objectives[0], s.Objectives[1]}
		if _, ok := want[key]; ok {
			want[key] = true
		}
	}
	for k, seen := range want {
		if !seen {
			t.Errorf("paper Pareto point %v missing from exhaustive front %v", k, objsOf(front))
		}
	}
	// And nothing in the front may dominate or be dominated by those points.
	for _, s := range front {
		for k := range want {
			if Dominates(s.Objectives, []float64{k[0], k[1]}) {
				t.Errorf("front point %v dominates paper point %v", s.Objectives, k)
			}
		}
	}
}

func objsOf(sols []Solution) [][]float64 {
	out := make([][]float64, len(sols))
	for i, s := range sols {
		out[i] = s.Objectives
	}
	return out
}

func TestGAFindsTable1Front(t *testing.T) {
	front, err := SolveGA(table1(), GAConfig{Generations: 300, Population: 20, MutationProb: 0.01}, rng.New(1))
	if err != nil {
		t.Fatal(err)
	}
	found := map[[2]float64]bool{}
	for _, s := range front {
		found[[2]float64{s.Objectives[0], s.Objectives[1]}] = true
	}
	if !found[[2]float64{100, 20}] || !found[[2]float64{80, 90}] {
		t.Fatalf("GA front %v missing a paper Pareto point", objsOf(front))
	}
}

func TestGADeterministicPerSeed(t *testing.T) {
	cfg := GAConfig{Generations: 50, Population: 10, MutationProb: 0.01}
	a, err := SolveGA(table1(), cfg, rng.New(9))
	if err != nil {
		t.Fatal(err)
	}
	b, err := SolveGA(table1(), cfg, rng.New(9))
	if err != nil {
		t.Fatal(err)
	}
	if len(a) != len(b) {
		t.Fatalf("front sizes differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i].Key() != b[i].Key() {
			t.Fatal("same seed produced different fronts")
		}
	}
}

func TestGAFrontIsFeasibleAndNonDominated(t *testing.T) {
	s := rng.New(17)
	f := func(seed uint16) bool {
		st := s.SplitIndex(uint64(seed))
		dim := 4 + st.Intn(12)
		k := &knapsack2{capNodes: 100, capBB: 100}
		for i := 0; i < dim; i++ {
			k.nodes = append(k.nodes, float64(1+st.Intn(60)))
			k.bb = append(k.bb, float64(st.Intn(80)))
		}
		front, err := SolveGA(k, GAConfig{Generations: 60, Population: 12, MutationProb: 0.02}, st)
		if err != nil || len(front) == 0 {
			return false
		}
		for i, a := range front {
			if _, ok := k.Evaluate(a.Genome); !ok {
				return false
			}
			for j, b := range front {
				if i != j && Dominates(b.Objectives, a.Objectives) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestGAConvergesToExhaustiveFront(t *testing.T) {
	// GD between the GA front and the exhaustive front must be small for a
	// modest random instance — the claim behind Fig. 4.
	st := rng.New(23)
	k := &knapsack2{capNodes: 150, capBB: 150}
	for i := 0; i < 14; i++ {
		k.nodes = append(k.nodes, float64(1+st.Intn(70)))
		k.bb = append(k.bb, float64(st.Intn(90)))
	}
	ref, err := SolveExhaustive(k)
	if err != nil {
		t.Fatal(err)
	}
	front, err := SolveGA(k, GAConfig{Generations: 500, Population: 20, MutationProb: 0.005}, st)
	if err != nil {
		t.Fatal(err)
	}
	gd := GenerationalDistance(front, ref)
	// Objectives span ~[0,150]; GD under ~7% of the range means the GA
	// sits on or next to the true front.
	if gd > 10 {
		t.Fatalf("GD = %.2f, want <= 5 (GA front %v, exhaustive %v)", gd, objsOf(front), objsOf(ref))
	}
}

func TestGAMoreGenerationsNoWorse(t *testing.T) {
	st := rng.New(29)
	k := &knapsack2{capNodes: 120, capBB: 120}
	for i := 0; i < 16; i++ {
		k.nodes = append(k.nodes, float64(1+st.Intn(50)))
		k.bb = append(k.bb, float64(st.Intn(70)))
	}
	ref, err := SolveExhaustive(k)
	if err != nil {
		t.Fatal(err)
	}
	gd := func(g int) float64 {
		front, err := SolveGA(k, GAConfig{Generations: g, Population: 20, MutationProb: 0.005}, rng.New(31))
		if err != nil {
			t.Fatal(err)
		}
		return GenerationalDistance(front, ref)
	}
	short, long := gd(10), gd(800)
	if long > short+1e-9 && long > 2 {
		t.Fatalf("GD got worse with more generations: G=10 → %.3f, G=800 → %.3f", short, long)
	}
}

func TestGAConfigValidation(t *testing.T) {
	k := table1()
	bad := []GAConfig{
		{Generations: -1, Population: 10, MutationProb: 0.1},
		{Generations: 10, Population: 1, MutationProb: 0.1},
		{Generations: 10, Population: 10, MutationProb: -0.5},
		{Generations: 10, Population: 10, MutationProb: 1.5},
		{Generations: 10, Population: 10, MutationProb: math.NaN()}, // neither < 0 nor > 1
	}
	for i, cfg := range bad {
		if _, err := SolveGA(k, cfg, rng.New(1)); err == nil {
			t.Errorf("config %d accepted: %+v", i, cfg)
		}
	}
}

func TestGAZeroDimension(t *testing.T) {
	k := &knapsack2{capNodes: 1, capBB: 1}
	if _, err := SolveGA(k, DefaultGAConfig(), rng.New(1)); err == nil {
		t.Fatal("zero-dim problem accepted")
	}
	if _, err := SolveExhaustive(k); err == nil {
		t.Fatal("zero-dim exhaustive accepted")
	}
}

func TestExhaustiveDimCap(t *testing.T) {
	k := &knapsack2{capNodes: 1, capBB: 1}
	for i := 0; i < MaxExhaustiveDim+1; i++ {
		k.nodes = append(k.nodes, 1)
		k.bb = append(k.bb, 0)
	}
	if _, err := SolveExhaustive(k); err == nil {
		t.Fatal("oversized exhaustive search accepted")
	}
}

func TestGenerationalDistance(t *testing.T) {
	ref := []Solution{{Objectives: []float64{0, 0}}, {Objectives: []float64{10, 10}}}
	approx := []Solution{{Objectives: []float64{3, 4}}} // dist 5 to origin
	if gd := GenerationalDistance(approx, ref); math.Abs(gd-5) > 1e-12 {
		t.Fatalf("GD = %v, want 5", gd)
	}
	exact := []Solution{{Objectives: []float64{10, 10}}}
	if gd := GenerationalDistance(exact, ref); gd != 0 {
		t.Fatalf("GD of subset = %v, want 0", gd)
	}
	if gd := GenerationalDistance(nil, ref); gd != 0 {
		t.Fatalf("GD of empty approx = %v, want 0", gd)
	}
}

func TestGenerationalDistancePanicsOnEmptyRef(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	GenerationalDistance([]Solution{{Objectives: []float64{1}}}, nil)
}

func TestHypervolume2D(t *testing.T) {
	front := []Solution{
		{Objectives: []float64{4, 1}},
		{Objectives: []float64{2, 3}},
	}
	// Area = (4-0)*(1-0) + (2-0)*(3-1) = 8.
	if hv := Hypervolume2D(front, 0, 0); math.Abs(hv-8) > 1e-12 {
		t.Fatalf("hv = %v, want 8", hv)
	}
	if hv := Hypervolume2D(nil, 0, 0); hv != 0 {
		t.Fatalf("empty hv = %v", hv)
	}
	// A dominated point must not change the volume.
	withDom := append(front, Solution{Objectives: []float64{2, 1}})
	if hv := Hypervolume2D(withDom, 0, 0); math.Abs(hv-8) > 1e-12 {
		t.Fatalf("hv with dominated point = %v, want 8", hv)
	}
}

func TestDedupeByBits(t *testing.T) {
	sols := []Solution{
		{Genome: FromBools([]bool{true, false}), Objectives: []float64{1}},
		{Genome: FromBools([]bool{true, false}), Objectives: []float64{1}},
		{Genome: FromBools([]bool{false, true}), Objectives: []float64{1}},
	}
	if got := DedupeByBits(sols); len(got) != 2 {
		t.Fatalf("dedupe kept %d, want 2", len(got))
	}
}

func TestSolutionCloneIndependent(t *testing.T) {
	s := Solution{Genome: FromBools([]bool{true}), Objectives: []float64{1}}
	c := s.Clone()
	c.Genome.SetBit(0, false)
	c.Objectives[0] = 9
	if !s.Genome.Bit(0) || s.Objectives[0] != 1 {
		t.Fatal("Clone shares storage")
	}
}

func TestSortLexicographicStable(t *testing.T) {
	sols := []Solution{
		{Genome: FromBools([]bool{false}), Objectives: []float64{1, 5}},
		{Genome: FromBools([]bool{true}), Objectives: []float64{2, 0}},
		{Genome: FromBools([]bool{true, true}), Objectives: []float64{1, 7}},
	}
	SortLexicographic(sols)
	if sols[0].Objectives[0] != 2 || sols[1].Objectives[1] != 7 || sols[2].Objectives[1] != 5 {
		t.Fatalf("sorted order wrong: %v", objsOf(sols))
	}
}

func TestRepairerProducesFeasible(t *testing.T) {
	k := table1()
	s := rng.New(51)
	for i := 0; i < 200; i++ {
		g := NewGenome(k.Dim())
		for j := 0; j < g.Len(); j++ {
			g.SetBit(j, s.Bool(0.8)) // mostly infeasible picks
		}
		k.Repair(g, s.Intn)
		if _, ok := k.Evaluate(g); !ok {
			t.Fatal("Repair left infeasible solution")
		}
	}
}
