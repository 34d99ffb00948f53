package moo

import (
	"testing"

	"bbsched/internal/rng"
)

// tableProblem is an always-feasible problem over 8-gene genomes whose
// objective vectors come from a table indexed by the genome's value, so a
// test decides exactly which genotypes tie, dominate or are incomparable.
type tableProblem struct{ objs [256][]float64 }

func (p *tableProblem) Dim() int           { return 8 }
func (p *tableProblem) NumObjectives() int { return len(p.objs[0]) }
func (p *tableProblem) Evaluate(g Genome) ([]float64, bool) {
	return p.objs[g.Words()[0]], true
}

// TestMarkDominatedMatchesDominatedFlags is the exactness claim behind the
// member loop: deciding domination once per distinct id and sharing the
// answer among the copies gives, for every pool member, the flag the
// member-by-member pass over the materialised solutions gives — with
// duplicated ids, with distinct genotypes whose objective vectors are
// equal, and at two to four objectives.
func TestMarkDominatedMatchesDominatedFlags(t *testing.T) {
	s := rng.New(31)
	for trial := 0; trial < 400; trial++ {
		p := &tableProblem{}
		m := 2 + s.Intn(3)
		levels := 2 + s.Intn(4) // few levels: equal vectors on distinct genomes are common
		for v := range p.objs {
			p.objs[v] = make([]float64, m)
			for k := range p.objs[v] {
				p.objs[v][k] = float64(s.Intn(levels))
			}
		}
		g := &gaSolver{ev: NewEvaluator(p), nobj: m}
		scratch := NewGenome(8)
		ids := make([]int32, 1+s.Intn(12))
		for i := range ids {
			scratch.w[0] = uint64(s.Intn(256))
			ids[i] = g.intern(g.ev.lookup(scratch))
		}
		pool := make([]member, 1+s.Intn(60))
		sols := make([]Solution, len(pool))
		for i := range pool {
			pool[i] = member{id: ids[s.Intn(len(ids))], age: int32(s.Intn(5))}
			sols[i] = g.solution(pool[i])
		}

		g.markDominated(pool)
		want := dominatedFlags(sols)
		for i, mb := range pool {
			if g.dominated[mb.id] != want[i] {
				t.Fatalf("trial %d: member %d (id %d, objectives %v): dominated = %v, dominatedFlags %v",
					trial, i, mb.id, sols[i].Objectives, g.dominated[mb.id], want[i])
			}
		}

		front, wantFront := g.paretoFront(pool), ParetoFilter(sols)
		if len(front) != len(wantFront) {
			t.Fatalf("trial %d: front of %d members, ParetoFilter keeps %d", trial, len(front), len(wantFront))
		}
		for i, mb := range front {
			if got := g.solution(mb); !got.Genome.Equal(wantFront[i].Genome) || got.Age != wantFront[i].Age {
				t.Fatalf("trial %d: front member %d is %s age %d, ParetoFilter has %s age %d",
					trial, i, got.Genome, got.Age, wantFront[i].Genome, wantFront[i].Age)
			}
		}
	}
}

// TestSortByAgeIsStable checks the partition + insertion sort against the
// definition — ascending age, pool order among equals — on the shapes
// selection feeds it (children at the tail, survivors in a few ascending
// runs) and on arbitrary ones.
func TestSortByAgeIsStable(t *testing.T) {
	s := rng.New(17)
	g := &gaSolver{}
	for trial := 0; trial < 500; trial++ {
		set := make([]member, s.Intn(50))
		for i := range set {
			set[i] = member{id: int32(i), age: int32(s.Intn(1 + s.Intn(40)))} // id records the input position
		}
		g.sortByAge(set)
		for i := 1; i < len(set); i++ {
			a, b := set[i-1], set[i]
			if a.age > b.age || (a.age == b.age && a.id > b.id) {
				t.Fatalf("trial %d: position %d holds %+v before %+v", trial, i-1, a, b)
			}
		}
	}
}

// busyKnapsack is a window most of which does not fit: the GA converges
// onto a handful of genotypes, as it does on a busy machine in a replay.
func busyKnapsack(dim int, seed uint64) *knapsack2 {
	k := randomKnapsack(dim, seed)
	k.capNodes, k.capBB = 90, 120
	return k
}

// TestSolveGAConvergedAllocs pins where a solve through a reused
// Evaluator allocates: per cache miss (the problem's objective vector)
// plus the returned front — nothing per generation and no per-solve
// scratch, whatever the generation count.
func TestSolveGAConvergedAllocs(t *testing.T) {
	k := busyKnapsack(20, 1009)
	ev := NewEvaluator(k)
	for _, gens := range []int{50, 500, 2000} {
		cfg := DefaultGAConfig()
		cfg.Generations = gens
		var front []Solution
		solve := func() {
			ev.Reset(k)
			var err error
			if front, err = SolveGA(ev, cfg, rng.New(7)); err != nil {
				t.Fatal(err)
			}
		}
		solve() // sizes the buffers parked on the Evaluator
		allocs := testing.AllocsPerRun(5, solve)
		// One per miss (the problem's objective vector: the intern table
		// and its genome words are reused across solves); three per front
		// member (its slot in the result, the clone's genome and
		// objectives); and a dozen per solve: the caller's stream, the
		// repair callback, the sort.
		stats := ev.Stats()
		limit := stats.Misses + 3*uint64(len(front)) + 12
		if uint64(allocs) > limit {
			t.Errorf("G=%d: %.0f allocs per solve with %d cache misses and a front of %d: over the limit of %d",
				gens, allocs, stats.Misses, len(front), limit)
		}
		if gens >= 500 && stats.Hits < 10*stats.Misses {
			t.Errorf("G=%d: %d hits to %d misses: the instance no longer converges", gens, stats.Hits, stats.Misses)
		}
	}
}

// TestSolveGAReusedEvaluatorMatchesFresh runs differently shaped solves —
// wider then narrower genomes, larger then smaller populations — through
// one Evaluator, whose parked solver scratch they inherit from each other,
// and requires each front to equal the one a fresh Evaluator gives.
func TestSolveGAReusedEvaluatorMatchesFresh(t *testing.T) {
	steps := []struct {
		p   Problem
		cfg GAConfig
	}{
		{randomKnapsack(130, 104), GAConfig{Generations: 30, Population: 24, MutationProb: 0.02}},
		{table1(), GAConfig{Generations: 30, Population: 8, MutationProb: 0.02}},
		{randomKnapsack(70, 103), GAConfig{Generations: 30, Population: 14, MutationProb: 0.01}},
		{randomKnapsack(20, 101), GAConfig{Generations: 30, Population: 12, MutationProb: 0.01}},
		{table1(), GAConfig{Generations: 30, Population: 30, MutationProb: 0.3}},
	}
	var ev *Evaluator
	for i, st := range steps {
		ev = ReuseEvaluator(ev, st.p)
		got, err := SolveGA(ev, st.cfg, rng.New(uint64(i)))
		if err != nil {
			t.Fatal(err)
		}
		fresh := NewEvaluator(st.p)
		want, err := SolveGA(fresh, st.cfg, rng.New(uint64(i)))
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(want) {
			t.Fatalf("step %d: front of %d through the reused Evaluator, %d fresh", i, len(got), len(want))
		}
		for j := range want {
			if !got[j].Genome.Equal(want[j].Genome) || !equalObjs(got[j].Objectives, want[j].Objectives) || got[j].Age != want[j].Age {
				t.Fatalf("step %d: front member %d diverged through the reused Evaluator", i, j)
			}
		}
		if ev.Stats() != fresh.Stats() {
			t.Fatalf("step %d: cache stats %+v through the reused Evaluator, %+v fresh", i, ev.Stats(), fresh.Stats())
		}
	}
}
