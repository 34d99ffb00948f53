package moo

// This file carries a faithful copy of the pre-refactor (seed) GA
// implementation over []bool genomes. It exists for two reasons:
//
//   - the fixed-seed equivalence tests prove the bitset/memoized solver
//     returns exactly the seed solver's Pareto fronts (same genomes, same
//     objectives, same order) for identical RNG streams;
//   - BenchmarkSolveGAReference (ga_bench_test.go) quantifies the
//     speedup and allocation reduction against the same instance.
//
// Keep it in sync with nothing: it is intentionally frozen at the seed
// behaviour.

import (
	"fmt"
	"sort"
	"testing"

	"bbsched/internal/rng"
)

type refSolution struct {
	Bits       []bool
	Objectives []float64
	Age        int
	key        string
}

func (s refSolution) Clone() refSolution {
	c := s
	c.Bits = append([]bool(nil), s.Bits...)
	c.Objectives = append([]float64(nil), s.Objectives...)
	return c
}

func (s *refSolution) Key() string {
	if s.key == "" && len(s.Bits) > 0 {
		b := make([]byte, len(s.Bits))
		for i, v := range s.Bits {
			if v {
				b[i] = '1'
			} else {
				b[i] = '0'
			}
		}
		s.key = string(b)
	}
	return s.key
}

// refProblem is the seed's []bool evaluation surface.
type refProblem interface {
	Dim() int
	EvaluateBits(bits []bool) ([]float64, bool)
	// RepairBits reports false if the problem has no repairer.
	RepairBits(bits []bool, drop func(int) int) bool
}

// refAdapter exposes a current Genome-based Problem to the reference
// solver. Conversion draws no randomness, so the reference's RNG stream
// stays aligned with the seed implementation — this is what the
// equivalence tests run against.
type refAdapter struct{ p Problem }

func (a refAdapter) Dim() int { return a.p.Dim() }

func (a refAdapter) EvaluateBits(bits []bool) ([]float64, bool) {
	return a.p.Evaluate(FromBools(bits))
}

func (a refAdapter) RepairBits(bits []bool, drop func(int) int) bool {
	r, ok := a.p.(Repairer)
	if !ok {
		if e, isEval := a.p.(*Evaluator); isEval {
			r, ok = e.Problem().(Repairer)
		}
	}
	if !ok {
		return false
	}
	g := FromBools(bits)
	r.Repair(g, drop)
	for i := range bits {
		bits[i] = g.Bit(i)
	}
	return true
}

// refKnapsack2 is the seed test problem verbatim — direct []bool
// evaluation with no genome conversions — so BenchmarkSolveGAReference
// measures the true pre-refactor cost rather than adapter overhead.
type refKnapsack2 struct{ k *knapsack2 }

func (r refKnapsack2) Dim() int { return len(r.k.nodes) }

func (r refKnapsack2) EvaluateBits(bits []bool) ([]float64, bool) {
	var n, b float64
	for i, on := range bits {
		if on {
			n += r.k.nodes[i]
			b += r.k.bb[i]
		}
	}
	return []float64{n, b}, n <= r.k.capNodes && b <= r.k.capBB
}

func (r refKnapsack2) RepairBits(bits []bool, drop func(int) int) bool {
	for {
		if _, ok := r.EvaluateBits(bits); ok {
			return true
		}
		on := make([]int, 0, len(bits))
		for i, v := range bits {
			if v {
				on = append(on, i)
			}
		}
		if len(on) == 0 {
			return true
		}
		bits[on[drop(len(on))]] = false
	}
}

func refDominatedFlags(sols []refSolution) []bool {
	dominated := make([]bool, len(sols))
	for i := range sols {
		for j := range sols {
			if i == j {
				continue
			}
			if Dominates(sols[j].Objectives, sols[i].Objectives) {
				dominated[i] = true
				break
			}
		}
	}
	return dominated
}

func refParetoFilter(sols []refSolution) []refSolution {
	dominated := refDominatedFlags(sols)
	var front []refSolution
	for i, d := range dominated {
		if !d {
			front = append(front, sols[i])
		}
	}
	return front
}

func refDedupeByBits(sols []refSolution) []refSolution {
	seen := make(map[string]bool, len(sols))
	out := sols[:0:0]
	for _, s := range sols {
		k := s.Key()
		if !seen[k] {
			seen[k] = true
			out = append(out, s)
		}
	}
	return out
}

func refSortLexicographic(sols []refSolution) {
	sort.Slice(sols, func(i, j int) bool {
		a, b := sols[i].Objectives, sols[j].Objectives
		for k := range a {
			if a[k] != b[k] {
				return a[k] > b[k]
			}
		}
		return sols[i].Key() < sols[j].Key()
	})
}

func refSolveGA(p refProblem, cfg GAConfig, s *rng.Stream) ([]refSolution, error) {
	dim := p.Dim()
	if cfg.Population < 2 || dim <= 0 {
		return nil, fmt.Errorf("moo: invalid reference configuration")
	}

	pop := refInitialPopulation(p, cfg, s)
	if len(pop) == 0 {
		return nil, fmt.Errorf("moo: no feasible initial solution for %d-dim problem", dim)
	}

	for g := 0; g < cfg.Generations; g++ {
		children := refBreed(p, cfg, pop, s)
		pool := append(pop, children...)
		pop = refSelectNext(pool, cfg.Population)
		for i := range pop {
			pop[i].Age++
		}
	}

	front := refParetoFilter(pop)
	front = refDedupeByBits(front)
	out := make([]refSolution, len(front))
	for i, f := range front {
		out[i] = f.Clone()
	}
	refSortLexicographic(out)
	return out, nil
}

func refInitialPopulation(p refProblem, cfg GAConfig, s *rng.Stream) []refSolution {
	pop := make([]refSolution, 0, cfg.Population)
	for tries := 0; len(pop) < cfg.Population && tries < cfg.Population*8; tries++ {
		bits := make([]bool, p.Dim())
		for i := range bits {
			bits[i] = s.Bool(0.5)
		}
		if sol, ok := refMakeFeasible(p, bits, s); ok {
			pop = append(pop, sol)
		}
	}
	if len(pop) < cfg.Population {
		zero := make([]bool, p.Dim())
		if objs, ok := p.EvaluateBits(zero); ok {
			for len(pop) < cfg.Population {
				pop = append(pop, refSolution{Bits: append([]bool(nil), zero...), Objectives: append([]float64(nil), objs...)})
			}
		}
	}
	return pop
}

func refMakeFeasible(p refProblem, bits []bool, s *rng.Stream) (refSolution, bool) {
	objs, ok := p.EvaluateBits(bits)
	if !ok {
		if !p.RepairBits(bits, s.Intn) {
			return refSolution{}, false
		}
		objs, ok = p.EvaluateBits(bits)
		if !ok {
			return refSolution{}, false
		}
	}
	sol := refSolution{Bits: bits, Objectives: objs}
	sol.Key()
	return sol, true
}

func refBreed(p refProblem, cfg GAConfig, pop []refSolution, s *rng.Stream) []refSolution {
	dim := p.Dim()
	raw := make([][]bool, 0, cfg.Population)
	for len(raw) < cfg.Population {
		a := pop[s.Intn(len(pop))].Bits
		b := pop[s.Intn(len(pop))].Bits
		cut := 1 + s.Intn(refMaxInt(1, dim-1))
		c1 := make([]bool, dim)
		c2 := make([]bool, dim)
		copy(c1, a[:cut])
		copy(c1[cut:], b[cut:])
		copy(c2, b[:cut])
		copy(c2[cut:], a[cut:])
		for _, c := range [][]bool{c1, c2} {
			for i := range c {
				if s.Bool(cfg.MutationProb) {
					c[i] = !c[i]
				}
			}
			raw = append(raw, c)
			if len(raw) == cfg.Population {
				break
			}
		}
	}

	var out []refSolution
	for i := range raw {
		ws := s.SplitIndex(uint64(i))
		if sol, ok := refMakeFeasible(p, raw[i], ws); ok {
			out = append(out, sol)
		}
	}
	return out
}

func refSelectNext(pool []refSolution, p int) []refSolution {
	dominated := refDominatedFlags(pool)
	var set1, set2 []refSolution
	for i, s := range pool {
		if dominated[i] {
			set2 = append(set2, s)
		} else {
			set1 = append(set1, s)
		}
	}
	next := make([]refSolution, 0, p)
	seen := make(map[string]bool, p)
	take := func(set []refSolution) {
		sort.SliceStable(set, func(i, j int) bool { return set[i].Age < set[j].Age })
		for i := range set {
			if len(next) == p {
				return
			}
			if k := set[i].Key(); !seen[k] {
				seen[k] = true
				next = append(next, set[i])
			}
		}
	}
	fill := func(set []refSolution) {
		for _, s := range set {
			if len(next) == p {
				return
			}
			next = append(next, s)
		}
	}
	take(set1)
	take(set2)
	fill(set1)
	fill(set2)
	return next
}

func refMaxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}

// randomKnapsack builds a deterministic knapsack2 instance of the given
// dimension; dims >= 65 exercise multi-word genomes.
func randomKnapsack(dim int, seed uint64) *knapsack2 {
	st := rng.New(seed)
	k := &knapsack2{capNodes: float64(dim) * 12, capBB: float64(dim) * 10}
	for i := 0; i < dim; i++ {
		k.nodes = append(k.nodes, float64(1+st.Intn(60)))
		k.bb = append(k.bb, float64(st.Intn(80)))
	}
	return k
}

// TestSolveGAMatchesSeedReference is the refactor's equivalence guarantee:
// for fixed seeds, the bitset/memoized solver must return exactly the
// Pareto front of the seed implementation — same genomes, same objective
// vectors, same order — across dimensions (including the 65+-gene
// word-boundary crossing).
func TestSolveGAMatchesSeedReference(t *testing.T) {
	type instance struct {
		name string
		p    Problem
	}
	instances := []instance{
		{"table1_dim5", table1()},
		{"knapsack_dim20", randomKnapsack(20, 101)},
		{"knapsack_dim64", randomKnapsack(64, 102)},
		{"knapsack_dim70", randomKnapsack(70, 103)},
		{"knapsack_dim130", randomKnapsack(130, 104)},
	}
	configs := []struct {
		name string
		cfg  GAConfig
	}{
		{"serial", GAConfig{Generations: 60, Population: 14, MutationProb: 0.01}},
	}
	for _, inst := range instances {
		for _, tc := range configs {
			for seed := uint64(1); seed <= 3; seed++ {
				want, err := refSolveGA(refAdapter{inst.p}, tc.cfg, rng.New(seed))
				if err != nil {
					t.Fatalf("%s/%s/seed%d: reference: %v", inst.name, tc.name, seed, err)
				}
				got, err := SolveGA(inst.p, tc.cfg, rng.New(seed))
				if err != nil {
					t.Fatalf("%s/%s/seed%d: %v", inst.name, tc.name, seed, err)
				}
				if len(got) != len(want) {
					t.Fatalf("%s/%s/seed%d: front size %d, reference %d",
						inst.name, tc.name, seed, len(got), len(want))
				}
				for i := range got {
					if !equalObjs(got[i].Objectives, want[i].Objectives) {
						t.Fatalf("%s/%s/seed%d: solution %d objectives %v, reference %v",
							inst.name, tc.name, seed, i, got[i].Objectives, want[i].Objectives)
					}
					if !got[i].Genome.Equal(FromBools(want[i].Bits)) {
						t.Fatalf("%s/%s/seed%d: solution %d genome %s, reference %s",
							inst.name, tc.name, seed, i, got[i].Genome, FromBools(want[i].Bits))
					}
				}
			}
		}
	}
}
