package moo

import (
	"testing"

	"bbsched/internal/rng"
)

// countingProblem wraps a knapsack2 and counts raw Evaluate calls.
type countingProblem struct {
	*knapsack2
	calls int
}

func (c *countingProblem) Evaluate(g Genome) ([]float64, bool) {
	c.calls++
	return c.knapsack2.Evaluate(g)
}

// TestEvaluatorHitMissAccounting: the underlying problem sees each
// distinct genome once, every repeat is a hit, and cached results match
// the raw problem — on Table 1's 5-bit genomes and on 70-bit ones that
// cross the 64-gene word boundary.
func TestEvaluatorHitMissAccounting(t *testing.T) {
	a := FromBools([]bool{true, false, false, false, false})
	b := FromBools([]bool{false, true, false, false, false})
	var wide []Genome
	s := rng.New(11)
	for range 16 {
		wide = append(wide, FromBools(randBools(70, s)))
	}
	var wideSeq []Genome
	for range 50 {
		wideSeq = append(wideSeq, wide...)
	}
	for _, tc := range []struct {
		name     string
		k        *knapsack2
		seq      []Genome
		distinct int
	}{
		{"table1", table1(), []Genome{a, a, a, a, a, b, b}, 2},
		{"70-bit", randomKnapsack(70, 7), wideSeq, 16},
	} {
		cp := &countingProblem{knapsack2: tc.k}
		ev := NewEvaluator(cp)
		for _, g := range tc.seq {
			ev.Evaluate(g)
		}
		st := ev.Stats()
		if st.Misses != uint64(tc.distinct) || st.Hits != uint64(len(tc.seq)-tc.distinct) {
			t.Fatalf("%s: stats %+v, want %d misses (distinct genomes) and %d hits",
				tc.name, st, tc.distinct, len(tc.seq)-tc.distinct)
		}
		if cp.calls != tc.distinct {
			t.Fatalf("%s: underlying Evaluate ran %d times, want %d", tc.name, cp.calls, tc.distinct)
		}
		for _, g := range tc.seq {
			wantObjs, wantOK := tc.k.Evaluate(g)
			gotObjs, gotOK := ev.Evaluate(g)
			if gotOK != wantOK || !equalObjs(gotObjs, wantObjs) {
				t.Fatalf("%s: cached result %v/%v, want %v/%v", tc.name, gotObjs, gotOK, wantObjs, wantOK)
			}
		}
	}
}

func TestEvaluatorCanonicalGenomeSurvivesScratchReuse(t *testing.T) {
	cp := &countingProblem{knapsack2: table1()}
	ev := NewEvaluator(cp)
	scratch := FromBools([]bool{true, false, true, false, false})
	ent := ev.lookup(scratch)
	scratch.Zero() // caller recycles its buffer
	if !ent.genome.Equal(FromBools([]bool{true, false, true, false, false})) {
		t.Fatal("cache entry genome aliased the caller's scratch buffer")
	}
}

func TestEvaluatorResetClearsCacheAndStats(t *testing.T) {
	cp := &countingProblem{knapsack2: table1()}
	ev := NewEvaluator(cp)
	g := FromBools([]bool{false, false, true, false, false})
	ev.Evaluate(g)
	ev.Evaluate(g)

	cp2 := &countingProblem{knapsack2: table1()}
	ev.Reset(cp2)
	if st := ev.Stats(); st.Hits != 0 || st.Misses != 0 {
		t.Fatalf("stats after Reset = %+v", st)
	}
	ev.Evaluate(g)
	if cp2.calls != 1 {
		t.Fatal("Reset did not clear the cache (stale entry served)")
	}
	if ev.Problem() != Problem(cp2) {
		t.Fatal("Reset did not rebind the problem")
	}
}

func TestNewEvaluatorIdempotent(t *testing.T) {
	ev := NewEvaluator(table1())
	if NewEvaluator(ev) != ev {
		t.Fatal("wrapping an Evaluator should return it unchanged")
	}
}

// TestSolveGAThroughSharedEvaluator reuses one Evaluator across solves of
// the same problem (the scheduler pattern) and checks both the cached
// second solve's correctness and that SolveGA reports cache traffic.
func TestSolveGAThroughSharedEvaluator(t *testing.T) {
	k := table1()
	ev := NewEvaluator(k)
	cfg := GAConfig{Generations: 60, Population: 12, MutationProb: 0.01}

	a, err := SolveGA(ev, cfg, rng.New(3))
	if err != nil {
		t.Fatal(err)
	}
	st := ev.Stats()
	if st.Misses == 0 || st.Hits == 0 {
		t.Fatalf("expected cache traffic, got %+v", st)
	}
	if st.Misses > st.Hits {
		t.Fatalf("converged GA should hit more than miss: %+v", st)
	}

	// Same seed, warm cache: identical front.
	b, err := SolveGA(ev, cfg, rng.New(3))
	if err != nil {
		t.Fatal(err)
	}
	if len(a) != len(b) {
		t.Fatalf("warm-cache front size %d, want %d", len(b), len(a))
	}
	for i := range a {
		if !a[i].Genome.Equal(b[i].Genome) || !equalObjs(a[i].Objectives, b[i].Objectives) {
			t.Fatal("warm-cache solve diverged")
		}
	}
}
