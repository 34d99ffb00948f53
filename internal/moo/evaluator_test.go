package moo

import (
	"sync"
	"sync/atomic"
	"testing"

	"bbsched/internal/rng"
)

// countingProblem wraps a knapsack2 and counts raw Evaluate calls.
type countingProblem struct {
	*knapsack2
	calls atomic.Int64
}

func (c *countingProblem) Evaluate(g Genome) ([]float64, bool) {
	c.calls.Add(1)
	return c.knapsack2.Evaluate(g)
}

func TestEvaluatorHitMissAccounting(t *testing.T) {
	cp := &countingProblem{knapsack2: table1()}
	ev := NewEvaluator(cp)

	a := FromBools([]bool{true, false, false, false, false})
	b := FromBools([]bool{false, true, false, false, false})
	for i := 0; i < 5; i++ {
		if _, ok := ev.Evaluate(a); !ok {
			t.Fatal("a should be feasible")
		}
	}
	ev.Evaluate(b)
	ev.Evaluate(b)

	st := ev.Stats()
	if st.Misses != 2 {
		t.Fatalf("misses = %d, want 2 (distinct genomes)", st.Misses)
	}
	if st.Hits != 5 {
		t.Fatalf("hits = %d, want 5", st.Hits)
	}
	if got := cp.calls.Load(); got != 2 {
		t.Fatalf("underlying Evaluate ran %d times, want 2", got)
	}

	// Results must match the raw problem.
	wantObjs, wantOK := cp.knapsack2.Evaluate(a)
	gotObjs, gotOK := ev.Evaluate(a)
	if gotOK != wantOK || !equalObjs(gotObjs, wantObjs) {
		t.Fatalf("cached result %v/%v, want %v/%v", gotObjs, gotOK, wantObjs, wantOK)
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
	if cp2.calls.Load() != 1 {
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

// TestEvaluatorAtMostOncePerGenomeConcurrent drives many goroutines at a
// small genome set and asserts the underlying problem saw each distinct
// genome exactly once — the at-most-once guarantee concurrent Evaluate
// callers rely on. Run with -race in CI.
func TestEvaluatorAtMostOncePerGenomeConcurrent(t *testing.T) {
	k := randomKnapsack(70, 7) // crosses the 64-gene word boundary
	cp := &countingProblem{knapsack2: k}
	ev := NewEvaluator(cp)

	const distinct = 16
	genomes := make([]Genome, distinct)
	s := rng.New(11)
	for i := range genomes {
		genomes[i] = FromBools(randBools(70, s))
	}

	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for rep := 0; rep < 50; rep++ {
				for _, g := range genomes {
					ev.Evaluate(g)
				}
			}
		}()
	}
	wg.Wait()

	if got := cp.calls.Load(); got != distinct {
		t.Fatalf("underlying Evaluate ran %d times, want %d", got, distinct)
	}
	st := ev.Stats()
	if st.Misses != distinct {
		t.Fatalf("misses = %d, want %d", st.Misses, distinct)
	}
	if st.Hits+st.Misses != 8*50*distinct {
		t.Fatalf("hits+misses = %d, want %d", st.Hits+st.Misses, 8*50*distinct)
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
