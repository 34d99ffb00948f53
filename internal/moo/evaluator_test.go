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
	id := ev.lookup(scratch)
	scratch.Zero() // caller recycles its buffer
	if !ev.genome(id).Equal(FromBools([]bool{true, false, true, false, false})) {
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

// FuzzEvaluatorMatchesMap drives one Evaluator beside an oracle, a map
// keyed by Genome.Key(), through Resets that change the dimension, bursts
// of fresh genomes that grow the table past 1 024 entries (sparse ones one
// gene short of the problem's dimension, beside full-length ones),
// revisits, and one-bit neighbours of known genomes. Each lookup must hit
// or miss as the map does, return the id the map assigned (dense, in
// first-seen order), and hold the looked-up genome and the problem's
// objectives under that id.
//
// Each op byte is one step: op&3 picks Reset (to dimension
// evalFuzzDims[op>>2 mod 6]), a burst of 32·(1+op>>3) random genomes
// (sparse and one gene short when op&4 is set), revisits, or neighbours,
// 1+op>>2 of either.
func FuzzEvaluatorMatchesMap(f *testing.F) {
	f.Add(uint64(1), []byte{1<<2 | 0, 31<<3 | 1, 31<<3 | 1, 63<<2 | 2, 63<<2 | 3, 5<<2 | 0, 31<<3 | 4 | 1, 63<<2 | 3, 2<<2 | 0, 3<<3 | 1, 9<<2 | 2})
	f.Add(uint64(7), []byte{0, 7<<3 | 1, 10<<2 | 2, 3<<2 | 0, 31<<3 | 1, 20<<2 | 3, 4<<2 | 0, 31<<3 | 4 | 1, 31<<3 | 1, 0, 3<<3 | 1})
	problems := map[int]*knapsack2{}
	for _, dim := range evalFuzzDims {
		problems[dim] = randomKnapsack(dim, uint64(dim))
	}
	f.Fuzz(func(t *testing.T, seed uint64, ops []byte) {
		s := rng.New(seed)
		p := problems[evalFuzzDims[0]]
		ev := NewEvaluator(p)
		oracle := map[string]int32{}
		var seen []Genome // first-seen order: seen[id]
		var want EvalStats
		check := func(g Genome) {
			t.Helper()
			id, ok := oracle[g.Key()]
			if ok {
				want.Hits++
			} else {
				id = int32(len(seen))
				oracle[g.Key()] = id
				seen = append(seen, g.Clone())
				want.Misses++
			}
			if got := ev.lookup(g); got != id {
				t.Fatalf("dim %d: genome %s looked up as id %d, want %d", g.Len(), g, got, id)
			}
			if !ev.genome(id).Equal(g) {
				t.Fatalf("dim %d: id %d holds %s, looked up %s", g.Len(), id, ev.genome(id), g)
			}
			objs, feasible := p.Evaluate(g)
			if ent := ev.entries[id]; ent.feasible != feasible || !equalObjs(ent.objs, objs) || len(ent.objs) != len(objs) {
				t.Fatalf("dim %d: id %d holds %v/%v, the problem gives %v/%v", g.Len(), id, ent.objs, ent.feasible, objs, feasible)
			}
			if ev.Stats() != want {
				t.Fatalf("dim %d: stats %+v, want %+v", g.Len(), ev.Stats(), want)
			}
		}
		for _, op := range ops {
			dim := p.Dim()
			g := NewGenome(dim)
			switch op & 3 {
			case 0:
				p = problems[evalFuzzDims[int(op>>2)%len(evalFuzzDims)]]
				ev.Reset(p)
				clear(oracle)
				seen, want = seen[:0], EvalStats{}
				for i, slot := range ev.table {
					if slot != 0 {
						t.Fatalf("slot %d holds id %d after Reset", i, slot-1)
					}
				}
			case 1:
				density := rng.NewBernoulli(0.5)
				if op&4 != 0 && dim > 1 {
					// One gene short: the same words as a full-length
					// genome with its last gene clear, but another genome.
					density, g = rng.NewBernoulli(1.0/16), NewGenome(dim-1)
				}
				for range 32 * (1 + int(op>>3)) {
					s.FillBools(g.w, g.Len(), density)
					check(g)
				}
			default:
				for range 1 + int(op>>2) {
					if len(seen) == 0 {
						break
					}
					g = seen[s.Intn(len(seen))].Clone()
					if op&3 == 3 {
						g.FlipBit(s.Intn(g.Len()))
					}
					check(g)
				}
			}
		}
		for id, g := range seen {
			if !ev.genome(int32(id)).Equal(g) {
				t.Fatalf("id %d holds %s at the end, was %s", id, ev.genome(int32(id)), g)
			}
		}
	})
}

// evalFuzzDims are FuzzEvaluatorMatchesMap's genome lengths: one gene, the
// paper's window, and both sides of the one- and two-word boundaries.
var evalFuzzDims = []int{1, 20, 63, 64, 65, 130}
