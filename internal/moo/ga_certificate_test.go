package moo

import (
	"cmp"
	"math"
	"slices"
	"testing"

	"bbsched/internal/rng"
)

// liveKnapsack is a knapsack2 that declares its live set: the items that
// fit the caps alone. Weights are non-negative, so the guarantee holds.
type liveKnapsack struct{ *knapsack2 }

func (k liveKnapsack) LiveSet(dst []int) ([]int, bool) {
	for i := range k.nodes {
		if k.nodes[i] <= k.capNodes && k.bb[i] <= k.capBB {
			dst = append(dst, i)
		}
	}
	return dst, true
}

// liveTable is a tableProblem over which every variable is live.
type liveTable struct{ *tableProblem }

func (liveTable) LiveSet(dst []int) ([]int, bool) {
	return append(dst, 0, 1, 2, 3, 4, 5, 6, 7), true
}

// antiDiagonal returns an always-feasible table whose exact Pareto set is
// the genotypes 1…n, on (i, n−i); every other genotype scores below all.
func antiDiagonal(n int) *tableProblem {
	p := &tableProblem{}
	for v := range p.objs {
		p.objs[v] = []float64{-1, -1}
		if 1 <= v && v <= n {
			p.objs[v] = []float64{float64(v), float64(n - v)}
		}
	}
	return p
}

// solveCounted runs SolveGA through its own Evaluator and returns the
// front with the generations the solve ran.
func solveCounted(t *testing.T, p Problem, cfg GAConfig, seed uint64) ([]Solution, uint64) {
	t.Helper()
	ev := NewEvaluator(p)
	front, err := SolveGA(ev, cfg, rng.New(seed))
	if err != nil {
		t.Fatal(err)
	}
	return front, ev.Stats().Generations
}

// sameFront requires equal genomes and bit-equal objectives, in order.
func sameFront(t *testing.T, label string, got, want []Solution) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: front of %d, want %d", label, len(got), len(want))
	}
	for i := range want {
		if !got[i].Genome.Equal(want[i].Genome) {
			t.Fatalf("%s: member %d is %s, want %s", label, i, got[i].Genome, want[i].Genome)
		}
		for k := range want[i].Objectives {
			if math.Float64bits(got[i].Objectives[k]) != math.Float64bits(want[i].Objectives[k]) {
				t.Fatalf("%s: member %d objectives %v, want %v", label, i, got[i].Objectives, want[i].Objectives)
			}
		}
	}
}

// TestSelectNextKeepsParetoSet is the persistence lemma behind the
// certificate: when the pool holds every genotype of F* — the feasible
// genotypes no feasible genotype dominates — and |F*| ≤ P, so does the
// next generation, whatever else the pool holds: random dominated
// genotypes of any age, a flood of age-0 clones of one chromosome, distinct
// genotypes sharing one objective vector (few levels make them common).
func TestSelectNextKeepsParetoSet(t *testing.T) {
	s := rng.New(53)
	checked := 0
	for trial := 0; trial < 600; trial++ {
		p := &tableProblem{}
		m := 2 + s.Intn(2)
		levels := 3 + s.Intn(6)
		for v := range p.objs {
			p.objs[v] = make([]float64, m)
			for k := range p.objs[v] {
				p.objs[v][k] = float64(s.Intn(levels))
			}
		}
		g := &gaSolver{ev: NewEvaluator(p), nobj: m}
		scratch := NewGenome(8)
		idOf := func(v int) int32 {
			scratch.w[0] = uint64(v)
			return g.intern(g.ev.lookup(scratch))
		}

		// F* over all 256 genotypes (all feasible), ties kept.
		var all []Solution
		for v := range p.objs {
			all = append(all, Solution{Objectives: p.objs[v], Age: v})
		}
		var fstar []int32
		for _, sol := range ParetoFilter(all) {
			fstar = append(fstar, idOf(sol.Age))
		}
		pop := len(fstar) + s.Intn(6)
		if pop < 2 {
			pop = 2
		}

		var pool []member
		for _, id := range fstar {
			for c := 1 + s.Intn(3); c > 0; c-- {
				pool = append(pool, member{id: id, age: int32(s.Intn(40))})
			}
		}
		for len(pool) < 2*pop-s.Intn(pop) {
			pool = append(pool, member{id: idOf(s.Intn(256)), age: int32(s.Intn(40))})
		}
		flood := idOf(s.Intn(256))
		for c := s.Intn(2 * pop); c > 0; c-- {
			pool = append(pool, member{id: flood})
		}
		for i := range pool { // pool order is not the lemma's business
			j := i + s.Intn(len(pool)-i)
			pool[i], pool[j] = pool[j], pool[i]
		}

		g.cert = fstar
		if !g.settled(pool) {
			t.Fatalf("trial %d: settled denies a pool built around F*", trial)
		}
		next := g.selectNext(pool, pop)
		if !g.settled(next) {
			t.Fatalf("trial %d: P=%d, |F*|=%d, pool of %d: selection dropped a member of F*", trial, pop, len(fstar), len(pool))
		}
		if len(fstar) > 1 {
			if g.settled(next[:0]) || g.settled(pool[:0]) {
				t.Fatalf("trial %d: settled accepts an empty population", trial)
			}
			checked++
		}
	}
	if checked < 200 {
		t.Fatalf("only %d trials had more than one Pareto genotype", checked)
	}
}

// TestGACertificateEdges pins when a solve may stop early and when it must
// run all G generations, through EvalStats.Generations; and that stopping
// changes nothing the solve returns.
func TestGACertificateEdges(t *testing.T) {
	small := GAConfig{Generations: 3000, Population: 4, MutationProb: 0.1}
	def := DefaultGAConfig()
	fourteen := randomKnapsack(14, 77) // L = 14, and every selection fits
	fourteen.capNodes, fourteen.capBB = math.Inf(1), math.Inf(1)
	thirteen := randomKnapsack(13, 77)
	sixteen := busyKnapsack(16, 11) // L = 16, of whose 2^16 selections the walk evaluates 1 278
	crowded := busyKnapsack(16, 11) // L = 16 still, and the walk evaluates 398
	crowded.capNodes, crowded.capBB = 60, 80
	// L = 64, every selection of three jobs too big and few of two fit:
	// the walk evaluates 2 285 selections, mask bit 63 among them.
	wide := randomKnapsack(64, 11)
	for i := range wide.nodes {
		wide.nodes[i] = 28 + math.Mod(wide.nodes[i], 32)
	}
	wide.capNodes = 60
	long := GAConfig{Generations: 3000, Population: 20, MutationProb: def.MutationProb}

	cases := []struct {
		name   string
		p      Problem
		hidden Problem // p with its live set hidden
		cfg    GAConfig
		full   bool // must run cfg.Generations
	}{
		{"table1", liveKnapsack{table1()}, table1(), def, false},
		{"front of P", liveTable{antiDiagonal(4)}, antiDiagonal(4), small, false},
		{"front of P+1", liveTable{antiDiagonal(5)}, antiDiagonal(5), small, true},
		{"no interface", table1(), table1(), def, true},
		{"L=14 at the defaults", liveKnapsack{fourteen}, fourteen, def, true},
		{"busy L=16 at the defaults", liveKnapsack{crowded}, crowded, def, false},
		{"L=16 past G evaluations", liveKnapsack{sixteen}, sixteen, def, true},
		{"busy L=64 within G evaluations", liveKnapsack{wide}, wide, long, false},
		{"zero generations", liveKnapsack{table1()}, table1(), GAConfig{Population: 20}, true},
	}
	for _, tc := range cases {
		front, gens := solveCounted(t, tc.p, tc.cfg, 5)
		switch {
		case tc.full && gens != uint64(tc.cfg.Generations):
			t.Errorf("%s: ran %d generations, must run all %d", tc.name, gens, tc.cfg.Generations)
		case !tc.full && gens >= uint64(tc.cfg.Generations):
			t.Errorf("%s: ran all %d generations, the certificate never held", tc.name, gens)
		}
		// With its live set hidden the problem runs to G, and must return
		// the same front.
		want, fullGens := solveCounted(t, tc.hidden, tc.cfg, 5)
		if fullGens != uint64(tc.cfg.Generations) {
			t.Errorf("%s: hidden live set, yet %d of %d generations", tc.name, fullGens, tc.cfg.Generations)
		}
		sameFront(t, tc.name, front, want)
	}

	// Over more than G·P selections the walk gets G evaluations. The L=14
	// knapsack, whose F* is one genotype, and the L=16 one run all G
	// generations only because their walks run out of them; the L=64 one,
	// given G = 3 000, walks to the end.
	for _, w := range []struct {
		name string
		k    *knapsack2
		cfg  GAConfig
		ok   bool
	}{{"L=14", fourteen, def, false}, {"L=16", sixteen, def, false}, {"L=64", wide, long, true}} {
		live, _ := liveKnapsack{w.k}.LiveSet(nil)
		budget := walkBudget(w.cfg, len(live))
		if budget != w.cfg.Generations {
			t.Errorf("%s: a budget of %d evaluations, want G = %d", w.name, budget, w.cfg.Generations)
		}
		if _, ok := paretoOver(w.k, NewGenome(w.k.Dim()), live, true, budget, nil); ok != w.ok {
			t.Errorf("%s: the walk finished within %d evaluations: %v, want %v", w.name, budget, ok, w.ok)
		}
	}

	// An L = 13 walk evaluates at most 2^13 ≤ 500·20 selections, its
	// budget, so it always ends in a certificate: whether the GA reaches
	// F* in time is the instance's business, the front is not.
	if budget := walkBudget(def, 13); budget != def.Generations*def.Population {
		t.Errorf("L=13: a budget of %d evaluations, want G·P", budget)
	}
	got, _ := solveCounted(t, liveKnapsack{thirteen}, def, 5)
	want, _ := solveCounted(t, thirteen, def, 5)
	sameFront(t, "L=13", got, want)
}

// TestGACertifiedStopMatchesFullRunKnapsack is the differential check on
// moo's own instances: busy knapsacks (few live items, the replay's shape)
// and loose ones, every seed — SolveGA with the live set declared returns
// what it returns with the live set hidden.
func TestGACertifiedStopMatchesFullRunKnapsack(t *testing.T) {
	cfg := GAConfig{Generations: 120, Population: 12, MutationProb: 0.01}
	stopped := 0
	for seed := uint64(0); seed < 60; seed++ {
		k := busyKnapsack(6+int(seed%20), 2000+seed)
		if seed%3 == 0 {
			k = randomKnapsack(4+int(seed%8), 3000+seed)
		}
		got, gens := solveCounted(t, liveKnapsack{k}, cfg, seed)
		want, _ := solveCounted(t, k, cfg, seed)
		sameFront(t, "knapsack", got, want)
		if gens < uint64(cfg.Generations) {
			stopped++
		}
	}
	if stopped < 20 {
		t.Fatalf("only %d of 60 solves stopped on their certificate", stopped)
	}
}

// TestParetoOverSubsetMatchesExhaustive checks the shared walk from both
// ends: visiting every selection over the live variables only, it finds
// the objective points SolveExhaustive finds over all of them; extending
// feasible selections only, with ties, it keeps every genotype on those
// points.
func TestParetoOverSubsetMatchesExhaustive(t *testing.T) {
	for seed := uint64(0); seed < 40; seed++ {
		k := busyKnapsack(8+int(seed%9), 4000+seed)
		live, _ := liveKnapsack{k}.LiveSet(nil)
		want, err := SolveExhaustive(k)
		if err != nil {
			t.Fatal(err)
		}
		points, _ := paretoOver(k, NewGenome(k.Dim()), live, false, math.MaxInt, nil)
		if len(points) != len(want) {
			t.Fatalf("seed %d: %d points over %d live variables, %d over all %d", seed, len(points), len(live), len(want), k.Dim())
		}
		tied, _ := paretoOver(k, NewGenome(k.Dim()), live, true, math.MaxInt, nil)
		for _, set := range [][]point{points, tied} {
			for _, pt := range set {
				found := false
				for _, w := range want {
					found = found || equalObjs(pt.objs, w.Objectives)
				}
				if !found {
					t.Fatalf("seed %d: point %v is not on the exhaustive front", seed, pt.objs)
				}
			}
		}
		if len(tied) < len(points) {
			t.Fatalf("seed %d: keeping ties lost points: %d < %d", seed, len(tied), len(points))
		}
	}
}

// checkMonotone enumerates every genome of p (dim ≤ 16) and requires
// LiveSetter's promise: each one-variable extension of an infeasible
// genome is infeasible, and the live set is the feasible singletons.
func checkMonotone(t *testing.T, label string, p Problem) {
	t.Helper()
	n := p.Dim()
	feasible := make([]bool, 1<<uint(n))
	g := NewGenome(n)
	for mask := range feasible {
		g.w[0] = uint64(mask)
		_, feasible[mask] = p.Evaluate(g)
	}
	var want []int
	for i := 0; i < n; i++ {
		if feasible[1<<uint(i)] {
			want = append(want, i)
		}
	}
	if live, ok := p.(LiveSetter).LiveSet(nil); !ok || !slices.Equal(live, want) {
		t.Fatalf("%s: live set %v (ok=%v), feasible singletons %v", label, live, ok, want)
	}
	for mask, ok := range feasible {
		for i := 0; i < n && !ok; i++ {
			if feasible[mask|1<<uint(i)] {
				t.Fatalf("%s: %b is infeasible, yet feasible with variable %d added", label, mask, i)
			}
		}
	}
}

// TestLiveSetterFixturesAreMonotone holds this file's LiveSetters to the
// promise the certificate's walk prunes by.
func TestLiveSetterFixturesAreMonotone(t *testing.T) {
	checkMonotone(t, "table1", liveKnapsack{table1()})
	checkMonotone(t, "antiDiagonal", liveTable{antiDiagonal(5)})
	for seed := uint64(0); seed < 20; seed++ {
		checkMonotone(t, "busy", liveKnapsack{busyKnapsack(4+int(seed%9), 5000+seed)})
		checkMonotone(t, "loose", liveKnapsack{randomKnapsack(4+int(seed%9), 6000+seed)})
	}
}

// FuzzParetoWalk holds the walk to brute force on random monotone
// knapsacks, loose to busy, some with a few weight levels so that
// objective vectors tie: extending feasible selections only, it keeps
// exactly the selections over the live set that no feasible selection
// dominates, ties included, in at most 2^L evaluations; visiting all 2^L,
// it keeps the smallest mask of each of their objective vectors; and one
// evaluation short of what it needs, it yields nothing, and the GA runs
// all G generations for want of a certificate.
func FuzzParetoWalk(f *testing.F) {
	f.Add(uint64(0), uint8(1), uint8(0), uint8(0))
	f.Add(uint64(7), uint8(8), uint8(63), uint8(0))
	f.Add(uint64(42), uint8(10), uint8(9), uint8(0))
	f.Add(uint64(1), uint8(9), uint8(18), uint8(2))
	f.Add(uint64(3), uint8(10), uint8(27), uint8(3))
	f.Add(uint64(1<<40), uint8(7), uint8(3), uint8(5))
	f.Fuzz(func(t *testing.T, seed uint64, size, tight, levels uint8) {
		k := randomKnapsack(1+int(size%11), seed)
		if q := float64(levels % 6); q > 0 {
			for i := range k.nodes {
				k.nodes[i], k.bb[i] = 1+math.Mod(k.nodes[i], q), math.Mod(k.bb[i], q)
			}
		}
		k.capNodes, k.capBB = 0, 0
		for i := range k.nodes {
			k.capNodes += k.nodes[i]
			k.capBB += k.bb[i]
		}
		k.capNodes *= float64(1+tight%8) / 8 // an eighth of the whole window's demand to all of it
		k.capBB *= float64(1+tight/8%8) / 8
		live, _ := liveKnapsack{k}.LiveSet(nil)
		n := len(live)

		// The oracle: every selection over the live set, its Pareto set
		// with ties, in ascending mask order.
		g := NewGenome(k.Dim())
		var feasible, want []point
		for mask := uint64(0); mask < 1<<uint(n); mask++ {
			g.Zero()
			for i := range live {
				g.SetBit(live[i], mask>>uint(i)&1 == 1)
			}
			if objs, ok := k.Evaluate(g); ok {
				feasible = append(feasible, point{mask, objs})
			}
		}
		for _, a := range feasible {
			if !slices.ContainsFunc(feasible, func(b point) bool { return Dominates(b.objs, a.objs) }) {
				want = append(want, a)
			}
		}
		byMask := func(a, b point) int { return cmp.Compare(a.mask, b.mask) }
		same := func(label string, got, want []point) {
			t.Helper()
			slices.SortFunc(got, byMask)
			if !slices.EqualFunc(got, want, func(a, b point) bool { return a.mask == b.mask && equalObjs(a.objs, b.objs) }) {
				t.Fatalf("%s over %d live variables: kept %v, want %v", label, n, got, want)
			}
		}

		cp := &countingProblem{knapsack2: k}
		tied, ok := paretoOver(cp, NewGenome(k.Dim()), live, true, math.MaxInt, nil)
		evals := cp.calls
		if !ok || evals > 1<<uint(n) {
			t.Fatalf("pruned walk: ok=%v after %d evaluations over %d live variables", ok, evals, n)
		}
		same("pruned walk", tied, want)

		cp.calls = 0
		full, _ := paretoOver(cp, NewGenome(k.Dim()), live, false, math.MaxInt, nil)
		if cp.calls != 1<<uint(n) {
			t.Fatalf("full walk evaluated %d of 2^%d selections", cp.calls, n)
		}
		var witnesses []point
		for _, w := range want {
			if !slices.ContainsFunc(witnesses, func(v point) bool { return equalObjs(v.objs, w.objs) }) {
				witnesses = append(witnesses, w)
			}
		}
		same("full walk", full, witnesses)

		if again, ok := paretoOver(k, NewGenome(k.Dim()), live, true, evals, nil); !ok {
			t.Fatalf("a budget of the %d evaluations the walk took ran out", evals)
		} else {
			same("walk on its exact budget", again, want)
		}
		if _, ok := paretoOver(k, NewGenome(k.Dim()), live, true, evals-1, nil); ok {
			t.Fatalf("a budget of %d finished a walk of %d evaluations", evals-1, evals)
		}
		cfg := GAConfig{Generations: (evals - 1) / 4, Population: 4, MutationProb: 0.1}
		if _, gens := solveCounted(t, liveKnapsack{k}, cfg, seed); gens != uint64(cfg.Generations) {
			t.Fatalf("G·P = %d of the walk's %d evaluations, yet the GA stopped after %d of %d generations",
				cfg.Generations*cfg.Population, evals, gens, cfg.Generations)
		}
	})
}

// TestEvaluatorResetAfterLargeSolve resets after fills large and small —
// one that grows the table to 8 192 slots, then small fills that use few
// of them, and fills on either side of the initial 256-entry capacity —
// and requires an empty cache after each: no entry and no occupied slot.
func TestEvaluatorResetAfterLargeSolve(t *testing.T) {
	k := randomKnapsack(12, 9)
	cp := &countingProblem{knapsack2: k}
	ev := NewEvaluator(cp)
	g := NewGenome(12)
	for round, fill := range []int{3000, 1, 5, 100, 200, 7, 300, 2, 0, 1} {
		for v := 0; v < fill; v++ {
			g.w[0] = uint64(v)
			ev.Evaluate(g)
		}
		if st := ev.Stats(); st.Misses != uint64(fill) || st.Hits != 0 {
			t.Fatalf("round %d: %d lookups after Reset gave %+v: a stale entry was served", round, fill, st)
		}
		ev.Reset(cp)
		if n := len(ev.entries); n != 0 {
			t.Fatalf("round %d: %d entries survive Reset after a fill of %d", round, n, fill)
		}
		for i, slot := range ev.table {
			if slot != 0 {
				t.Fatalf("round %d: slot %d holds id %d after Reset from a fill of %d", round, i, slot-1, fill)
			}
		}
	}
}
