package moo

import (
	"fmt"
	"math"
	"math/bits"
	"slices"

	"bbsched/internal/rng"
)

// GAConfig holds the solver parameters of §3.2.3, G, P and p_m: the GA has
// one survivor selection, the paper's, and returns its final generation's
// front.
type GAConfig struct {
	// Generations is G, the evolution iteration count. Paper default 500.
	Generations int
	// Population is P, the constant population size. Paper default 20.
	Population int
	// MutationProb is p_m, the per-gene bit-flip probability applied to
	// children. Paper default 0.0005 (0.05%).
	MutationProb float64
}

// DefaultGAConfig returns the paper's §4.3 defaults: G=500, P=20,
// p_m=0.05%.
func DefaultGAConfig() GAConfig {
	return GAConfig{Generations: 500, Population: 20, MutationProb: 0.0005}
}

func (c GAConfig) validate(p Problem) error {
	if c.Generations < 0 {
		return fmt.Errorf("moo: negative generation count %d", c.Generations)
	}
	if c.Population < 2 {
		return fmt.Errorf("moo: population %d too small (need >= 2)", c.Population)
	}
	if !(c.MutationProb >= 0 && c.MutationProb <= 1) { // also rejects NaN
		return fmt.Errorf("moo: mutation probability %v out of [0,1]", c.MutationProb)
	}
	if p.Dim() <= 0 {
		return fmt.Errorf("moo: problem dimension %d", p.Dim())
	}
	return nil
}

// SolveGA runs the paper's multi-objective genetic algorithm and returns
// the Pareto set of the final generation (deduplicated by genome,
// lexicographically sorted). The stream makes runs reproducible.
//
// The run ends before generation G when nothing it returns can change any
// more. If p declares a live set of L ≥ 1 variables (LiveSetter), the
// solver walks the selections over it once and keeps F*, every feasible
// genotype no feasible genotype dominates (equal objective vectors all
// kept). The walk extends feasible selections only, which LiveSetter's
// promise makes exact: no selection that holds an infeasible one is
// feasible. So it never evaluates more than 2^L selections, and usually
// far fewer: on a busy machine most selections of two or three live jobs
// already fail. Its evaluations of p skip the cache, and it gives up past
// a budget: G·P evaluations when 2^L ≤ G·P, so that such a walk always
// finishes, and G — one per generation a certificate can save — over
// more selections. A walk over many live jobs finishes within G only on a
// busy machine; on a freer one it would visit thousands of selections,
// rarely to a certificate the population then reaches, and a refused walk
// buys nothing. With |F*| ≤ P the solver stops at the first generation
// whose population holds all of F*, because:
//
//   - F* stays. Every pool member is feasible, so it is in F* or dominated
//     by a member of F*; with F* ⊆ pop ⊆ pool, Set 1's distinct genotypes
//     are exactly F*, and selection's first pass takes them all (≤ P).
//   - The front is F*. Whenever F* ⊆ pop the population's non-dominated
//     genotypes are F* and nothing else, so genomes and objectives returned
//     are those generation G would return. Only Solution.Age differs.
//   - Nothing reads what was skipped, provided the caller draws nothing
//     from s after the solve: a certified solve leaves s at an earlier
//     position than G generations would (sim hands each pass its own stream).
//
// No certificate, and all G generations as ever: no LiveSetter or !ok,
// L = 0 or L > 64, a walk that would exceed its budget, or |F*| > P.
// The order the walk finds F* in decides only which Evaluator ids its
// genotypes get, and ids are labels: no draw, selection or returned front
// depends on them. EvalStats.Generations reports what a solve ran.
//
// Evolution per generation: P children are bred by single-point crossover
// of uniformly chosen parents, each child's genes flip with probability
// p_m, infeasible children are repaired (or discarded if the problem does
// not implement Repairer), and the paper's age-based selection (§3.2.2)
// forms the next generation from parents ∪ children: all of Set 1 (the
// pool's Pareto front) first — trimmed preferring newer chromosomes if it
// exceeds P — then Set 2 filled in age order (newest first).
//
// All evaluation goes through an Evaluator (p is wrapped in a fresh one
// unless it already is one), so each distinct genome is evaluated at most
// once per solve, and the Evaluator's cache doubles as the intern table:
// a word-keyed open-addressed table over id-ordered entries, with no
// string key per lookup or per miss, and a Reset that costs O(entries).
// The generation loop runs on member{id, age} — the cache entry's dense id
// plus the chromosome's age — so the population, children, pool, Set 1,
// Set 2 and the next generation are pointer-free 8-byte records, "same
// genotype" is an id compare, and Pareto domination is computed once per
// distinct id in the pool, over objective vectors laid out flat by id, and
// shared by its copies. Solutions exist only in the returned front, where
// they leave the loop (their genome digests, Solution.Key, are built only
// when sorting it needs a tie-break).
// The buffers live with the Evaluator, so a caller that reuses one across
// solves (ReuseEvaluator) allocates per cache miss — the problem's
// objective vector — not per solve or per generation.
func SolveGA(p Problem, cfg GAConfig, s *rng.Stream) ([]Solution, error) {
	if err := cfg.validate(p); err != nil {
		return nil, err
	}
	ev := NewEvaluator(p)
	if ev.ga == nil {
		ev.ga = &gaSolver{ev: ev}
	}
	ev.ga.begin(cfg, s)
	return ev.ga.run()
}

// member is one chromosome of the generation loop: the interned id of its
// genotype (its Evaluator entry's index) and the generations it has
// survived.
type member struct{ id, age int32 }

// gaSolver carries one solve's state and the buffers every generation
// reuses; it is parked on its Evaluator between solves.
type gaSolver struct {
	ev     *Evaluator
	rep    Repairer
	cfg    GAConfig
	s      *rng.Stream
	dim    int
	mutate rng.Bernoulli // cfg.MutationProb as an integer threshold

	// Scratch indexed by id. objs[id*nobj:][:nobj] is id's objective
	// vector, copied from its entry for the ids below synced, so
	// markDominated compares contiguous floats. mark[id] == epoch stamps
	// an id as seen in the current pass (no clearing between passes), and
	// dominated[id] is valid for the ids the last markDominated stamped.
	objs      []float64
	nobj      int
	synced    int32
	mark      []int32
	dominated []bool
	epoch     int32
	distinct  []int32

	// Breeding scratch: raw child genomes and the mutation mask, carved
	// from one word slab and overwritten every generation (evaluated
	// children reference canonical Evaluator storage instead). childIDs[i]
	// is child i's interned id, or needsEval/infeasible.
	words    []uint64
	raw      []Genome
	flip     Genome
	childIDs []int32
	children []member

	// Repair stream scratch. wsIntn caches the ws.Intn method value: the
	// stream is reseeded in place, so the bound closure stays valid across
	// children, generations and solves.
	ws     *rng.Stream
	wsIntn func(int) int

	// Selection scratch.
	pop       []member
	pool      []member
	set1      []member
	set2      []member
	next      []member
	ageSorted []member

	// The termination certificate (see SolveGA): the problem's live set,
	// the enumeration's running non-dominated list, and the ids of F* —
	// empty when the solve has no certificate.
	live  []int
	exact []point
	cert  []int32
}

// Child states in childIDs that are not an id.
const (
	needsEval  int32 = -1
	infeasible int32 = -2
)

// begin binds the solver to one solve and sizes the breeding scratch for
// its (population, dimension).
func (g *gaSolver) begin(cfg GAConfig, s *rng.Stream) {
	g.cfg, g.s, g.dim = cfg, s, g.ev.Dim()
	g.rep = g.ev.repairer()
	g.mutate = rng.NewBernoulli(cfg.MutationProb)
	g.nobj, g.synced = g.ev.NumObjectives(), 0

	nw := (g.dim + 63) / 64
	if need := (cfg.Population + 1) * nw; cap(g.words) < need {
		g.words = make([]uint64, need)
	} else {
		// A previous solve's wider genomes may have left bits above dim,
		// which every Genome must keep zero.
		clear(g.words[:need])
	}
	genome := func(i int) Genome { return Genome{w: g.words[i*nw : (i+1)*nw : (i+1)*nw], n: g.dim} }
	g.raw = g.raw[:0]
	for i := 0; i < cfg.Population; i++ {
		g.raw = append(g.raw, genome(i))
	}
	g.flip = genome(cfg.Population)
	if cap(g.childIDs) < cfg.Population {
		g.childIDs = make([]int32, cfg.Population)
	}
}

// intern returns id, first extending the id-indexed scratch over the ids
// up to it and copying their objective vectors.
func (g *gaSolver) intern(id int32) int32 {
	// Ids arrive densely, so the loop runs about once per new id. A new
	// id's stamp is zero and epochs start at one, so it reads as unseen.
	for ; g.synced <= id; g.synced++ {
		g.mark = append(g.mark[:g.synced], 0)
		g.dominated = append(g.dominated[:g.synced], false)
		at := int(g.synced) * g.nobj
		g.objs = slices.Grow(g.objs[:at], g.nobj)[:at+g.nobj]
		clear(g.objs[at:])
		copy(g.objs[at:], g.ev.entries[g.synced].objs)
	}
	return id
}

// objsOf returns id's objective vector in the flat copy.
func (g *gaSolver) objsOf(id int32) []float64 {
	at := int(id) * g.nobj
	return g.objs[at : at+g.nobj : at+g.nobj]
}

// nextEpoch starts a new stamping pass over mark.
func (g *gaSolver) nextEpoch() int32 {
	if g.epoch == math.MaxInt32 {
		clear(g.mark)
		g.epoch = 0
	}
	g.epoch++
	return g.epoch
}

func (g *gaSolver) run() ([]Solution, error) {
	cfg := g.cfg

	pop := g.initialPopulation()
	if len(pop) == 0 {
		// Not even the empty selection is feasible: the problem is
		// over-constrained (used resources already exceed capacity).
		return nil, fmt.Errorf("moo: no feasible initial solution for %d-dim problem", g.dim)
	}
	g.certify()

	gen := 0
	for ; gen < cfg.Generations && !g.settled(pop); gen++ {
		children := g.breed(pop)
		g.pool = append(append(g.pool[:0], pop...), children...)
		pop = g.selectNext(g.pool, cfg.Population)
		for i := range pop {
			pop[i].age++
		}
	}
	g.ev.stats.Generations = uint64(gen)

	// The final front: the population's non-dominated members, one
	// solution per genotype, first occurrence winning.
	front := g.paretoFront(pop)
	epoch := g.nextEpoch()
	var out []Solution
	for _, m := range front {
		if g.mark[m.id] != epoch {
			g.mark[m.id] = epoch
			out = append(out, g.solution(m).Clone())
		}
	}
	SortLexicographic(out)
	return out, nil
}

// certify builds the solve's termination certificate when it has one:
// cert becomes the interned ids of F*, the feasible genotypes that no
// feasible genotype dominates. The walk evaluates the raw problem, not
// the cache — the selections it visits, interned in an Evaluator kept
// across solves, would dwarf what the generations leave there — and
// compares with Dominates on Evaluate's own values, which is what
// selection does.
func (g *gaSolver) certify() {
	g.cert = g.cert[:0]
	ls, ok := g.ev.inner.(LiveSetter)
	if !ok {
		return
	}
	g.live, ok = ls.LiveSet(g.live[:0])
	n := len(g.live)
	// n ≤ 64: a selection over the live set is one word.
	if !ok || n == 0 || n > 64 {
		return
	}
	scratch := g.raw[0] // breeding has not started
	scratch.Zero()
	g.exact, ok = paretoOver(g.ev.inner, scratch, g.live, true, walkBudget(g.cfg, n), g.exact[:0])
	if ok && len(g.exact) <= g.cfg.Population {
		for _, pt := range g.exact {
			scratch.Zero()
			for m := pt.mask; m != 0; m &= m - 1 {
				scratch.SetBit(g.live[bits.TrailingZeros64(m)], true)
			}
			g.cert = append(g.cert, g.intern(g.ev.lookup(scratch)))
		}
	}
	// The objective vectors are the problem's: hold none past the solve,
	// nor the ones evictions left behind the list's end.
	clear(g.exact[:cap(g.exact)])
}

// walkBudget is the most evaluations the certificate's walk over n live
// variables may spend (see SolveGA): G·P when its 2^n selections are no
// more, G otherwise.
func walkBudget(cfg GAConfig, n int) int {
	if gp := cfg.Generations * cfg.Population; n < 63 && 1<<uint(n) <= gp {
		return gp
	}
	return cfg.Generations
}

// settled reports whether pop holds every genotype of the certificate:
// from here on no generation changes what run returns.
func (g *gaSolver) settled(pop []member) bool {
	if len(g.cert) == 0 {
		return false
	}
	epoch := g.nextEpoch()
	for _, m := range pop {
		g.mark[m.id] = epoch
	}
	for _, id := range g.cert {
		if g.mark[id] != epoch {
			return false
		}
	}
	return true
}

// solution materialises a member. Genome and objectives are shared solver
// storage: Clone before handing it out.
func (g *gaSolver) solution(m member) Solution {
	return Solution{Genome: g.ev.genome(m.id), Objectives: g.objsOf(m.id), Age: int(m.age)}
}

// coin draws an initial genome's genes: FillBools with it consumes the
// stream exactly as a Bool(0.5) per gene does.
var coin = rng.NewBernoulli(0.5)

// initialPopulation draws random genomes, repairing or discarding
// infeasible ones; the all-zero solution (select nothing) is always
// feasible for resource-allocation problems, so it seeds the population
// when random draws fail.
func (g *gaSolver) initialPopulation() []member {
	cfg := g.cfg
	pop := g.pop[:0]
	scratch := g.raw[0] // breeding has not started
	drop := g.s.Intn    // initial candidates repair against the main stream directly
	for tries := 0; len(pop) < cfg.Population && tries < cfg.Population*8; tries++ {
		g.s.FillBools(scratch.w, g.dim, coin)
		if id, ok := g.makeFeasible(scratch, drop); ok {
			pop = append(pop, member{id: id})
		}
	}
	if len(pop) < cfg.Population {
		scratch.Zero()
		if id := g.ev.lookup(scratch); g.ev.entries[id].feasible {
			g.intern(id)
			for len(pop) < cfg.Population {
				pop = append(pop, member{id: id})
			}
		}
	}
	g.pop = pop
	return pop
}

// makeFeasible evaluates the scratch genome through the cache, invoking
// Repair with drop once if available and needed, and returns the feasible
// genotype's id.
func (g *gaSolver) makeFeasible(scratch Genome, drop func(int) int) (int32, bool) {
	id := g.ev.lookup(scratch)
	if !g.ev.entries[id].feasible {
		if g.rep == nil {
			return 0, false
		}
		g.rep.Repair(scratch, drop)
		id = g.ev.lookup(scratch)
		if !g.ev.entries[id].feasible {
			return 0, false
		}
	}
	return g.intern(id), true
}

// repairStream reseeds the scratch stream to child i's split of the main
// stream and returns its Intn.
func (g *gaSolver) repairStream(i int) func(int) int {
	if g.ws == nil {
		g.ws = g.s.SplitIndexInto(nil, uint64(i))
		g.wsIntn = g.ws.Intn
	} else {
		g.s.SplitIndexInto(g.ws, uint64(i))
	}
	return g.wsIntn
}

// breed produces up to cfg.Population feasible children via crossover and
// mutation. Child genomes are written into reused scratch buffers;
// surviving children are the ids of their cache entries.
func (g *gaSolver) breed(pop []member) []member {
	cfg, s, dim := g.cfg, g.s, g.dim

	// Generate the raw children: each crossover yields the cut's two
	// complementary children, then each child's genes flip with
	// probability p_m — drawn as one mask, XORed in. A child of two
	// identical parents with no mutation IS that parent — the dominant
	// case once the population converges — so it takes the parent's id
	// outright and skips crossover, cache lookup and evaluation entirely.
	ids := g.childIDs[:cfg.Population]
	for count := 0; count < cfg.Population; {
		pa := pop[s.Intn(len(pop))].id
		pb := pop[s.Intn(len(pop))].id
		cut := 1 + s.Intn(max(1, dim-1)) // crossover position in [1, dim-1]
		for k := 0; k < 2 && count < cfg.Population; k++ {
			mutated := s.FillBools(g.flip.w, dim, g.mutate)
			if pa == pb && !mutated {
				ids[count] = pa
			} else {
				c, a, b := g.raw[count], g.ev.genome(pa), g.ev.genome(pb)
				if k == 1 {
					a, b = b, a
				}
				crossoverInto(c, a, b, cut)
				for i, w := range g.flip.w {
					c.w[i] ^= w
				}
				ids[count] = needsEval
			}
			count++
		}
	}

	// …then evaluate/repair. Each child that needs repair draws from its
	// own split of the main stream (the seed solver's draw sequence, which
	// fixed-seed fronts depend on); the split reseeds one scratch stream
	// in place, constructed lazily on the first repair.
	for i, id := range ids {
		if id != needsEval {
			continue
		}
		id := g.ev.lookup(g.raw[i])
		if !g.ev.entries[id].feasible && g.rep != nil {
			g.rep.Repair(g.raw[i], g.repairStream(i))
			id = g.ev.lookup(g.raw[i])
		}
		if g.ev.entries[id].feasible {
			ids[i] = g.intern(id)
		} else {
			ids[i] = infeasible
		}
	}

	out := g.children[:0]
	for _, id := range ids {
		if id >= 0 {
			out = append(out, member{id: id})
		}
	}
	g.children = out
	return out
}

// markDominated sets dominated[id] for every id in pool: whether some
// other pool member's objectives dominate it. Domination is decided once
// per distinct id and shared by the copies, which is exact: copies share
// one objective vector, a vector never dominates an equal one, and "j
// dominates i" holds for every copy of i and j or for none. A converged
// pool is copies of one or two genotypes, so this is a handful of
// compares where the member-by-member pass was |pool|².
func (g *gaSolver) markDominated(pool []member) {
	epoch := g.nextEpoch()
	distinct := g.distinct[:0]
	for _, m := range pool {
		if g.mark[m.id] != epoch {
			g.mark[m.id] = epoch
			distinct = append(distinct, m.id)
		}
	}
	g.distinct = distinct
	for _, i := range distinct {
		oi := g.objsOf(i)
		dominated := false
		for _, j := range distinct {
			if i != j && Dominates(g.objsOf(j), oi) {
				dominated = true
				break
			}
		}
		g.dominated[i] = dominated
	}
}

// paretoFront returns pool's non-dominated members in pool order. The
// result aliases set1.
func (g *gaSolver) paretoFront(pool []member) []member {
	g.markDominated(pool)
	front := g.set1[:0]
	for _, m := range pool {
		if !g.dominated[m.id] {
			front = append(front, m)
		}
	}
	g.set1 = front
	return front
}

// selectNext implements the paper's age-based selection: the pool's Pareto
// front (Set 1) survives first — trimmed to P preferring newer (smaller
// age) chromosomes if oversized — then the remainder (Set 2) fills the
// population in age order, newest first.
//
// One refinement over the paper's description: within each set, duplicate
// genotypes rank behind distinct ones. Crossover of converged parents
// floods every generation with age-0 clones of the dominant chromosome;
// under a literal newest-first trim those clones evict distinct age-1
// Pareto points and the population collapses to a single solution. Ranking
// unique genotypes first preserves the age rule among distinct chromosomes
// while keeping the front diverse.
//
// The returned slice aliases solver scratch that is overwritten by the
// next call; the caller copies it into the pool before reselecting.
func (g *gaSolver) selectNext(pool []member, p int) []member {
	g.markDominated(pool)
	set1, set2 := g.set1[:0], g.set2[:0]
	for _, m := range pool {
		if g.dominated[m.id] {
			set2 = append(set2, m)
		} else {
			set1 = append(set1, m)
		}
	}
	g.set1, g.set2 = set1, set2

	next := g.next[:0]
	seen := g.nextEpoch()
	take := func(set []member) {
		g.sortByAge(set)
		// First pass: distinct genotypes, newest first.
		for _, m := range set {
			if len(next) == p {
				return
			}
			if g.mark[m.id] != seen {
				g.mark[m.id] = seen
				next = append(next, m)
			}
		}
	}
	fill := func(set []member) {
		// Second pass: pad with duplicates if distinct genotypes ran out.
		for _, m := range set {
			if len(next) == p {
				return
			}
			next = append(next, m)
		}
	}
	take(set1)
	take(set2)
	fill(set1)
	fill(set2)
	g.next = next
	return next
}

// sortByAge stable-sorts set by ascending age in time that does not grow
// with the ages themselves (a lone old Pareto point would otherwise make
// every generation pay for its age). This generation's children — age 0,
// at the pool's tail — move to the front in one stable partition; the
// survivors behind them arrive as a few ascending runs (the passes of the
// previous selection), which insertion sort merges in n + inversions.
func (g *gaSolver) sortByAge(set []member) {
	old := g.ageSorted[:0]
	k := 0
	for _, m := range set {
		if m.age == 0 {
			set[k] = m
			k++
		} else {
			old = append(old, m)
		}
	}
	copy(set[k:], old)
	g.ageSorted = old
	for i := k + 1; i < len(set); i++ {
		m, j := set[i], i
		for ; j > k && set[j-1].age > m.age; j-- {
			set[j] = set[j-1]
		}
		set[j] = m
	}
}
