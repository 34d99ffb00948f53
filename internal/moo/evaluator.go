package moo

import "math/bits"

// EvalStats is the Evaluator's accounting since its last Reset: the cache,
// and how long the GA ran on it.
type EvalStats struct {
	// Hits counts Evaluate calls answered from the cache.
	Hits uint64
	// Misses counts first evaluations, i.e. calls forwarded to the
	// underlying Problem. Misses equals the number of distinct genomes
	// evaluated since the last Reset.
	Misses uint64
	// Generations is how many generations the last SolveGA through this
	// Evaluator ran: GAConfig.Generations, or fewer when the solve stopped
	// on its certificate. Zero before any solve.
	Generations uint64
}

// evalEntry is one memoized evaluation — one interned genotype. Its index
// in Evaluator.entries is its id: the dense index in creation order since
// the last Reset, so two lookups return the same id exactly when their
// genomes are equal, and the GA compares, dedupes and indexes scratch by
// id. The canonical genome is words[off:] for its n genes.
type evalEntry struct {
	objs     []float64
	off, n   int32
	feasible bool
}

// Evaluator wraps a Problem with a genome-keyed memoization cache: each
// distinct genome is evaluated at most once per solve, after which every
// re-encounter (re-evaluated survivors, crossover re-deriving a known
// chromosome — the common case once the GA converges) is a table probe.
// The cache is also the GA's intern table: every entry carries a dense id
// and the canonical genome and objective storage of its genotype, so the
// generation loop moves 8-byte (id, age) members instead of solutions and
// steady-state generations allocate nothing.
//
// The table is keyed on the genome's words, not on a string digest: an
// open-addressed []int32 of ids (linear probing, at most half full, a
// power of two long) hashed on the words, over the id-ordered entries and
// one flat slice of canonical genome words. A probe compares words, and
// neither a lookup nor a miss builds a key. Reset zeroes only the slots
// its entries occupy, so it costs O(entries) however large an earlier
// solve grew the table.
//
// An Evaluator is not safe for concurrent use: it serves one solve at a
// time, as each sched.SolverSlot binding gives a solve its own. Reset
// rebinds it to a new problem instance while keeping the allocated cache
// capacity — schedulers reuse one Evaluator across scheduling decisions
// (the window changes per decision, so Reset must be called between
// solves).
type Evaluator struct {
	inner Problem

	entries []evalEntry
	words   []uint64
	// table holds id+1 per occupied slot and 0 per free one; a genome's
	// probe starts at the top bits of its hash, hash>>shift.
	table []int32
	shift uint

	stats EvalStats

	// ga parks the solver scratch between solves on this Evaluator, so a
	// scheduler that reuses one Evaluator across decisions reuses the
	// generation buffers with it.
	ga *gaSolver
}

// initialSlots is the table's starting length: room for 256 entries, more
// than most solves of a replay intern.
const initialSlots = 512

// NewEvaluator wraps p with a fresh cache. Wrapping an Evaluator returns
// it unchanged.
func NewEvaluator(p Problem) *Evaluator {
	if e, ok := p.(*Evaluator); ok {
		return e
	}
	return &Evaluator{
		inner: p,
		table: make([]int32, initialSlots),
		shift: uint(64 - bits.TrailingZeros(initialSlots)),
	}
}

// ReuseEvaluator rebinds e to p, clearing the cache but keeping its
// capacity; a nil e allocates a fresh Evaluator. It is the one-liner for
// methods that keep a per-instance Evaluator across scheduling decisions.
func ReuseEvaluator(e *Evaluator, p Problem) *Evaluator {
	if e == nil {
		return NewEvaluator(p)
	}
	e.Reset(p)
	return e
}

// Reset rebinds the Evaluator to p and clears the cache and statistics,
// retaining allocated capacity. It zeroes the slot of each entry and
// nothing else of the table.
func (e *Evaluator) Reset(p Problem) {
	if inner, ok := p.(*Evaluator); ok {
		p = inner.inner
	}
	e.inner = p
	for id := range e.entries {
		e.table[e.find(int32(id), int32(id)+1)] = 0
		e.entries[id] = evalEntry{} // the objective vectors are the problem's: hold none
	}
	e.entries, e.words = e.entries[:0], e.words[:0]
	e.stats = EvalStats{}
}

// Problem returns the wrapped problem.
func (e *Evaluator) Problem() Problem { return e.inner }

// Dim implements Problem.
func (e *Evaluator) Dim() int { return e.inner.Dim() }

// NumObjectives implements Problem.
func (e *Evaluator) NumObjectives() int { return e.inner.NumObjectives() }

// Evaluate implements Problem with memoization. The returned objective
// slice is shared cache storage: callers must not mutate it.
func (e *Evaluator) Evaluate(g Genome) ([]float64, bool) {
	ent := &e.entries[e.lookup(g)]
	return ent.objs, ent.feasible
}

// lookup returns g's id, evaluating the underlying problem on first
// encounter. The entry's genome is a canonical copy of g, safe to read
// after g (a breeding scratch buffer) is overwritten.
func (e *Evaluator) lookup(g Genome) int32 {
	mask := len(e.table) - 1
	i := int(g.hash() >> e.shift)
	for ; e.table[i] != 0; i = (i + 1) & mask {
		if id := e.table[i] - 1; e.genome(id).Equal(g) {
			e.stats.Hits++
			return id
		}
	}
	e.stats.Misses++
	id := int32(len(e.entries))
	e.entries = append(e.entries, evalEntry{off: int32(len(e.words)), n: int32(g.n)})
	e.words = append(e.words, g.w...)
	if 2*len(e.entries) <= len(e.table) {
		e.table[i] = id + 1
	} else {
		// Double the table and re-insert every entry, this one included.
		e.table, e.shift = make([]int32, 2*len(e.table)), e.shift-1
		for k := range e.entries {
			e.table[e.find(int32(k), 0)] = int32(k) + 1
		}
	}
	ent := &e.entries[id]
	ent.objs, ent.feasible = e.inner.Evaluate(e.genome(id))
	return id
}

// find returns the first slot holding v on entry id's probe sequence:
// id+1 finds its own slot, 0 the free slot it would take.
func (e *Evaluator) find(id, v int32) int {
	i := int(e.genome(id).hash() >> e.shift)
	for e.table[i] != v {
		i = (i + 1) & (len(e.table) - 1)
	}
	return i
}

// genome returns entry id's canonical genome. It aliases the Evaluator's
// word storage, which the next Reset reuses: callers Clone what they keep.
func (e *Evaluator) genome(id int32) Genome {
	ent := &e.entries[id]
	end := int(ent.off) + (int(ent.n)+63)/64
	return Genome{w: e.words[ent.off:end:end], n: int(ent.n)}
}

// repairer returns the wrapped problem's Repairer, or nil. The Evaluator
// itself deliberately does not implement Repairer: repairs are stochastic
// (they consume caller randomness), so they cannot be memoized — the GA
// repairs against the raw problem and re-looks-up the repaired genome.
func (e *Evaluator) repairer() Repairer {
	r, _ := e.inner.(Repairer)
	return r
}

// Stats returns the cache accounting since the last Reset.
func (e *Evaluator) Stats() EvalStats { return e.stats }
