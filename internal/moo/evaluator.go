package moo

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

// evalEntry is one memoized evaluation — one interned genotype.
type evalEntry struct {
	// id is the entry's dense index in creation order since the last
	// Reset: two lookups return the same id exactly when their genomes are
	// equal, so the GA compares, dedupes and indexes scratch by id.
	id       int32
	key      string
	genome   Genome
	objs     []float64
	feasible bool
}

// Evaluator wraps a Problem with a genome-keyed memoization cache: each
// distinct genome is evaluated at most once per solve, after which every
// re-encounter (re-evaluated survivors, crossover re-deriving a known
// chromosome — the common case once the GA converges) is a map lookup.
// The cache is also the GA's intern table: every entry carries a dense id
// and the canonical genome and objective storage of its genotype, so the
// generation loop moves 8-byte (id, age) members instead of solutions and
// steady-state generations allocate nothing.
//
// An Evaluator is not safe for concurrent use: it serves one solve at a
// time, as each sched.SolverSlot binding gives a solve its own. Reset
// rebinds it to a new problem instance while keeping the allocated cache
// capacity — schedulers reuse one Evaluator across scheduling decisions
// (the window changes per decision, so Reset must be called between
// solves).
type Evaluator struct {
	inner Problem

	entries map[string]*evalEntry
	// entrySlab and wordSlab chunk-allocate cache entries and canonical
	// genome words: one slab allocation amortizes over entrySlabSize
	// misses instead of two heap objects per miss.
	// Entries are carved in creation order, entrySlab[:used] so far, so the
	// chunk's tail lists the newest ones — what Reset deletes by.
	entrySlab []evalEntry
	used      int
	wordSlab  []uint64
	// peak is the largest number of entries a Reset has found: what the
	// table has grown to hold, and costs to wipe.
	peak int

	stats EvalStats

	// ga parks the solver scratch between solves on this Evaluator, so a
	// scheduler that reuses one Evaluator across decisions reuses the
	// generation buffers with it.
	ga *gaSolver
}

// entrySlabSize is the entry/word slab chunk length, in entries, and the
// size the table starts at.
const entrySlabSize = 256

// wipeRatio is how many entries of table capacity clear() wipes in the
// time one delete() takes: a 512-slot table clears in ≈ 0.5 µs, a key
// deletes in ≈ 30 ns.
const wipeRatio = 16

// NewEvaluator wraps p with a fresh cache. Wrapping an Evaluator returns
// it unchanged.
func NewEvaluator(p Problem) *Evaluator {
	if e, ok := p.(*Evaluator); ok {
		return e
	}
	return &Evaluator{inner: p, entries: make(map[string]*evalEntry, entrySlabSize)}
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
// retaining allocated capacity.
//
// clear() on a map wipes its whole table, so it costs what the largest
// solve the Evaluator ever held costs — and most solves of a replay leave
// one entry (a window with a single candidate) or a handful. When the
// cache holds few entries for the table's size and the current slab chunk
// lists them all (the newest n entries are its tail whenever n fit in it),
// Reset deletes those keys instead.
func (e *Evaluator) Reset(p Problem) {
	if inner, ok := p.(*Evaluator); ok {
		p = inner.inner
	}
	e.inner = p
	n := len(e.entries)
	e.peak = max(e.peak, n)
	if n <= e.used && n*wipeRatio <= max(e.peak, entrySlabSize) {
		for i := e.used - n; i < e.used; i++ {
			delete(e.entries, e.entrySlab[i].key)
		}
	} else {
		clear(e.entries)
	}
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
	ent := e.lookup(g)
	return ent.objs, ent.feasible
}

// lookup returns g's cache entry, evaluating the underlying problem on
// first encounter. The entry's genome is a canonical clone of g, safe to
// reference after g (a breeding scratch buffer) is overwritten.
func (e *Evaluator) lookup(g Genome) *evalEntry {
	var arr [keyBufSize]byte
	key := g.appendKey(arr[:0])

	if ent, ok := e.entries[string(key)]; ok {
		e.stats.Hits++
		return ent
	}
	e.stats.Misses++
	ent := e.intern(key, g)
	ent.objs, ent.feasible = e.inner.Evaluate(ent.genome)
	return ent
}

// intern creates g's cache entry under the next dense id, with a
// canonical clone of g. The caller has checked key is absent.
func (e *Evaluator) intern(key []byte, g Genome) *evalEntry {
	if e.used == len(e.entrySlab) {
		e.entrySlab, e.used = make([]evalEntry, entrySlabSize), 0
	}
	ent := &e.entrySlab[e.used]
	e.used++
	ent.id = int32(len(e.entries))
	ent.key = string(key)
	ent.genome = e.cloneGenome(g)
	e.entries[ent.key] = ent
	return ent
}

// cloneGenome copies g into slab-backed canonical storage.
func (e *Evaluator) cloneGenome(g Genome) Genome {
	n := len(g.w)
	if len(e.wordSlab) < n {
		e.wordSlab = make([]uint64, entrySlabSize*n)
	}
	w := e.wordSlab[:n:n]
	e.wordSlab = e.wordSlab[n:]
	copy(w, g.w)
	return Genome{w: w, n: g.n}
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
