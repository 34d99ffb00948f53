package lp

import (
	"math"

	"bbsched/internal/solver"
)

// Stats reports one LP-relaxation solve.
type Stats struct {
	// Iters is the number of PDHG iterations performed.
	Iters int
	// Active is the number of live columns the iterations ran over: the
	// window's jobs minus those presolve pinned to 0 because they cannot
	// fit the free machine even alone. 0 on a 642-job window reads "642
	// queued, none could start".
	Active int
	// Restarts counts fixed-frequency anchor restarts.
	Restarts int
	// Primal is the achieved relaxation objective C·x (original scale).
	Primal float64
	// Dual is the dual objective bound (original scale); for a maximization
	// it upper-bounds every feasible 0/1 selection's objective.
	Dual float64
	// Gap is the relative duality gap at termination.
	Gap float64
	// Infeas is the relative primal constraint violation at termination.
	Infeas float64
	// Converged reports that Gap and Infeas reached Config.Tol before the
	// iteration budget ran out.
	Converged bool
}

// relaxation is the pooled workspace of one PDHG solve. All slices are
// grown on demand and reused across solves.
//
// load presolves the instance: a column that cannot be 1 in any feasible
// selection is pinned to 0 and dropped, and only the live columns are
// stored — compactly, struct-of-arrays: each constraint dimension is one
// contiguous capacity-normalized []float64 lane over the live columns, all
// lanes in one backing slab (rowStore), so the matrix-free Ax/Aᵀy products
// stream m sequential lanes per chunk. Dropping a pinned column is exact,
// not approximate: its row entries, objective coefficient, bound and
// iterate are all 0, so it adds +0 to every partial sum it takes part in.
//
// Every kernel walks the variables in fixed-size chunks of *window
// positions* (lpChunkSize) — chunk c owns the live columns whose window
// index lies in [c·lpChunkSize, (c+1)·lpChunkSize) — and per-chunk
// partials are reduced in ascending chunk order. That is the same
// arithmetic whether or not pinned columns are stored, which keeps
// presolved solves bit-identical to dense ones.
type relaxation struct {
	n, m int // window jobs, kept constraint rows

	live []int // window index of each live column, ascending
	off  []int // chunk c owns live columns [off[c], off[c+1])

	rowStore []float64   // m×len(live) slab backing the rows
	rows     [][]float64 // capacity-normalized demand rows over the live columns
	c        []float64   // live objective coefficients, scaled to max |c| = 1

	x, xn, x0 []float64 // primal iterate, PDHG step, Halpern anchor (live columns)
	y, yn, y0 []float64 // dual iterate, PDHG step, Halpern anchor
	v         []float64 // power-iteration vector (live columns)
	ax        []float64 // A·(·) scratch (m)
	sol       []float64 // x scattered back to window length, pinned entries 0

	parts  []float64 // per-chunk per-row product partials (chunks×m)
	pparts []float64 // per-chunk scalar partials, primal-side (chunks)
	dparts []float64 // per-chunk scalar partials, dual-side (chunks)

	cmax float64 // objective scale factor (original = normalized × cmax)
}

// lpChunkSize is the fixed grain of the chunked PDHG kernels. Every sum
// over the variables is taken as per-chunk partials combined in ascending
// chunk order, so the grain *is* the floating-point summation order: the
// golden runs, the dense oracle in presolve_test.go and the pinned
// benchmark digests all hold only while it stays 512. A chunk of 512
// variables × a handful of constraint rows also keeps its working set
// inside L1/L2.
const lpChunkSize = 512

// chunks is the number of fixed-size chunks of the window.
func (w *relaxation) chunks() int {
	return (w.n + lpChunkSize - 1) / lpChunkSize
}

// grow sizes the workspace for an n-job window with nl live columns and m
// kept rows. Window-sized slabs are allocated at whole-chunk capacity, so
// a window that grows by a job reuses them instead of reallocating.
func (w *relaxation) grow(n, nl, m int) {
	w.n, w.m = n, m
	chunks := w.chunks()
	capN := chunks * lpChunkSize
	growF := func(s *[]float64, k, capK int) {
		if cap(*s) < k {
			*s = make([]float64, k, capK)
		}
		*s = (*s)[:k]
	}
	growF(&w.sol, n, capN)
	growF(&w.c, nl, capN)
	growF(&w.x, nl, capN)
	growF(&w.xn, nl, capN)
	growF(&w.x0, nl, capN)
	growF(&w.v, nl, capN)
	growF(&w.y, m, m)
	growF(&w.yn, m, m)
	growF(&w.y0, m, m)
	growF(&w.ax, m, m)
	// One contiguous slab for all constraint rows; rows are full-capacity
	// views into it, so dimension r's coefficients stay adjacent in memory.
	growF(&w.rowStore, nl*m, capN*m)
	if cap(w.rows) < m {
		w.rows = make([][]float64, m)
	}
	w.rows = w.rows[:m]
	for r := range w.rows {
		w.rows[r] = w.rowStore[r*nl : (r+1)*nl : (r+1)*nl]
	}
	growF(&w.parts, chunks*m, chunks*m)
	growF(&w.pparts, chunks, chunks)
	growF(&w.dparts, chunks, chunks)
}

// load presolves and normalizes the instance into the workspace. Variables
// that cannot be 1 in any feasible solution — a demand exceeding a free
// capacity on its own, or any demand against a zero capacity — are pinned
// to 0 and left out; over the live ones, constraint rows are scaled by
// their capacities (caps become 1) and the objective by its largest
// coefficient. Rows with zero capacity only pin variables.
func (w *relaxation) load(form solver.LinearForm) {
	n := len(form.C)
	m := 0
	for _, capacity := range form.Caps {
		if capacity > 0 {
			m++
		}
	}
	w.n = n
	chunks := w.chunks()
	if cap(w.live) < n {
		w.live = make([]int, 0, chunks*lpChunkSize)
	}
	if cap(w.off) < chunks+1 {
		w.off = make([]int, chunks+1)
	}
	live, off := w.live[:0], w.off[:chunks+1]
	for i := 0; i < n; i++ {
		if i%lpChunkSize == 0 {
			off[i/lpChunkSize] = len(live)
		}
		fits := true
		for ri, row := range form.Rows {
			limit := form.Caps[ri]
			if limit < 0 {
				limit = 0
			}
			if row[i] > limit {
				fits = false
				break
			}
		}
		if fits {
			live = append(live, i)
		}
	}
	off[chunks] = len(live)
	w.live, w.off = live, off
	w.grow(n, len(live), m)

	r := 0
	for ri, row := range form.Rows {
		capacity := form.Caps[ri]
		if capacity <= 0 {
			continue
		}
		dst := w.rows[r]
		for k, i := range live {
			dst[k] = row[i] / capacity
		}
		r++
	}
	w.cmax = 0
	for k, i := range live {
		ci := form.C[i]
		w.c[k] = ci
		if a := math.Abs(ci); a > w.cmax {
			w.cmax = a
		}
	}
	if w.cmax > 0 {
		for k := range w.c {
			w.c[k] /= w.cmax
		}
	} else {
		w.cmax = 1 // flat objective; keep scale factor harmless
	}
}

// operatorNorm estimates ‖A‖₂ of the normalized constraint matrix by
// power iteration on AᵀA, matrix-free and deterministic (the chunked
// products reduce in fixed order). The start vector is uniform over the
// window — 1/√n with the window's n, pinned columns included — so the
// estimate is the dense matrix's.
func (w *relaxation) operatorNorm() float64 {
	if w.m == 0 || len(w.live) == 0 {
		return 0
	}
	for k := range w.v {
		w.v[k] = 1 / math.Sqrt(float64(w.n))
	}
	norm := 0.0
	for it := 0; it < 32; it++ {
		w.matVec(w.v)
		s := 0.0
		for c := 0; c < w.chunks(); c++ {
			w.matVecTChunk(c, w.off[c], w.off[c+1])
			s += w.dparts[c]
		}
		s = math.Sqrt(s)
		if s == 0 {
			return 0
		}
		for k := range w.v {
			w.v[k] /= s
		}
		norm = math.Sqrt(s) // v was unit before the step, so ‖AᵀAv‖ ≈ λmax
	}
	return norm
}

// matVec writes A·v into w.ax (one entry per kept row): per-chunk per-row
// partials, combined serially in chunk order.
func (w *relaxation) matVec(v []float64) {
	chunks := w.chunks()
	for c := 0; c < chunks; c++ {
		w.matVecChunk(c, w.off[c], w.off[c+1], v)
	}
	for r := 0; r < w.m; r++ {
		s := 0.0
		for c := 0; c < chunks; c++ {
			s += w.parts[c*w.m+r]
		}
		w.ax[r] = s
	}
}

func (w *relaxation) matVecChunk(c, lo, hi int, v []float64) {
	part := w.parts[c*w.m : c*w.m+w.m]
	for r := 0; r < w.m; r++ {
		row := w.rows[r]
		s := 0.0
		for k := lo; k < hi; k++ {
			s += row[k] * v[k]
		}
		part[r] = s
	}
}

// matVecTChunk writes the chunk's entries of Aᵀ·ax into w.v and their sum
// of squares into dparts[c].
func (w *relaxation) matVecTChunk(c, lo, hi int) {
	sq := 0.0
	for k := lo; k < hi; k++ {
		s := 0.0
		for r := 0; r < w.m; r++ {
			s += w.rows[r][k] * w.ax[r]
		}
		w.v[k] = s
		sq += s * s
	}
	w.dparts[c] = sq
}

// stepChunk is the fused per-chunk PDHG step: Aᵀy, the projected primal
// step, and the extrapolated-primal product partials in one pass over the
// chunk's lanes — each row element is touched twice while hot.
func (w *relaxation) stepChunk(c, lo, hi int, eta float64) {
	part := w.parts[c*w.m : c*w.m+w.m]
	for r := range part {
		part[r] = 0
	}
	for k := lo; k < hi; k++ {
		s := 0.0
		for r := 0; r < w.m; r++ {
			s += w.rows[r][k] * w.y[r]
		}
		// Primal step: x̂ = Π_[0,1](x + η(c − Aᵀy)).
		v := w.x[k] + eta*(w.c[k]-s)
		if v < 0 {
			v = 0
		} else if v > 1 {
			v = 1
		}
		w.xn[k] = v
		// Extrapolation 2x̂−x feeds the dual product without a buffer.
		e := 2*v - w.x[k]
		for r := 0; r < w.m; r++ {
			part[r] += w.rows[r][k] * e
		}
	}
}

// halpern averages the primal step toward the anchor and, on restart
// iterations, resets the anchor in the same pass.
func (w *relaxation) halpern(lam float64, restart bool) {
	if restart {
		for k := range w.x {
			v := lam*w.xn[k] + (1-lam)*w.x0[k]
			w.x[k] = v
			w.x0[k] = v
		}
		return
	}
	for k := range w.x {
		w.x[k] = lam*w.xn[k] + (1-lam)*w.x0[k]
	}
}

// residuals computes the relative primal infeasibility and duality gap at
// the current iterate (normalized scale) plus the primal and dual
// objective values.
func (w *relaxation) residuals() (infeas, gap, primal, dual float64) {
	w.matVec(w.x)
	for _, axr := range w.ax {
		if v := axr - 1; v > infeas {
			infeas = v
		}
	}
	for _, yr := range w.y {
		dual += yr // normalized capacities are 1
	}
	for c := 0; c < w.chunks(); c++ {
		w.residualsChunk(c, w.off[c], w.off[c+1])
		primal += w.pparts[c]
		dual += w.dparts[c]
	}
	gap = math.Abs(dual-primal) / (1 + math.Abs(primal) + math.Abs(dual))
	return infeas, gap, primal, dual
}

func (w *relaxation) residualsChunk(c, lo, hi int) {
	p, d := 0.0, 0.0
	for k := lo; k < hi; k++ {
		p += w.c[k] * w.x[k]
		s := 0.0
		for r := 0; r < w.m; r++ {
			s += w.rows[r][k] * w.y[r]
		}
		if rc := w.c[k] - s; rc > 0 {
			d += rc // box upper bound u=1 absorbs the positive reduced cost
		}
	}
	w.pparts[c], w.dparts[c] = p, d
}

// solve runs restarted Halpern PDHG on the loaded instance from the
// origin and leaves the window-length primal solution in w.sol.
//
// Following Lu & Yang's rHPDHG, each iteration takes one PDHG step and
// averages it toward the anchor z⁰ with Halpern weight (k+1)/(k+2); the
// anchor is reset to the current iterate every RestartPeriod iterations
// (fixed-frequency restarts). Stopping is on relative duality gap plus
// primal feasibility. With no live column the dual iterate still takes
// its steps — at O(m) each — exactly as a dense solve takes them.
func (w *relaxation) solve(cfg Config) Stats {
	st := Stats{Active: len(w.live)}
	for k := range w.x {
		w.x[k] = 0
	}
	for r := range w.y {
		w.y[r] = 0
	}

	if w.m == 0 {
		// Unconstrained box LP: take every variable with positive reduced
		// profit at its upper bound.
		for k, ck := range w.c {
			if ck > 0 {
				w.x[k] = 1
			}
			st.Primal += ck * w.x[k] * w.cmax
		}
		st.Converged = true
		st.Dual = st.Primal
	} else {
		w.iterate(cfg, &st)
	}
	for i := range w.sol {
		w.sol[i] = 0
	}
	for k, i := range w.live {
		w.sol[i] = w.x[k]
	}
	return st
}

// iterate is the PDHG loop proper. It allocates nothing.
func (w *relaxation) iterate(cfg Config, st *Stats) {
	norm := w.operatorNorm()
	if norm == 0 {
		norm = 1
	}
	eta := 0.9 / norm // τ = σ = η with τσ‖A‖² < 1

	copy(w.x0, w.x)
	copy(w.y0, w.y)
	chunks := w.chunks()
	k := 0
	for iter := 1; iter <= cfg.MaxIters; iter++ {
		// Fused primal step + extrapolated dual product, chunk by chunk.
		for c := 0; c < chunks; c++ {
			w.stepChunk(c, w.off[c], w.off[c+1], eta)
		}
		// Combine the product partials in chunk order and take the dual
		// step: ŷ = Π_{≥0}(y + η(A(2x̂−x) − 1)).
		for r := 0; r < w.m; r++ {
			s := 0.0
			for c := 0; c < chunks; c++ {
				s += w.parts[c*w.m+r]
			}
			v := w.y[r] + eta*(s-1)
			if v < 0 {
				v = 0
			}
			w.yn[r] = v
		}
		// Halpern anchoring: z ← (k+1)/(k+2)·ẑ + 1/(k+2)·z⁰.
		lam := float64(k+1) / float64(k+2)
		k++
		restart := k >= cfg.RestartPeriod
		w.halpern(lam, restart)
		for r := range w.y {
			w.y[r] = lam*w.yn[r] + (1-lam)*w.y0[r]
		}
		if restart {
			copy(w.y0, w.y)
			k = 0
			st.Restarts++
		}
		st.Iters = iter
		if iter%cfg.checkEvery() == 0 || iter == cfg.MaxIters {
			infeas, gap, primal, dual := w.residuals()
			st.Infeas, st.Gap = infeas, gap
			st.Primal, st.Dual = primal*w.cmax, dual*w.cmax
			if infeas <= cfg.Tol && gap <= cfg.Tol {
				st.Converged = true
				return
			}
		}
	}
}

// SolveRelaxation solves the LP relaxation of a linear selection instance
// and returns the fractional primal solution x ∈ [0,1]ⁿ with solve
// statistics. It is the low-level entry point behind Solver.Solve, exposed
// for diagnostics, examples, and convergence tests.
func SolveRelaxation(form solver.LinearForm, cfg Config) ([]float64, Stats) {
	cfg = cfg.withDefaults()
	w := &relaxation{}
	w.load(form)
	st := w.solve(cfg)
	return append([]float64(nil), w.sol...), st
}
