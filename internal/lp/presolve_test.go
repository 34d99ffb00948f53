package lp

import (
	"fmt"
	"math"
	"testing"

	"bbsched/internal/moo"
	"bbsched/internal/rng"
	"bbsched/internal/solver"
)

// denseSolve is restarted Halpern PDHG with every window column stored and
// pinned ones zeroed — the kernels as they were before presolve, kept as
// the oracle. chunked reproduces their reduction: per-lpChunkSize partials
// over window positions, added in ascending chunk order onto init.
func denseSolve(form solver.LinearForm, cfg Config) (x, y []float64, st Stats) {
	n := len(form.C)
	u, c := make([]float64, n), make([]float64, n)
	for i := range u {
		u[i] = 1
	}
	var rows [][]float64
	for ri, row := range form.Rows {
		capacity := form.Caps[ri]
		dst := make([]float64, n)
		for i, a := range row {
			if a > math.Max(capacity, 0) {
				u[i] = 0
			}
			dst[i] = a / capacity
		}
		if capacity > 0 {
			rows = append(rows, dst)
		}
	}
	m, cmax := len(rows), 0.0
	for i, ci := range form.C {
		if u[i] == 0 {
			for _, row := range rows {
				row[i] = 0
			}
			continue
		}
		st.Active++
		c[i] = ci
		cmax = math.Max(cmax, math.Abs(ci))
	}
	if cmax == 0 {
		cmax = 1
	}
	for i := range c {
		c[i] /= cmax
	}
	clamp := func(v, hi float64) float64 {
		if v < 0 {
			return 0
		} else if v > hi {
			return hi
		}
		return v
	}
	x, y = make([]float64, n), make([]float64, m)
	if m == 0 {
		for i, ci := range c {
			if ci > 0 {
				x[i] = u[i]
			}
			st.Primal += ci * x[i] * cmax
		}
		st.Converged, st.Dual = true, st.Primal
		return x, y, st
	}
	chunked := func(init float64, f func(i int) float64) float64 {
		for lo := 0; lo < n; lo += lpChunkSize {
			s := 0.0
			for i := lo; i < min(lo+lpChunkSize, n); i++ {
				s += f(i)
			}
			init += s
		}
		return init
	}
	col := func(i int, v []float64) float64 { // (Aᵀv)ᵢ
		s := 0.0
		for r := range rows {
			s += rows[r][i] * v[r]
		}
		return s
	}
	norm, v, ax := 0.0, make([]float64, n), make([]float64, m)
	for i := range v {
		v[i] = 1 / math.Sqrt(float64(n))
	}
	for it := 0; it < 32; it++ {
		for r := range ax {
			ax[r] = chunked(0, func(i int) float64 { return rows[r][i] * v[i] })
		}
		for i := range v {
			v[i] = col(i, ax)
		}
		s := math.Sqrt(chunked(0, func(i int) float64 { return v[i] * v[i] }))
		if norm = math.Sqrt(s); s == 0 {
			break
		}
		for i := range v {
			v[i] /= s
		}
	}
	if norm == 0 {
		norm = 1
	}
	eta, k := 0.9/norm, 0
	x0, y0 := append([]float64(nil), x...), append([]float64(nil), y...)
	xn, yn := make([]float64, n), make([]float64, m)
	for iter := 1; iter <= cfg.MaxIters; iter++ {
		for i := range x {
			xn[i] = clamp(x[i]+eta*(c[i]-col(i, y)), u[i])
		}
		for r := range y {
			s := chunked(0, func(i int) float64 { return rows[r][i] * (2*xn[i] - x[i]) })
			yn[r] = clamp(y[r]+eta*(s-1), math.Inf(1))
		}
		lam := float64(k+1) / float64(k+2)
		k++
		for i := range x {
			x[i] = lam*xn[i] + (1-lam)*x0[i]
		}
		for r := range y {
			y[r] = lam*yn[r] + (1-lam)*y0[r]
		}
		if k >= cfg.RestartPeriod {
			copy(x0, x)
			copy(y0, y)
			k = 0
			st.Restarts++
		}
		st.Iters = iter
		if iter%cfg.checkEvery() != 0 && iter != cfg.MaxIters {
			continue
		}
		st.Infeas = 0
		dual := 0.0
		for r := range rows {
			st.Infeas = math.Max(st.Infeas, chunked(0, func(i int) float64 { return rows[r][i] * x[i] })-1)
			dual += y[r]
		}
		primal := chunked(0, func(i int) float64 { return c[i] * x[i] })
		dual = chunked(dual, func(i int) float64 { return u[i] * math.Max(c[i]-col(i, y), 0) })
		st.Gap = math.Abs(dual-primal) / (1 + math.Abs(primal) + math.Abs(dual))
		st.Primal, st.Dual = primal*cmax, dual*cmax
		if st.Converged = st.Infeas <= cfg.Tol && st.Gap <= cfg.Tol; st.Converged {
			break
		}
	}
	return x, y, st
}

// pinnedInstance draws a random n-job, m-row instance in which each job is,
// with probability pinFrac, too big for one row's free capacity on its own
// (or, when zeroCap, demands a resource that has none free).
func pinnedInstance(s *rng.Stream, n, m int, pinFrac float64, zeroCap bool) solver.LinearForm {
	f := solver.LinearForm{C: make([]float64, n)}
	for r := 0; r < m; r++ {
		f.Rows = append(f.Rows, make([]float64, n))
		f.Caps = append(f.Caps, 40+float64(s.Intn(400)))
	}
	if zeroCap {
		f.Rows = append(f.Rows, make([]float64, n))
		f.Caps = append(f.Caps, 0)
	}
	for i := 0; i < n; i++ {
		f.C[i] = s.Float64() - 0.1 // a few negative coefficients
		for r := 0; r < m; r++ {
			f.Rows[r][i] = float64(s.Intn(int(f.Caps[r]) / 4))
		}
		if s.Float64() < pinFrac {
			r := s.Intn(len(f.Rows))
			f.Rows[r][i] = f.Caps[r] + 1 + float64(s.Intn(9))
		}
	}
	return f
}

func sameBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

func sameStats(a, b Stats) bool {
	fa, fb := []float64{a.Primal, a.Dual, a.Gap, a.Infeas}, []float64{b.Primal, b.Dual, b.Gap, b.Infeas}
	a.Primal, a.Dual, a.Gap, a.Infeas = 0, 0, 0, 0
	b.Primal, b.Dual, b.Gap, b.Infeas = 0, 0, 0, 0
	return a == b && sameBits(fa, fb)
}

// TestPresolveMatchesDenseReference pins the presolve contract: dropping
// the pinned columns changes no bit of the primal solution, the dual
// iterate or the statistics — through restarts, on one workspace reused
// across shrinking and growing windows — because
// chunk membership and reduction order follow window positions, not live
// positions.
func TestPresolveMatchesDenseReference(t *testing.T) {
	// Saturated instances stop at the first residual check; the others run
	// through three restarts to a budget that is not a check multiple.
	cfg := Config{MaxIters: 130, RestartPeriod: 40}.withDefaults()
	w := &relaxation{}
	seed := uint64(0)
	for _, n := range []int{1, 19, 511, 512, 513, 1500} {
		for _, m := range []int{0, 1, 2, 4} { // 0: only a zero-capacity row, the box-LP branch
			for _, pinFrac := range []float64{0, 0.5, 0.99, 1} {
				seed++
				form := pinnedInstance(rng.New(seed), n, m, pinFrac, m == 0 || seed%3 == 0)
				name := fmt.Sprintf("n=%d m=%d pinned=%v", n, m, pinFrac)
				wantX, wantY, wantSt := denseSolve(form, cfg)
				w.load(form)
				st := w.solve(cfg)
				if !sameStats(st, wantSt) {
					t.Fatalf("%s: stats %+v, dense %+v", name, st, wantSt)
				}
				if !sameBits(w.sol, wantX) || !sameBits(w.y, wantY) {
					t.Fatalf("%s: iterate differs from the dense reference (stats %+v)", name, st)
				}
				if pinFrac == 1 && st.Active != 0 || pinFrac == 0 && st.Active != n {
					t.Fatalf("%s: %d live columns of %d", name, st.Active, n)
				}
			}
		}
	}
}

// fullMachine is a window against 3 free nodes and 50 GB of free burst
// buffer: its first fit jobs are small enough to start, the rest need more
// nodes than are free. Evaluate is the exact knapsack the rows describe.
type fullMachine struct {
	n, fit int
	evals  int
}

func (p *fullMachine) Dim() int           { return p.n }
func (p *fullMachine) NumObjectives() int { return 1 }
func (p *fullMachine) LinearForm() (solver.LinearForm, bool) {
	f := solver.LinearForm{C: make([]float64, p.n), Rows: [][]float64{make([]float64, p.n), make([]float64, p.n)}, Caps: []float64{3, 50}}
	for i := range f.C {
		f.C[i] = 1 + float64(i%7)
		f.Rows[0][i] = 4 + float64(i%5)
		f.Rows[1][i] = float64(i % 40)
		if i < p.fit {
			f.Rows[0][i] = 1
		}
	}
	return f, true
}
func (p *fullMachine) Evaluate(g moo.Genome) ([]float64, bool) {
	p.evals++
	f, _ := p.LinearForm()
	var value, nodes, bb float64
	for _, i := range g.Ones() {
		value, nodes, bb = value+f.C[i], nodes+f.Rows[0][i], bb+f.Rows[1][i]
	}
	return []float64{value}, nodes <= f.Caps[0] && bb <= f.Caps[1]
}

// TestSolveNothingFits drives Solver.Solve over successive windows: a
// window in which no job can start returns the empty selection after a
// single evaluation and no draw from opts.Rand, before and after a window
// with a few startable jobs, and leaves the next window's answer as it
// would be had it never been solved — nothing carries from one to the next.
func TestSolveNothingFits(t *testing.T) {
	s := New(DefaultConfig())
	var first []moo.Solution
	for pass, fit := range []int{12, 0, 0, 12} {
		p := &fullMachine{n: 642, fit: fit}
		stream := rng.New(5)
		front, err := s.Solve(p, solver.Options{Rand: stream})
		if err != nil {
			t.Fatal(err)
		}
		if fit > 0 {
			if len(front) != 1 || front[0].Genome.OnesCount() == 0 {
				t.Fatalf("pass %d: front %v starts nothing on a window where %d jobs fit", pass, front, fit)
			}
			if first == nil {
				first = front
			} else if !front[0].Genome.Equal(first[0].Genome) {
				t.Fatalf("pass %d: selected %v after dead windows, %v before them", pass, front[0].Genome.Ones(), first[0].Genome.Ones())
			}
			continue
		}
		if len(front) != 1 || front[0].Genome.OnesCount() != 0 {
			t.Fatalf("pass %d: front %v, want the empty selection", pass, front)
		}
		if p.evals != 1 {
			t.Errorf("pass %d: %d Problem.Evaluate calls, want 1", pass, p.evals)
		}
		if stream.State() != rng.New(5).State() {
			t.Errorf("pass %d: solve drew from opts.Rand", pass)
		}
	}
}

// TestIterationLoopAllocs pins the PDHG loop at zero allocations on a
// loaded workspace.
func TestIterationLoopAllocs(t *testing.T) {
	form := pinnedInstance(rng.New(11), 1500, 2, 0.5, false)
	cfg := Config{MaxIters: 120, Tol: 1e-12}.withDefaults()
	w := &relaxation{}
	w.load(form)
	if allocs := testing.AllocsPerRun(5, func() { w.solve(cfg) }); allocs != 0 {
		t.Errorf("%.1f allocations per solve, want 0", allocs)
	}
}

// TestWorkspaceGrowsByChunks pins the slab headroom: a window that grows
// within its last chunk reuses the workspace instead of reallocating it.
func TestWorkspaceGrowsByChunks(t *testing.T) {
	w := &relaxation{}
	w.load(pinnedInstance(rng.New(3), 600, 2, 0, false))
	sol, rows := &w.sol[0], &w.rowStore[0]
	for _, n := range []int{601, 1024} {
		w.load(pinnedInstance(rng.New(3), n, 2, 0, false))
		if &w.sol[0] != sol || &w.rowStore[0] != rows {
			t.Fatalf("window grew 600 → %d inside two chunks and the workspace was reallocated", n)
		}
	}
	if w.load(pinnedInstance(rng.New(3), 1025, 2, 0, false)); &w.sol[0] == sol {
		t.Fatal("a third chunk did not grow the workspace")
	}
}
