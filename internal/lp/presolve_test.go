package lp

import (
	"fmt"
	"math"
	"runtime/debug"
	"testing"

	"bbsched/internal/moo"
	"bbsched/internal/rng"
	"bbsched/internal/solver"
)

// denseSolve is restarted Halpern PDHG with every window column stored and
// pinned ones zeroed — the kernels as they were before presolve, kept as
// the oracle. chunked reproduces their reduction: per-lpChunkSize partials
// over window positions, added in ascending chunk order onto init.
func denseSolve(form solver.LinearForm, cfg Config, warm *Iterate) (x, y []float64, st Stats) {
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
	if warm != nil && (len(warm.X) != n || len(warm.Y) != m) {
		st.WarmRejected = true
	} else if warm != nil {
		for i, v := range warm.X {
			x[i] = clamp(v, u[i])
		}
		for r, v := range warm.Y {
			y[r] = clamp(v, math.Inf(1))
		}
	}
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
// iterate or the statistics — cold and warm-started, through restarts,
// on one workspace reused across shrinking and growing windows — because
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
				var warm *Iterate
				for _, phase := range []string{"cold", "warm"} {
					wantX, wantY, wantSt := denseSolve(form, cfg, warm)
					w.load(form)
					st := w.solveFrom(cfg, warm.asWarmStart())
					if !sameStats(st, wantSt) {
						t.Fatalf("%s %s: stats %+v, dense %+v", name, phase, st, wantSt)
					}
					if !sameBits(w.sol, wantX) || !sameBits(w.y, wantY) {
						t.Fatalf("%s %s: iterate differs from the dense reference (stats %+v)", name, phase, st)
					}
					if pinFrac == 1 && st.Active != 0 || pinFrac == 0 && st.Active != n {
						t.Fatalf("%s: %d live columns of %d", name, st.Active, n)
					}
					warm = &Iterate{X: wantX, Y: wantY}
				}
			}
		}
	}
}

// fullMachine is a window against 3 free nodes and 50 GB of free burst
// buffer, or against caps when set: its first fit jobs are small enough to
// start, the rest need more of the first row than is free. Evaluate is the
// exact knapsack the rows describe, each capacity taken at max(cap, 0) as
// presolve takes it, so the empty selection is always feasible.
type fullMachine struct {
	n, fit int
	caps   []float64
	evals  int
}

func (p *fullMachine) Dim() int           { return p.n }
func (p *fullMachine) NumObjectives() int { return 1 }
func (p *fullMachine) LinearForm() (solver.LinearForm, bool) {
	f := solver.LinearForm{C: make([]float64, p.n), Caps: p.caps}
	if f.Caps == nil {
		f.Caps = []float64{3, 50}
	}
	for range f.Caps {
		f.Rows = append(f.Rows, make([]float64, p.n))
	}
	for i := range f.C {
		f.C[i] = 1 + float64(i%7)
		f.Rows[0][i] = math.Max(f.Caps[0], 0) + 1 + float64(i%5)
		if i < p.fit {
			f.Rows[0][i] = 1
		}
		for _, row := range f.Rows[1:] {
			row[i] = float64(i % 40)
		}
	}
	return f, true
}
func (p *fullMachine) Evaluate(g moo.Genome) ([]float64, bool) {
	p.evals++
	f, _ := p.LinearForm()
	value, use := 0.0, make([]float64, len(f.Caps))
	for _, i := range g.Ones() {
		value += f.C[i]
		for r, row := range f.Rows {
			use[r] += row[i]
		}
	}
	for r, u := range use {
		if u > math.Max(f.Caps[r], 0) {
			return nil, false
		}
	}
	return []float64{value}, true
}

// iterate is the dense Iterate a memo stands for: a primal vector it left
// out is all zeros.
func (m *memo) iterate() *Iterate {
	x := m.x
	if x == nil {
		x = make([]float64, m.n)
	}
	return &Iterate{X: x, Y: m.y}
}

// TestSolveNothingFits drives Solver.Solve over successive windows of one
// run: after a window with a few startable jobs has left a positive dual
// iterate in the memo, windows in which no job can start return the empty
// selection after a single evaluation and no draw from opts.Rand, while
// the iterate handed on still advances exactly as a dense solve advances
// it.
func TestSolveNothingFits(t *testing.T) {
	s := New(DefaultConfig())
	mem := solver.NewMemory()
	stream := rng.New(5)
	var prev *memo
	for pass, fit := range []int{12, 0, 0} {
		p := &fullMachine{n: 642, fit: fit}
		before := stream.State()
		front, err := s.Solve(p, solver.Options{Rand: stream, Memory: mem})
		if err != nil {
			t.Fatal(err)
		}
		// What a dense solve makes of the same window from the same memo.
		cfg, warm := s.cfg, (*Iterate)(nil)
		if prev != nil {
			cfg.Tol, warm = prev.tol, prev.iterate()
		}
		form, _ := p.LinearForm()
		wantX, wantY, wantSt := denseSolve(form, cfg, warm)
		v, _ := mem.Load(s)
		got := v.(*memo)
		if (got.x == nil) != (fit == 0) {
			t.Fatalf("pass %d: memo stores a primal vector: %v, with %d live columns", pass, got.x != nil, fit)
		}
		if it := got.iterate(); !sameBits(it.X, wantX) || !sameBits(it.Y, wantY) {
			t.Fatalf("pass %d: memo iterate Y=%v, dense Y=%v", pass, it.Y, wantY)
		}
		if wantSt.Active != fit || wantY[0] <= 0 || (prev != nil && wantY[0] >= prev.y[0]) {
			t.Fatalf("pass %d: dense reference %+v Y=%v: not the case under test", pass, wantSt, wantY)
		}
		prev = got
		if fit > 0 {
			continue
		}
		if len(front) != 1 || front[0].Genome.OnesCount() != 0 {
			t.Fatalf("pass %d: front %v, want the empty selection", pass, front)
		}
		if p.evals != 1 {
			t.Errorf("pass %d: %d Problem.Evaluate calls, want 1", pass, p.evals)
		}
		if stream.State() != before {
			t.Errorf("pass %d: solve drew from opts.Rand", pass)
		}
	}
}

// TestLPMemoAdvancesOnDeadWindow is the reason lp declares KeepsMemory
// and is therefore told about the windows sched answers on its own for
// every other backend (through SolvePinned when a row pins every job; see
// TestSolvePinnedMatchesSolve): a window in which nothing can start,
// solved after a live one, stores a dual iterate different from the one it
// loaded (and no primal vector — all zeros need only their length), and
// the next live window starts from that iterate, not from the one a
// skipped dead window would have left in place.
func TestLPMemoAdvancesOnDeadWindow(t *testing.T) {
	s := New(DefaultConfig())
	mem := solver.NewMemory()
	stream := rng.New(9)
	solve := func(fit int) *memo {
		if _, err := s.Solve(&fullMachine{n: 642, fit: fit}, solver.Options{Rand: stream, Memory: mem}); err != nil {
			t.Fatal(err)
		}
		v, _ := mem.Load(s)
		return v.(*memo)
	}
	live := solve(12)
	dead := solve(0)
	if dead.x != nil || dead.n != 642 {
		t.Fatalf("dead window stored a primal vector of %d entries (n=%d), want none for 642", len(dead.x), dead.n)
	}
	if sameBits(dead.y, live.y) {
		t.Fatalf("the dead window left the dual iterate at %v: lp could be skipped on it after all", live.y)
	}
	next := solve(12)

	form, _ := (&fullMachine{n: 642, fit: 12}).LinearForm()
	from := func(m *memo) ([]float64, []float64) {
		cfg := s.cfg
		cfg.Tol = m.tol
		x, y, _ := denseSolve(form, cfg, m.iterate())
		return x, y
	}
	wantX, wantY := from(dead)
	if it := next.iterate(); !sameBits(it.X, wantX) || !sameBits(it.Y, wantY) {
		t.Fatalf("live window after a dead one: iterate Y=%v, dense solve from the dead window's memo Y=%v", it.Y, wantY)
	}
	if skipX, skipY := from(live); sameBits(skipX, wantX) && sameBits(skipY, wantY) {
		t.Fatal("skipping the dead window would have changed nothing: not the case under test")
	}
}

// TestSolvePinnedMatchesSolve: SolvePinned leaves in the run's memory, bit
// for bit, the memo Solve leaves on the same window stated as a problem in
// which a row pins every job — over window lengths around the chunk
// boundaries, capacity lists with zero and negative entries (0 to 4 kept
// rows), and a memo that is absent, fits the window, or is rejected for
// its length or its row count, stored at tolerances on and beyond both
// clamps. Neither draws from opts.Rand, and SolvePinned allocates only the
// memo: the memo itself and, with a kept row, its dual vector.
func TestSolvePinnedMatchesSolve(t *testing.T) {
	defer debug.SetGCPercent(debug.SetGCPercent(-1)) // a collection empties the workspace pool
	s := New(DefaultConfig())
	tol := s.cfg.Tol
	for _, n := range []int{1, 511, 512, 513, 642, 1025} {
		for _, caps := range [][]float64{{0}, {-2, 0}, {-1, 50}, {3, 50}, {0, 7, -4, 30}, {3, 50, 0, 9, 1e6}} {
			m := keptRows(caps)
			for _, prior := range []string{"none", "fits", "other n", "other m"} {
				for _, priorTol := range []float64{tol / 64, tol / 8, tol * 8, tol * 64} {
					name := fmt.Sprintf("n=%d caps=%v memo=%s tol=%g", n, caps, prior, priorTol)
					var prev *memo
					if prior != "none" {
						prev = &memo{warmStart: warmStart{n: n, x: make([]float64, n), y: make([]float64, m)}, tol: priorTol}
						for r := range prev.y {
							prev.y[r] = 0.4 + float64(r)
						}
						for i := range prev.x {
							prev.x[i] = 0.5
						}
						switch prior {
						case "other n":
							prev.n, prev.x = n+1, nil
						case "other m":
							prev.y = append(prev.y, 1)
						}
					}
					solveMem, pinnedMem := solver.NewMemory(), solver.NewMemory()
					if prev != nil {
						solveMem.Store(s, prev)
						pinnedMem.Store(s, prev)
					}
					stream := rng.New(uint64(n))
					before := stream.State()
					front, err := s.Solve(&fullMachine{n: n, caps: caps}, solver.Options{Rand: stream, Memory: solveMem})
					if err != nil || len(front) != 1 || front[0].Genome.OnesCount() != 0 {
						t.Fatalf("%s: Solve answered %v, %v; the window is not pinned", name, front, err)
					}
					s.SolvePinned(n, caps, solver.Options{Rand: stream, Memory: pinnedMem})
					if stream.State() != before {
						t.Fatalf("%s: a solve drew from opts.Rand", name)
					}
					v, _ := solveMem.Load(s)
					want := v.(*memo)
					v, _ = pinnedMem.Load(s)
					got := v.(*memo)
					if got.n != want.n || got.x != nil || want.x != nil || !sameBits(got.y, want.y) ||
						math.Float64bits(got.tol) != math.Float64bits(want.tol) {
						t.Fatalf("%s: SolvePinned stored n=%d x=%v y=%v tol=%v, Solve n=%d x=%v y=%v tol=%v",
							name, got.n, got.x, got.y, got.tol, want.n, want.x, want.y, want.tol)
					}
					if prior == "fits" && m > 0 && sameBits(got.y, prev.y) {
						t.Fatalf("%s: the dual iterate took no step: not the case under test", name)
					}
					if prior == "none" {
						break // the stored tolerance plays no part
					}
				}
			}
			if raceEnabled {
				continue // the race detector drops pooled workspaces at random
			}
			mem := solver.NewMemory()
			allocs := testing.AllocsPerRun(20, func() { s.SolvePinned(n, caps, solver.Options{Memory: mem}) })
			if want := 1 + min(m, 1); allocs > float64(want) {
				t.Errorf("n=%d caps=%v: SolvePinned makes %v allocations, want the memo's %d", n, caps, allocs, want)
			}
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
	if allocs := testing.AllocsPerRun(5, func() { w.solveFrom(cfg, nil) }); allocs != 0 {
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
