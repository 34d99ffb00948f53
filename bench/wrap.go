package main

import (
	"time"

	"bbsched/internal/job"
	"bbsched/internal/moo"
	"bbsched/internal/registry"
	"bbsched/internal/sched"
	"bbsched/internal/sim"
	"bbsched/internal/solver"
	"bbsched/internal/trace"
)

// The traced run wraps the public seams of a replay. Each wrapper forwards
// every optional interface the simulator probes for, so a traced run takes
// exactly the code paths — and yields exactly the result digest — of an
// untraced one.

// tracedSource times JobSource.Next (layer trace.next).
type tracedSource struct {
	src trace.JobSource
	t   *tracer
}

func (s *tracedSource) Next() (*job.Job, error) {
	w := s.t.weight(layTraceNext)
	if w == 0 {
		return s.src.Next()
	}
	start := time.Now()
	j, err := s.src.Next()
	s.t.record(layTraceNext, 0, 0, start, time.Now(), w)
	return j, err
}

// Horizon forwards trace.Horizoner; a source without one reports an
// unknown horizon, which is what the simulator assumes for it anyway.
func (s *tracedSource) Horizon() (int64, bool) {
	if h, ok := s.src.(trace.Horizoner); ok {
		return h.Horizon()
	}
	return 0, false
}

// Close forwards trace.Closer.
func (s *tracedSource) Close() error {
	if c, ok := s.src.(trace.Closer); ok {
		return c.Close()
	}
	return nil
}

// tracedMethod times Method.Select (layer sched.select, child of the
// scheduling pass in flight).
type tracedMethod struct {
	sched.Method
	t *tracer
}

func (m *tracedMethod) Select(ctx *sched.Context) ([]int, error) {
	w := m.t.weight(laySchedSelect)
	if w == 0 {
		return m.Method.Select(ctx)
	}
	m.t.selectID = m.t.newID()
	start := time.Now()
	idx, err := m.Method.Select(ctx)
	m.t.record(laySchedSelect, m.t.selectID, m.t.passID, start, time.Now(), w)
	return idx, err
}

// tracedSolverMethod is tracedMethod over a solver-backed method: it
// additionally forwards sched.SolverConfigurable and sched.SolverVetoer,
// which fixed heuristics must not claim.
type tracedSolverMethod struct {
	tracedMethod
	inner sched.SolverConfigurable
}

func (m *tracedSolverMethod) SetSolver(s solver.Solver) { m.inner.SetSolver(s) }

func (m *tracedSolverMethod) VetoSolver(s solver.Solver) error {
	if v, ok := m.inner.(sched.SolverVetoer); ok {
		return v.VetoSolver(s)
	}
	return nil
}

// SolverName keeps sched.SolverNameOf working through the wrapper.
func (m *tracedSolverMethod) SolverName() string { return sched.SolverNameOf(m.inner) }

// traceMethod wraps a registry method for a traced run; a solver-backed
// method first has its backend replaced by a timed instance of the same
// registry solver.
func traceMethod(m sched.Method, t *tracer) (sched.Method, *tracedSolver, error) {
	sc, ok := m.(sched.SolverConfigurable)
	if !ok {
		return &tracedMethod{Method: m, t: t}, nil, nil
	}
	backend, err := registry.NewSolver(sched.SolverNameOf(m), moo.DefaultGAConfig())
	if err != nil {
		return nil, nil, err
	}
	ts := &tracedSolver{Solver: backend, t: t}
	sc.SetSolver(ts)
	return &tracedSolverMethod{tracedMethod: tracedMethod{Method: m, t: t}, inner: sc}, ts, nil
}

// tracedSolver times Solver.Solve (layer solver.solve, child of
// sched.select) and notes the window dimension and front size of every
// solve. Every formEvery-th window that has a linear form is kept for the
// LP cold-solve probe, which runs after the timed section.
type tracedSolver struct {
	solver.Solver
	t *tracer

	solves       int
	dims, fronts float64
	forms        []solver.LinearForm
}

const formEvery = 64

func (s *tracedSolver) Solve(p moo.Problem, opts solver.Options) ([]moo.Solution, error) {
	start := time.Now()
	front, err := s.Solver.Solve(p, opts)
	s.t.timed(laySolverSolve, 0, s.t.selectID, start, time.Now())
	s.dims += float64(p.Dim())
	s.fronts += float64(len(front))
	if s.solves++; s.solves%formEvery == 1 {
		if form, ok := solver.Linearize(p); ok {
			s.forms = append(s.forms, cloneForm(form))
		}
	}
	return front, err
}

func cloneForm(f solver.LinearForm) solver.LinearForm {
	out := solver.LinearForm{
		C:    append([]float64(nil), f.C...),
		Caps: append([]float64(nil), f.Caps...),
		Rows: make([][]float64, len(f.Rows)),
	}
	for i, r := range f.Rows {
		out.Rows[i] = append([]float64(nil), r...)
	}
	return out
}

// passRecorder is the Observer every replay carries, traced or not: it
// keeps each scheduling pass's wall latency (sim.ScheduleInfo.Duration,
// the paper's §4.4 scheduling overhead) for the decision percentiles.
type passRecorder struct {
	sim.NopObserver
	passes *[]time.Duration // the round's, shared by its replays
}

func (r passRecorder) OnSchedule(si sim.ScheduleInfo) {
	*r.passes = append(*r.passes, si.Duration)
}

// tracedPasses additionally records each pass as a sim.schedule span,
// the parent of the sched.select call made inside it.
type tracedPasses struct {
	passRecorder
	t *tracer
}

func (r tracedPasses) OnSchedule(si sim.ScheduleInfo) {
	r.passRecorder.OnSchedule(si)
	// The engine timed the pass itself, so every pass counts in full;
	// only placing its span costs a clock read, paid while spans are kept.
	var end time.Time
	if r.t.weight(laySimSchedule) == 1 {
		end = time.Now()
	}
	r.t.record(laySimSchedule, r.t.passID, 0, end.Add(-si.Duration), end, 1)
	r.t.passID = r.t.newID()
}
