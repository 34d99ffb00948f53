package sim

import (
	"bytes"
	"context"
	"fmt"
	"sort"
	"strings"
	"testing"

	"bbsched/internal/job"
	"bbsched/internal/rng"
	"bbsched/internal/sched"
	"bbsched/internal/trace"
)

// seesEveryPass opts a method in to every pass (sched.EveryPass), so the
// Plugin reads its window in order on dead passes too.
type seesEveryPass struct{ sched.Method }

func (seesEveryPass) SeesEveryPass() {}

// passLog records a run pass by pass: the jobs each pass started, in start
// order and with the window age each left the queue with, read through
// ages, so that the window's picks and the EASY plan behind them both
// show, and every job still waiting after it with its window age.
type passLog struct {
	NopObserver
	ages    func(j *job.Job) int
	waiting func() []*job.Job
	lines   []string
	started []string
}

func (l *passLog) OnJobStart(e Event) {
	l.started = append(l.started, fmt.Sprintf("%d@%d", e.Job.ID, l.ages(e.Job)))
}

func (l *passLog) OnSchedule(info ScheduleInfo) {
	ws := l.waiting()
	sort.Slice(ws, func(a, b int) bool { return ws[a].ID < ws[b].ID })
	var b strings.Builder
	fmt.Fprintf(&b, "pass %d at %d: started %v; waiting", info.Invocation, info.T, l.started)
	for _, j := range ws {
		fmt.Fprintf(&b, " %d@%d", j.ID, l.ages(j))
	}
	l.lines = append(l.lines, b.String())
	l.started = l.started[:0]
}

// referencePasses runs w on the frozen reference engine, which re-sorts
// the whole queue for every window, asks the method on every pass and
// writes every window job's age into its own copy of the job as it goes.
func referencePasses(t testing.TB, w trace.Workload, m sched.Method, opts []Option) []string {
	var ref *refSimulator
	log := &passLog{
		ages: func(j *job.Job) int { return j.WindowAge },
		waiting: func() []*job.Job {
			ws := make([]*job.Job, 0, len(ref.q.waiting))
			for _, j := range ref.q.waiting {
				ws = append(ws, j)
			}
			return ws
		},
	}
	ref, err := newRefSimulator(w, m, append(opts, WithObserver(log))...)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ref.run(); err != nil {
		t.Fatal(err)
	}
	return log.lines
}

// enginePasses runs w on the Simulator, checkpointed after pass at and
// restored into a new one, which runs to the end.
func enginePasses(t testing.TB, w trace.Workload, m sched.Method, opts []Option, at int) []string {
	var s *Simulator
	log := &passLog{
		ages: func(j *job.Job) int {
			if r, ok := s.running[j.ID]; ok {
				return r.age
			}
			return s.q.WindowAge(j.ID)
		},
		waiting: func() []*job.Job { return waitingJobs(s.q) },
	}
	opts = append(opts, WithObserver(log))
	s, err := NewSimulator(w, m, opts...)
	if err != nil {
		t.Fatal(err)
	}
	for more := true; more && s.Invocations() < at; {
		if more, err = s.Step(); err != nil {
			t.Fatal(err)
		}
	}
	var snap bytes.Buffer
	if err := s.Checkpoint(&snap); err != nil {
		t.Fatal(err)
	}
	if s, err = Restore(w, m, &snap, opts...); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	return log.lines
}

// checkLazyWindow draws a workload from seed and runs it at windows of 1,
// 20 and 1 024 jobs and starvation bounds of 0, 1 and 50, under a method
// that sees only live passes and one that sees every pass. After every
// pass the engine — which orders its window only when a method reads it,
// counts window passes instead of writing ages, and is checkpointed and
// restored halfway — must have started the same jobs in the same order,
// with the same ages, and left every waiting job with the same age as the
// reference engine.
func checkLazyWindow(t testing.TB, seed uint64) {
	r := rng.New(seed)
	sys := trace.Scale(trace.Theta(), 32)
	if r.Bool(0.3) {
		sys = trace.Scale(trace.Cori(), 32)
	}
	cfg := trace.GenConfig{
		System: sys, Jobs: 30 + r.Intn(90), Seed: seed,
		TargetLoad: 0.5 + 5*r.Float64(), DependencyFraction: 0.25 * float64(r.Intn(2)),
	}
	if r.Bool(0.3) {
		cfg.BBDrainGBps = 1
	}
	w := trace.Generate(cfg)
	if r.Bool(0.5) {
		w.System.Policy = trace.FCFS
	}
	for _, window := range []int{1, 20, 1024} {
		for _, bound := range []int{0, 1, 50} {
			for _, m := range []sched.Method{sched.Baseline{}, seesEveryPass{sched.BinPacking{}}} {
				opts := []Option{WithWindow(window, bound), WithSeed(seed)}
				want := referencePasses(t, w, m, opts)
				got := enginePasses(t, w, m, opts, len(want)/2)
				label := fmt.Sprintf("seed %d, %d jobs, %s, window %d, bound %d, %s", seed, len(w.Jobs), w.System.Policy, window, bound, m.Name())
				for i := range max(len(got), len(want)) {
					if i >= len(got) || i >= len(want) || got[i] != want[i] {
						g, wn := "(none)", "(none)"
						if i < len(got) {
							g = got[i]
						}
						if i < len(want) {
							wn = want[i]
						}
						t.Fatalf("%s: passes diverge at %d:\n got %s\nwant %s", label, i, g, wn)
					}
				}
			}
		}
	}
}

// FuzzLazyWindow holds the engine's one pass path — the window read
// unordered and aged by count unless it is live or its method sees every
// pass — to the reference that orders the whole window and writes every
// age, pass by pass, over drawn workloads, windows, bounds and methods,
// across a checkpoint.
func FuzzLazyWindow(f *testing.F) {
	for _, seed := range []uint64{1, 2, 3, 42} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, seed uint64) {
		checkLazyWindow(t, seed)
	})
}
