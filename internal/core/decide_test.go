package core_test

import (
	"slices"
	"testing"

	"bbsched/internal/cluster"
	"bbsched/internal/core"
	"bbsched/internal/job"
	"bbsched/internal/queue"
	"bbsched/internal/registry"
	"bbsched/internal/rng"
	"bbsched/internal/sched"
	"bbsched/internal/sched/schedtest"
)

// deadBound is the starvation bound the differential passes run under;
// about a quarter of the generated jobs are aged past it.
const deadBound = 3

// everyPass opts a method in to every pass, so Plugin calls it on dead
// windows too: the reference Decide's own answer is held to.
type everyPass struct{ sched.Method }

func (everyPass) SeesEveryPass() {}

// counted counts the method's Select calls, so a check can tell which
// passes Decide answered itself.
type counted struct {
	sched.Method
	calls *int
}

func (c counted) Select(ctx *sched.Context) ([]int, error) {
	*c.calls++
	return c.Method.Select(ctx)
}

// passOutcome is what one Decide call leaves: the jobs started and left
// behind, by ID in order, every window job's WindowAge after the pass,
// and the error text.
type passOutcome struct {
	started, left, ages []int
	err                 string
}

// decidePass runs one Plugin pass of m over jobs, in ID order, against
// ctx's snapshot, with every job's WindowAge reset to ages first.
func decidePass(t testing.TB, m sched.Method, jobs []*job.Job, ages []int, ctx *sched.Context, seed uint64) passOutcome {
	q := queue.New(queue.FCFS{})
	for i, j := range jobs {
		j.WindowAge = ages[i]
		if err := q.Add(j); err != nil {
			t.Fatal(err)
		}
	}
	p, err := core.NewPlugin(core.PluginConfig{WindowSize: schedtest.MaxWindow, StarvationBound: deadBound}, m)
	if err != nil {
		t.Fatal(err)
	}
	started, err := p.Decide(core.DecideContext{
		Ranking:  q.Rank(0, func(int) bool { return true }, q.Len()),
		QueueLen: q.Len(),
		Snap:     ctx.Snap,
		Totals:   ctx.Totals,
		Rand:     rng.New(seed),
	})
	var out passOutcome
	if err != nil {
		out.err = err.Error()
	}
	for _, j := range started {
		out.started = append(out.started, j.ID)
	}
	for _, e := range p.LeftBehind() {
		out.left = append(out.left, e.Job.ID)
	}
	for _, j := range jobs {
		out.ages = append(out.ages, j.WindowAge)
	}
	return out
}

// deadCase is what a decision exercised, for the test's coverage counts.
type deadCase struct {
	skipped, overCapacity, starvedMayFitOnly bool
}

// checkDecideDeadWindow is the differential check behind the test and the
// fuzz target: on the decision drawn from seed — aged, and one time in
// eight over capacity — every registered method's Plugin must start,
// leave behind, age and fail exactly as the same Plugin over the method
// opted in to every pass. An over-capacity snapshot must reach the method.
func checkDecideDeadWindow(t testing.TB, seed uint64) (c deadCase) {
	cfg, ctx := schedtest.Window(seed)
	s := rng.New(^seed)
	ages := make([]int, len(ctx.Window))
	freeNodes := ctx.Snap.FreeNodes()
	for i, j := range ctx.Window {
		ages[i] = s.Intn(deadBound)
		if s.Intn(4) == 0 {
			ages[i] = deadBound + s.Intn(3)
			if queue.EntryOf(j).MayFit(freeNodes, ctx.Snap.FreeBB) && !ctx.Snap.CanFit(j.Demand) {
				c.starvedMayFitOnly = true
			}
		}
	}
	if seed%8 == 0 {
		c.overCapacity = true
		switch {
		case seed%3 == 1:
			ctx.Snap.FreeByClass[0] -= freeNodes + 1
		case seed%3 == 2 && len(ctx.Snap.FreeExtra) > 0:
			ctx.Snap.FreeExtra[0] = -1
		default:
			ctx.Snap.FreeBB = -1
		}
	}

	ssd := len(cfg.SSDClasses) > 0
	for i, spec := range registry.Methods() {
		m, err := registry.NewForCluster(spec.Name, smallGA, cfg, ssd)
		if err != nil {
			t.Fatal(err)
		}
		calls := 0
		got := decidePass(t, counted{m, &calls}, ctx.Window, ages, ctx, seed)
		want := decidePass(t, everyPass{m}, ctx.Window, ages, ctx, seed)
		if !slices.Equal(got.started, want.started) || !slices.Equal(got.left, want.left) ||
			!slices.Equal(got.ages, want.ages) || got.err != want.err {
			t.Fatalf("seed %d: %s: Decide started %v, left %v, ages %v, error %q; called on every pass %v, %v, %v, %q",
				seed, spec.Name, got.started, got.left, got.ages, got.err, want.started, want.left, want.ages, want.err)
		}
		if c.overCapacity && calls == 0 {
			t.Fatalf("seed %d: %s: an over-capacity window was answered without the method", seed, spec.Name)
		}
		if i > 0 && c.skipped != (calls == 0) {
			t.Fatalf("seed %d: %s: method called %d times; whether a window is dead does not depend on the method", seed, spec.Name, calls)
		}
		c.skipped = calls == 0
	}
	return c
}

// TestDecideDeadWindowMatchesSelect: the answer Plugin gives a dead window
// without calling the method is the answer the method gives, for every
// registered method, on aged windows over plain, extra-dimension and
// SSD-class machines.
func TestDecideDeadWindowMatchesSelect(t *testing.T) {
	const windows = 300
	var skipped, over, starved int
	for seed := uint64(0); seed < windows; seed++ {
		c := checkDecideDeadWindow(t, seed)
		if c.skipped {
			skipped++
		}
		if c.overCapacity {
			over++
		}
		if c.starvedMayFitOnly {
			starved++
		}
	}
	t.Logf("%d of %d windows answered without the method, %d over capacity, %d with a starved job only MayFit passes", skipped, windows, over, starved)
	if skipped < windows*3/10 || over == 0 || starved == 0 {
		t.Fatalf("%d of %d windows answered without the method, %d over capacity, %d with a starved job MayFit passes and CanFit refuses: the cases under test are missing",
			skipped, windows, over, starved)
	}
}

// FuzzDecideDeadWindow walks the same check over fuzzer-chosen seeds.
func FuzzDecideDeadWindow(f *testing.F) {
	for _, seed := range []uint64{0, 1, 2, 8, 42, 1 << 40} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, seed uint64) {
		checkDecideDeadWindow(t, seed)
	})
}

// TestDecideDeadWindowAllocatesNothing: a dead window is answered with no
// method call and no per-window copy, so the pass allocates nothing at
// all, however long the window.
func TestDecideDeadWindowAllocatesNothing(t *testing.T) {
	cfg := cluster.Config{Name: "full", Nodes: 128, BurstBufferGB: 4000}
	snap := cluster.MustNew(cfg).Snapshot()
	snap.FreeByClass[0], snap.FreeBB = 2, 900
	for _, n := range []int{20, 1024} {
		q := queue.New(queue.FCFS{})
		for i := 0; i < n; i++ {
			if err := q.Add(job.MustNew(i+1, 0, 600, 600, job.NewDemand(4+i%13, int64(10+i%300), 0))); err != nil {
				t.Fatal(err)
			}
		}
		p, err := core.NewPlugin(core.PluginConfig{WindowSize: n, StarvationBound: 50}, core.New())
		if err != nil {
			t.Fatal(err)
		}
		ctx := core.DecideContext{QueueLen: n, Snap: snap, Totals: sched.TotalsOf(cfg), Rand: rng.New(1)}
		allocs := testing.AllocsPerRun(100, func() {
			ctx.Ranking = q.Rank(0, func(int) bool { return true }, n)
			if started, err := p.Decide(ctx); err != nil || len(started) != 0 {
				t.Fatalf("w=%d: dead window answered %v, %v", n, started, err)
			}
		})
		if allocs != 0 {
			t.Errorf("w=%d: %v allocations on a dead window, want 0", n, allocs)
		}
		if left := p.LeftBehind(); len(left) != n {
			t.Fatalf("w=%d: %d jobs left behind, want all", n, len(left))
		}
	}
}
