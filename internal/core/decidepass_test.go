package core_test

import (
	"fmt"
	"slices"
	"testing"

	"bbsched/internal/backfill"
	"bbsched/internal/cluster"
	"bbsched/internal/core"
	"bbsched/internal/job"
	"bbsched/internal/queue"
	"bbsched/internal/registry"
	"bbsched/internal/rng"
	"bbsched/internal/sched"
	"bbsched/internal/sched/schedtest"
)

// passesOnPass is how many passes checkDecideOnPass runs over one queue.
const passesOnPass = 3

// onPassOutcome is what a run of passes over one queue leaves, pass by
// pass: the jobs Decide started and the EASY plan started, by ID in
// order, every job's window age as the queue reads it (-1 once gone), the
// age each started job left the queue with, the error text, and after the
// last pass the window jobs left behind.
type onPassOutcome struct {
	started, planned, ages, leftWith [][]int
	left                             []int
	err                              string
}

// slotOrder returns the IDs of the jobs waiting in q, in the order the
// queue's slots hold them.
func slotOrder(q *queue.Queue) []int {
	var order []int
	for j := range q.Waiting() {
		order = append(order, j.ID)
	}
	return order
}

// checkNoOrderedRead fails t if a pass Decide answered without the method
// moved a slot of q: once Pass has run, only an ordered read of the window
// (an insertion repair or a sort of the queue's front) moves one, and a
// dead pass makes none. before is the slot order Decide began with, and w
// the window's width. It reports whether the window's slots were out of
// base order then, so that an ordered read would have moved one.
func checkNoOrderedRead(t testing.TB, q *queue.Queue, before []int, w int, now int64, what string) (stale bool) {
	t.Helper()
	if after := slotOrder(q); !slices.Equal(after, before) {
		t.Fatalf("%s: a dead pass reordered the queue's slots\nfrom %v\nto   %v", what, before, after)
	}
	return !slices.Equal(before[:w], ids(q.Sorted(now)[:w]))
}

// decideOnPass runs passesOnPass passes of m, opted in to every pass if
// every is set, over jobs the way the engine
// does: the queue is brought up to date with the window as its front
// (queue.Queue.Pass), Decide takes the window off it, and EASY
// backfilling plans what it leaves (core.Plugin.Ahead, then the ranking)
// on the snapshot the forced starts leave, against a timeline that frees
// everything in use an hour on. The jobs either started leave the queue;
// the passes stop early once it is empty.
// Every job enters the queue with its age in ages. It returns the outcome
// and, per pass, whether the method was called and how many jobs Ahead
// held. On every pass answered without the method it checks that Decide
// made no ordered read of the window (checkNoOrderedRead), and counts in
// stale those whose window an ordered read would have moved.
func decideOnPass(t testing.TB, m sched.Method, every bool, cfg cluster.Config, jobs []*job.Job, ages []int, ctx *sched.Context, seed uint64) (out onPassOutcome, called []bool, ahead []int, stale int) {
	q := queue.New(queue.WFP{})
	for i, j := range jobs {
		if err := q.AddAged(j, ages[i]); err != nil {
			t.Fatal(err)
		}
	}
	calls := 0
	m = counted{m, &calls}
	if every {
		m = everyPass{m}
	}
	p, err := core.NewPlugin(core.PluginConfig{WindowSize: max(1, len(jobs)/2), StarvationBound: deadBound}, m)
	if err != nil {
		t.Fatal(err)
	}
	full := cluster.MustNew(cfg).Snapshot()
	used := backfill.Running{JobID: -1, NodesByClass: make([]int, len(full.FreeByClass)), BB: full.FreeBB - ctx.Snap.FreeBB}
	for c := range full.FreeByClass {
		used.NodesByClass[c] = full.FreeByClass[c] - ctx.Snap.FreeByClass[c]
	}
	for k := range full.FreeExtra {
		used.Extra = append(used.Extra, full.FreeExtra[k]-ctx.Snap.FreeExtra[k])
	}
	var planner backfill.Planner
	done := func(int) bool { return true }
	for pass := 0; pass < passesOnPass && q.Len() > 0; pass++ {
		now := int64(4000 + 3000*pass)
		w := min(p.WindowSize(q.Len()), q.Len())
		ranking := q.Pass(now, done, w)
		before, order := calls, slotOrder(q)
		started, err := p.Decide(core.DecideContext{
			Now: now, Ranking: ranking, QueueLen: q.Len(),
			Snap: ctx.Snap, Totals: ctx.Totals, Rand: rng.New(seed + uint64(pass)),
		})
		if err != nil {
			out.err = err.Error()
			return out, called, ahead, stale
		}
		if !every && calls == before && checkNoOrderedRead(t, q, order, w, now, fmt.Sprintf("seed %d pass %d", seed, pass)) {
			stale++
		}
		called, ahead = append(called, calls > before), append(ahead, len(p.Ahead()))
		snap := ctx.Snap.Clone()
		for _, j := range started {
			if _, err := snap.AllocInto(j.Demand, make([]int, snap.NumClasses())); err != nil {
				t.Fatalf("seed %d pass %d: started job %d does not fit: %v", seed, pass, j.ID, err)
			}
		}
		used.ReleaseTime = now + 3600
		planned := planner.PlanRanked(snap, backfill.NewTimelineFrom([]backfill.Running{used}), p.Ahead(), ranking, now)
		out.started, out.planned = append(out.started, ids(started)), append(out.planned, ids(planned))
		if pass == passesOnPass-1 || q.Len() == len(started)+len(planned) {
			for _, e := range p.LeftBehind() {
				out.left = append(out.left, e.Job.ID)
			}
		}
		var leftWith []int
		for _, j := range append(slices.Clone(started), planned...) {
			age, err := q.Remove(j.ID)
			if err != nil {
				t.Fatal(err)
			}
			leftWith = append(leftWith, age)
		}
		out.leftWith = append(out.leftWith, leftWith)
		var passAges []int
		for _, j := range jobs {
			passAges = append(passAges, q.WindowAge(j.ID))
		}
		out.ages = append(out.ages, passAges)
	}
	return out, called, ahead, stale
}

func ids(jobs []*job.Job) []int {
	out := []int{}
	for _, j := range jobs {
		out = append(out, j.ID)
	}
	return out
}

// onPassCase is what a run of passes exercised, for the test's coverage
// counts: passes answered without the method, and of those the ones that
// forced a start, the ones that handed backfilling a job to reserve for,
// the ones whose plan started a job and the ones whose window was out of
// base order when Decide began.
type onPassCase struct{ skipped, forced, reserved, planned, stale int }

// checkDecideOnPass is the differential check behind the test and the
// fuzz target, on the path the engine takes: over passes on one queue,
// drawn from seed on plain, extra-dimension and SSD-class machines, with
// jobs aged up to and past the starvation bound and submitted at
// different times so that the window's order moves between passes, every
// registered method's Plugin must start, plan, age, leave behind and fail
// exactly as the same Plugin over the method opted in to every pass.
func checkDecideOnPass(t testing.TB, seed uint64) (c onPassCase) {
	cfg, ctx := schedtest.Window(seed)
	s := rng.New(^seed)
	ages := make([]int, len(ctx.Window))
	for i, j := range ctx.Window {
		j.SubmitTime = s.Int63n(4000)
		ages[i] = s.Intn(deadBound)
		if s.Intn(4) == 0 {
			ages[i] = deadBound + s.Intn(3)
		}
	}
	ssd := len(cfg.SSDClasses) > 0
	for _, spec := range registry.Methods() {
		m, err := registry.NewForCluster(spec.Name, smallGA, cfg, ssd)
		if err != nil {
			t.Fatal(err)
		}
		got, called, ahead, stale := decideOnPass(t, m, false, cfg, ctx.Window, ages, ctx, seed)
		want, asked, _, _ := decideOnPass(t, m, true, cfg, ctx.Window, ages, ctx, seed)
		c.stale += stale
		if g, w := fmt.Sprint(got), fmt.Sprint(want); g != w {
			t.Fatalf("seed %d: %s: on Pass, Decide and EASY gave\n%s\ncalled on every pass\n%s", seed, spec.Name, g, w)
		}
		if slices.Contains(asked, false) {
			t.Fatalf("seed %d: %s: a method opted in to every pass was not asked on every pass: %v", seed, spec.Name, asked)
		}
		for pass, asked := range called {
			if !asked {
				c.skipped++
				if len(got.started[pass]) > 0 {
					c.forced++
				}
				if ahead[pass] > 0 {
					c.reserved++
				}
				if len(got.planned[pass]) > 0 {
					c.planned++
				}
			}
		}
	}
	return c
}

// TestDecideDeadWindowMatchesSelectOnPass: on the queue's Pass, which
// leaves the window unordered until a read needs its order, the answer
// Plugin gives a dead window without calling the method — its starts, the
// ages it counts, the job it hands backfilling and so the EASY plan, and
// the window it leaves behind — is the answer the method gives, for every
// registered method; and such a pass moves no slot of the queue, so it
// made no ordered read of the window.
func TestDecideDeadWindowMatchesSelectOnPass(t *testing.T) {
	windows := uint64(300)
	if testing.Short() {
		windows = 40
	}
	var total onPassCase
	for seed := range windows {
		c := checkDecideOnPass(t, seed)
		total.skipped += c.skipped
		total.forced += c.forced
		total.reserved += c.reserved
		total.planned += c.planned
		total.stale += c.stale
	}
	t.Logf("%d passes answered without the method; %d forced a start, %d handed backfilling a job to reserve for, %d planned a start, %d began on a window out of order",
		total.skipped, total.forced, total.reserved, total.planned, total.stale)
	if total.skipped == 0 || total.forced == 0 || total.reserved == 0 || total.planned == 0 || total.stale == 0 {
		t.Fatalf("%+v: the cases under test are missing", total)
	}
}

// FuzzDecideDeadWindowOnPass walks the same check over fuzzer-chosen
// seeds.
func FuzzDecideDeadWindowOnPass(f *testing.F) {
	for _, seed := range []uint64{0, 1, 2, 8, 42, 1 << 40} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, seed uint64) {
		checkDecideOnPass(t, seed)
	})
}

// TestDecideDeadWindowOnPassAllocatesNothing: a dead window on the
// engine's Pass is answered with no method call, no copy and no order of
// the window, so the pass allocates nothing at all, however long the
// window, whether or not a job behind it may fit; nor does it move a slot.
func TestDecideDeadWindowOnPassAllocatesNothing(t *testing.T) {
	cfg := cluster.Config{Name: "full", Nodes: 128, BurstBufferGB: 4000}
	snap := cluster.MustNew(cfg).Snapshot()
	snap.FreeByClass[0], snap.FreeBB = 2, 900
	for _, n := range []int{20, 1024} {
		for _, fitsBehind := range []bool{false, true} {
			q := queue.New(queue.WFP{})
			for i := 0; i < 2*n; i++ {
				nodes := 4 + i%13
				if fitsBehind && i == 2*n-1 {
					nodes = 1 // the queue's last job, behind the window
				}
				if err := q.Add(job.MustNew(i+1, int64(i%97), 600+int64(i%7)*60, 600, job.NewDemand(nodes, int64(10+i%300), 0))); err != nil {
					t.Fatal(err)
				}
			}
			p, err := core.NewPlugin(core.PluginConfig{WindowSize: n, StarvationBound: 50}, core.New())
			if err != nil {
				t.Fatal(err)
			}
			ctx := core.DecideContext{QueueLen: 2 * n, Snap: snap, Totals: sched.TotalsOf(cfg), Rand: rng.New(1)}
			now := int64(1000)
			allocs := testing.AllocsPerRun(100, func() {
				now++
				ctx.Now, ctx.Ranking = now, q.Pass(now, func(int) bool { return true }, n)
				if started, err := p.Decide(ctx); err != nil || len(started) != 0 {
					t.Fatalf("w=%d: dead window answered %v, %v", n, started, err)
				}
			})
			if allocs != 0 {
				t.Errorf("w=%d, a job behind that fits %v: %v allocations on a dead window, want 0", n, fitsBehind, allocs)
			}
			if ahead := len(p.Ahead()); ahead != map[bool]int{false: 0, true: 1}[fitsBehind] {
				t.Errorf("w=%d, a job behind that fits %v: backfilling handed %d jobs", n, fitsBehind, ahead)
			}
			if left := p.LeftBehind(); len(left) != n {
				t.Fatalf("w=%d: %d jobs left behind, want all", n, len(left))
			}
			// LeftBehind ordered the window at now; an hour on, WFP ranks
			// it otherwise, and the dead pass must still not reorder it.
			now += 3600
			ctx.Now, ctx.Ranking = now, q.Pass(now, func(int) bool { return true }, n)
			order := slotOrder(q)
			if _, err := p.Decide(ctx); err != nil {
				t.Fatal(err)
			}
			if !checkNoOrderedRead(t, q, order, n, now, fmt.Sprintf("w=%d", n)) {
				t.Fatalf("w=%d: the window is in base order before the pass, so the check cannot see an ordered read", n)
			}
		}
	}
}
