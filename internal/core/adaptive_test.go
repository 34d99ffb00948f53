package core

import (
	"strings"
	"testing"

	"bbsched/internal/job"
	"bbsched/internal/moo"
	"bbsched/internal/queue"
	"bbsched/internal/sched"
)

func fastInner() *BBSched {
	b := New()
	b.GA = moo.GAConfig{Generations: 60, Population: 12, MutationProb: 0.01}
	return b
}

func TestAdaptiveFactorTracksScarcity(t *testing.T) {
	a := NewAdaptive(fastInner())
	jobs, c := table1()

	// Balanced free fractions: factor unchanged from the default 2.
	if _, err := a.Select(ctxFor(jobs, c, 1)); err != nil {
		t.Fatal(err)
	}
	if a.Factor() != 2 {
		t.Fatalf("balanced factor = %v, want 2", a.Factor())
	}

	// Make BB scarce: factor must fall.
	occ := job.MustNew(90, 0, 10, 10, job.NewDemand(1, 80, 0))
	held, err := c.Allocate(occ)
	if err != nil {
		t.Fatal(err)
	}
	small := []*job.Job{job.MustNew(91, 0, 10, 10, job.NewDemand(1, 1, 0))}
	before := a.Factor()
	if _, err := a.Select(ctxFor(small, c, 2)); err != nil {
		t.Fatal(err)
	}
	if a.Factor() >= before {
		t.Fatalf("factor %v did not fall under BB scarcity (was %v)", a.Factor(), before)
	}

	// Make nodes scarce instead: factor must rise again.
	c.Release(&held)
	occ2 := job.MustNew(92, 0, 10, 10, job.NewDemand(90, 1, 0))
	if _, err := c.Allocate(occ2); err != nil {
		t.Fatal(err)
	}
	before = a.Factor()
	if _, err := a.Select(ctxFor(small, c, 3)); err != nil {
		t.Fatal(err)
	}
	if a.Factor() <= before {
		t.Fatalf("factor %v did not rise under node scarcity (was %v)", a.Factor(), before)
	}
}

func TestAdaptiveFactorClamped(t *testing.T) {
	a := NewAdaptive(fastInner())
	_, c := table1()
	occ := job.MustNew(90, 0, 10, 10, job.NewDemand(1, 99, 0))
	if _, err := c.Allocate(occ); err != nil {
		t.Fatal(err)
	}
	small := []*job.Job{job.MustNew(91, 0, 10, 10, job.NewDemand(1, 0, 0))}
	for i := 0; i < 50; i++ {
		if _, err := a.Select(ctxFor(small, c, uint64(i))); err != nil {
			t.Fatal(err)
		}
	}
	if a.Factor() < a.MinFactor-1e-12 {
		t.Fatalf("factor %v below clamp %v", a.Factor(), a.MinFactor)
	}
	if a.Factor() != a.MinFactor {
		t.Fatalf("sustained BB scarcity should pin the factor at MinFactor, got %v", a.Factor())
	}
}

func TestAdaptiveValidation(t *testing.T) {
	jobs, c := table1()
	bad := &Adaptive{Inner: nil, Step: 1.2, MinFactor: 1, MaxFactor: 4}
	if _, err := bad.Select(ctxFor(jobs, c, 1)); err == nil {
		t.Fatal("nil inner accepted")
	}
	bad2 := &Adaptive{Inner: fastInner(), Step: 1.0, MinFactor: 1, MaxFactor: 4}
	if _, err := bad2.Select(ctxFor(jobs, c, 1)); err == nil || !strings.Contains(err.Error(), "step") {
		t.Fatalf("step <= 1 accepted: %v", err)
	}
}

func TestAdaptiveSelectionsAreValid(t *testing.T) {
	a := NewAdaptive(fastInner())
	jobs, c := table1()
	idx, err := a.Select(ctxFor(jobs, c, 5))
	if err != nil {
		t.Fatal(err)
	}
	scratch := c.Snapshot()
	for _, i := range idx {
		if _, err := scratch.Alloc(jobs[i].Demand); err != nil {
			t.Fatalf("adaptive oversubscribed at %d", i)
		}
	}
}

func TestAdaptiveWindowPolicy(t *testing.T) {
	w := NewAdaptiveWindow() // [5,50], /4
	cases := map[int]int{0: 5, 10: 5, 40: 10, 100: 25, 400: 50, 10000: 50}
	for qlen, want := range cases {
		if got := w.Size(qlen); got != want {
			t.Errorf("Size(%d) = %d, want %d", qlen, got, want)
		}
	}
	zero := AdaptiveWindow{Min: 0, Max: 10, Divisor: 0}
	if zero.Size(0) < 1 {
		t.Fatal("degenerate policy returned non-positive size")
	}
}

func TestPluginWithWindowPolicy(t *testing.T) {
	jobs, c := table1()
	q := queue.New(queue.FCFS{})
	for _, j := range jobs {
		q.Add(j)
	}
	// Policy yields window 1 for a 5-job queue → only the head is seen.
	p, err := NewPlugin(PluginConfig{WindowPolicy: AdaptiveWindow{Min: 1, Max: 1, Divisor: 100}, StarvationBound: 50}, sched.Baseline{})
	if err != nil {
		t.Fatal(err)
	}
	ctx := pluginCtx(q, c, 1)
	ctx.Ranking = q.Rank(ctx.Now, func(int) bool { return false }, p.WindowSize(q.Len()))
	started, err := p.Decide(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(started) != 1 || started[0].ID != 1 {
		t.Fatalf("window-1 policy started %v", idsOf(started))
	}
	// Unselected jobs behind the 1-wide window must NOT age (they were
	// never in the window).
	for _, j := range jobs[1:] {
		if q.WindowAge(j.ID) != 0 {
			t.Fatalf("job %d aged outside the window", j.ID)
		}
	}
}

func TestPluginConfigWindowPolicyValidation(t *testing.T) {
	if err := (PluginConfig{WindowPolicy: NewAdaptiveWindow()}).Validate(); err != nil {
		t.Fatalf("policy-only config rejected: %v", err)
	}
	if err := (PluginConfig{}).Validate(); err == nil {
		t.Fatal("no window size and no policy accepted")
	}
	if err := (PluginConfig{WindowPolicy: brokenPolicy{}}).Validate(); err == nil {
		t.Fatal("non-positive policy accepted")
	}
}

// brokenPolicy returns a non-positive window size, which Validate rejects.
type brokenPolicy struct{}

func (brokenPolicy) Name() string { return "broken" }
func (brokenPolicy) Size(int) int { return 0 }

// TestAdaptiveFactorMovesOnDeadWindow: the controller reads the snapshot
// before it delegates, so its factor steps on a pass whose window holds
// no job that fits — a pass BBSched answers without solving, and Plugin
// answers without calling any method that has not opted in to every pass
// (sched.EveryPass) — exactly as on a live one. Adaptive opts in; without
// that, its factor would freeze on the Plugin's dead passes below.
func TestAdaptiveFactorMovesOnDeadWindow(t *testing.T) {
	a := NewAdaptive(fastInner())
	_, c := table1()
	// 10 of 100 nodes free, 90 of 100 GB free: nodes are the bottleneck.
	if _, err := c.Allocate(job.MustNew(90, 0, 10, 10, job.NewDemand(90, 10, 0))); err != nil {
		t.Fatal(err)
	}
	dead := job.MustNew(91, 0, 10, 10, job.NewDemand(50, 1, 0))
	for pass, want := range []float64{2.5, 3.125} {
		idx, err := a.Select(ctxFor([]*job.Job{dead}, c, uint64(pass)))
		if err != nil || idx != nil {
			t.Fatalf("direct pass %d: dead window answered %v, %v", pass, idx, err)
		}
		if a.Factor() != want || a.Inner.TradeoffFactor != want {
			t.Fatalf("direct pass %d: factor %v (inner %v), want %v", pass, a.Factor(), a.Inner.TradeoffFactor, want)
		}
	}

	p, err := NewPlugin(DefaultPluginConfig(), a)
	if err != nil {
		t.Fatal(err)
	}
	q := queue.New(queue.FCFS{})
	q.Add(dead)
	for pass, want := range []float64{3.90625, 4.8828125} {
		started, err := p.Decide(pluginCtx(q, c, uint64(pass)))
		if err != nil || len(started) != 0 {
			t.Fatalf("plugin pass %d: dead window started %v, %v", pass, idsOf(started), err)
		}
		if a.Factor() != want || a.Inner.TradeoffFactor != want {
			t.Fatalf("plugin pass %d: factor %v (inner %v), want %v", pass, a.Factor(), a.Inner.TradeoffFactor, want)
		}
	}
	if age := q.WindowAge(dead.ID); age != 2 {
		t.Fatalf("dead window job aged %d times over two passes, want 2", age)
	}
}
