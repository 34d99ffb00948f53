package sim

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"reflect"
	"slices"
	"testing"

	"bbsched/internal/job"
	"bbsched/internal/queue"
	"bbsched/internal/sched"
	"bbsched/internal/trace"
)

// engineOpts is the hand-scenario option set: w=5 window with starvation
// bound 50, seed 1, and no warm-up/cool-down trim (hand scenarios are
// tiny; measure everything).
func engineOpts(extra ...Option) []Option {
	return append([]Option{
		WithWindow(5, 50),
		WithSeed(1),
		WithMeasurement(0, 0),
	}, extra...)
}

// TestStepAndRunByteIdentical proves the determinism contract of the
// engine: a Step()-driven simulation and a Run()-driven one produce
// byte-identical event streams and identical Reports for the same seed.
func TestStepAndRunByteIdentical(t *testing.T) {
	sys := trace.Scale(trace.Cori(), 128)
	w := trace.Generate(trace.GenConfig{System: sys, Jobs: 80, Seed: 5})

	var runLog bytes.Buffer
	ran, err := NewSimulator(w, fastBBSched(), engineOpts(WithEventLog(&runLog))...)
	if err != nil {
		t.Fatal(err)
	}
	runRes, err := ran.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}

	var stepLog bytes.Buffer
	stepped, err := NewSimulator(w, fastBBSched(), engineOpts(WithEventLog(&stepLog))...)
	if err != nil {
		t.Fatal(err)
	}
	steps := 0
	for {
		more, err := stepped.Step()
		if err != nil {
			t.Fatal(err)
		}
		if !more {
			break
		}
		steps++
	}
	if steps == 0 {
		t.Fatal("no steps taken")
	}
	stepRes, err := stepped.Result()
	if err != nil {
		t.Fatal(err)
	}

	if !bytes.Equal(runLog.Bytes(), stepLog.Bytes()) {
		t.Fatalf("event streams differ:\nrun:  %d bytes\nstep: %d bytes", runLog.Len(), stepLog.Len())
	}
	if !reflect.DeepEqual(runRes.Report, stepRes.Report) {
		t.Fatalf("reports differ:\nrun:  %+v\nstep: %+v", runRes.Report, stepRes.Report)
	}
	if runRes.MakespanSec != stepRes.MakespanSec || runRes.SchedInvocations != stepRes.SchedInvocations {
		t.Fatalf("run identity differs: makespan %d vs %d, invocations %d vs %d",
			runRes.MakespanSec, stepRes.MakespanSec, runRes.SchedInvocations, stepRes.SchedInvocations)
	}
}

// recordingObserver collects every callback for the round-trip test.
type recordingObserver struct {
	records   []EventRecord
	schedules []ScheduleInfo
}

func (r *recordingObserver) OnJobSubmit(ev Event) { r.records = append(r.records, ev.Record("submit")) }
func (r *recordingObserver) OnJobStart(ev Event)  { r.records = append(r.records, ev.Record("start")) }
func (r *recordingObserver) OnJobEnd(ev Event)    { r.records = append(r.records, ev.Record("end")) }
func (r *recordingObserver) OnBBRelease(ev Event) {
	r.records = append(r.records, ev.Record("bb_release"))
}
func (r *recordingObserver) OnSchedule(s ScheduleInfo) { r.schedules = append(r.schedules, s) }

// TestObserverEventLogRoundTrip proves the Observer callbacks carry the
// same information as the JSONL hook: records rebuilt from an Observer
// match ReadEventLog on the stream written concurrently by WithEventLog.
func TestObserverEventLogRoundTrip(t *testing.T) {
	a := job.MustNew(0, 0, 100, 100, job.NewDemand(4, 50, 0))
	a.StageOutSec = 30
	b := job.MustNew(1, 10, 20, 20, job.NewDemand(2, 0, 0))
	w := mkWorkload(tinySystem(10, 100), a, b)

	var buf bytes.Buffer
	rec := &recordingObserver{}
	s, err := NewSimulator(w, sched.Baseline{}, engineOpts(WithEventLog(&buf), WithObserver(rec))...)
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}

	parsed, err := ReadEventLog(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(parsed) == 0 {
		t.Fatal("empty event log")
	}
	if !reflect.DeepEqual(parsed, rec.records) {
		t.Fatalf("observer records diverge from event log:\nlog:      %+v\nobserver: %+v", parsed, rec.records)
	}
	if len(rec.schedules) != res.SchedInvocations {
		t.Fatalf("observed %d scheduling passes, result says %d", len(rec.schedules), res.SchedInvocations)
	}
	started := 0
	for _, si := range rec.schedules {
		started += si.Started
	}
	if started != res.TotalJobs {
		t.Fatalf("schedule callbacks started %d jobs, want %d", started, res.TotalJobs)
	}
}

// TestRunUntilMidRunInspection drives half the horizon, inspects live
// state, then resumes to completion and checks the result matches an
// uninterrupted run.
func TestRunUntilMidRunInspection(t *testing.T) {
	sys := trace.Scale(trace.Cori(), 128)
	w := trace.Generate(trace.GenConfig{System: sys, Jobs: 60, Seed: 7})
	full, err := run(w, fastBBSched())
	if err != nil {
		t.Fatal(err)
	}

	s, err := NewSimulator(w, fastBBSched(), engineOpts()...)
	if err != nil {
		t.Fatal(err)
	}
	mid := full.MakespanSec / 2
	if err := s.RunUntil(mid); err != nil {
		t.Fatal(err)
	}
	if s.Done() {
		t.Fatal("simulation drained at half the makespan")
	}
	if s.Now() > mid {
		t.Fatalf("clock %d advanced past RunUntil bound %d", s.Now(), mid)
	}
	if s.RunningJobs() == 0 && s.QueueDepth() == 0 {
		t.Fatal("nothing running or queued mid-run")
	}
	if _, err := s.Result(); err == nil {
		t.Fatal("Result succeeded before drain")
	}
	nodeFrac, _ := s.Utilization()
	if s.RunningJobs() > 0 && nodeFrac <= 0 {
		t.Fatalf("nodeFrac = %v with %d running jobs", nodeFrac, s.RunningJobs())
	}
	if got := s.Usage().Nodes; got < 0 {
		t.Fatalf("negative node usage %d", got)
	}
	if s.Invocations() == 0 {
		t.Fatal("no scheduling invocations mid-run")
	}

	res, err := s.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(res.Report, full.Report) || res.MakespanSec != full.MakespanSec {
		t.Fatalf("resumed run diverged from uninterrupted run:\nresumed: %+v\nfull:    %+v", res.Report, full.Report)
	}
	// Result is stable across calls.
	again, err := s.Result()
	if err != nil || again != res {
		t.Fatalf("Result not cached: %v, %v", again, err)
	}
}

func TestRunContextCancellation(t *testing.T) {
	sys := trace.Scale(trace.Cori(), 128)
	w := trace.Generate(trace.GenConfig{System: sys, Jobs: 40, Seed: 3})
	s, err := NewSimulator(w, sched.Baseline{}, engineOpts()...)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := s.Run(ctx); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled run returned %v", err)
	}
	// The engine survives cancellation: a fresh context drains it.
	res, err := s.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if res.TotalJobs != 40 {
		t.Fatalf("total jobs = %d", res.TotalJobs)
	}
}

// TestExplicitZeroMeasurement proves the options API distinguishes unset
// from zero: WithMeasurement(0, 0) measures every job, while leaving the
// option out takes the 0.1 defaults.
func TestExplicitZeroMeasurement(t *testing.T) {
	var jobs []*job.Job
	for i := 0; i < 10; i++ {
		jobs = append(jobs, job.MustNew(i, int64(i*100), 10, 10, job.NewDemand(1, 0, 0)))
	}
	w := mkWorkload(tinySystem(10, 0), jobs...)

	s, err := NewSimulator(w, sched.Baseline{}, WithWindow(5, 50), WithMeasurement(0, 0))
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if res.MeasuredJobs != 10 {
		t.Fatalf("explicit zero trim measured %d jobs, want all 10", res.MeasuredJobs)
	}

	// Option left out: the default 0.1/0.1 trims the edges.
	s, err = NewSimulator(w, sched.Baseline{}, WithWindow(5, 50))
	if err != nil {
		t.Fatal(err)
	}
	if res, err = s.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	if res.MeasuredJobs >= 10 {
		t.Fatalf("default trim measured %d jobs, want trimmed (<10)", res.MeasuredJobs)
	}
}

// TestFixedSeedRegression pins exact Results captured from the seed
// implementation (PR 1 tree), before the Simulator existed: identical
// floats prove every engine rework since has been bit-for-bit compatible.
// The default 0.1/0.1 measurement trim applies.
func TestFixedSeedRegression(t *testing.T) {
	sys := trace.Scale(trace.Cori(), 128)
	w := trace.Generate(trace.GenConfig{System: sys, Jobs: 100, Seed: 13})
	want := []struct {
		method                             sched.Method
		nodeUsage, bbUsage, wait, slowdown string
		makespan                           int64
		measured, invocations              int
	}{
		{sched.Baseline{}, "0.74122931442080375", "1.2974288468528264e-05",
			"1092.1948051948052", "1.7077347509666958", 45284, 77, 193},
		{fastBBSched(), "0.82362411347517728", "2.5284849634159832e-06",
			"936.80519480519479", "1.955131907796601", 39403, 77, 195},
	}
	for _, tc := range want {
		s, err := NewSimulator(w, tc.method, WithWindow(5, 50), WithSeed(1))
		if err != nil {
			t.Fatalf("%s: %v", tc.method.Name(), err)
		}
		res, err := s.Run(context.Background())
		if err != nil {
			t.Fatalf("%s: %v", tc.method.Name(), err)
		}
		got := []struct{ name, got, want string }{
			{"NodeUsage", fmt.Sprintf("%.17g", res.NodeUsage), tc.nodeUsage},
			{"BBUsage", fmt.Sprintf("%.17g", res.BBUsage), tc.bbUsage},
			{"AvgWaitSec", fmt.Sprintf("%.17g", res.AvgWaitSec), tc.wait},
			{"AvgSlowdown", fmt.Sprintf("%.17g", res.AvgSlowdown), tc.slowdown},
		}
		for _, g := range got {
			if g.got != g.want {
				t.Errorf("%s: %s = %s, want %s", tc.method.Name(), g.name, g.got, g.want)
			}
		}
		if res.MakespanSec != tc.makespan || res.MeasuredJobs != tc.measured || res.SchedInvocations != tc.invocations {
			t.Errorf("%s: makespan/measured/invocations = %d/%d/%d, want %d/%d/%d",
				tc.method.Name(), res.MakespanSec, res.MeasuredJobs, res.SchedInvocations,
				tc.makespan, tc.measured, tc.invocations)
		}
	}
}

// failWriter fails after n writes.
type failWriter struct{ n int }

func (f *failWriter) Write(p []byte) (int, error) {
	if f.n <= 0 {
		return 0, errors.New("sink full")
	}
	f.n--
	return len(p), nil
}

func TestEventLogWriteFailureAbortsRun(t *testing.T) {
	sys := trace.Scale(trace.Cori(), 128)
	w := trace.Generate(trace.GenConfig{System: sys, Jobs: 20, Seed: 11})
	s, err := NewSimulator(w, sched.Baseline{}, engineOpts(WithEventLog(&failWriter{n: 3}))...)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Run(context.Background()); err == nil {
		t.Fatal("failing event-log writer did not abort the run")
	}
}

func TestNewSimulatorValidation(t *testing.T) {
	j := job.MustNew(0, 0, 100, 100, job.NewDemand(1, 0, 0))
	w := mkWorkload(tinySystem(10, 0), j)
	if _, err := NewSimulator(w, nil); err == nil {
		t.Fatal("nil method accepted")
	}
	if _, err := NewSimulator(w, sched.Baseline{}, WithMeasurement(-0.1, 0)); err == nil {
		t.Fatal("negative warm-up fraction accepted")
	}
	if _, err := NewSimulator(w, sched.Baseline{}, WithMeasurement(0, 1.5)); err == nil {
		t.Fatal("cool-down fraction > 1 accepted")
	}
	if _, err := NewSimulator(w, sched.Baseline{}, WithWindow(-3, 0)); err == nil {
		t.Fatal("invalid window accepted")
	}
}

// passCounts is what the queue cost from one scheduling pass to the next,
// the jobs added in between included: the priorities evaluated and the
// pairs the tournament behind the front compared, and, the most seen at
// any evaluation, the window and the waiting jobs that asked for no more
// nodes than were free.
type passCounts struct {
	evals, compares int
	front, fit      int
}

// countingWFP is WFP counting, into n, the priorities it evaluates and the
// pairs it is asked to certify, reading s at every evaluation.
type countingWFP struct {
	queue.WFP
	n *passCounts
	s *Simulator
}

func (p countingWFP) Prioritize(slots []queue.Slot, now int64) {
	n, fit := p.n, 0
	for _, j := range p.s.q.Waiting(nil) {
		if j.Demand.NodeCount() <= p.s.cl.FreeNodes() {
			fit++
		}
	}
	n.front, n.fit = max(n.front, p.s.plugin.WindowSize(p.s.q.Len())), max(n.fit, fit)
	n.evals += len(slots)
	p.WFP.Prioritize(slots, now)
}

func (p countingWFP) Overtake(a, b *queue.Slot, now int64) int64 {
	p.n.compares++
	return p.WFP.Overtake(a, b, now)
}

// passGatherObserver checks, pass by pass, how many priorities were
// evaluated against what the pass read of the queue and against how many
// jobs were waiting when the pass began.
type passGatherObserver struct {
	NopObserver
	t               *testing.T
	n               *passCounts
	deepest, ranked int
	// Over the passes that began with at least 100 jobs waiting: the
	// priorities they evaluated and the jobs waiting.
	deepEvals, deepDepth int
}

func (o *passGatherObserver) OnSchedule(info ScheduleInfo) {
	depth := info.QueueDepth + info.Started // waiting jobs when the pass began
	n := *o.n
	*o.n = passCounts{}
	if n.evals > depth {
		o.t.Errorf("pass %d: %d priorities evaluated for %d waiting jobs; a pass ranks the queue once",
			info.Invocation, n.evals, depth)
	}
	// The front carried in and the jobs promoted into it (one more for the
	// candidate that failed), both members of compared pairs, and the jobs
	// a gather copied, which all fit the nodes free when it ran.
	if bound := 2*n.front + 1 + 2*n.compares + n.fit; n.evals > bound {
		o.t.Errorf("pass %d: %d priorities evaluated, more than a front of %d twice, %d compared pairs and %d jobs that could fit",
			info.Invocation, n.evals, n.front, n.compares, n.fit)
	}
	if depth >= 100 {
		o.deepEvals += n.evals
		o.deepDepth += depth
	}
	if depth > o.deepest {
		o.deepest = depth
	}
	if n.evals > 0 {
		o.ranked++
	}
}

// TestScheduleGathersQueueOncePerPass: the window pass and EASY backfill
// share one ranking, and behind its front the queue evaluates only the
// priorities it compares or gathers, so a pass evaluates at most one
// priority per waiting job, and on a deep queue far fewer.
func TestScheduleGathersQueueOncePerPass(t *testing.T) {
	w := trace.Generate(trace.GenConfig{
		System: trace.Scale(trace.Theta(), 32), Jobs: 600, Seed: 3,
		TargetLoad: 4, DependencyFraction: 0.1,
	})
	var n passCounts
	obs := &passGatherObserver{t: t, n: &n}
	s, err := NewSimulator(w, sched.Baseline{}, WithSeed(1), WithObserver(obs))
	if err != nil {
		t.Fatal(err)
	}
	s.q = queue.New(countingWFP{n: &n, s: s}) // nothing is queued before the first Step
	if _, err := s.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	if obs.deepest < 100 || obs.ranked < 100 {
		t.Fatalf("queue peaked at %d over %d ranked passes; the test needs a deep queue to mean anything", obs.deepest, obs.ranked)
	}
	t.Logf("deep passes: %d priorities evaluated for %d waiting jobs", obs.deepEvals, obs.deepDepth)
	if obs.deepEvals*4 > obs.deepDepth {
		t.Errorf("passes over a deep queue evaluated %d priorities for %d waiting jobs; want at most a quarter", obs.deepEvals, obs.deepDepth)
	}

	// A window of 1 024 over a queue a thousand deep on a full machine
	// (replay-lp-w1024's shape): almost no pass finds a window job that
	// fits. Such a dead pass reads the window unordered and ages it by
	// counting the pass: it writes the WindowAge only of a job that has left
	// the window. An ordered read, the only thing that moves the front's
	// jobs to order them, writes the counted age of every job that stays,
	// so none happens. Its evaluations stay within the bound above.
	n = passCounts{}
	obs = &passGatherObserver{t: t, n: &n}
	calls := 0
	dead := &deadPassObserver{t: t, calls: &calls, ages: map[int]int{}}
	s, err = NewSimulator(deepWindowWorkload(3), countedSelect{sched.Baseline{}, &calls}, WithSeed(1), WithWindow(1024, 50), WithObserver(dead), WithObserver(obs))
	if err != nil {
		t.Fatal(err)
	}
	s.q = queue.New(countingWFP{n: &n, s: s})
	dead.s = s
	if _, err := s.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	t.Logf("window 1 024: %d dead passes aged %d window jobs and wrote %d ages; %d live passes", dead.dead, dead.aged, dead.wrote, dead.live)
	if dead.dead < 10*dead.live || dead.aged < 500*dead.dead {
		t.Fatalf("%d dead passes over %d window jobs, %d live: the test needs deep, dead windows to mean anything", dead.dead, dead.aged, dead.live)
	}
}

// countedSelect counts its method's Select calls.
type countedSelect struct {
	sched.Method
	calls *int
}

func (c countedSelect) Select(ctx *sched.Context) ([]int, error) {
	*c.calls++
	return c.Method.Select(ctx)
}

// deadPassObserver checks every pass that ranked the queue without asking
// the method — a dead window — for WindowAge written into a job that
// stayed in the window: its window when the pass began and when the last
// one did, read off the reference queue over the jobs waiting then.
type deadPassObserver struct {
	NopObserver
	t     *testing.T
	s     *Simulator
	calls *int
	// ages holds each waiting job's WindowAge field after the last pass,
	// and last the jobs waiting when it began and its instant; started the
	// jobs this pass has started; asked the method's calls by the last
	// pass, and free the nodes free since the last event.
	ages          map[int]int
	last, started []*job.Job
	lastT         int64
	asked         int
	free          int
	dead, live    int
	aged, wrote   int
}

func (o *deadPassObserver) OnJobEnd(Event) { o.free = o.s.cl.FreeNodes() }

func (o *deadPassObserver) OnJobStart(e Event) { o.started = append(o.started, e.Job) }

// window returns the IDs of the window of 1 024 jobs the reference queue
// takes off jobs at now.
func (o *deadPassObserver) window(jobs []*job.Job, now int64) map[int]bool {
	ref := newRefQueue(queue.WFP{})
	for _, j := range jobs {
		if err := ref.Add(j); err != nil {
			o.t.Fatal(err)
		}
	}
	ids := map[int]bool{}
	for _, j := range ref.Window(now, 1024, o.s.depsDone) {
		ids[j.ID] = true
	}
	return ids
}

func (o *deadPassObserver) OnSchedule(info ScheduleInfo) {
	waiting := o.s.q.Waiting(nil)
	began := append(slices.Clone(waiting), o.started...)
	switch {
	case *o.calls != o.asked:
		o.live++
	case o.free > 0: // the pass ranked the queue: only a full machine skips it
		o.dead++
		o.aged += min(1024, len(began))
		var was, is map[int]bool
		for _, j := range waiting {
			if age := o.ages[j.ID]; j.WindowAge != age {
				o.wrote++
				if was == nil {
					was, is = o.window(o.last, o.lastT), o.window(began, info.T)
				}
				if is[j.ID] || !was[j.ID] {
					o.t.Errorf("dead pass %d wrote the WindowAge of job %d, which did not leave its window: %d, was %d", info.Invocation, j.ID, j.WindowAge, age)
				}
			}
		}
	}
	clear(o.ages)
	for _, j := range waiting {
		o.ages[j.ID] = j.WindowAge
	}
	o.last, o.lastT, o.started = began, info.T, o.started[:0]
	o.asked, o.free = *o.calls, o.s.cl.FreeNodes()
}
