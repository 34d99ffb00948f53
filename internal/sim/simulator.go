package sim

import (
	"context"
	"crypto/sha256"
	"fmt"
	"io"
	"math"
	"time"

	"bbsched/internal/backfill"
	"bbsched/internal/cluster"
	"bbsched/internal/core"
	"bbsched/internal/job"
	"bbsched/internal/metrics"
	"bbsched/internal/queue"
	"bbsched/internal/rng"
	"bbsched/internal/sched"
	"bbsched/internal/trace"
)

// options is the resolved configuration of a Simulator. Every field holds
// exactly what the caller asked for: an option explicitly set to zero
// stays zero, defaults apply only to options never given.
type options struct {
	plugin       core.PluginConfig
	backfill     bool
	seed         uint64
	warmupFrac   float64
	cooldownFrac float64
	buckets      metrics.Buckets
	observers    []Observer
	source       trace.JobSource
	lookahead    int // Lookahead; in-package tests shrink it to hit the refill boundary
	streamStats  bool
	measureAbs   bool
	measureStart int64
	measureEnd   int64
}

// Lookahead is how many jobs beyond the current event frontier every run
// buffers ahead of its source: large enough to amortize source pulls,
// small enough that memory stays bounded by queue depth plus this window.
const Lookahead = 256

// slowdownFloorSec bounds the bounded-slowdown denominator in seconds.
const slowdownFloorSec = 60

func defaultOptions() options {
	return options{
		plugin:       core.DefaultPluginConfig(),
		backfill:     true,
		warmupFrac:   0.1,
		cooldownFrac: 0.1,
		lookahead:    Lookahead,
	}
}

func (o options) validate() error {
	if o.warmupFrac < 0 || o.warmupFrac > 1 {
		return fmt.Errorf("sim: warm-up fraction %v outside [0,1]", o.warmupFrac)
	}
	if o.cooldownFrac < 0 || o.cooldownFrac > 1 {
		return fmt.Errorf("sim: cool-down fraction %v outside [0,1]", o.cooldownFrac)
	}
	if o.measureAbs && o.measureEnd < o.measureStart {
		return fmt.Errorf("sim: measurement window end %d before start %d", o.measureEnd, o.measureStart)
	}
	return nil
}

// Option configures a Simulator at construction. Options distinguish
// "unset" from "explicitly zero": a default applies only when its option
// is never passed.
type Option func(*options)

// WithPlugin sets the full §3.1 window configuration (size, starvation
// bound, dynamic window policy). The configuration is used verbatim — a
// zero StarvationBound disables forcing, and a WindowPolicy may be
// combined with a zero WindowSize.
func WithPlugin(cfg core.PluginConfig) Option {
	return func(o *options) { o.plugin = cfg }
}

// WithWindow sets the static window size and starvation bound, the common
// case of WithPlugin.
func WithWindow(size, starvationBound int) Option {
	return func(o *options) {
		o.plugin = core.PluginConfig{WindowSize: size, StarvationBound: starvationBound}
	}
}

// WithBackfill enables or disables EASY backfilling (§4.3 runs all methods
// with backfilling on; disabling it is the ablation).
func WithBackfill(enabled bool) Option {
	return func(o *options) { o.backfill = enabled }
}

// WithSeed seeds the method's stochastic solver.
func WithSeed(seed uint64) Option {
	return func(o *options) { o.seed = seed }
}

// WithMeasurement sets the warm-up and cool-down fractions trimming the
// measured interval (paper: half a month each; default 0.1 each). Zero is
// honored as zero: WithMeasurement(0, 0) measures every job.
func WithMeasurement(warmupFrac, cooldownFrac float64) Option {
	return func(o *options) {
		o.warmupFrac, o.cooldownFrac = warmupFrac, cooldownFrac
	}
}

// WithBuckets configures the breakdown boundaries of Figs. 9–11.
func WithBuckets(b metrics.Buckets) Option {
	return func(o *options) { o.buckets = b }
}

// WithObserver registers an Observer; repeated use registers several,
// notified in registration order.
func WithObserver(obs Observer) Option {
	return func(o *options) { o.observers = append(o.observers, obs) }
}

// WithEventLog streams a JSONL EventRecord per job state change to w. A
// write error aborts the run.
func WithEventLog(w io.Writer) Option {
	return func(o *options) { o.observers = append(o.observers, newJSONLObserver(w)) }
}

// WithSource drives the simulation from a streaming trace.JobSource
// instead of the workload's own job list. Every run pulls arrivals
// lazily through a bounded look-ahead buffer (Lookahead jobs); with a
// source that never holds the whole trace, memory stays bounded by queue
// depth plus the look-ahead window rather than trace length. The workload
// passed to NewSimulator must carry no jobs — it contributes only the
// name and system model. Sources are single-use; the simulator owns the
// one it is given.
//
// The source must satisfy the JobSource contract (non-decreasing submit
// times, dense IDs, deps on earlier jobs only); violations surface as
// Step errors when pulled. Fractional measurement trims (WithMeasurement)
// need the source to know its horizon (trace.Horizoner, as SliceSource
// does); otherwise use WithMeasureWindow or WithMeasurement(0, 0).
func WithSource(src trace.JobSource) Option {
	return func(o *options) { o.source = src }
}

// WithStreamingMetrics makes the run's metrics.JobStats estimate the
// wait-time percentiles with P² sketches instead of keeping one float64
// per measured job for exact nearest-rank values, so arbitrarily long
// streams measure in constant space. Means and bucket breakdowns are
// the same accumulator either way and bit-identical; only the
// percentiles become estimates, which is why exact is the default.
func WithStreamingMetrics() Option {
	return func(o *options) { o.streamStats = true }
}

// WithMeasureWindow sets the measured interval as absolute simulation
// times [start, end], overriding the fractional WithMeasurement trim.
// This is how horizon-less streams (live SWF replays, generators) get a
// warm-up/cool-down-trimmed measurement.
func WithMeasureWindow(start, end int64) Option {
	return func(o *options) {
		o.measureAbs, o.measureStart, o.measureEnd = true, start, end
	}
}

// Simulator is a stateful, reusable trace-driven simulation engine: jobs
// arrive per the trace, a window-based scheduling pass (core.Plugin
// wrapping any §4.3 method) runs on every arrival and completion, EASY
// backfilling mops up fragmentation, and metrics are integrated over the
// measured interval. A finished job is folded into the run's one
// metrics.JobStats and not kept, so beyond the workload it was given a
// run holds the jobs in flight plus one float64 per measured job (none
// under WithStreamingMetrics). A run never writes a job: what happens to
// a job in the run — its window age, start and end — lives in the
// containers that hold it (the queue, the running set), so any number of
// runs share one workload. The running set is the event heap: a started
// job's one record, its allocation included, hangs off its one pending
// end or burst-buffer release event.
//
// A Simulator advances either one event instant at a time (Step,
// RunUntil) — inspecting queue depth, utilization, and the clock between
// steps — or to completion (Run, with context cancellation). Observers
// registered at construction receive every job state change and
// scheduling pass. A Simulator simulates one workload once; build a new
// one (or use RunSweep) for repeated runs.
type Simulator struct {
	opt      options
	workload trace.Workload // the caller's: its jobs are read, never written

	cl     *cluster.Cluster
	q      *queue.Queue
	plugin *core.Plugin
	totals sched.Totals
	extra  []cluster.ResourceSpec // the machine's extra resource dimensions
	rand   *rng.Stream

	events eventHeap
	now    int64
	// reserved is the §4.1 persistent burst-buffer reservation, held for
	// the whole run (empty when the system has none).
	reserved cluster.Allocation

	// Ingestion state. Every job enters through source: the caller's
	// (WithSource) or a trace.SliceSource over the workload. pending is
	// the bounded look-ahead FIFO between the source and the event heap;
	// done is the set of finished IDs, a watermark and a bitmap over the
	// in-flight spread above it, not over the trace.
	source     trace.JobSource
	srcClosed  bool
	admitCl    *cluster.Cluster // pristine machine for per-pull validation
	pending    []*job.Job
	pendHead   int
	srcDone    bool
	pulled     int
	lastSubmit int64
	done       doneSet

	// stats accumulates the per-job metrics: finish folds each measured
	// job into it, and the job itself is not kept.
	stats *metrics.JobStats

	warmEnd, coolStart int64

	// Steady-state pooled machinery: the persistent release timeline (kept
	// incrementally sorted as jobs start and finish, so backfill planning
	// never re-sorts the running set), the pooled EASY planner, and the
	// reusable buffers and streams of the per-instant scheduling pass.
	timeline  backfill.Timeline
	planner   backfill.Planner
	passSnap  cluster.Snapshot
	invStream *rng.Stream
	depsDone  func(id int) bool
	rjFree    []*runningJob

	observers []Observer
	failing   []failingObserver

	collector   metrics.Collector
	invocations int
	decideTotal time.Duration
	decideMax   time.Duration

	// live usage counters, kept incrementally
	usage metrics.Usage

	// hash caches trace.JobsHash of the workload's jobs; hashed says it
	// is set, which the first checkpoint or restore that needs it does.
	hash   [sha256.Size]byte
	hashed bool

	result *Result
}

// NewSimulator builds a Simulator over the workload, which it shares and
// never writes, driving the given window job-selection method. Defaults
// match the paper: w=20 window with starvation bound 50, EASY backfilling
// on, 0.1 warm-up/cool-down trim, 60 s slowdown floor.
//
// A workload that carries jobs must satisfy trace.Workload.Validate (the
// JobSource contract) and is fed through the same pull path as a stream.
// With WithSource the workload is a job-less shell (name + system) and
// arrivals come from the given source instead; pair it with
// WithStreamingMetrics, which drops the float64 kept per measured job,
// to run arbitrarily long traces in memory bounded by queue depth plus
// the look-ahead window.
func NewSimulator(w trace.Workload, method sched.Method, opts ...Option) (*Simulator, error) {
	opt := defaultOptions()
	for _, apply := range opts {
		apply(&opt)
	}
	if err := opt.validate(); err != nil {
		return nil, err
	}
	if method == nil {
		return nil, fmt.Errorf("sim: nil method")
	}
	if opt.source != nil && len(w.Jobs) > 0 {
		return nil, fmt.Errorf("sim: WithSource on a workload that already carries %d materialized jobs; pass the job-less workload shell", len(w.Jobs))
	}

	if err := w.Validate(); err != nil {
		return nil, fmt.Errorf("sim: %w", err)
	}
	cl, err := cluster.New(w.System.Cluster)
	if err != nil {
		return nil, fmt.Errorf("sim: %w", err)
	}
	pol, err := queue.ByName(string(w.System.Policy))
	if err != nil {
		return nil, fmt.Errorf("sim: %w", err)
	}
	plugin, err := core.NewPlugin(opt.plugin, method)
	if err != nil {
		return nil, fmt.Errorf("sim: %w", err)
	}

	if opt.source == nil {
		opt.source = trace.SourceOf(w)
	}
	// Resolve the measured interval. An absolute window wins; otherwise
	// the fractional trim needs a horizon, known only when the source
	// reports one (a workload's own jobs and SliceSource do). A
	// horizon-less stream with zero trims measures the full run
	// (open-ended cool-down sentinel).
	hz, known := int64(0), false
	if h, ok := opt.source.(trace.Horizoner); ok {
		hz, known = h.Horizon()
	}
	var warmEnd, coolStart int64
	switch {
	case opt.measureAbs:
		warmEnd, coolStart = opt.measureStart, opt.measureEnd
	case known:
		warmEnd = int64(float64(hz) * opt.warmupFrac)
		coolStart = hz - int64(float64(hz)*opt.cooldownFrac)
	case opt.warmupFrac == 0 && opt.cooldownFrac == 0:
		warmEnd, coolStart = 0, math.MaxInt64
	default:
		return nil, fmt.Errorf("sim: source has no known horizon to resolve the fractional measurement trim; use WithMeasureWindow, WithMeasurement(0, 0), or a horizon-reporting source")
	}
	s := &Simulator{
		opt:       opt,
		workload:  w,
		cl:        cl,
		q:         queue.New(pol),
		plugin:    plugin,
		totals:    sched.TotalsOf(w.System.Cluster),
		extra:     w.System.Cluster.Extra,
		rand:      rng.New(opt.seed).Split("sim:" + w.Name + ":" + method.Name()),
		observers: opt.observers,
		events:    make(eventHeap, 0, opt.lookahead+1),
		source:    opt.source,
		pending:   make([]*job.Job, 0, opt.lookahead),
		stats:     metrics.NewJobStats(slowdownFloorSec, opt.buckets, opt.streamStats, len(w.Jobs)),
		warmEnd:   warmEnd,
		coolStart: coolStart,
	}
	// A second pristine machine validates each pulled job's demand (the
	// per-pull analogue of Workload.Validate's fit check).
	if s.admitCl, err = cluster.New(w.System.Cluster); err != nil {
		return nil, fmt.Errorf("sim: %w", err)
	}
	s.depsDone = s.done.has
	if len(s.extra) > 0 {
		s.usage.Extra = make([]int64, len(s.extra))
	}
	for _, o := range s.observers {
		if f, ok := o.(failingObserver); ok {
			s.failing = append(s.failing, f)
		}
	}
	if s.coolStart > s.warmEnd && s.coolStart != math.MaxInt64 {
		s.collector.SetWindow(s.warmEnd, s.coolStart)
	}
	// Persistent burst-buffer reservations (§4.1) are taken before any job
	// arrives and never released; they shrink the schedulable pool and
	// count as used burst buffer for the whole run.
	if p := w.System.PersistentBBGB; p > 0 {
		if s.reserved, err = cl.ReserveBB(p); err != nil {
			return nil, fmt.Errorf("sim: persistent reservation: %w", err)
		}
		s.usage.BBGB += p
	}
	s.collector.Observe(0, metrics.Usage{})
	return s, nil
}

// Close releases the simulator's source, if it is one that can be
// released (trace.Closer). The simulator owns the source it was given
// (see WithSource), so a caller abandoning a run early — cancellation, a
// failed step — closes it through here rather than keeping its own
// handle. Close is idempotent: the simulator forwards at most one Close
// to the source, so sweep drivers can close on every exit path without
// double-closing, and a source that already closed itself on drain (the
// JobSource contract) sees at most one extra, harmless Close.
func (s *Simulator) Close() error {
	if s.srcClosed {
		return nil
	}
	s.srcClosed = true
	if c, ok := s.source.(trace.Closer); ok {
		return c.Close()
	}
	return nil
}

// fill tops up the look-ahead buffer from the source and pushes every
// buffered arrival at or before the next event instant into the heap.
// Because sources yield non-decreasing submit times, once the buffer's
// head is beyond the heap top every later arrival is too — so when Step
// processes an instant, all arrivals at or before it are present, and
// the heap's total (time, kind, ID) order makes the resulting event
// sequence identical to the fully preloaded heap's.
func (s *Simulator) fill() error {
	for {
		if s.pendHead == len(s.pending) {
			s.pendHead = 0
			s.pending = s.pending[:0]
			if err := s.refill(); err != nil {
				return err
			}
			if len(s.pending) == 0 {
				return nil
			}
		}
		next := s.pending[s.pendHead]
		if s.events.Len() > 0 && next.SubmitTime > s.events[0].t {
			return nil
		}
		s.pendHead++
		s.events.push(event{t: next.SubmitTime, kind: evArrive, j: next})
	}
}

// refill pulls up to the look-ahead window of jobs from the source,
// validating each against the JobSource contract and the machine.
func (s *Simulator) refill() error {
	if s.srcDone {
		return nil
	}
	for len(s.pending) < s.opt.lookahead {
		j, err := s.source.Next()
		if err == io.EOF {
			s.srcDone = true
			return nil
		}
		if err != nil {
			s.srcDone = true
			return fmt.Errorf("sim: source: %w", err)
		}
		if err := s.admit(j); err != nil {
			s.srcDone = true
			return err
		}
		s.pending = append(s.pending, j)
	}
	return nil
}

// admit enforces the JobSource contract on a pulled job — the per-pull
// analogue of Workload.Validate.
func (s *Simulator) admit(j *job.Job) error {
	if j == nil {
		return fmt.Errorf("sim: source returned a nil job")
	}
	if j.ID != s.pulled {
		return fmt.Errorf("sim: source job ID %d breaks the dense pull-order sequence (want %d)", j.ID, s.pulled)
	}
	if j.SubmitTime < s.lastSubmit {
		return fmt.Errorf("sim: source job %d submits at %d, before previous job's %d", j.ID, j.SubmitTime, s.lastSubmit)
	}
	if err := s.admissible(j); err != nil {
		return fmt.Errorf("sim: source job %d: %w", j.ID, err)
	}
	s.lastSubmit = j.SubmitTime
	s.pulled++
	return nil
}

// admissible checks what the JobSource contract asks of one job on its
// own: a valid job that fits the empty machine, whose dependencies name
// earlier jobs.
func (s *Simulator) admissible(j *job.Job) error {
	if err := j.Validate(); err != nil {
		return err
	}
	if n := j.Demand.NodeCount(); n > s.workload.System.Cluster.Nodes {
		return fmt.Errorf("requests %d nodes on a %d-node system", n, s.workload.System.Cluster.Nodes)
	}
	if !s.admitCl.CanFit(j.Demand) {
		return fmt.Errorf("demand %v cannot fit the empty machine", j.Demand)
	}
	for _, d := range j.Deps {
		if d < 0 || d >= j.ID {
			return fmt.Errorf("dep %d does not reference an earlier job", d)
		}
	}
	return nil
}

// Done reports whether the simulation has drained — no pending events
// remain and the source and look-ahead buffer are exhausted — and Result
// is available.
func (s *Simulator) Done() bool {
	return s.events.Len() == 0 && s.srcDone && s.pendHead == len(s.pending)
}

// Now returns the simulation clock in seconds (the time of the last
// processed event instant).
func (s *Simulator) Now() int64 { return s.now }

// QueueDepth returns the number of jobs waiting in the queue.
func (s *Simulator) QueueDepth() int { return s.q.Len() }

// RunningJobs returns the number of jobs holding resources (including
// jobs whose compute phase ended but whose burst buffer is still
// draining): the end and burst-buffer release events pending.
func (s *Simulator) RunningJobs() int {
	n := 0
	for _, ev := range s.events {
		if ev.r != nil {
			n++
		}
	}
	return n
}

// held yields what the run holds of the machine: the persistent
// reservation and every running job's allocation.
func (s *Simulator) held(yield func(cluster.Allocation) bool) {
	if !yield(s.reserved) {
		return
	}
	for _, ev := range s.events {
		if ev.r != nil && !yield(ev.r.alloc) {
			return
		}
	}
}

// Usage returns the instantaneous resource usage.
func (s *Simulator) Usage() metrics.Usage { return s.usage }

// Utilization returns the instantaneous node and burst-buffer usage as
// machine fractions (0 when the machine has no such resource).
func (s *Simulator) Utilization() (nodeFrac, bbFrac float64) {
	if s.totals.Nodes > 0 {
		nodeFrac = float64(s.usage.Nodes) / float64(s.totals.Nodes)
	}
	if s.totals.BBGB > 0 {
		bbFrac = float64(s.usage.BBGB) / float64(s.totals.BBGB)
	}
	return nodeFrac, bbFrac
}

// ResourceNames returns the machine's pool-dimension names in vector
// order: "nodes", "bb_gb", then every extra resource spec's name.
func (s *Simulator) ResourceNames() []string {
	names := []string{cluster.ResourceNodes, cluster.ResourceBB}
	for _, r := range s.extra {
		names = append(names, r.Name)
	}
	return names
}

// UtilizationVector returns the instantaneous usage fraction of every
// pool dimension, aligned to ResourceNames (0 where the machine has no
// capacity in a dimension).
func (s *Simulator) UtilizationVector() []float64 {
	out := make([]float64, 2+len(s.extra))
	out[0], out[1] = s.Utilization()
	for k, r := range s.extra {
		if r.Capacity > 0 {
			out[2+k] = float64(s.usage.Extra[k]) / float64(r.Capacity)
		}
	}
	return out
}

// Invocations returns the number of scheduling passes run so far.
func (s *Simulator) Invocations() int { return s.invocations }

// Method returns the window job-selection method under test.
func (s *Simulator) Method() sched.Method { return s.plugin.Method() }

// Step advances the simulation by one event instant: it drains every
// event at the next pending timestamp (arrivals, completions, burst-buffer
// releases) and then runs one scheduling pass. It returns false when the
// simulation had already drained and no work remains.
func (s *Simulator) Step() (bool, error) {
	if err := s.fill(); err != nil {
		return false, err
	}
	if s.events.Len() == 0 {
		return false, nil
	}
	t := s.events[0].t
	s.now = t
	// Drain every event at this instant before scheduling once.
	for s.events.Len() > 0 && s.events[0].t == t {
		ev := s.events.pop()
		switch ev.kind {
		case evArrive:
			if err := s.q.Add(ev.j); err != nil {
				return false, fmt.Errorf("sim: %w", err)
			}
			if err := s.emitJob("submit", ev.j, -1); err != nil {
				return false, err
			}
		case evEnd:
			if err := s.finish(ev.r); err != nil {
				return false, err
			}
		case evBBRelease:
			if err := s.releaseBB(ev.r); err != nil {
				return false, err
			}
		}
	}
	if err := s.schedule(); err != nil {
		return false, err
	}
	return true, nil
}

// SourcePulled returns how many jobs have been pulled from the source so
// far. Together with RunUntilPulled it is the farm's relay-sharding hook:
// a snapshot taken when SourcePulled reaches a segment boundary records
// the exact source position, so the next segment resumes bit-exactly on
// any worker.
func (s *Simulator) SourcePulled() int { return s.pulled }

// RunUntilPulled advances the simulation until at least n jobs have been
// pulled from the source or the run drains, whichever comes first. Like
// RunUntil it never stops mid-instant, so the state afterwards is always
// checkpointable. The stop point overshoots n by at most one look-ahead
// refill — deterministically, since fills depend only on simulation state
// — which is what makes segment boundaries bit-exact across workers.
func (s *Simulator) RunUntilPulled(n int) error {
	for s.pulled < n {
		more, err := s.Step()
		if err != nil {
			return err
		}
		if !more {
			return nil
		}
	}
	return nil
}

// RunUntil advances the simulation through every event instant at or
// before time t (it never stops mid-instant, so the state afterwards is
// always consistent). The clock does not advance past the last processed
// instant; use Run to drain completely.
func (s *Simulator) RunUntil(t int64) error {
	for {
		if err := s.fill(); err != nil {
			return err
		}
		if s.events.Len() == 0 || s.events[0].t > t {
			return nil
		}
		if _, err := s.Step(); err != nil {
			return err
		}
	}
}

// Run drains the simulation and returns the final Result. The context is
// checked between event instants; cancellation aborts the run with the
// context's error. Run may resume a partially Stepped simulation.
func (s *Simulator) Run(ctx context.Context) (*Result, error) {
	for {
		if err := ctx.Err(); err != nil {
			return nil, fmt.Errorf("sim: %w", err)
		}
		more, err := s.Step()
		if err != nil {
			return nil, err
		}
		if !more {
			break
		}
	}
	return s.Result()
}

// Result finalizes the run and returns its metrics. It errors until the
// simulation has drained (Done); afterwards it returns the same Result on
// every call.
func (s *Simulator) Result() (*Result, error) {
	if s.result != nil {
		return s.result, nil
	}
	if !s.Done() {
		return nil, fmt.Errorf("sim: simulation not drained (%d events pending)", s.events.Len())
	}
	if s.q.Len() != 0 {
		return nil, fmt.Errorf("sim: %d queued after drain", s.q.Len())
	}
	if err := s.cl.CheckInvariants(s.held); err != nil {
		return nil, fmt.Errorf("sim: %w", err)
	}
	// Close the usage integral at the last event time.
	s.collector.Observe(s.now, s.usage)
	capTotals := metrics.Capacity{Nodes: s.totals.Nodes, BBGB: s.totals.BBGB, SSDGB: s.totals.SSDGB}
	for _, r := range s.extra {
		capTotals.Extra = append(capTotals.Extra, metrics.DimCapacity{Name: r.Name, Total: r.Capacity})
	}
	res := &Result{
		Report:           s.stats.Report(&s.collector, capTotals),
		Workload:         s.workload.Name,
		Method:           s.plugin.Method().Name(),
		TotalJobs:        s.pulled,
		MeasuredJobs:     s.stats.Count(),
		SchedInvocations: s.invocations,
		MaxDecisionTime:  s.decideMax,
		MakespanSec:      s.now,
	}
	if s.invocations > 0 {
		res.AvgDecisionTime = s.decideTotal / time.Duration(s.invocations)
	}
	s.result = res
	return res, nil
}

// emitJob notifies every observer of a state change of job j, started at
// start (-1 if it has not), and surfaces the first sink failure.
func (s *Simulator) emitJob(kind string, j *job.Job, start int64) error {
	if len(s.observers) == 0 {
		return nil
	}
	ev := Event{
		T: s.now, Job: j, Start: start,
		UsedNodes: s.cl.UsedNodes(), UsedBBGB: s.cl.UsedBB(),
		UsedExtra: s.cl.UsedExtras(),
		Queued:    s.q.Len(),
	}
	for _, o := range s.observers {
		switch kind {
		case "submit":
			o.OnJobSubmit(ev)
		case "start":
			o.OnJobStart(ev)
		case "end":
			o.OnJobEnd(ev)
		case "bb_release":
			o.OnBBRelease(ev)
		}
	}
	return s.observerErr()
}

func (s *Simulator) observerErr() error {
	for _, f := range s.failing {
		if err := f.Err(); err != nil {
			return err
		}
	}
	return nil
}

// finish completes a running job: its nodes release now; its burst buffer
// releases now too unless a stage-out phase holds it longer.
func (s *Simulator) finish(r *runningJob) error {
	j := r.j
	r.end = s.now
	s.done.add(j.ID)
	// Per-job metrics cover the jobs submitted inside the measured
	// interval, folded in completion order (the sums are floating-point).
	if j.SubmitTime >= s.warmEnd && j.SubmitTime <= s.coolStart {
		s.stats.Observe(j, r.start)
	}

	if j.StageOutSec > 0 && j.Demand.BB() > 0 {
		// Swap the job's planned release entries (walltime-based) for one
		// burst-buffer drain entry at the actual stage-out end.
		if err := s.timelineRemove(r.release, j.ID); err != nil {
			return err
		}
		if err := s.timelineRemove(r.release+j.StageOutSec, j.ID); err != nil {
			return err
		}
		s.cl.ReleaseNodes(&r.alloc)
		r.staging = true
		r.bbRelease = s.now + j.StageOutSec
		s.planRelease(r)
		s.events.push(event{t: r.bbRelease, kind: evBBRelease, j: j, r: r})
		s.observeNodeRelease(r)
		return s.emitJob("end", j, r.start)
	}
	if err := s.timelineRemove(r.release, j.ID); err != nil {
		return err
	}
	s.cl.Release(&r.alloc)
	s.observeNodeRelease(r)
	s.observeBBRelease(r)
	s.rjFree = append(s.rjFree, r)
	return s.emitJob("end", j, r.start)
}

// planRelease adds r's expected releases to the timeline. A running job
// gives its nodes (and compute-coupled extras) back at the walltime
// estimate, and its burst buffer with them or, under stage-out, after the
// drain; a staging job holds only its burst buffer, until the drain ends.
func (s *Simulator) planRelease(r *runningJob) {
	j := r.j
	switch {
	case r.staging:
		s.timeline.Insert(backfill.Running{ReleaseTime: r.bbRelease, JobID: j.ID, BB: j.Demand.BB()})
	case j.StageOutSec > 0 && j.Demand.BB() > 0:
		s.timeline.Insert(backfill.Running{ReleaseTime: r.release, JobID: j.ID, NodesByClass: r.alloc.NodesByClass, Extra: r.alloc.Extra})
		s.timeline.Insert(backfill.Running{ReleaseTime: r.release + j.StageOutSec, JobID: j.ID, BB: j.Demand.BB()})
	default:
		s.timeline.Insert(backfill.Running{ReleaseTime: r.release, JobID: j.ID, NodesByClass: r.alloc.NodesByClass, BB: j.Demand.BB(), Extra: r.alloc.Extra})
	}
}

// timelineRemove drops one release entry, surfacing timeline/running-set
// divergence as a simulator invariant failure instead of silent drift.
func (s *Simulator) timelineRemove(releaseTime int64, jobID int) error {
	if !s.timeline.Remove(releaseTime, jobID) {
		return fmt.Errorf("sim: job %d has no release entry at %d", jobID, releaseTime)
	}
	return nil
}

// releaseBB ends a job's stage-out phase.
func (s *Simulator) releaseBB(r *runningJob) error {
	if err := s.timelineRemove(r.bbRelease, r.j.ID); err != nil {
		return err
	}
	s.cl.Release(&r.alloc)
	s.observeBBRelease(r)
	s.rjFree = append(s.rjFree, r)
	return s.emitJob("bb_release", r.j, r.start)
}

func (s *Simulator) observeStart(r *runningJob) {
	s.usage.Nodes += r.j.Demand.NodeCount()
	s.usage.BBGB += r.j.Demand.BB()
	s.usage.SSDRequestedGB += r.j.Demand.TotalSSD()
	s.usage.SSDAssignedGB += r.j.Demand.TotalSSD() + r.alloc.WastedSSD
	// Read extras off the demand, not the allocation: like NodesByClass,
	// alloc.Extra is zeroed in place by ReleaseNodes.
	for k := range s.usage.Extra {
		s.usage.Extra[k] += r.j.Demand.Extra(k)
	}
	s.collector.Observe(s.now, s.usage)
}

func (s *Simulator) observeNodeRelease(r *runningJob) {
	s.usage.Nodes -= r.j.Demand.NodeCount()
	s.usage.SSDRequestedGB -= r.j.Demand.TotalSSD()
	s.usage.SSDAssignedGB -= r.j.Demand.TotalSSD() + r.alloc.WastedSSD
	// Extra dimensions are compute-coupled: they free with the nodes.
	for k := range s.usage.Extra {
		s.usage.Extra[k] -= r.j.Demand.Extra(k)
	}
	s.collector.Observe(s.now, s.usage)
}

func (s *Simulator) observeBBRelease(r *runningJob) {
	s.usage.BBGB -= r.j.Demand.BB()
	s.collector.Observe(s.now, s.usage)
}

// schedule runs one window pass plus backfilling over one ranking of the
// queue: the queue's front — as many dep-ready jobs as the window takes —
// is brought up to date once (queue.Queue.Pass, which orders it only if
// the plugin reads it in order), the plugin takes its window off it, and
// EASY backfilling continues where the window stopped — the window jobs
// left behind, then, best-first, the rest the planner can still start. The
// steady-state pass allocates (amortized) nothing: the ranking, the
// free-state snapshot, the invocation stream, and the EASY planning
// scratch are all pooled, and the release timeline is maintained
// incrementally by start/finish instead of being rebuilt and re-sorted
// here.
func (s *Simulator) schedule() error {
	if s.q.Len() == 0 {
		return nil
	}
	started := time.Now()
	s.invocations++
	launched := 0

	s.invStream = s.rand.SplitIndexInto(s.invStream, uint64(s.invocations))

	// Only worth ranking the queue when something could start.
	if s.cl.FreeNodes() > 0 {
		ranking := s.q.Pass(s.now, s.depsDone, s.plugin.WindowSize(s.q.Len()))
		s.cl.SnapshotInto(&s.passSnap)
		picked, err := s.plugin.Decide(core.DecideContext{
			Now:      s.now,
			Ranking:  ranking,
			QueueLen: s.q.Len(),
			Snap:     s.passSnap,
			Totals:   s.totals,
			Rand:     s.invStream,
		})
		if err != nil {
			return fmt.Errorf("sim: %w", err)
		}
		for _, j := range picked {
			if err := s.start(j); err != nil {
				return err
			}
		}
		launched += len(picked)

		// EASY backfilling over the remaining queue (§4.3: all methods use
		// EASY backfilling to mitigate resource fragmentation). The timeline's
		// canonical (release time, job ID) order fixes the tie-break among
		// equal release times, keeping runs reproducible across processes.
		if s.opt.backfill && s.q.Len() > 0 && s.cl.FreeNodes() > 0 {
			s.cl.SnapshotInto(&s.passSnap)
			filled := s.planner.PlanRanked(s.passSnap, &s.timeline, s.plugin.Ahead(), ranking, s.now)
			for _, j := range filled {
				if err := s.start(j); err != nil {
					return err
				}
			}
			launched += len(filled)
		}
	}

	d := time.Since(started)
	s.decideTotal += d
	if d > s.decideMax {
		s.decideMax = d
	}
	for _, o := range s.observers {
		o.OnSchedule(ScheduleInfo{
			T: s.now, Invocation: s.invocations,
			Started: launched, QueueDepth: s.q.Len(),
			Duration: d,
		})
	}
	return s.observerErr()
}

// start allocates and launches a job at the current time, adding its
// expected releases to the persistent timeline.
func (s *Simulator) start(j *job.Job) error {
	alloc, err := s.cl.Allocate(j)
	if err != nil {
		return fmt.Errorf("sim: starting job %d: %w", j.ID, err)
	}
	age, err := s.q.Remove(j.ID)
	if err != nil {
		return fmt.Errorf("sim: %w", err)
	}
	var r *runningJob
	if n := len(s.rjFree); n > 0 {
		r = s.rjFree[n-1]
		s.rjFree = s.rjFree[:n-1]
	} else {
		r = new(runningJob)
	}
	*r = runningJob{j: j, alloc: alloc, release: s.now + j.WalltimeEst, start: s.now, end: -1, age: age}
	s.planRelease(r)
	s.events.push(event{t: s.now + j.Runtime, kind: evEnd, j: j, r: r})
	s.observeStart(r)
	return s.emitJob("start", j, s.now)
}
