package sim

// The frozen reference engine: a faithful copy of the event loop as it
// stood before the allocation-free rework (PR "incremental queue index +
// persistent release timeline + pooled scheduling passes"), kept only in
// tests. Every event instant re-sorts the waiting queue from scratch with
// fresh map/slice allocations, every scheduling pass rebuilds and
// re-sorts the release timeline from the running set, the scheduling pass
// clones snapshots and windows per call, and the event heap goes through
// container/heap's interface boxing.
//
// Two consumers:
//
//   - TestSimulatorMatchesReferenceEngine proves the production Simulator
//     is observably identical (event streams and Results) on top of the
//     golden suite.
//   - BenchmarkSimThroughputReference is the honest before/after baseline
//     for BenchmarkSimThroughput.
//
// The only deliberate deviation from the historical code is the release
// tie-break: like the production path, planning replays equal release
// times in (time, job ID) order rather than sort.Slice's unspecified
// permutation, so the two engines are comparable run-for-run.

import (
	"container/heap"
	"fmt"
	"math"
	"slices"
	"sort"

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

// refQueue is the seed's waiting queue: a bare map, fully re-sorted on
// every ordered access.
type refQueue struct {
	policy  queue.Policy
	waiting map[int]*job.Job
}

func newRefQueue(p queue.Policy) *refQueue {
	return &refQueue{policy: p, waiting: make(map[int]*job.Job)}
}

func (q *refQueue) Len() int { return len(q.waiting) }

func (q *refQueue) Add(j *job.Job) error {
	if _, dup := q.waiting[j.ID]; dup {
		return fmt.Errorf("refq: job %d already waiting", j.ID)
	}
	q.waiting[j.ID] = j
	return nil
}

func (q *refQueue) Remove(id int) error {
	if _, ok := q.waiting[id]; !ok {
		return fmt.Errorf("refq: job %d not waiting", id)
	}
	delete(q.waiting, id)
	return nil
}

// Sorted is the reference full re-sort: fresh slice, fresh priority map.
func (q *refQueue) Sorted(now int64) []*job.Job {
	out := make([]*job.Job, 0, len(q.waiting))
	for _, j := range q.waiting {
		out = append(out, j)
	}
	prio := make(map[int]float64, len(out))
	for _, j := range out {
		one := []queue.Slot{queue.SlotOf(j)}
		q.policy.Prioritize(one, now)
		p := one[0].Prio
		if math.IsNaN(p) {
			p = 0
		}
		prio[j.ID] = p
	}
	sort.Slice(out, func(a, b int) bool {
		pa, pb := prio[out[a].ID], prio[out[b].ID]
		if pa != pb {
			return pa > pb
		}
		if out[a].SubmitTime != out[b].SubmitTime {
			return out[a].SubmitTime < out[b].SubmitTime
		}
		return out[a].ID < out[b].ID
	})
	return out
}

func (q *refQueue) Window(now int64, size int, depsDone func(id int) bool) []*job.Job {
	if size <= 0 {
		return nil
	}
	var out []*job.Job
	for _, j := range q.Sorted(now) {
		ready := true
		for _, d := range j.Deps {
			if !depsDone(d) {
				ready = false
				break
			}
		}
		if !ready {
			continue
		}
		out = append(out, j)
		if len(out) == size {
			break
		}
	}
	return out
}

// refPlan is the pre-rework backfill.Plan: copy the running set, sort it,
// and grow fresh release/started slices per invocation.
func refPlan(snap cluster.Snapshot, running []backfill.Running, waiting []*job.Job, now int64) []*job.Job {
	if len(waiting) == 0 {
		return nil
	}
	free := snap.Clone()
	releases := append([]backfill.Running(nil), running...)
	sort.Slice(releases, func(i, j int) bool { return refReleaseLess(releases[i], releases[j]) })

	var started []*job.Job
	i := 0
	for ; i < len(waiting); i++ {
		j := waiting[i]
		placed, err := free.Alloc(j.Demand)
		if err != nil {
			break
		}
		started = append(started, j)
		end := now + j.WalltimeEst
		if j.StageOutSec > 0 {
			releases = refInsertRelease(releases, backfill.Running{ReleaseTime: end, JobID: j.ID, NodesByClass: placed.NodesByClass, Extra: placed.Extra})
			releases = refInsertRelease(releases, backfill.Running{ReleaseTime: end + j.StageOutSec, JobID: j.ID, BB: j.Demand.BB()})
		} else {
			releases = refInsertRelease(releases, backfill.Running{ReleaseTime: end, JobID: j.ID, NodesByClass: placed.NodesByClass, BB: j.Demand.BB(), Extra: placed.Extra})
		}
	}
	if i >= len(waiting) {
		return started
	}

	head := waiting[i]
	shadow, leftover, ok := refReservation(free, releases, head.Demand)
	if !ok {
		return started
	}
	for _, j := range waiting[i+1:] {
		if !refCanFit(free, j.Demand) {
			continue
		}
		endsBeforeShadow := now+j.WalltimeEst+j.StageOutSec <= shadow
		if !endsBeforeShadow && !refCanFit(leftover, j.Demand) {
			continue
		}
		if _, err := free.Alloc(j.Demand); err != nil {
			continue
		}
		if !endsBeforeShadow {
			if _, err := leftover.Alloc(j.Demand); err != nil {
				continue
			}
		}
		started = append(started, j)
	}
	return started
}

// refCanFit is the clone-and-try feasibility check Alloc-era CanFit used.
func refCanFit(s cluster.Snapshot, d job.Demand) bool {
	c := s.Clone()
	_, err := c.Alloc(d)
	return err == nil
}

func refReservation(free cluster.Snapshot, releases []backfill.Running, head job.Demand) (int64, cluster.Snapshot, bool) {
	work := free.Clone()
	for _, r := range releases {
		for c, n := range r.NodesByClass {
			work.FreeByClass[c] += n
		}
		work.FreeBB += r.BB
		for k, v := range r.Extra {
			work.FreeExtra[k] += v
		}
		if refCanFit(work, head) {
			if _, err := work.Alloc(head); err != nil {
				return 0, cluster.Snapshot{}, false
			}
			return r.ReleaseTime, work, true
		}
	}
	return 0, cluster.Snapshot{}, false
}

func refReleaseLess(a, b backfill.Running) bool {
	if a.ReleaseTime != b.ReleaseTime {
		return a.ReleaseTime < b.ReleaseTime
	}
	return a.JobID < b.JobID
}

func refInsertRelease(releases []backfill.Running, r backfill.Running) []backfill.Running {
	pos := sort.Search(len(releases), func(i int) bool { return refReleaseLess(r, releases[i]) })
	releases = append(releases, backfill.Running{})
	copy(releases[pos+1:], releases[pos:])
	releases[pos] = r
	return releases
}

// refEventHeap is the container/heap-driven event queue (interface boxing
// on every push and pop).
type refEventHeap []event

func (h refEventHeap) Len() int { return len(h) }
func (h refEventHeap) Less(a, b int) bool {
	if h[a].t != h[b].t {
		return h[a].t < h[b].t
	}
	if h[a].kind != h[b].kind {
		return h[a].kind < h[b].kind
	}
	return h[a].j.ID < h[b].j.ID
}
func (h refEventHeap) Swap(a, b int)       { h[a], h[b] = h[b], h[a] }
func (h *refEventHeap) Push(x interface{}) { *h = append(*h, x.(event)) }
func (h *refEventHeap) Pop() interface{} {
	old := *h
	n := len(old)
	x := old[n-1]
	*h = old[:n-1]
	return x
}

// refSimulator is the pre-rework engine.
type refSimulator struct {
	opt      options
	workload trace.Workload

	cl     *cluster.Cluster
	q      *refQueue
	plugin *core.Plugin
	totals sched.Totals
	extra  []cluster.ResourceSpec
	rand   *rng.Stream

	events   refEventHeap
	now      int64
	running  map[int]*runningJob
	done     map[int]bool
	finished []*runningJob
	reserved cluster.Allocation // the persistent burst-buffer reservation

	warmEnd, coolStart int64

	observers []Observer
	failing   []failingObserver

	collector   metrics.Collector
	invocations int

	usage metrics.Usage
}

func newRefSimulator(w trace.Workload, method sched.Method, opts ...Option) (*refSimulator, error) {
	opt := defaultOptions()
	for _, apply := range opts {
		apply(&opt)
	}
	wc := w.Clone()
	if err := wc.Validate(); err != nil {
		return nil, err
	}
	cl, err := cluster.New(wc.System.Cluster)
	if err != nil {
		return nil, err
	}
	pol, err := queue.ByName(string(wc.System.Policy))
	if err != nil {
		return nil, err
	}
	plugin, err := core.NewPlugin(opt.plugin, method)
	if err != nil {
		return nil, err
	}
	horizon := int64(0)
	for _, j := range wc.Jobs {
		if j.SubmitTime > horizon {
			horizon = j.SubmitTime
		}
	}
	s := &refSimulator{
		opt:       opt,
		workload:  wc,
		cl:        cl,
		q:         newRefQueue(pol),
		plugin:    plugin,
		totals:    sched.TotalsOf(wc.System.Cluster),
		extra:     wc.System.Cluster.Extra,
		rand:      rng.New(opt.seed).Split("sim:" + wc.Name + ":" + method.Name()),
		observers: opt.observers,
		running:   make(map[int]*runningJob),
		done:      make(map[int]bool),
		warmEnd:   int64(float64(horizon) * opt.warmupFrac),
		coolStart: horizon - int64(float64(horizon)*opt.cooldownFrac),
	}
	if len(s.extra) > 0 {
		s.usage.Extra = make([]int64, len(s.extra))
	}
	for _, o := range s.observers {
		if f, ok := o.(failingObserver); ok {
			s.failing = append(s.failing, f)
		}
	}
	if s.coolStart > s.warmEnd {
		s.collector.SetWindow(s.warmEnd, s.coolStart)
	}
	if p := wc.System.PersistentBBGB; p > 0 {
		if s.reserved, err = cl.ReserveBB(p); err != nil {
			return nil, err
		}
		s.usage.BBGB += p
	}
	heap.Init(&s.events)
	for _, j := range wc.Jobs {
		heap.Push(&s.events, event{t: j.SubmitTime, kind: evArrive, j: j})
	}
	s.collector.Observe(0, metrics.Usage{})
	return s, nil
}

// refDecide is the pre-rework window pass: fresh window, snapshots,
// selection map, and context per invocation. The queue.Queue argument the
// production Plugin takes is replaced by the refQueue's window directly.
func (s *refSimulator) refDecide(inv *rng.Stream) ([]*job.Job, error) {
	cfg := s.plugin.Config()
	size := cfg.WindowSize
	if cfg.DynamicWindow {
		size = min(max(s.q.Len()/4, 5), 50)
	}
	window := s.q.Window(s.now, size, func(id int) bool { return s.done[id] })
	if len(window) == 0 {
		return nil, nil
	}
	snap := s.cl.Snapshot()
	scratch := snap.Clone()

	var started []*job.Job
	var rest []*job.Job
	for _, j := range window {
		if cfg.StarvationBound > 0 && j.WindowAge >= cfg.StarvationBound {
			if _, err := scratch.Alloc(j.Demand); err == nil {
				started = append(started, j)
				continue
			}
		}
		rest = append(rest, j)
	}

	mctx := &sched.Context{Now: s.now, Window: rest, Snap: scratch, Totals: s.totals, Rand: inv}
	idx, err := s.plugin.Method().Select(mctx)
	if err != nil {
		return nil, err
	}
	chosen := make(map[int]bool, len(idx))
	for _, i := range idx {
		if i < 0 || i >= len(rest) {
			return nil, fmt.Errorf("refsim: out-of-range index %d", i)
		}
		if chosen[i] {
			return nil, fmt.Errorf("refsim: index %d selected twice", i)
		}
		chosen[i] = true
		started = append(started, rest[i])
	}
	verify := snap.Clone()
	for _, j := range started {
		if _, err := verify.Alloc(j.Demand); err != nil {
			return nil, fmt.Errorf("refsim: over-selection: %w", err)
		}
	}
	for i, j := range rest {
		if !chosen[i] {
			j.WindowAge++
		}
	}
	return started, nil
}

func (s *refSimulator) run() (*Result, error) {
	for s.events.Len() > 0 {
		t := s.events[0].t
		s.now = t
		for s.events.Len() > 0 && s.events[0].t == t {
			ev := heap.Pop(&s.events).(event)
			switch ev.kind {
			case evArrive:
				if err := s.q.Add(ev.j); err != nil {
					return nil, err
				}
				if err := s.emitJob("submit", ev.j); err != nil {
					return nil, err
				}
			case evEnd:
				if err := s.finish(ev.j); err != nil {
					return nil, err
				}
			case evBBRelease:
				if err := s.releaseBB(ev.j); err != nil {
					return nil, err
				}
			}
		}
		if err := s.schedule(); err != nil {
			return nil, err
		}
	}
	return s.result()
}

func (s *refSimulator) schedule() error {
	if s.q.Len() == 0 {
		return nil
	}
	s.invocations++
	launched := 0
	inv := s.rand.SplitIndex(uint64(s.invocations))
	depsDone := func(id int) bool { return s.done[id] }

	if s.cl.FreeNodes() > 0 {
		picked, err := s.refDecide(inv)
		if err != nil {
			return err
		}
		for _, j := range picked {
			if err := s.start(j); err != nil {
				return err
			}
		}
		launched += len(picked)
	}

	if s.opt.backfill && s.q.Len() > 0 && s.cl.FreeNodes() > 0 {
		sorted := s.q.Sorted(s.now)
		waiting := sorted[:0:0]
		for _, j := range sorted {
			ok := true
			for _, d := range j.Deps {
				if !depsDone(d) {
					ok = false
					break
				}
			}
			if ok {
				waiting = append(waiting, j)
			}
		}
		ids := make([]int, 0, len(s.running))
		for id := range s.running {
			ids = append(ids, id)
		}
		sort.Ints(ids)
		runs := make([]backfill.Running, 0, len(s.running))
		for _, id := range ids {
			r := s.running[id]
			switch {
			case r.staging:
				runs = append(runs, backfill.Running{ReleaseTime: r.bbRelease, JobID: id, BB: r.j.Demand.BB()})
			case r.j.StageOutSec > 0 && r.j.Demand.BB() > 0:
				runs = append(runs,
					backfill.Running{ReleaseTime: r.release, JobID: id, NodesByClass: r.alloc.NodesByClass, Extra: r.alloc.Extra},
					backfill.Running{ReleaseTime: r.release + r.j.StageOutSec, JobID: id, BB: r.j.Demand.BB()})
			default:
				runs = append(runs, backfill.Running{
					ReleaseTime:  r.release,
					JobID:        id,
					NodesByClass: r.alloc.NodesByClass,
					BB:           r.j.Demand.BB(),
					Extra:        r.alloc.Extra,
				})
			}
		}
		filled := refPlan(s.cl.Snapshot(), runs, waiting, s.now)
		for _, j := range filled {
			if err := s.start(j); err != nil {
				return err
			}
		}
		launched += len(filled)
	}

	for _, o := range s.observers {
		o.OnSchedule(ScheduleInfo{
			T: s.now, Invocation: s.invocations,
			Started: launched, QueueDepth: s.q.Len(),
		})
	}
	return s.observerErr()
}

func (s *refSimulator) start(j *job.Job) error {
	alloc, err := s.cl.Allocate(j)
	if err != nil {
		return err
	}
	if err := s.q.Remove(j.ID); err != nil {
		return err
	}
	r := &runningJob{j: j, alloc: alloc, release: s.now + j.WalltimeEst, start: s.now}
	s.running[j.ID] = r
	heap.Push(&s.events, event{t: s.now + j.Runtime, kind: evEnd, j: j})
	s.observeStart(r)
	return s.emitJob("start", j)
}

func (s *refSimulator) finish(j *job.Job) error {
	r, ok := s.running[j.ID]
	if !ok {
		return fmt.Errorf("refsim: job %d finished but not running", j.ID)
	}
	s.done[j.ID] = true
	s.finished = append(s.finished, r)

	if j.StageOutSec > 0 && j.Demand.BB() > 0 {
		s.cl.ReleaseNodes(&r.alloc)
		r.staging = true
		r.bbRelease = s.now + j.StageOutSec
		heap.Push(&s.events, event{t: r.bbRelease, kind: evBBRelease, j: j})
		s.observeNodeRelease(r)
		return s.emitJob("end", j)
	}
	delete(s.running, j.ID)
	s.cl.Release(&r.alloc)
	s.observeNodeRelease(r)
	s.observeBBRelease(r)
	return s.emitJob("end", j)
}

func (s *refSimulator) releaseBB(j *job.Job) error {
	r, ok := s.running[j.ID]
	if !ok || !r.staging {
		return fmt.Errorf("refsim: job %d has no staging burst buffer", j.ID)
	}
	delete(s.running, j.ID)
	s.cl.Release(&r.alloc)
	s.observeBBRelease(r)
	return s.emitJob("bb_release", j)
}

func (s *refSimulator) observeStart(r *runningJob) {
	s.usage.Nodes += r.j.Demand.NodeCount()
	s.usage.BBGB += r.j.Demand.BB()
	s.usage.SSDRequestedGB += r.j.Demand.TotalSSD()
	s.usage.SSDAssignedGB += r.j.Demand.TotalSSD() + r.alloc.WastedSSD
	for k := range s.usage.Extra {
		s.usage.Extra[k] += r.j.Demand.Extra(k)
	}
	s.collector.Observe(s.now, s.usage)
}

func (s *refSimulator) observeNodeRelease(r *runningJob) {
	s.usage.Nodes -= r.j.Demand.NodeCount()
	s.usage.SSDRequestedGB -= r.j.Demand.TotalSSD()
	s.usage.SSDAssignedGB -= r.j.Demand.TotalSSD() + r.alloc.WastedSSD
	for k := range s.usage.Extra {
		s.usage.Extra[k] -= r.j.Demand.Extra(k)
	}
	s.collector.Observe(s.now, s.usage)
}

func (s *refSimulator) observeBBRelease(r *runningJob) {
	s.usage.BBGB -= r.j.Demand.BB()
	s.collector.Observe(s.now, s.usage)
}

func (s *refSimulator) emitJob(kind string, j *job.Job) error {
	if len(s.observers) == 0 {
		return nil
	}
	ev := Event{
		T: s.now, Job: j,
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

func (s *refSimulator) observerErr() error {
	for _, f := range s.failing {
		if err := f.Err(); err != nil {
			return err
		}
	}
	return nil
}

func (s *refSimulator) result() (*Result, error) {
	if len(s.running) != 0 || s.q.Len() != 0 {
		return nil, fmt.Errorf("refsim: %d running, %d queued after drain", len(s.running), s.q.Len())
	}
	if err := s.cl.CheckInvariants(slices.Values([]cluster.Allocation{s.reserved})); err != nil {
		return nil, err
	}
	s.collector.Observe(s.now, s.usage)
	stats := metrics.NewJobStats(slowdownFloorSec, s.opt.buckets, false, 0)
	for _, r := range s.finished {
		if r.j.SubmitTime >= s.warmEnd && r.j.SubmitTime <= s.coolStart {
			stats.Observe(r.j, r.start)
		}
	}
	capTotals := metrics.Capacity{Nodes: s.totals.Nodes, BBGB: s.totals.BBGB, SSDGB: s.totals.SSDGB}
	for _, r := range s.extra {
		capTotals.Extra = append(capTotals.Extra, metrics.DimCapacity{Name: r.Name, Total: r.Capacity})
	}
	res := &Result{
		Report:           stats.Report(&s.collector, capTotals),
		Workload:         s.workload.Name,
		Method:           s.plugin.Method().Name(),
		TotalJobs:        len(s.workload.Jobs),
		MeasuredJobs:     stats.Count(),
		SchedInvocations: s.invocations,
		MakespanSec:      s.now,
	}
	return res, nil
}
