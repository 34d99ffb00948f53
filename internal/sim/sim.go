// Package sim is the trace-driven discrete-event simulator the paper's
// evaluation rests on (§4): jobs arrive per the trace, a window-based
// scheduling pass (internal/core.Plugin wrapping any §4.3 method) runs on
// every arrival and completion, EASY backfilling mops up fragmentation,
// and metrics are integrated over the measured interval with warm-up and
// cool-down trimming.
//
// The package has two layers:
//
//   - Simulator, the stateful engine: NewSimulator(workload, method,
//     opts...) with functional options, Step / RunUntil / Run(ctx) with
//     context cancellation, Observer callbacks, and mid-run inspection.
//     Every job enters it through a trace.JobSource — the workload's own
//     validated jobs or a stream given with WithSource.
//   - RunSweep, a deterministic parallel driver over workloads × methods
//     × seeds on a worker pool.
package sim

import (
	"time"

	"bbsched/internal/cluster"
	"bbsched/internal/job"
	"bbsched/internal/metrics"
)

// Result is a finished run's output.
type Result struct {
	metrics.Report
	// Workload and Method identify the run.
	Workload, Method string
	// TotalJobs is the trace size; MeasuredJobs the post-trim count.
	TotalJobs, MeasuredJobs int
	// SchedInvocations counts scheduling passes.
	SchedInvocations int
	// AvgDecisionTime and MaxDecisionTime measure the wall-clock cost of
	// one scheduling pass (selection + backfilling), the §4.4 overhead
	// discussion.
	AvgDecisionTime, MaxDecisionTime time.Duration
	// MakespanSec is the simulated time to drain the whole trace.
	MakespanSec int64
}

// event kinds, processed in (time, kind, job) order so completions free
// resources before same-instant arrivals are scheduled.
const (
	evEnd       = iota
	evBBRelease // stage-out finished; burst buffer returns to the pool
	evArrive
)

// event is one pending event. An end or burst-buffer release event also
// carries the started job it ends: every started job has exactly one
// such event pending between instants, so the heap is the running set.
type event struct {
	t    int64
	kind int
	j    *job.Job
	r    *runningJob // nil for an arrival
}

// eventHeap is a typed binary min-heap ordered by (time, kind, job ID) —
// a total order, so the pop sequence is independent of heap internals.
// Typed push/pop avoid container/heap's per-operation interface boxing,
// one of the two allocations the old event loop paid per simulated event.
type eventHeap []event

func (h eventHeap) Len() int { return len(h) }

func (h eventHeap) less(a, b int) bool {
	if h[a].t != h[b].t {
		return h[a].t < h[b].t
	}
	if h[a].kind != h[b].kind {
		return h[a].kind < h[b].kind
	}
	return h[a].j.ID < h[b].j.ID
}

func (h *eventHeap) push(e event) {
	*h = append(*h, e)
	i := len(*h) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !(*h).less(i, parent) {
			break
		}
		(*h)[i], (*h)[parent] = (*h)[parent], (*h)[i]
		i = parent
	}
}

func (h *eventHeap) pop() event {
	old := *h
	n := len(old) - 1
	top := old[0]
	old[0] = old[n]
	old[n] = event{}
	*h = old[:n]
	(*h).down(0)
	return top
}

func (h eventHeap) down(i int) {
	n := len(h)
	for {
		l := 2*i + 1
		if l >= n {
			return
		}
		best := l
		if r := l + 1; r < n && h.less(r, l) {
			best = r
		}
		if !h.less(best, i) {
			return
		}
		h[i], h[best] = h[best], h[i]
		i = best
	}
}

// runningJob is a started job in the run: its live allocation, which the
// run holds and hands back to the cluster on release, and the run's state
// of the job — when it started and ended, and the window age it left the
// queue with. Its one pending event is the only reference to it.
type runningJob struct {
	j       *job.Job
	alloc   cluster.Allocation
	release int64 // expected node release (start + walltime estimate)
	// staging is true once the job has ended but its burst buffer is
	// still draining (stage-out); bbRelease is the actual drain end.
	staging    bool
	bbRelease  int64
	start, end int64 // end is -1 until the job ends
	age        int
}
