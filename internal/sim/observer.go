package sim

import (
	"time"

	"bbsched/internal/job"
)

// Event is one job lifecycle notification delivered to Observers: the job
// whose state changed plus the machine and queue state immediately after
// the change — the same information the JSONL event log records.
type Event struct {
	// T is the simulation time in seconds.
	T int64
	// Job is the job whose state changed: its trace record, which every
	// run of the workload shares and no one writes.
	Job *job.Job
	// Start is when the job started, -1 before it has.
	Start int64
	// UsedNodes and UsedBBGB are machine usage after the event.
	UsedNodes int
	UsedBBGB  int64
	// UsedExtra is machine usage per extra resource dimension after the
	// event, aligned to the cluster config's Extra specs. Nil on
	// 2-dimension machines.
	UsedExtra []int64
	// Queued is the waiting-queue length after the event.
	Queued int
}

// ScheduleInfo describes one completed scheduling pass (window selection
// plus backfilling).
type ScheduleInfo struct {
	// T is the simulation time of the pass.
	T int64
	// Invocation is the 1-based scheduling-pass counter.
	Invocation int
	// Started is the number of jobs the pass dispatched.
	Started int
	// QueueDepth is the waiting-queue length after the pass.
	QueueDepth int
	// Duration is the wall-clock cost of the pass (§4.4 overhead).
	Duration time.Duration
}

// Observer receives simulation callbacks as the run progresses: every job
// state change plus one OnSchedule per scheduling pass. Observers enable
// live metric streaming and replace the raw io.Writer JSONL hook (which is
// now itself an Observer; see WithEventLog). Callbacks run synchronously
// on the simulation goroutine in deterministic order; implementations
// must not call back into the Simulator.
type Observer interface {
	// OnJobSubmit fires when a job joins the waiting queue.
	OnJobSubmit(Event)
	// OnJobStart fires when a job is allocated and launched.
	OnJobStart(Event)
	// OnJobEnd fires when a job's compute phase completes (its burst
	// buffer may still be draining; see OnBBRelease).
	OnJobEnd(Event)
	// OnBBRelease fires when a job's stage-out completes and its burst
	// buffer returns to the pool.
	OnBBRelease(Event)
	// OnSchedule fires after each scheduling pass.
	OnSchedule(ScheduleInfo)
}

// NopObserver implements Observer with no-ops; embed it to implement only
// the callbacks you care about.
type NopObserver struct{}

// OnJobSubmit implements Observer.
func (NopObserver) OnJobSubmit(Event) {}

// OnJobStart implements Observer.
func (NopObserver) OnJobStart(Event) {}

// OnJobEnd implements Observer.
func (NopObserver) OnJobEnd(Event) {}

// OnBBRelease implements Observer.
func (NopObserver) OnBBRelease(Event) {}

// OnSchedule implements Observer.
func (NopObserver) OnSchedule(ScheduleInfo) {}

// failingObserver is implemented by observers whose sink can fail (the
// JSONL writer); the Simulator aborts the run on the first sink error.
type failingObserver interface {
	Err() error
}
