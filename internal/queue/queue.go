// Package queue implements the job waiting queue with pluggable base
// scheduler ordering policies (§2.1) and the window extraction of §3.1.
//
// The base scheduler enforces a site's priority policy; BBSched and the
// comparison methods only ever reorder *within* the window the base policy
// exposes, preserving site-level job priority. Two production policies are
// provided: FCFS (Cori / Slurm default) and WFP (Theta / Cobalt), the
// utility policy that favors large jobs that have waited long relative to
// their requested walltime.
//
// A scheduling pass ranks the queue once, and the queue keeps the order it
// found: order and prio hold the waiting jobs in the base order of the
// last Rank. Add puts a job where a time-invariant policy (FCFS, or
// anything implementing TimeInvariant) fixes it for good and appends it
// otherwise; Remove deletes in place, keeping the order. Rank(now)
// re-evaluates a time-varying policy's priorities (WFP, Multifactor) and
// repairs the order with an insertion sort. Those priorities are
// continuous in time, so between two passes a few neighbours swap and the
// repair costs what moved — a mean 0.26 single-slot moves per waiting job
// on a 680-deep WFP replay — where a sort pays n log n comparisons for an
// order it mostly had. A queue that did scramble (a restored one, a clock
// set back) exceeds the repair's move budget and is sorted once, so the
// worst case stays O(n log n).
//
// The Ranking Rank returns is a copy of the dep-ready jobs in that order:
// the window pass and EASY backfilling consume one ranking from the front,
// and jobs started mid-pass leave the queue without disturbing it.
// WindowInto is Rank followed by one Take. Nothing allocates once the
// arrays have grown. Sorted remains the straightforward reference
// implementation (full re-sort with fresh allocations); the property
// suite pins the ranking against it, pass after pass on one queue.
package queue

import (
	"fmt"
	"math"
	"sort"

	"bbsched/internal/job"
)

// Policy orders the waiting queue. Implementations must be deterministic.
type Policy interface {
	// Name identifies the policy in experiment output.
	Name() string
	// Priority returns job j's priority at time now; higher runs earlier.
	// Ties are broken FCFS (submit time, then ID).
	Priority(j *job.Job, now int64) float64
}

// TimeInvariant marks a Policy whose Priority does not depend on now.
// The queue evaluates such a policy's Priority once, at Add time, and
// inserts the job where it belongs; Rank has nothing to repair.
type TimeInvariant interface {
	// PriorityTimeInvariant is a marker; it is never called.
	PriorityTimeInvariant()
}

// FCFS orders jobs by arrival.
type FCFS struct{}

// Name implements Policy.
func (FCFS) Name() string { return "FCFS" }

// Priority implements Policy: all jobs are equal, so the FCFS tie-break
// (submit time) decides the order.
func (FCFS) Priority(*job.Job, int64) float64 { return 0 }

// PriorityTimeInvariant implements TimeInvariant.
func (FCFS) PriorityTimeInvariant() {}

// WFP is ALCF's utility policy: priority grows with job size and with the
// cube of waiting time relative to the requested walltime, so large jobs
// and long-waiting jobs climb the queue (§2.1, [10,42]).
type WFP struct{}

// Name implements Policy.
func (WFP) Name() string { return "WFP" }

// Priority implements Policy. A non-positive walltime estimate (rejected
// by job validation, but representable on a hand-built Job) is clamped to
// one second so the ratio is always finite — previously wait == 0 with
// WalltimeEst == 0 produced 0/0 → NaN and leaned on Sorted's NaN→0
// patch-up.
func (WFP) Priority(j *job.Job, now int64) float64 {
	wait := float64(now - j.SubmitTime)
	if wait < 0 {
		wait = 0
	}
	est := float64(j.WalltimeEst)
	if est <= 0 {
		est = 1
	}
	r := wait / est
	return float64(j.Demand.NodeCount()) * r * r * r
}

// Multifactor approximates Slurm's multifactor priority plugin with its
// two site-universal terms: an age factor (wait time saturating at
// MaxAge) and a job-size factor (nodes relative to the machine), combined
// with configurable weights. QOS/fair-share terms are deliberately out of
// scope — §2.3 argues fair-share is not an HPC scheduling goal.
type Multifactor struct {
	// AgeWeight and SizeWeight scale the two factors (Slurm defaults give
	// age the larger weight; zero values fall back to 1000 and 100).
	AgeWeight, SizeWeight float64
	// MaxAgeSec saturates the age factor (default 7 days).
	MaxAgeSec int64
	// MachineNodes normalizes the size factor (default: raw node count).
	MachineNodes int
}

// Name implements Policy.
func (Multifactor) Name() string { return "Multifactor" }

// Priority implements Policy.
func (m Multifactor) Priority(j *job.Job, now int64) float64 {
	ageW, sizeW := m.AgeWeight, m.SizeWeight
	if ageW == 0 {
		ageW = 1000
	}
	if sizeW == 0 {
		sizeW = 100
	}
	maxAge := m.MaxAgeSec
	if maxAge <= 0 {
		maxAge = 7 * 24 * 3600
	}
	wait := now - j.SubmitTime
	if wait < 0 {
		wait = 0
	}
	if wait > maxAge {
		wait = maxAge
	}
	age := float64(wait) / float64(maxAge)
	size := float64(j.Demand.NodeCount())
	if m.MachineNodes > 0 {
		size /= float64(m.MachineNodes)
	}
	return ageW*age + sizeW*size
}

// ByName returns the policy with the given name.
func ByName(name string) (Policy, error) {
	switch name {
	case "FCFS":
		return FCFS{}, nil
	case "WFP":
		return WFP{}, nil
	case "Multifactor":
		return Multifactor{}, nil
	default:
		return nil, fmt.Errorf("queue: unknown policy %q", name)
	}
}

// Queue is the waiting queue. It is not safe for concurrent use.
type Queue struct {
	policy Policy
	static bool // policy implements TimeInvariant
	// waiting maps job ID -> job for O(1) membership.
	waiting map[int]*job.Job
	// order holds the waiting jobs and prio, aligned with it, their
	// priorities. A time-invariant policy's arrays are always in base
	// order; a time-varying policy's are in the base order of the last
	// Rank, with the jobs added since at the end and their prio unset.
	order []*job.Job
	prio  []float64
	// rank is the pooled per-pass ranking Rank hands out.
	rank Ranking
}

// New returns an empty queue ordered by policy.
func New(policy Policy) *Queue {
	_, static := policy.(TimeInvariant)
	return &Queue{policy: policy, static: static, waiting: make(map[int]*job.Job)}
}

// Policy returns the queue's ordering policy.
func (q *Queue) Policy() Policy { return q.policy }

// Len returns the number of waiting jobs.
func (q *Queue) Len() int { return len(q.order) }

// orderedPriority evaluates the policy priority with the reference NaN→0
// patch-up applied, so index and reference paths agree bit-for-bit.
func (q *Queue) orderedPriority(j *job.Job, now int64) float64 {
	p := q.policy.Priority(j, now)
	if math.IsNaN(p) {
		return 0
	}
	return p
}

// before is the queue's total order: priority descending, ties FCFS
// (submit time, then ID — unique, so the order is total).
func before(pa float64, a *job.Job, pb float64, b *job.Job) bool {
	if pa != pb {
		return pa > pb
	}
	if a.SubmitTime != b.SubmitTime {
		return a.SubmitTime < b.SubmitTime
	}
	return a.ID < b.ID
}

// Add enqueues a job. Double-adds are rejected.
func (q *Queue) Add(j *job.Job) error {
	if _, dup := q.waiting[j.ID]; dup {
		return fmt.Errorf("queue: job %d already waiting", j.ID)
	}
	q.waiting[j.ID] = j
	i, p := len(q.order), 0.0
	if q.static {
		p = q.orderedPriority(j, 0) // time-invariant: now is irrelevant
		i = sort.Search(len(q.order), func(k int) bool {
			return before(p, j, q.prio[k], q.order[k])
		})
	}
	q.order = append(q.order, nil)
	copy(q.order[i+1:], q.order[i:])
	q.order[i] = j
	q.prio = append(q.prio, 0)
	copy(q.prio[i+1:], q.prio[i:])
	q.prio[i] = p
	return nil
}

// Remove dequeues the job with the given ID (when it starts running),
// leaving the others in order. A pass starts jobs from the front of the
// order, so the scan for the job's slot is short.
func (q *Queue) Remove(id int) error {
	j, ok := q.waiting[id]
	if !ok {
		return fmt.Errorf("queue: job %d not waiting", id)
	}
	delete(q.waiting, id)
	i := 0
	for q.order[i] != j {
		i++
	}
	last := len(q.order) - 1
	copy(q.order[i:], q.order[i+1:])
	q.order[last] = nil
	q.order = q.order[:last]
	copy(q.prio[i:], q.prio[i+1:])
	q.prio = q.prio[:last]
	return nil
}

// Waiting appends every waiting job to dst in unspecified order and
// returns the extended slice. Checkpointing uses it to enumerate the
// waiting set; a restored queue is rebuilt by re-Adding the jobs, whose
// behavior depends only on the queue's total order, never on internal
// array order.
func (q *Queue) Waiting(dst []*job.Job) []*job.Job {
	return append(dst, q.order...)
}

// Contains reports whether job id is waiting.
func (q *Queue) Contains(id int) bool {
	_, ok := q.waiting[id]
	return ok
}

// Sorted returns the waiting jobs in base-policy order at time now:
// priority descending, ties FCFS. It is the reference implementation the
// ranking is property-tested against; the simulator's hot path uses Rank
// instead.
func (q *Queue) Sorted(now int64) []*job.Job {
	out := make([]*job.Job, 0, len(q.order))
	for _, j := range q.order {
		out = append(out, j)
	}
	prio := make(map[int]float64, len(out))
	for _, j := range out {
		p := q.policy.Priority(j, now)
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

// Window returns up to size jobs from the front of the base-policy order
// whose dependencies have all finished (§3.1: dependent jobs enter the
// window only once their dependencies complete, preserving their relative
// priority). depsDone reports whether a job ID has finished.
func (q *Queue) Window(now int64, size int, depsDone func(id int) bool) []*job.Job {
	return q.WindowInto(nil, now, size, depsDone)
}

// WindowInto is Window appending into dst (commonly a pooled buffer with
// dst[:0]) instead of allocating the result: it ranks the queue and takes
// the first size jobs. Passing size >= Len yields the full dep-ready queue
// in base-policy order. The returned slice aliases dst's storage when
// capacity suffices. Like Rank, it invalidates any earlier Ranking.
func (q *Queue) WindowInto(dst []*job.Job, now int64, size int, depsDone func(id int) bool) []*job.Job {
	if size <= 0 || len(q.order) == 0 {
		return dst
	}
	return q.Rank(now, depsDone).Take(dst, size)
}

// Ranking is one scheduling pass's view of the dep-ready waiting jobs in
// base-policy order at one instant: Take, Next and Rest consume it from
// the front, Prune drops jobs the caller no longer wants ranked. The jobs
// come out in exactly the order filter(Sorted(now)) lists them, whatever
// mix of calls is made and whatever the queue went through before —
// `before` is a total order, so there is one answer.
//
// A Ranking is a copy on its queue's pooled array: the next Rank (or
// WindowInto) call on the queue overwrites it. Add and Remove leave it
// untouched, so a job started mid-pass is simply one the caller has
// already taken. The zero Ranking is empty.
type Ranking struct {
	jobs     []*job.Job // jobs[lo:] are the jobs not yet consumed
	lo       int
	gathered int // len(jobs) as Rank left it
}

// repairBudget bounds Rank's insertion sort: past repairBudget
// single-slot moves per waiting job the order is scrambled, not drifting,
// and one sort finishes the job. Consecutive passes of a replay need a
// fraction of a move per job; a restored queue, still in ID order, or a
// clock set back lands here.
const repairBudget = 4

// Rank puts the queue in base-policy order at now and returns the waiting
// jobs whose dependencies have all finished, in that order, as the
// queue's pooled ranking. A time-varying policy's priorities are
// re-evaluated and the order the last Rank left is repaired; a
// time-invariant policy's queue is always in order. No allocation once
// the arrays have grown.
func (q *Queue) Rank(now int64, depsDone func(id int) bool) *Ranking {
	if !q.static {
		q.reorder(now)
	}
	r := &q.rank
	r.jobs, r.lo = r.jobs[:0], 0
	for _, j := range q.order {
		if depsReady(j, depsDone) {
			r.jobs = append(r.jobs, j)
		}
	}
	// Drop the pointers a deeper earlier gather left past this one, so the
	// pooled array never keeps long-finished jobs alive.
	if n := len(r.jobs); n < r.gathered {
		clear(r.jobs[n:r.gathered])
	}
	r.gathered = len(r.jobs)
	return r
}

// reorder evaluates every waiting job's priority at now and restores the
// base order: an insertion sort, whose work is the distance the jobs have
// moved since the order was last right, abandoned for sort.Sort once that
// distance passes repairBudget per job.
func (q *Queue) reorder(now int64) {
	order, prio := q.order, q.prio
	for i, j := range order {
		prio[i] = q.orderedPriority(j, now)
	}
	budget := repairBudget * len(order)
	for i := 1; i < len(order); i++ {
		j, p := order[i], prio[i]
		k := i
		for ; k > 0 && before(p, j, prio[k-1], order[k-1]); k-- {
			order[k], prio[k] = order[k-1], prio[k-1]
		}
		if k == i {
			continue
		}
		order[k], prio[k] = j, p
		if budget -= i - k; budget < 0 {
			sort.Sort((*byOrder)(q))
			return
		}
	}
}

// byOrder views a Queue's arrays as a sort.Interface over the total order
// `before` — a defined-type conversion, not a wrapper struct, so the sort
// stays allocation-free.
type byOrder Queue

func (s *byOrder) Len() int { return len(s.order) }

func (s *byOrder) Less(a, b int) bool {
	return before(s.prio[a], s.order[a], s.prio[b], s.order[b])
}

func (s *byOrder) Swap(a, b int) {
	s.order[a], s.order[b] = s.order[b], s.order[a]
	s.prio[a], s.prio[b] = s.prio[b], s.prio[a]
}

// Len returns the number of ranked jobs not yet consumed.
func (r *Ranking) Len() int { return len(r.jobs) - r.lo }

// Take pops up to size jobs off the front of the ranking, appending them
// to dst in base order.
func (r *Ranking) Take(dst []*job.Job, size int) []*job.Job {
	if size > r.Len() {
		size = r.Len()
	}
	if size <= 0 {
		return dst
	}
	dst = append(dst, r.jobs[r.lo:r.lo+size]...)
	r.lo += size
	return dst
}

// Next pops the first remaining job, or returns nil when none is left.
func (r *Ranking) Next() *job.Job {
	if r.Len() == 0 {
		return nil
	}
	r.lo++
	return r.jobs[r.lo-1]
}

// Rest pops every remaining job, in base order. The slice aliases the
// ranking's storage and is valid only until the queue is ranked again.
func (r *Ranking) Rest() []*job.Job {
	if r.Len() == 0 {
		return nil
	}
	rest := r.jobs[r.lo:]
	r.lo = len(r.jobs)
	return rest
}

// Prune drops every remaining job keep rejects; the survivors keep their
// relative order.
func (r *Ranking) Prune(keep func(*job.Job) bool) {
	w := r.lo
	for _, j := range r.jobs[r.lo:] {
		if keep(j) {
			r.jobs[w] = j
			w++
		}
	}
	r.jobs = r.jobs[:w]
}

func depsReady(j *job.Job, depsDone func(id int) bool) bool {
	for _, d := range j.Deps {
		if !depsDone(d) {
			return false
		}
	}
	return true
}
