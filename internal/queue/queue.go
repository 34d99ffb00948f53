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
// A scheduling pass ranks the queue once. Rank gathers the dep-ready
// jobs — and, for a time-varying policy, their priorities at that instant
// — into pooled arrays: one O(n) walk, no ordering work, no allocation.
// The Ranking it returns then produces the base order only as far as the
// pass consumes it, so the window pass and EASY backfilling share one
// gather and nothing sorts the whole queue unless asked for most of it:
//
//   - Time-invariant policies (FCFS, or anything implementing
//     TimeInvariant) keep the waiting set sorted incrementally: Add is an
//     O(log n) search plus one shifted insert, Remove likewise, and the
//     ranking is a plain ordered walk.
//   - Time-varying policies (WFP, Multifactor) keep the waiting set
//     unordered. Taking a few jobs heapifies the gathered arrays (O(n))
//     and pops (O(log n) each); taking at least half of what is left —
//     giant windows, or a caller draining the ranking — sorts once
//     instead, which costs the same asymptotically with far better
//     constants than n-ish heap pops. Prune drops jobs the caller has
//     ruled out, so a later sort touches only the survivors.
//
// WindowInto is Rank followed by one Take. Sorted remains the
// straightforward reference implementation (full re-sort with fresh
// allocations); the property suite pins the ranking against it.
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
// The queue keeps such policies' waiting sets sorted incrementally (no
// per-event re-sort); Priority is evaluated once, at Add time.
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
	// waiting maps job ID -> job for O(1) membership in both modes.
	waiting map[int]*job.Job
	// order holds the waiting jobs: sorted by (priority desc, submit, ID)
	// for time-invariant policies, insertion-unordered otherwise. prio is
	// aligned with order (time-invariant: the fixed Add-time priority;
	// time-varying: unused).
	order []*job.Job
	prio  []float64
	// pos maps job ID -> index in order (time-varying policies, where
	// removal is a swap-with-last; time-invariant removal binary-searches).
	pos map[int]int
	// rank is the pooled per-pass ranking Rank hands out.
	rank Ranking
}

// New returns an empty queue ordered by policy.
func New(policy Policy) *Queue {
	_, static := policy.(TimeInvariant)
	q := &Queue{policy: policy, static: static, waiting: make(map[int]*job.Job)}
	if !static {
		q.pos = make(map[int]int)
	}
	return q
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
	if q.static {
		p := q.orderedPriority(j, 0) // time-invariant: now is irrelevant
		i := sort.Search(len(q.order), func(k int) bool {
			return before(p, j, q.prio[k], q.order[k])
		})
		q.order = append(q.order, nil)
		copy(q.order[i+1:], q.order[i:])
		q.order[i] = j
		q.prio = append(q.prio, 0)
		copy(q.prio[i+1:], q.prio[i:])
		q.prio[i] = p
		return nil
	}
	q.pos[j.ID] = len(q.order)
	q.order = append(q.order, j)
	return nil
}

// Remove dequeues the job with the given ID (when it starts running).
func (q *Queue) Remove(id int) error {
	j, ok := q.waiting[id]
	if !ok {
		return fmt.Errorf("queue: job %d not waiting", id)
	}
	delete(q.waiting, id)
	if q.static {
		// The total order makes the position recoverable by binary search:
		// re-derive the Add-time key and find its unique slot.
		p := q.orderedPriority(j, 0)
		i := sort.Search(len(q.order), func(k int) bool {
			return !before(q.prio[k], q.order[k], p, j) // first k not before j
		})
		if i >= len(q.order) || q.order[i].ID != id {
			return fmt.Errorf("queue: index out of sync for job %d", id)
		}
		copy(q.order[i:], q.order[i+1:])
		q.order[len(q.order)-1] = nil
		q.order = q.order[:len(q.order)-1]
		copy(q.prio[i:], q.prio[i+1:])
		q.prio = q.prio[:len(q.prio)-1]
		return nil
	}
	i := q.pos[id]
	last := len(q.order) - 1
	moved := q.order[last]
	q.order[i] = moved
	q.order[last] = nil
	q.order = q.order[:last]
	q.pos[moved.ID] = i
	delete(q.pos, id)
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
// base-policy order at one instant. Rank gathers the jobs (and, for a
// time-varying policy, their priorities) once; the order itself is then
// produced only as far as the caller consumes it: Take, Next and Rest pop
// from the front, Prune drops jobs the caller no longer wants ranked. The
// jobs come out in exactly the order filter(Sorted(now)) lists them,
// whatever mix of calls is made — `before` is a total order, so heap
// pops, a full sort and the FCFS walk cannot disagree.
//
// A Ranking is scratch on its queue's pooled arrays: the next Rank (or
// WindowInto) call on the queue overwrites it. Add and Remove leave it
// untouched, so a job started mid-pass is simply one the caller has
// already taken. The zero Ranking is empty.
type Ranking struct {
	// jobs[lo:] are the jobs not yet consumed; prio is aligned with jobs
	// until the ranking is sorted, after which nothing reads it.
	jobs     []*job.Job
	prio     []float64
	lo       int
	state    rankState
	gathered int // len(jobs) as Rank left it
}

type rankState uint8

const (
	rankUnordered rankState = iota // gathered, no structure yet (lo == 0)
	rankHeap                       // jobs is a max-heap under before (lo == 0)
	rankSorted                     // jobs[lo:] is in base order
)

// Rank gathers every waiting job whose dependencies have all finished,
// with its priority at now, into the queue's pooled ranking: one O(n)
// pass, no allocation once the arrays have grown, and no ordering work
// yet. A time-invariant policy's queue is already in order, so its
// ranking is a plain copy of the dep-ready jobs.
func (q *Queue) Rank(now int64, depsDone func(id int) bool) *Ranking {
	r := &q.rank
	r.jobs, r.prio, r.lo = r.jobs[:0], r.prio[:0], 0
	for _, j := range q.order {
		if !depsReady(j, depsDone) {
			continue
		}
		r.jobs = append(r.jobs, j)
		if !q.static {
			r.prio = append(r.prio, q.orderedPriority(j, now))
		}
	}
	// Drop the pointers a deeper earlier gather left past this one, so the
	// pooled array never keeps long-finished jobs alive.
	if n := len(r.jobs); n < r.gathered {
		clear(r.jobs[n:r.gathered])
	}
	r.gathered = len(r.jobs)
	r.state = rankUnordered
	if q.static {
		r.state = rankSorted
	}
	return r
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
	r.prepare(size)
	if r.state == rankSorted {
		dst = append(dst, r.jobs[r.lo:r.lo+size]...)
		r.lo += size
		return dst
	}
	for ; size > 0; size-- {
		dst = append(dst, r.pop())
	}
	return dst
}

// Next pops the first remaining job, or returns nil when none is left.
func (r *Ranking) Next() *job.Job {
	if r.Len() == 0 {
		return nil
	}
	r.prepare(1)
	if r.state == rankSorted {
		r.lo++
		return r.jobs[r.lo-1]
	}
	return r.pop()
}

// Rest pops every remaining job, in base order. The slice aliases the
// ranking's storage and is valid only until the queue is ranked again.
func (r *Ranking) Rest() []*job.Job {
	if r.Len() == 0 {
		return nil
	}
	r.prepare(r.Len())
	rest := r.jobs[r.lo:]
	r.lo = len(r.jobs)
	return rest
}

// Prune drops every remaining job keep rejects; the survivors keep their
// relative order.
func (r *Ranking) Prune(keep func(*job.Job) bool) {
	sorted := r.state == rankSorted
	w := r.lo
	for i := r.lo; i < len(r.jobs); i++ {
		if !keep(r.jobs[i]) {
			continue
		}
		r.jobs[w] = r.jobs[i]
		if !sorted {
			r.prio[w] = r.prio[i]
		}
		w++
	}
	r.jobs = r.jobs[:w]
	if !sorted {
		r.prio = r.prio[:w]
		r.state = rankUnordered // compaction broke any heap shape
	}
}

// prepare puts the ranking in a state that can serve the next k jobs
// (1 <= k <= Len). A caller about to consume at least half of what is
// left gets one full sort: the heap's k log n pops would cost as much
// with cache-hostile sift access. Anything less gets an O(n) heapify and
// pays log n per job actually popped.
func (r *Ranking) prepare(k int) {
	switch {
	case r.state == rankSorted:
	case 2*k >= len(r.jobs):
		sort.Sort((*rankSorter)(r))
		r.state = rankSorted
	case r.state == rankUnordered:
		for i := len(r.jobs)/2 - 1; i >= 0; i-- {
			r.siftDown(i)
		}
		r.state = rankHeap
	}
}

// pop removes and returns the heap's root.
func (r *Ranking) pop() *job.Job {
	top := r.jobs[0]
	last := len(r.jobs) - 1
	r.jobs[0], r.prio[0] = r.jobs[last], r.prio[last]
	r.jobs, r.prio = r.jobs[:last], r.prio[:last]
	r.siftDown(0)
	return top
}

// siftDown restores the max-heap property (root = first in queue order)
// below index i.
func (r *Ranking) siftDown(i int) {
	n := len(r.jobs)
	for {
		l := 2*i + 1
		if l >= n {
			return
		}
		best := l
		if c := l + 1; c < n && before(r.prio[c], r.jobs[c], r.prio[l], r.jobs[l]) {
			best = c
		}
		if !before(r.prio[best], r.jobs[best], r.prio[i], r.jobs[i]) {
			return
		}
		r.jobs[i], r.jobs[best] = r.jobs[best], r.jobs[i]
		r.prio[i], r.prio[best] = r.prio[best], r.prio[i]
		i = best
	}
}

// rankSorter views an unsorted Ranking (lo == 0) as a sort.Interface over
// the total order `before` — a defined-type conversion, not a wrapper
// struct, so the sort stays allocation-free.
type rankSorter Ranking

func (s *rankSorter) Len() int { return len(s.jobs) }

func (s *rankSorter) Less(a, b int) bool {
	return before(s.prio[a], s.jobs[a], s.prio[b], s.jobs[b])
}

func (s *rankSorter) Swap(a, b int) {
	s.jobs[a], s.jobs[b] = s.jobs[b], s.jobs[a]
	s.prio[a], s.prio[b] = s.prio[b], s.prio[a]
}

func depsReady(j *job.Job, depsDone func(id int) bool) bool {
	for _, d := range j.Deps {
		if !depsDone(d) {
			return false
		}
	}
	return true
}
