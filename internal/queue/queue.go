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
// The queue is one array of slots, one per waiting job: the job, its
// priority, and a flat copy, made once at Add, of what a scheduling pass
// reads of the job — the Key a Policy ranks by (ID, submit time, walltime
// estimate, node count, whether it has dependencies) and the node and
// burst-buffer demand of its ranking Entry. All of it is fixed before a
// job is admitted, so the copy cannot go stale, and a pass ranks, gathers
// and fit-tests the queue over this one array without following a pointer
// per job; CheckInvariant pins copy == job.
//
// The queue keeps the order a pass found: Add puts a job where a
// time-invariant policy (FCFS, or anything implementing TimeInvariant)
// fixes it for good and appends it otherwise; Remove deletes in place.
// Rank(now) re-evaluates a time-varying policy's priorities (WFP,
// Multifactor) and repairs the order with an insertion sort. Those
// priorities are continuous in time, so between two passes a few
// neighbours swap and the repair costs what moved — a mean 0.26
// single-slot moves per waiting job on a 680-deep WFP replay — where a
// sort pays n log n comparisons for an order it mostly had. A queue that
// did scramble (a restored one, a clock set back) exceeds the repair's
// move budget and is sorted once, so the worst case stays O(n log n).
//
// The Ranking Rank returns is a copy of the dep-ready jobs in that order,
// each an Entry carrying its node and burst-buffer demand: the window pass
// and EASY backfilling consume one ranking from the front, and jobs started
// mid-pass leave the queue without disturbing it. Entry.MayFit is the
// pass's prefilter: nodes ≤ all free nodes and bb ≤ free burst buffer is
// necessary for Snapshot.CanFit on every machine shape (the SSD classes a
// job is eligible for are a subset of all classes), so a pass rejects most
// jobs on two integers it already holds and asks CanFit only about the
// rest. It never accepts: CanFit or AllocInto still decides every job that
// passes. WindowInto is Rank followed by one Take. Nothing allocates once
// the arrays have grown. Sorted remains the straightforward reference
// implementation (full re-sort with fresh allocations); the property suite
// pins the ranking against it, pass after pass on one queue.
package queue

import (
	"fmt"
	"math"
	"slices"
	"sort"

	"bbsched/internal/job"
)

// Key is the flat copy of what ranking the queue reads of a waiting job:
// what a Policy ranks by and the order's tie-breaks, and whether the
// gather has dependencies to look up.
type Key struct {
	ID          int
	SubmitTime  int64
	WalltimeEst int64
	// Nodes is the job's node demand, exact (it may legally reach
	// job.MaxDemand).
	Nodes int64
	// HasDeps reports whether the job lists any dependency.
	HasDeps bool
}

// Slot is one waiting job as the queue holds it: its ranking entry (the
// job and its fit demands), its priority at the last evaluation, and its
// key.
type Slot struct {
	Entry
	Prio float64
	Key
}

// SlotOf returns j's slot, priority unset.
func SlotOf(j *job.Job) Slot {
	return Slot{Entry: EntryOf(j), Key: Key{
		ID: j.ID, SubmitTime: j.SubmitTime, WalltimeEst: j.WalltimeEst,
		Nodes: j.Demand.Get(job.Nodes), HasDeps: len(j.Deps) > 0,
	}}
}

// Queue is the waiting queue. It is not safe for concurrent use.
type Queue struct {
	policy Policy
	static bool // policy implements TimeInvariant
	// slots holds the waiting jobs. A time-invariant policy's slots are
	// always in base order; a time-varying policy's are in the base order
	// of the last Rank, with the jobs added since at the end and their
	// prio unset.
	slots []Slot
	// rank is the pooled per-pass ranking Rank hands out.
	rank Ranking
}

// New returns an empty queue ordered by policy.
func New(policy Policy) *Queue {
	_, static := policy.(TimeInvariant)
	return &Queue{policy: policy, static: static}
}

// Policy returns the queue's ordering policy.
func (q *Queue) Policy() Policy { return q.policy }

// Len returns the number of waiting jobs.
func (q *Queue) Len() int { return len(q.slots) }

// prioritize evaluates the policy over slots with the reference NaN→0
// patch-up applied, so index and reference paths agree bit-for-bit.
func (q *Queue) prioritize(slots []Slot, now int64) {
	q.policy.Prioritize(slots, now)
	for i := range slots {
		if p := slots[i].Prio; p != p {
			slots[i].Prio = 0
		}
	}
}

// before is the queue's total order: priority descending, ties FCFS
// (submit time, then ID — unique, so the order is total).
func before(a, b *Slot) bool {
	if a.Prio != b.Prio {
		return a.Prio > b.Prio
	}
	if a.SubmitTime != b.SubmitTime {
		return a.SubmitTime < b.SubmitTime
	}
	return a.ID < b.ID
}

// find returns the index of job id's slot, or -1. A pass starts jobs from
// the front of the order, so Remove's scan is short.
func (q *Queue) find(id int) int {
	for i := range q.slots {
		if q.slots[i].ID == id {
			return i
		}
	}
	return -1
}

// Add enqueues a job. Double-adds are rejected. The job's key is copied
// here and never refreshed: ID, SubmitTime, WalltimeEst, Demand and Deps
// must not change while the job waits (only the trace generators and
// loaders write them, before admission).
func (q *Queue) Add(j *job.Job) error {
	if q.find(j.ID) >= 0 {
		return fmt.Errorf("queue: job %d already waiting", j.ID)
	}
	q.slots = append(q.slots, SlotOf(j))
	if q.static {
		last := len(q.slots) - 1
		s := &q.slots[last]
		q.prioritize(q.slots[last:], 0) // time-invariant: now is irrelevant
		i := sort.Search(last, func(k int) bool { return before(s, &q.slots[k]) })
		added := *s
		copy(q.slots[i+1:], q.slots[i:last])
		q.slots[i] = added
	}
	return nil
}

// Remove dequeues the job with the given ID (when it starts running),
// leaving the others in order.
func (q *Queue) Remove(id int) error {
	i := q.find(id)
	if i < 0 {
		return fmt.Errorf("queue: job %d not waiting", id)
	}
	q.slots = slices.Delete(q.slots, i, i+1)
	return nil
}

// Waiting appends every waiting job to dst in unspecified order and
// returns the extended slice. Checkpointing uses it to enumerate the
// waiting set; a restored queue is rebuilt by re-Adding the jobs, whose
// behavior depends only on the queue's total order, never on internal
// array order.
func (q *Queue) Waiting(dst []*job.Job) []*job.Job {
	for i := range q.slots {
		dst = append(dst, q.slots[i].Job)
	}
	return dst
}

// Contains reports whether job id is waiting.
func (q *Queue) Contains(id int) bool { return q.find(id) >= 0 }

// CheckInvariant verifies that every slot's key is its job's, that IDs
// are unique and that a time-invariant policy's slots are in base order;
// tests call it after random operation sequences.
func (q *Queue) CheckInvariant() error {
	seen := make(map[int]bool, len(q.slots))
	for i := range q.slots {
		s := &q.slots[i]
		if want := SlotOf(s.Job); s.Key != want.Key || s.Entry != want.Entry {
			return fmt.Errorf("queue: slot %d holds %+v, job %d has %+v", i, *s, s.Job.ID, want)
		}
		if seen[s.ID] {
			return fmt.Errorf("queue: job %d waits twice", s.ID)
		}
		seen[s.ID] = true
		if q.static && i > 0 && !before(&q.slots[i-1], s) {
			return fmt.Errorf("queue: slot %d (job %d) out of base order", i, s.ID)
		}
	}
	return nil
}

// Sorted returns the waiting jobs in base-policy order at time now:
// priority descending, ties FCFS. It is the reference implementation the
// ranking is property-tested against — fresh slots built from the jobs,
// not the ones the queue stored; the simulator's hot path uses Rank.
func (q *Queue) Sorted(now int64) []*job.Job {
	slots := make([]Slot, len(q.slots))
	for i := range slots {
		slots[i] = SlotOf(q.slots[i].Job)
	}
	q.policy.Prioritize(slots, now)
	for i := range slots {
		if math.IsNaN(slots[i].Prio) {
			slots[i].Prio = 0
		}
	}
	sort.Slice(slots, func(a, b int) bool {
		ja, jb := slots[a].Job, slots[b].Job
		if slots[a].Prio != slots[b].Prio {
			return slots[a].Prio > slots[b].Prio
		}
		if ja.SubmitTime != jb.SubmitTime {
			return ja.SubmitTime < jb.SubmitTime
		}
		return ja.ID < jb.ID
	})
	out := make([]*job.Job, len(slots))
	for i := range slots {
		out[i] = slots[i].Job
	}
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
	if size <= 0 || len(q.slots) == 0 {
		return dst
	}
	return q.Rank(now, depsDone).Take(dst, size)
}

// Entry is one ranked job with the two demands a pass's fit prefilter
// reads, so that a job that cannot fit is rejected without being touched.
// They are clamped to 32 bits — an entry is what a pass's memory scales
// with — which only ever makes the prefilter pass a job on to CanFit.
type Entry struct {
	Job       *job.Job
	nodes, bb uint32
}

// EntryOf returns j's ranking entry, for callers that hold jobs the queue
// did not rank.
func EntryOf(j *job.Job) Entry {
	clamp := func(v int64) uint32 { return uint32(min(max(v, 0), math.MaxUint32)) }
	return Entry{Job: j, nodes: clamp(j.Demand.Get(job.Nodes)), bb: clamp(j.Demand.BB())}
}

// MayFit reports whether the job could fit a snapshot with freeNodes free
// nodes over all classes and freeBB free burst buffer. It is necessary for
// Snapshot.CanFit, never sufficient: false means CanFit is false, true
// means ask CanFit.
func (e Entry) MayFit(freeNodes int, freeBB int64) bool {
	return int64(e.nodes) <= int64(freeNodes) && int64(e.bb) <= freeBB
}

// Ranking is one scheduling pass's view of the dep-ready waiting jobs in
// base-policy order at one instant: Take, Front, Next and Rest consume it
// from the front, Prune drops jobs the caller no longer wants ranked. The
// jobs come out in exactly the order filter(Sorted(now)) lists them,
// whatever mix of calls is made and whatever the queue went through
// before — `before` is a total order, so there is one answer.
//
// A Ranking is a copy on its queue's pooled array: the next Rank (or
// WindowInto) call on the queue overwrites it. Add and Remove leave it
// untouched, so a job started mid-pass is simply one the caller has
// already taken. The zero Ranking is empty.
type Ranking struct {
	entries  []Entry // entries[lo:] are the jobs not yet consumed
	lo       int
	gathered int // len(entries) as Rank left it
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
// time-invariant policy's queue is always in order. Only a job that has
// dependencies is dereferenced. No allocation once the arrays have grown.
func (q *Queue) Rank(now int64, depsDone func(id int) bool) *Ranking {
	if !q.static {
		q.reorder(now)
	}
	r := &q.rank
	r.entries, r.lo = r.entries[:0], 0
	for i := range q.slots {
		s := &q.slots[i]
		if !s.HasDeps || depsReady(s.Job, depsDone) {
			r.entries = append(r.entries, s.Entry)
		}
	}
	// Drop the pointers a deeper earlier gather left past this one, so the
	// pooled array never keeps long-finished jobs alive.
	if n := len(r.entries); n < r.gathered {
		clear(r.entries[n:r.gathered])
	}
	r.gathered = len(r.entries)
	return r
}

// reorder evaluates every waiting job's priority at now and restores the
// base order: an insertion sort, whose work is the distance the jobs have
// moved since the order was last right, abandoned for one sort once that
// distance passes repairBudget per job.
func (q *Queue) reorder(now int64) {
	slots := q.slots
	q.prioritize(slots, now)
	budget := repairBudget * len(slots)
	for i := 1; i < len(slots); i++ {
		if !before(&slots[i], &slots[i-1]) {
			continue
		}
		s, k := slots[i], i
		for ; k > 0 && before(&s, &slots[k-1]); k-- {
			slots[k] = slots[k-1]
		}
		slots[k] = s
		if budget -= i - k; budget < 0 {
			slices.SortFunc(slots, func(a, b Slot) int {
				if before(&a, &b) {
					return -1
				}
				return 1
			})
			return
		}
	}
}

// Len returns the number of ranked jobs not yet consumed.
func (r *Ranking) Len() int { return len(r.entries) - r.lo }

// Front pops up to size entries off the front of the ranking, in base
// order. The slice aliases the ranking's storage, which no later call on
// the ranking reads or writes: it is the caller's, to reorder or compact,
// until the queue is ranked again.
func (r *Ranking) Front(size int) []Entry {
	size = max(0, min(size, r.Len()))
	r.lo += size
	return r.entries[r.lo-size : r.lo : r.lo]
}

// Take pops up to size jobs off the front of the ranking, appending them
// to dst in base order.
func (r *Ranking) Take(dst []*job.Job, size int) []*job.Job {
	for _, e := range r.Front(size) {
		dst = append(dst, e.Job)
	}
	return dst
}

// Next pops the first remaining entry; ok is false when none is left.
func (r *Ranking) Next() (e Entry, ok bool) {
	if r.Len() == 0 {
		return Entry{}, false
	}
	r.lo++
	return r.entries[r.lo-1], true
}

// Rest pops every remaining entry, in base order. The slice aliases the
// ranking's storage and is valid only until the queue is ranked again.
func (r *Ranking) Rest() []Entry { return r.Front(r.Len()) }

// Prune drops every remaining job that cannot fit freeNodes free nodes and
// freeBB free burst buffer (Entry.MayFit, tested without touching the job)
// or that keep rejects; the survivors keep their relative order.
func (r *Ranking) Prune(freeNodes int, freeBB int64, keep func(*job.Job) bool) {
	w := r.lo
	for _, e := range r.entries[r.lo:] {
		if e.MayFit(freeNodes, freeBB) && keep(e.Job) {
			r.entries[w] = e
			w++
		}
	}
	r.entries = r.entries[:w]
}

func depsReady(j *job.Job, depsDone func(id int) bool) bool {
	for _, d := range j.Deps {
		if !depsDone(d) {
			return false
		}
	}
	return true
}
