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
// A pass reads little of the order: a window of w jobs, and behind it the
// few jobs EASY backfilling can start. So the queue orders only its front.
// slots[:front] holds the best front dep-ready jobs in base order; the rest
// of the array is unordered. Add appends; Remove deletes a front job in
// place and a later one by moving the array's last slot into its hole.
// Rank(now, depsDone, front) re-evaluates a time-varying policy's
// priorities (WFP, Multifactor), patching NaN to 0 in the same scan that
// reads them, repairs the front with an insertion sort and promotes every
// later job that outranks the front's last member. Priorities are
// continuous in time, so between two passes a few neighbours swap and the
// repair costs what moved. A queue that did scramble (a restored one, the
// first pass, a clock set back, a front as deep as the queue) exceeds the
// repair's move budget and is sorted once, so the worst case stays
// O(n log n).
//
// The Ranking Rank returns lists the dep-ready jobs in base order, each an
// Entry carrying its node and burst-buffer demand: the front as a copy, and
// behind it the rest of the queue, which the ranking gathers only when a
// caller first reads past the front. Prune then copies only the jobs that
// survive it, Next hands them out best-first with one linear scan, and a
// caller that wants the rest in order (Front, Take, Rest) has it sorted
// once. The window pass and EASY backfilling consume one ranking, and jobs
// started mid-pass leave the queue without disturbing it. Entry.MayFit is
// the pass's prefilter: nodes ≤ all free nodes and bb ≤ free burst buffer
// is necessary for Snapshot.CanFit on every machine shape (the SSD classes
// a job is eligible for are a subset of all classes), so a pass rejects
// most jobs on two integers it already holds and asks CanFit only about
// the rest. It never accepts: CanFit or AllocInto still decides every job
// that passes. WindowInto is Rank with the window as its front, followed
// by one Take. Nothing allocates once the arrays have grown. Sorted
// remains the straightforward reference implementation (full re-sort with
// fresh allocations); the property suite pins the ranking and the front
// against it, pass after pass on one queue.
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
	// slots holds the waiting jobs: slots[:front] the best front dep-ready
	// jobs of the last Rank, in its base order, and the rest in no order,
	// the jobs added since at the end (a time-varying policy's prio unset).
	slots []Slot
	front int
	// sorts counts Rank's fallback sorts.
	sorts int
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

// patchNaN applies the reference NaN→0 patch-up to s's priority, so index
// and reference paths agree bit-for-bit and before is a total order. It
// runs before anything compares the priority.
func patchNaN(s *Slot) {
	if s.Prio != s.Prio {
		s.Prio = 0
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

// compare is before as a three-way comparison, for the fallback sort.
func compare(a, b Slot) int {
	switch {
	case before(&a, &b):
		return -1
	case a.ID == b.ID:
		return 0
	}
	return 1
}

// ranked is a job behind the front as a ranking copies it: its entry and
// its priority. A tie reads the FCFS keys off the job, which a Prune's keep
// has usually loaded already, so that a gather costs 24 bytes a job.
type ranked struct {
	Entry
	prio float64
}

// before is the queue's total order on ranked jobs.
func (a *ranked) before(b *ranked) bool {
	if a.prio != b.prio {
		return a.prio > b.prio
	}
	if ja, jb := a.Job, b.Job; ja.SubmitTime != jb.SubmitTime {
		return ja.SubmitTime < jb.SubmitTime
	}
	return a.Job.ID < b.Job.ID
}

// compareRanked is ranked.before as a three-way comparison.
func compareRanked(a, b ranked) int {
	switch {
	case a.before(&b):
		return -1
	case a.Job == b.Job:
		return 0
	}
	return 1
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

// Add enqueues a job at the end of the array. Double-adds are rejected.
// The job's key is copied here and never refreshed: ID, SubmitTime,
// WalltimeEst, Demand and Deps must not change while the job waits (only
// the trace generators and loaders write them, before admission).
func (q *Queue) Add(j *job.Job) error {
	if q.find(j.ID) >= 0 {
		return fmt.Errorf("queue: job %d already waiting", j.ID)
	}
	q.slots = append(q.slots, SlotOf(j))
	if q.static {
		// Time-invariant: the priority is fixed now, and Rank never
		// evaluates it again.
		s := q.slots[len(q.slots)-1:]
		q.policy.Prioritize(s, 0)
		patchNaN(&s[0])
	}
	return nil
}

// Remove dequeues the job with the given ID (when it starts running). A
// front job's hole closes up, so the front stays in order; the hole behind
// the front is filled from the array's end.
func (q *Queue) Remove(id int) error {
	i := q.find(id)
	if i < 0 {
		return fmt.Errorf("queue: job %d not waiting", id)
	}
	if i < q.front {
		q.front--
		copy(q.slots[i:q.front], q.slots[i+1:q.front+1])
		i = q.front
	}
	last := len(q.slots) - 1
	q.slots[i] = q.slots[last]
	q.slots[last] = Slot{} // drop the job pointer
	q.slots = q.slots[:last]
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
// are unique and that the front is in base order at the priorities the
// last Rank set; tests call it after random operation sequences.
func (q *Queue) CheckInvariant() error {
	if q.front < 0 || q.front > len(q.slots) {
		return fmt.Errorf("queue: front %d of %d slots", q.front, len(q.slots))
	}
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
		if i > 0 && i < q.front && !before(&q.slots[i-1], s) {
			return fmt.Errorf("queue: front slot %d (job %d) out of base order", i, s.ID)
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
// dst[:0]) instead of allocating the result: it ranks the queue with the
// window as its front and takes the first size jobs. Passing size >= Len
// yields the full dep-ready queue in base-policy order. The returned slice
// aliases dst's storage when capacity suffices. Like Rank, it invalidates
// any earlier Ranking.
func (q *Queue) WindowInto(dst []*job.Job, now int64, size int, depsDone func(id int) bool) []*job.Job {
	if size <= 0 || len(q.slots) == 0 {
		return dst
	}
	return q.Rank(now, depsDone, size).Take(dst, size)
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
// Rank copies the queue's front into the ranking; the rest stays in the
// queue until a call first reads past the front. A Prune then copies only
// the jobs it keeps, and Next hands those out best-first, one linear scan
// per job; Front, Take and Rest, and a Next that nothing has pruned before
// it, copy every dep-ready job behind the front and sort them once. So a
// Ranking is valid until the next Rank, WindowInto or Add on its queue. A
// Remove of a job already taken leaves it untouched, so a job started
// mid-pass is simply one the caller has already taken. The zero Ranking is
// empty.
type Ranking struct {
	// entries[lo:] are the ordered jobs not yet consumed, every one ranked
	// ahead of the tail.
	entries []Entry
	lo      int
	// The tail is the rest: while pending > 0, that many dep-ready jobs
	// behind q's front, not yet gathered; after, the gathered copies in
	// tail, in no order.
	q        *Queue
	depsDone func(id int) bool
	pending  int
	tail     []ranked
	// How far entries and tail have reached since Rank last cleared them:
	// Rank drops the job pointers up to there, so the pooled arrays never
	// keep long-finished jobs alive.
	entriesHW, tailHW int
}

// repairBudget bounds Rank's insertion moves: past repairBudget
// single-slot moves per waiting job the front is scrambled, not drifting,
// and one sort finishes the job. Consecutive passes of a replay need a
// fraction of a move per job; a restored queue, still in ID order, a
// first pass, a front as deep as a scrambled queue or a clock set back
// lands here.
const repairBudget = 4

// Rank brings the queue's front up to date at now and returns the waiting
// jobs whose dependencies have all finished, in base order, as the
// queue's pooled ranking. front is how many of them the caller reads in
// order (the window): the queue keeps the best front of them in order,
// the rest unordered until a caller reads past them. A time-varying
// policy's priorities are re-evaluated, the front the last Rank left is
// repaired, and any later job that outranks its last member is promoted
// into it. Only a job that has dependencies is dereferenced. No allocation
// once the arrays have grown.
func (q *Queue) Rank(now int64, depsDone func(id int) bool, front int) *Ranking {
	if !q.static {
		q.policy.Prioritize(q.slots, now)
	}
	ready := q.repair(depsDone, max(front, 0))
	r := &q.rank
	r.entries, r.lo = r.entries[:0], 0
	for i := range q.slots[:q.front] {
		r.entries = append(r.entries, q.slots[i].Entry)
	}
	if n := len(r.entries); n < r.entriesHW {
		clear(r.entries[n:r.entriesHW])
	}
	r.entriesHW = len(r.entries)
	clear(r.tail[:r.tailHW])
	r.tail, r.tailHW = r.tail[:0], 0
	r.q, r.depsDone, r.pending = q, depsDone, ready-q.front
	return r
}

// repair makes slots[:front] the best front dep-ready jobs in base order
// and returns how many waiting jobs are dep-ready. It patches each
// priority before comparing it. Its work is the insertion moves the front
// needs, abandoned for one sort once they pass repairBudget per job.
func (q *Queue) repair(depsDone func(id int) bool, front int) (ready int) {
	slots := q.slots
	budget := repairBudget * len(slots)
	// A front asked smaller keeps its first members; the others join the
	// rest.
	f := min(q.front, front)
	for i := 0; i < f; i++ {
		s := &slots[i]
		if s.HasDeps && !depsReady(s.Job, depsDone) {
			// Its dependencies no longer hold: it joins the rest too, and
			// the front closes up behind it.
			out := *s
			f--
			copy(slots[i:f], slots[i+1:f+1])
			slots[f] = out
			i--
			continue
		}
		patchNaN(s)
		if i > 0 && before(s, &slots[i-1]) {
			if budget -= sink(slots, i); budget < 0 {
				return q.sortReady(depsDone, front)
			}
		}
	}
	ready = f
	// The rest is scanned over slots[f:hi]. A member the scan pushes out of
	// the front goes to slots[hi-1], past the scan, and the slot there is
	// scanned in the promoted job's place: pushed-out members written back
	// where the scan stood would leave the rest ascending in scan order, and
	// the next pass would promote nearly every job it met.
	hi := len(slots)
	for i := f; i < hi; i++ {
		s := &slots[i]
		patchNaN(s)
		if s.HasDeps && !depsReady(s.Job, depsDone) {
			continue
		}
		ready++
		switch {
		case f < front: // the front has room
			slots[f], slots[i] = slots[i], slots[f]
			f++
		case f > 0 && before(s, &slots[f-1]): // it outranks the last member
			hi--
			promoted := *s
			slots[i], slots[hi], slots[f-1] = slots[hi], slots[f-1], promoted
			i--
		default:
			continue
		}
		if budget -= sink(slots, f-1); budget < 0 {
			return q.sortReady(depsDone, front)
		}
	}
	q.front = f
	return ready
}

// sink moves slots[i] down to its place in slots[:i+1], in base order but
// for it, and returns how many slots it moved past.
func sink(slots []Slot, i int) int {
	s, k := slots[i], i
	for ; k > 0 && before(&s, &slots[k-1]); k-- {
		slots[k] = slots[k-1]
	}
	slots[k] = s
	return i - k
}

// sortReady is repair's fallback: it moves the dep-ready jobs to the
// start of the array, sorts them once and makes the first front of them
// the front. It returns how many are dep-ready.
func (q *Queue) sortReady(depsDone func(id int) bool, front int) (ready int) {
	q.sorts++
	slots := q.slots
	for i := range slots {
		patchNaN(&slots[i])
		if !slots[i].HasDeps || depsReady(slots[i].Job, depsDone) {
			if ready != i {
				slots[ready], slots[i] = slots[i], slots[ready]
			}
			ready++
		}
	}
	slices.SortFunc(slots[:ready], compare)
	q.front = min(front, ready)
	return ready
}

// Len returns the number of ranked jobs not yet consumed.
func (r *Ranking) Len() int { return len(r.entries) - r.lo + r.pending + len(r.tail) }

// Front pops up to size entries off the front of the ranking, in base
// order; reaching past the ordered entries sorts the rest once. The slice
// aliases the ranking's storage, which no later call on the ranking reads
// or writes: it is the caller's, to reorder or compact, until the queue is
// ranked again.
func (r *Ranking) Front(size int) []Entry {
	size = max(0, min(size, r.Len()))
	if r.lo+size > len(r.entries) {
		r.order()
	}
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

// Next pops the first remaining entry; ok is false when none is left. Past
// the ordered entries it takes the best of the jobs a Prune kept with one
// linear scan, and sorts a rest nothing has pruned once.
func (r *Ranking) Next() (e Entry, ok bool) {
	switch {
	case r.lo < len(r.entries):
	case r.pending > 0:
		r.order()
	case len(r.tail) > 0:
		return r.popBest(), true
	default:
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
// or that keep rejects; keep is asked only about the jobs MayFit passes,
// with their entries, so it can test more flat totals before it loads a
// job. Made before anything reads past the queue's front, it is the
// gather: only the jobs it keeps are copied.
func (r *Ranking) Prune(freeNodes int, freeBB int64, keep func(Entry) bool) {
	w := r.lo
	for _, e := range r.entries[r.lo:] {
		if e.MayFit(freeNodes, freeBB) && keep(e) {
			r.entries[w] = e
			w++
		}
	}
	r.entries = r.entries[:w]
	if r.pending > 0 {
		r.gather(freeNodes, freeBB, keep)
		return
	}
	w = 0
	for _, g := range r.tail {
		if g.MayFit(freeNodes, freeBB) && keep(g.Entry) {
			r.tail[w] = g
			w++
		}
	}
	r.tail = r.tail[:w]
}

// gather copies into the tail the dep-ready jobs behind the queue's front
// that MayFit and keep pass (every one when keep is nil). The jobs taken
// since Rank are front jobs, whose Remove leaves that set as it was.
func (r *Ranking) gather(freeNodes int, freeBB int64, keep func(Entry) bool) {
	q := r.q
	for i := q.front; i < len(q.slots); i++ {
		s := &q.slots[i]
		if !s.MayFit(freeNodes, freeBB) || s.HasDeps && !depsReady(s.Job, r.depsDone) {
			continue
		}
		if keep == nil || keep(s.Entry) {
			r.tail = append(r.tail, ranked{s.Entry, s.Prio})
		}
	}
	r.pending = 0
	r.tailHW = max(r.tailHW, len(r.tail))
}

// order moves the tail behind the ordered entries, sorted once, gathering
// it first if nothing has.
func (r *Ranking) order() {
	if r.pending > 0 {
		r.gather(math.MaxInt, math.MaxInt64, nil)
	}
	slices.SortFunc(r.tail, compareRanked)
	for i := range r.tail {
		r.entries = append(r.entries, r.tail[i].Entry)
	}
	r.entriesHW = max(r.entriesHW, len(r.entries))
	r.tail = r.tail[:0]
}

// popBest removes the tail's best job and returns its entry.
func (r *Ranking) popBest() Entry {
	best := 0
	for i := 1; i < len(r.tail); i++ {
		if r.tail[i].before(&r.tail[best]) {
			best = i
		}
	}
	e, last := r.tail[best].Entry, len(r.tail)-1
	r.tail[best] = r.tail[last]
	r.tail = r.tail[:last]
	return e
}

func depsReady(j *job.Job, depsDone func(id int) bool) bool {
	for _, d := range j.Deps {
		if !depsDone(d) {
			return false
		}
	}
	return true
}
