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
// estimate, node count), whether it has dependencies, and the node and
// burst-buffer demand of its ranking Entry. A job is read-only once its
// trace has built it, so the copy cannot go stale, and a pass ranks, gathers
// and fit-tests the queue over this one array without following a pointer
// per job; CheckInvariant pins copy == job.
//
// A pass reads little of the order: a window of w jobs, and behind it the
// few jobs EASY backfilling can start. So the queue keeps only its front's
// membership exact: slots[:front] holds the best front dep-ready jobs, and
// behind it the tail holds the rest in no order but laid out in cells: by
// node class (class 0 asks for no node, class c ≥ 1 for [2^(c-1), 2^c)
// nodes), and within a node class by span class, the same powers of two
// over the job's span, walltime estimate plus stage-out — what EASY adds to
// now to test a job against the head's shadow time. Each node class keeps
// its end, and each of its cells its size. Add puts a job at the end of
// its cell and Remove closes its hole; either moves at most one job across
// each boundary of a cell that holds jobs, and changes one cell's size.
//
// The tail's dep-ready jobs compete in a kinetic tournament (Basch, Guibas
// & Hershberger, "Data Structures for Mobile Data", SODA 1997). Each node
// holds its subtree's best job by the policy's exact priority and before at
// the instant it was decided, and the earliest instant at which that
// winner could change. A time-varying policy orders jobs by functions of
// time whose pairwise order flips at computable instants, and one that
// implements Overtaker names, for two jobs in order, an instant no later
// than the first float flip of before: WFP the crossing of the lines
// ∛nodes/est·(t − submit) whose cubes its priorities are, Multifactor the
// next instant a job starts or stops ageing, FCFS never. A near tie, and a
// policy without the method, gets the next second, so every policy is
// ranked exactly on the one path. Pass(now, depsDone, front) sends front
// members whose dependencies no longer hold to the tail, brings the
// tournament to now — re-deciding only the pairs whose instant has come or
// whose members changed — and promotes its winner while the front has
// room, or swaps it for the front's worst member while it outranks it. Add
// enters a job without dependencies at its submit time; Pass enters the
// others once their dependencies hold.
//
// The front is ordered on demand. Its priorities are evaluated only when
// the tail's winner may displace its worst member or a read needs an
// order. Under a policy that promises a job's priority never falls
// (Riser), the queue keeps a floor under a front whose jobs all carry the
// promise: the latest key, in base order, any of them held when its
// priority was last evaluated. No front job can rank after the floor at a
// later instant, so a winner that does not rank before it displaces
// nobody, and the pass ends without evaluating the front; a winner ahead
// of it has the front evaluated, and the worst member that finds becomes
// the floor. The front is put in base order, by insertion from the order
// it last had, only when the ranking is first read in order (Front, Take,
// Next, Rest, Prune, Aged; Rank is Pass followed by that). Window reads it
// as it lies instead. The queue counts the front's jobs by node class, so
// a window none of whose classes fits the free nodes is answered without
// reading a slot; otherwise one pass over the front's demands finds the
// window's jobs that may fit the free totals, and the front's priorities
// are evaluated only if Before compares two of them. A job promoted into
// the front brings its priority at the instant it was promoted, so no
// priority is evaluated twice at one instant. Behind the front a priority
// is evaluated only for a job that is compared or gathered, so a pass that
// reads no order costs a read of the window's demands plus what changed,
// not the queue's depth. A queue that did scramble (a restored one, the
// first pass, a clock set back, a front as deep as the queue) exceeds the
// ordering's move budget, or needs more jobs promoted than a sort costs,
// and is sorted once, so the worst case stays O(n log n).
//
// A job's window age — the passes it has spent in the window without
// being started, which starvation forcing reads — is the queue's: the job
// itself is read-only. Ageing is counted, not written. The queue counts
// the passes that aged its front (Ranking.AgeWindow, and Ranking.Age for a
// pass that read its window unordered), and a front slot holds its job's
// age less that count, so a pass writes only the slots of the jobs it
// started. A job that leaves the front takes its age with it, beside its
// leaf in the tournament's ID map. A pass ended by Age hands backfilling
// only the window's best job, and only if a job behind the window may
// fit; Aged is that window's ordered read, for a caller that wants every
// job left behind.
//
// The Ranking Pass returns lists the dep-ready jobs in base order, each an
// Entry carrying its node and burst-buffer demand: the front, and behind
// it the tail, which the ranking gathers only when a caller first reads
// past the front, and then only from the node classes whose smallest
// member fits the free nodes. Given EASY's cut — its span bound and
// leftover nodes — a Prune's gather reads of those classes whole only the
// ones whose smallest member fits the leftover, and of the others only the
// span classes that may end by the shadow time: it reads the cells that
// may hold a job EASY can keep, and keep still decides each job it reads.
// Prune then copies only the jobs that survive it, Next hands them out
// best-first with one linear scan, and a caller that wants the rest in
// order (Front, Take, Rest) has it sorted once. The window pass and EASY
// backfilling consume one ranking, and jobs started mid-pass leave the
// queue without disturbing it. Entry.MayFit is the pass's prefilter:
// nodes ≤ all free nodes and bb ≤ free burst buffer is necessary for
// Snapshot.CanFit on every machine shape (the SSD classes a job is
// eligible for are a subset of all classes), so a pass rejects most jobs
// on two integers it already holds and asks CanFit only about
// the rest. It never accepts: CanFit or AllocInto still decides every job
// that passes. WindowInto is Rank with the window as its front, followed
// by one Take. Nothing allocates once the arrays have grown. Sorted
// remains the straightforward reference implementation (full re-sort with
// fresh allocations); the property suite pins the ranking and the front
// against it, pass after pass on one queue.
package queue

import (
	"fmt"
	"iter"
	"math"
	"math/bits"
	"slices"
	"sort"

	"bbsched/internal/job"
)

// Key is the flat copy of what a Policy ranks a waiting job by, with the
// order's tie-breaks.
type Key struct {
	ID          int
	SubmitTime  int64
	WalltimeEst int64
	// Nodes is the job's node demand, exact (it may legally reach
	// job.MaxDemand).
	Nodes int64
}

// Slot is one waiting job as the queue holds it: its ranking entry (the
// job and its fit demands), its priority at the last evaluation, its key,
// whether the job lists any dependency, its span class, and its leaf in
// the tail's tournament. A front job holds no leaf; there the field is the
// job's window age less the window passes the queue has counted, so that
// counting a pass ages the whole front.
type Slot struct {
	Entry
	Prio float64
	Key
	HasDeps bool
	span    uint8
	leaf    int32
}

// SlotOf returns j's slot, priority unset.
func SlotOf(j *job.Job) Slot {
	return Slot{Entry: EntryOf(j), Key: Key{
		ID: j.ID, SubmitTime: j.SubmitTime, WalltimeEst: j.WalltimeEst,
		Nodes: j.Demand.Get(job.Nodes),
	}, HasDeps: len(j.Deps) > 0, span: spanClass(j.WalltimeEst + j.StageOutSec), leaf: -1}
}

// Queue is the waiting queue. It is not safe for concurrent use.
type Queue struct {
	policy Policy
	over   Overtaker // policy's, or nil
	riser  Riser     // policy's, or nil
	// slots holds the waiting jobs: slots[:front] the best front dep-ready
	// jobs of the last Rank, in its base order, then the tail in no order
	// but laid out in cells: node class c's jobs are
	// slots[start(c):cut[c]], and the classes outside [low, top) are empty;
	// within class c come its span classes in order, span class k's
	// sizes[c][k] jobs, and cells[c] has bit k set when there are any.
	slots    []Slot
	front    int
	cut      [classes]int
	low, top int
	sizes    [classes][spanClasses]int32
	cells    [classes]uint32
	// slots[:fresh]'s priorities are for frontAt (math.MinInt64 if not for
	// one instant), and those of the jobs promoted after them,
	// slots[fresh:front], for freshAt; ordered reports whether the front is
	// in base order at them. frontDeps counts the front's jobs that list a
	// dependency, frontFalls those whose priority may fall (Riser), and
	// frontClass those of each node class; frontCells has bit c set when
	// there are any of class c.
	frontAt, freshAt int64
	fresh            int
	ordered          bool
	frontDeps        int
	frontFalls       int
	frontClass       [classes]int32
	frontCells       uint64
	// While floored, every front job's priority rises, and none ranks
	// after floor at floorAt: at no later instant can one, so a job that
	// does not rank before the floor there cannot displace one.
	floor   mark
	floorAt int64
	floored bool
	// passes counts the window passes the front was aged by (Ranking.Age),
	// modulo 2^32.
	passes uint32
	// tour keeps the tail's best dep-ready job.
	tour tournament
	// sorts counts the fallback sorts.
	sorts int
	// rank is the pooled per-pass ranking Pass and Rank hand out.
	rank Ranking
}

// New returns an empty queue ordered by policy.
func New(policy Policy) *Queue {
	over, _ := policy.(Overtaker)
	riser, _ := policy.(Riser)
	return &Queue{policy: policy, over: over, riser: riser, frontAt: math.MinInt64, freshAt: math.MinInt64, tour: tournament{ids: map[int]place{}}}
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

// mark is where a slot stood in base order at one instant: its priority
// then, its submit time and its ID.
type mark struct {
	prio   float64
	submit int64
	id     int
}

func markOf(s *Slot) mark { return mark{s.Prio, s.SubmitTime, s.ID} }

// aboveFloor reports whether s ranks before the floor.
func (q *Queue) aboveFloor(s *Slot) bool {
	f := Slot{Prio: q.floor.prio, Key: Key{ID: q.floor.id, SubmitTime: q.floor.submit}}
	return before(s, &f)
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

// Add enqueues a job into the tail, its window age zero. Double-adds are
// rejected. The job's key is copied here and never refreshed; the queue
// only reads the job, which is read-only once its trace has built it. A
// job without dependencies enters the tournament at once, brought to its
// submit time (the engine adds a job the instant it arrives), so that the
// next Rank finds its pairs decided; Rank's dependency check enters the
// others.
func (q *Queue) Add(j *job.Job) error { return q.AddAged(j, 0) }

// AddAged is Add for a job that has already spent age passes in the
// window: a restored queue re-enters its jobs with it.
func (q *Queue) AddAged(j *job.Job, age int) error {
	if _, ok := q.tour.ids[j.ID]; ok {
		return fmt.Errorf("queue: job %d already waiting", j.ID)
	}
	if age < 0 || age > math.MaxInt32 {
		return fmt.Errorf("queue: job %d has window age %d, outside [0, %d]", j.ID, age, math.MaxInt32)
	}
	s := SlotOf(j)
	i := q.open(classOf(&s), int(s.span))
	q.slots[i] = s
	q.attach(i, !s.HasDeps, math.MinInt64)
	q.tour.ids[j.ID] = place{q.slots[i].leaf, int32(age)}
	if !s.HasDeps {
		q.settle(max(q.tour.now, s.SubmitTime))
	}
	return nil
}

// Remove dequeues the job with the given ID (when it starts running) and
// returns its window age. A front job's hole closes up, so the front stays
// in order.
func (q *Queue) Remove(id int) (int, error) {
	i := q.find(id)
	if i < 0 {
		return 0, fmt.Errorf("queue: job %d not waiting", id)
	}
	age := q.ageAt(i)
	delete(q.tour.ids, id)
	if i >= q.front {
		q.release(q.slots[i].leaf)
	}
	q.close(i)
	return age, nil
}

// Waiting yields every waiting job with its window age, in unspecified
// order. Checkpointing uses it to enumerate the waiting set; a restored
// queue is rebuilt by re-entering the jobs with their ages (AddAged),
// whose behavior depends only on the queue's total order, never on
// internal array order.
func (q *Queue) Waiting() iter.Seq2[*job.Job, int] {
	return func(yield func(*job.Job, int) bool) {
		for i := range q.slots {
			if !yield(q.slots[i].Job, q.ageAt(i)) {
				return
			}
		}
	}
}

// Contains reports whether job id is waiting.
func (q *Queue) Contains(id int) bool {
	return q.find(id) >= 0
}

// CheckInvariant verifies that every slot's key and span class are its
// job's, that IDs are unique, that a front last ordered is in base order
// at the priorities last evaluated, that the tail is laid out in cells
// whose sizes add up to their node class, with every job inside its own
// cell and on its own leaf, that the ID map finds each job, that the
// front's counts are a recount's, and that while a floor is held no front
// job ranks after it at its instant, priorities evaluated afresh from the
// jobs; tests call it after random operation sequences.
func (q *Queue) CheckInvariant() error {
	if q.front < 0 || q.front > len(q.slots) {
		return fmt.Errorf("queue: front %d of %d slots", q.front, len(q.slots))
	}
	if q.top < 0 || q.top > classes || q.top > 0 && (q.low >= q.top || q.low < 0 || q.cut[q.top-1] != len(q.slots)) {
		return fmt.Errorf("queue: classes [%d, %d) in use, ending at %v of %d slots", q.low, q.top, q.cut, len(q.slots))
	}
	for c := range classes {
		size := 0
		if c >= q.low && c < q.top {
			size = q.cut[c] - q.start(c)
		}
		for k, n := range q.sizes[c] {
			if n < 0 || q.cells[c]>>k&1 != 0 != (n > 0) {
				return fmt.Errorf("queue: class %d has cells of %v jobs, marked %032b", c, q.sizes[c], q.cells[c])
			}
			size -= int(n)
		}
		if size != 0 {
			return fmt.Errorf("queue: class %d's cells of %v jobs miss %d of its slots", c, q.sizes[c], size)
		}
	}
	t := &q.tour
	seen := make(map[int]bool, len(q.slots))
	live := 0
	for i := range q.slots {
		s := &q.slots[i]
		if want := SlotOf(s.Job); s.Key != want.Key || s.Entry != want.Entry || s.HasDeps != want.HasDeps || s.span != want.span {
			return fmt.Errorf("queue: slot %d holds %+v, job %d has %+v", i, *s, s.Job.ID, want)
		}
		if seen[s.ID] {
			return fmt.Errorf("queue: job %d waits twice", s.ID)
		}
		seen[s.ID] = true
		if ref, ok := t.ids[s.ID]; !ok || q.find(s.ID) != i || i < q.front && ref.leaf != -1 ||
			i >= q.front && (ref.leaf != s.leaf || s.leaf < 0 || int(s.leaf) >= len(t.leaves) || t.leaves[s.leaf].pos != int32(i)) {
			return fmt.Errorf("queue: slot %d (job %d) on leaf %d, which is not its", i, s.ID, s.leaf)
		}
		if i < q.front {
			if q.ordered && i > 0 && !before(&q.slots[i-1], s) {
				return fmt.Errorf("queue: front slot %d (job %d) out of base order", i, s.ID)
			}
			continue
		}
		l := t.leaves[s.leaf]
		if c, k := classOf(s), int(s.span); c < q.low || c >= q.top || i < q.start(c)+q.cellStart(c, k) || i >= q.start(c)+q.cellStart(c, k)+int(q.sizes[c][k]) {
			return fmt.Errorf("queue: tail slot %d (job %d, class %d, span class %d) outside its cell", i, s.ID, c, k)
		}
		if !l.ready && !s.HasDeps {
			return fmt.Errorf("queue: job %d has no dependency but its leaf is out", s.ID)
		}
		if l.ready {
			live++
		}
	}
	if len(t.ids) != len(q.slots) {
		return fmt.Errorf("queue: %d IDs mapped for %d waiting jobs", len(t.ids), len(q.slots))
	}
	if live != t.live {
		return fmt.Errorf("queue: %d dep-ready tail jobs counted as %d", live, t.live)
	}
	return q.checkFront()
}

// checkFront is CheckInvariant's check of the front's counts and floor.
func (q *Queue) checkFront() error {
	recount := Queue{riser: q.riser}
	for i := range q.slots[:q.front] {
		recount.count(&q.slots[i], 1)
	}
	if recount.frontDeps != q.frontDeps || recount.frontFalls != q.frontFalls || recount.frontClass != q.frontClass || recount.frontCells != q.frontCells {
		return fmt.Errorf("queue: front counted as %d with dependencies, %d that may fall, %v by node class (%033b); a recount finds %d, %d, %v (%033b)",
			q.frontDeps, q.frontFalls, q.frontClass, q.frontCells, recount.frontDeps, recount.frontFalls, recount.frontClass, recount.frontCells)
	}
	if !q.floored {
		return nil
	}
	if q.frontFalls > 0 {
		return fmt.Errorf("queue: a floor is held over %d front jobs whose priority may fall", q.frontFalls)
	}
	one := make([]Slot, 1)
	for i := range q.slots[:q.front] {
		one[0] = SlotOf(q.slots[i].Job)
		q.policy.Prioritize(one, q.floorAt)
		if patchNaN(&one[0]); markOf(&one[0]) != q.floor && !q.aboveFloor(&one[0]) {
			return fmt.Errorf("queue: front job %d, priority %v at %d, ranks after the floor, job %d's priority %v",
				one[0].ID, one[0].Prio, q.floorAt, q.floor.id, q.floor.prio)
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
// Rank hands out a ranking whose front is ordered and copied; Pass one
// whose front stays in the queue, in no order, until a read needs it.
// Window reads the front as it lies, ordered or not, and Age takes it
// without ordering it; every other read first orders it, by insertion from
// the order it had, and copies it. The rest stays in the queue until a call
// first reads past the front. A Prune then copies only the jobs it keeps,
// and Next hands those out best-first, one linear scan per job; Front,
// Take and Rest, and a Next that nothing has pruned before it, copy every
// dep-ready job behind the front and sort them once. So a Ranking is valid
// until the next Pass, Rank, WindowInto or Add on its queue. A Remove of a
// job already taken leaves it untouched, so a job started mid-pass is
// simply one the caller has already taken. The zero Ranking is empty.
type Ranking struct {
	// entries[lo:] are the ordered jobs not yet consumed, every one ranked
	// ahead of the tail.
	entries []Entry
	lo      int
	// unread is how many jobs of q's front no read has copied yet: all of
	// them from Pass until the first ordered read or Age, none after.
	unread int
	// window is what the last Window returned, at the front slots its jobs
	// sit in and, once Before has needed them, prio their priorities at
	// now, evaluated in one.
	window []Entry
	at     []int32
	prio   []float64
	one    [1]Slot
	// The tail is the rest: while pending > 0, that many dep-ready jobs
	// behind q's front, not yet gathered; after, the gathered copies in
	// tail, in no order.
	q        *Queue
	depsDone func(id int) bool
	now      int64
	front    int // the front the ranking was made with
	pending  int
	tail     []ranked
	// How far entries and tail have reached since Pass last cleared them:
	// Pass drops the job pointers up to there, so the pooled arrays never
	// keep long-finished jobs alive.
	entriesHW, tailHW int
}

// repairBudget bounds an ordering's insertion moves: past repairBudget
// single-slot moves per waiting job the front is scrambled, not drifting,
// and one sort finishes the job. Consecutive passes of a replay need a
// fraction of a move per job; a restored queue, a first pass, a front as
// deep as a scrambled queue or a clock set back lands here.
const repairBudget = 4

// Pass brings the queue's front up to date at now and returns the waiting
// jobs whose dependencies have all finished, in base order, as the
// queue's pooled ranking. front is how many of them the caller's window
// takes: the queue keeps the best front of them in its front, in no order,
// the rest in its tail until a caller reads past them. The tail's
// tournament is brought to now and its winner promoted while the front
// has room or it outranks the front's worst member. The front's priorities
// are evaluated only when something compares them: that swap test, when
// the winner ranks before the front's floor or none is held, or a read of
// the ranking that needs an order. Behind the front only the jobs
// compared or gathered are prioritized. Only a job that has dependencies
// is dereferenced. No allocation once the arrays have grown.
func (q *Queue) Pass(now int64, depsDone func(id int) bool, front int) *Ranking {
	front = max(front, 0)
	r := &q.rank
	clear(r.entries[:r.entriesHW])
	r.entries, r.lo, r.entriesHW = r.entries[:0], 0, 0
	clear(r.window)
	r.window, r.at, r.prio = r.window[:0], r.at[:0], r.prio[:0]
	clear(r.tail[:r.tailHW])
	r.tail, r.tailHW = r.tail[:0], 0
	q.checkDeps(depsDone)
	q.admit(now, depsDone, front)
	r.q, r.depsDone, r.now, r.front = q, depsDone, now, front
	r.unread, r.pending = q.front, q.tour.live
	return r
}

// Rank is Pass with the front ordered and copied into the ranking at once,
// as a pass that reads its window in order needs it.
func (q *Queue) Rank(now int64, depsDone func(id int) bool, front int) *Ranking {
	r := q.Pass(now, depsDone, front)
	r.orderFront()
	return r
}

// admit makes slots[:front] the best front dep-ready jobs, in no order:
// members whose dependencies no longer hold go to the tail, a front asked
// smaller is ordered and cut from its end, and then the tail's winner is
// promoted while the front has room, or put in place of the worst member
// while it outranks it. A winner that does not rank before the floor
// displaces nobody, and the pass ends there; otherwise the front's
// priorities are evaluated to find its worst member, which sets the floor,
// and the worst is found again after each swap. A front that must take in
// more jobs than a sort costs, or a tail shrunk to under a quarter of the
// tournament's width, whose paths the sort's rebuild shortens, is sorted
// once instead.
func (q *Queue) admit(now int64, depsDone func(id int) bool, front int) {
	q.dropBroken(depsDone)
	q.floored = q.floored && now >= q.floorAt
	worst := -1
	if q.front > front {
		if q.order(now, depsDone, front) {
			for q.front > front {
				q.demote(q.front-1, true)
			}
		}
		worst = q.front - 1
		q.setFloor(worst, now)
	}
	if n := len(q.slots); min(front-q.front, q.tour.live)*bits.Len(uint(n)) > n || q.tour.size > 16 && 4*(n-q.front) < q.tour.size {
		q.sortReady(now, depsDone, front)
		return
	}
	for q.tour.live > 0 {
		q.settle(now)
		w := q.tour.winner()
		s := q.leafSlot(w, now)
		if q.front == front {
			if front == 0 || worst < 0 && q.floored && !q.aboveFloor(s) {
				return
			}
			if worst < 0 {
				q.prioritize(now)
				worst = q.worst()
				q.setFloor(worst, now)
			}
			if !before(s, &q.slots[worst]) {
				return
			}
			q.demote(worst, true)
			worst = -1
		}
		q.promote(w, now)
		if last := q.front - 1; worst >= 0 {
			if before(&q.slots[worst], &q.slots[last]) {
				worst = last
			}
			if worst == last && q.front == front {
				// The newcomer is the front's worst and ranked before every
				// job still behind: the next settle can re-decide its path.
				return
			}
		}
	}
}

// dropBroken sends the front's members whose dependencies no longer hold
// to the tail. It reads only the slots' flags unless some member lists a
// dependency.
func (q *Queue) dropBroken(depsDone func(id int) bool) {
	for i, held := 0, 0; held < q.frontDeps && i < q.front; i++ {
		switch s := &q.slots[i]; {
		case !s.HasDeps:
		case depsReady(s.Job, depsDone):
			held++
		default:
			q.demote(i, false)
			i--
		}
	}
}

// prioritize evaluates at now the front's priorities that are not for now
// already. A job promoted at now holds its priority at now, so no job's is
// evaluated twice at one instant.
func (q *Queue) prioritize(now int64) {
	if q.frontAt != now {
		q.evaluate(0, q.fresh, now)
	}
	if q.freshAt != now {
		q.evaluate(q.fresh, q.front, now)
	}
	q.frontAt, q.fresh = now, q.front
}

// evaluate evaluates the priorities of slots[lo:hi] at now, but for those
// of the jobs Ranking.Before evaluated at now, which it copies in.
func (q *Queue) evaluate(lo, hi int, now int64) {
	if lo < hi {
		q.ordered = false
	}
	r := &q.rank
	at := r.at
	if r.now != now || len(r.prio) != len(at) {
		at = nil
	}
	k, _ := slices.BinarySearch(at, int32(lo))
	for lo < hi {
		end := hi
		if k < len(at) && int(at[k]) < hi {
			end = int(at[k])
		}
		if lo < end {
			q.policy.Prioritize(q.slots[lo:end], now)
			for i := lo; i < end; i++ {
				patchNaN(&q.slots[i])
			}
		}
		if end < hi {
			q.slots[end].Prio = r.prio[k]
			k, end = k+1, end+1
		}
		lo = end
	}
}

// prioAtFront returns the instant front slot i's priority is for,
// math.MinInt64 if unknown.
func (q *Queue) prioAtFront(i int) int64 {
	if i < q.fresh {
		return q.frontAt
	}
	return q.freshAt
}

// setFloor makes front slot worst's key, its priority at now, the floor,
// if the front has a worst member and every front job's priority rises.
func (q *Queue) setFloor(worst int, now int64) {
	if worst >= 0 && q.frontFalls == 0 {
		q.floor, q.floorAt, q.floored = markOf(&q.slots[worst]), now, true
	}
}

// worst returns the index of the front's worst member, -1 for an empty
// front.
func (q *Queue) worst() int {
	worst := -1
	for i := range q.slots[:q.front] {
		if worst < 0 || before(&q.slots[worst], &q.slots[i]) {
			worst = i
		}
	}
	return worst
}

// order puts the front in base order at now by insertion from the order it
// has, and reports whether it did: past repairBudget moves per waiting job
// it is sorted once instead (sortReady, which makes the best front
// dep-ready jobs the front afresh).
func (q *Queue) order(now int64, depsDone func(id int) bool, front int) bool {
	q.prioritize(now)
	if q.ordered {
		return true
	}
	budget := repairBudget * len(q.slots)
	for i := 1; i < q.front; i++ {
		if before(&q.slots[i], &q.slots[i-1]) {
			if budget -= sink(q.slots, i); budget < 0 {
				q.sortReady(now, depsDone, front)
				return false
			}
		}
	}
	q.ordered = true
	return true
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

// sortReady is the fallback: it prioritizes every job not yet prioritized
// at now, sorts the dep-ready ones once, makes the first front of them the
// front and builds the tail afresh from the rest. Every slot holds its
// job's age as a front slot does while the slots are sorted; rebuild gives
// the tail's jobs theirs back.
func (q *Queue) sortReady(now int64, depsDone func(id int) bool, front int) {
	q.sorts++
	q.prioritize(now)
	for i := q.front; i < len(q.slots); i++ {
		s := q.prioAt(i, now)
		s.leaf = q.tour.ids[s.ID].age - int32(q.passes) // as a front slot's, for now
	}
	slots := q.slots
	ready := 0
	for i := range slots {
		s := &slots[i]
		patchNaN(s)
		if !s.HasDeps || depsReady(s.Job, depsDone) {
			if ready != i {
				slots[ready], slots[i] = slots[i], slots[ready]
			}
			ready++
		}
	}
	slices.SortFunc(slots[:ready], compare)
	q.front = min(front, ready)
	q.rebuild(now, depsDone)
	q.frontAt, q.fresh, q.ordered = now, q.front, true
}

// ageAt returns slot i's window age.
func (q *Queue) ageAt(i int) int {
	s := &q.slots[i]
	if i < q.front {
		return int(s.leaf + int32(q.passes))
	}
	return int(q.tour.ids[s.ID].age)
}

// WindowAge returns waiting job id's window age, -1 if the job is not
// waiting.
func (q *Queue) WindowAge(id int) int {
	if i := q.find(id); i >= 0 {
		return q.ageAt(i)
	}
	return -1
}

// Len returns the number of ranked jobs not yet consumed.
func (r *Ranking) Len() int {
	return len(r.entries) - r.lo + r.unread + r.pending + len(r.tail)
}

// Window returns the jobs of the pass's window, the queue's front, that
// MayFit freeNodes and freeBB, in the order the front holds them, before
// the pass knows whether it needs the window's order: it reads only the
// front's entries, and none when no front job's node class fits
// freeNodes. Window takes nothing: the pass goes on to read the window in
// order (Front, Take) or ends it with Age. Before and WindowAge read the
// jobs it returned by index; the slice is the caller's until the queue is
// ranked again.
func (r *Ranking) Window(freeNodes int, freeBB int64) []Entry {
	q := r.q
	r.window, r.at, r.prio = r.window[:0], r.at[:0], r.prio[:0]
	if !q.frontMayFit(freeNodes) {
		return r.window
	}
	for i := range q.slots[:q.front] {
		if e := q.slots[i].Entry; e.MayFit(freeNodes, freeBB) {
			r.at = append(r.at, int32(i))
			r.window = append(r.window, e)
		}
	}
	return r.window
}

// frontMayFit reports whether the front holds a job whose node class's
// smallest member fits freeNodes: only such a job may pass MayFit.
func (q *Queue) frontMayFit(freeNodes int) bool {
	return q.frontCells&(2<<min(nodeClass(freeNodes), classes-1)-1) != 0
}

// FrontLen returns how many jobs the queue's front holds: the best
// FrontLen dep-ready jobs, the ones Window reads and AgeWindow ages. A
// ranking made with a front of f holds min(f, Len()) of them until a read
// consumes one.
func (r *Ranking) FrontLen() int { return r.q.front }

// Before reports whether the a-th job the last Window returned ranks
// before the b-th. The first call evaluates the priorities at now of the
// jobs Window returned, and only theirs.
func (r *Ranking) Before(a, b int) bool {
	if len(r.prio) < len(r.at) {
		r.evaluate()
	}
	if r.prio[a] != r.prio[b] {
		return r.prio[a] > r.prio[b]
	}
	ja, jb := r.window[a].Job, r.window[b].Job
	if ja.SubmitTime != jb.SubmitTime {
		return ja.SubmitTime < jb.SubmitTime
	}
	return ja.ID < jb.ID
}

// evaluate sets prio to the priorities at now of the jobs Window returned,
// evaluating, in the scratch slot one, those whose slot does not hold it
// already.
func (r *Ranking) evaluate() {
	q, one := r.q, r.one[:]
	for _, i := range r.at {
		one[0] = q.slots[i]
		if q.prioAtFront(int(i)) != r.now {
			q.policy.Prioritize(one, r.now)
			patchNaN(&one[0])
		}
		r.prio = append(r.prio, one[0].Prio)
	}
}

// WindowAge returns the window age of the a-th job the last Window
// returned.
func (r *Ranking) WindowAge(a int) int { return r.q.ageAt(int(r.at[a])) }

// AgeWindow ages by one pass every job the pass took off the front of the
// ranking in order (Front, Take, Next) — its window — but those in skip,
// the jobs it starts: the queue counts the pass for its front, and every
// other front job sits it out. A pass that read its window in order calls
// it once it knows what it starts.
func (r *Ranking) AgeWindow(skip []*job.Job) {
	q := r.q
	for i := range q.slots[:q.front] {
		if s := &q.slots[i]; i >= r.lo || slices.Contains(skip, s.Job) {
			s.leaf--
		}
	}
	q.passes++
}

// Age ends a pass that read its window only through Window and found no
// job in it but those in skip, which it starts, fits the machine alone. It
// takes the window off the ranking, and every job in it but skip ages by
// one pass, as AgeWindow ages them. Age returns what backfilling must walk
// ahead of the rest of the ranking: no window job fits what the pass
// leaves free, so only the best of them, for backfilling to reserve for.
// If no job behind the window MayFit freeNodes and freeBB either, none can
// start, whatever the reservation: Age empties the ranking and returns
// nothing. The slice is the ranking's, valid until the queue is ranked
// again.
func (r *Ranking) Age(skip []*job.Job, freeNodes int, freeBB int64) []Entry {
	q := r.q
	for k, e := range r.window {
		if slices.Contains(skip, e.Job) {
			q.slots[r.at[k]].leaf-- // sits the pass out
		}
	}
	q.passes++
	r.lo += q.front - r.unread // the window's jobs an ordered read copied
	r.unread = 0
	if !r.MayFit(freeNodes, freeBB) {
		r.pending, r.tail = 0, r.tail[:0]
		return nil
	}
	q.prioritize(r.now)
	best := -1
	for i := range q.slots[:q.front] {
		if s := &q.slots[i]; !slices.Contains(skip, s.Job) && (best < 0 || before(s, &q.slots[best])) {
			best = i
		}
	}
	if best < 0 {
		return nil
	}
	r.window = append(r.window[:0], q.slots[best].Entry)
	return r.window
}

// Aged appends to dst the window jobs a pass Age ended left behind, those
// not in skip, in base order, and returns the extended slice. It is that
// window's ordered read: it orders the queue's front. Backfilling needs
// none of it, only what Age returned; it is for a caller that wants every
// job left behind. It must come before anything changes the queue.
func (r *Ranking) Aged(dst []Entry, skip []*job.Job) []Entry {
	q := r.q
	q.order(r.now, r.depsDone, r.front)
	for i := range q.slots[:q.front] {
		if s := &q.slots[i]; !slices.Contains(skip, s.Job) {
			dst = append(dst, s.Entry)
		}
	}
	return dst
}

// MayFit reports whether some job left in the ranking passes MayFit for
// freeNodes and freeBB. In the front and behind it, it reads only the
// node classes that may hold such a job, and stops at the first.
func (r *Ranking) MayFit(freeNodes int, freeBB int64) bool {
	fits := func(e Entry) bool { return e.MayFit(freeNodes, freeBB) }
	if slices.ContainsFunc(r.entries[r.lo:], fits) {
		return true
	}
	q := r.q
	if r.unread > 0 && q.frontMayFit(freeNodes) {
		for i := range r.unread {
			if fits(q.slots[i].Entry) {
				return true
			}
		}
	}
	if r.pending == 0 {
		return slices.ContainsFunc(r.tail, func(g ranked) bool { return fits(g.Entry) })
	}
	for i, hi := q.front, q.readable(freeNodes); i < hi; i++ {
		if s := &q.slots[i]; s.MayFit(freeNodes, freeBB) && (!s.HasDeps || depsReady(s.Job, r.depsDone)) {
			return true
		}
	}
	return false
}

// orderFront orders the queue's front the first time a read needs it, and
// copies it into the ranking.
func (r *Ranking) orderFront() {
	q := r.q
	q.order(r.now, r.depsDone, r.front)
	for i := range q.slots[:q.front] {
		r.entries = append(r.entries, q.slots[i].Entry)
	}
	r.entriesHW = max(r.entriesHW, len(r.entries))
	r.unread = 0
}

// Front pops up to size entries off the front of the ranking, in base
// order; reaching past the ordered entries sorts the rest once. The slice
// aliases the ranking's storage, which no later call on the ranking reads
// or writes: it is the caller's, to reorder or compact, until the queue is
// ranked again.
func (r *Ranking) Front(size int) []Entry {
	if r.unread > 0 {
		r.orderFront()
	}
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
	if r.unread > 0 {
		r.orderFront()
	}
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

// Cut is part of a Prune's keep test that the queue can apply itself: keep
// rejects every job whose span — walltime estimate plus stage-out — is
// above Span unless its entry asks for at most Nodes nodes. EASY's test is
// one: a job it keeps fits now and either ends by the head's shadow time,
// span ≤ shadow − now, or fits the leftover at that time.
type Cut struct {
	Span  int64
	Nodes int
}

// none is the cut that rejects nothing.
var none = Cut{Span: math.MaxInt64, Nodes: math.MaxInt}

// Prune drops every remaining job that cannot fit freeNodes free nodes and
// freeBB free burst buffer (Entry.MayFit, tested without touching the job)
// or that keep rejects; keep is asked only about the jobs MayFit passes,
// with their entries, so it can test more flat totals before it loads a
// job. Made before anything reads past the queue's front, it is the
// gather: only the jobs it keeps are copied. Given a cut (at most one),
// the part of keep's test the queue applies itself, the gather reads only
// the tail's cells that may hold a job the cut does not reject, and keep
// still decides every job it reads; a later Prune reads the gathered jobs
// only.
func (r *Ranking) Prune(freeNodes int, freeBB int64, keep func(Entry) bool, cut ...Cut) {
	if r.unread > 0 {
		r.orderFront()
	}
	w := r.lo
	for _, e := range r.entries[r.lo:] {
		if e.MayFit(freeNodes, freeBB) && keep(e) {
			r.entries[w] = e
			w++
		}
	}
	r.entries = r.entries[:w]
	if r.pending > 0 {
		c := none
		if len(cut) > 0 {
			c = cut[0]
		}
		r.gather(freeNodes, freeBB, c, keep)
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
// that MayFit, cut and keep pass (every one when keep is nil), with their
// priorities. It reads only the cells that may hold a job the cut does not
// reject, in the node classes that may hold a job of at most freeNodes
// nodes: all of a class whose smallest member fits the cut's nodes, and of
// any other only the span classes up to the cut's span. The jobs taken
// since Pass are front jobs, whose Remove leaves that set as it was.
func (r *Ranking) gather(freeNodes int, freeBB int64, cut Cut, keep func(Entry) bool) {
	q := r.q
	sc, nc := int(spanClass(cut.Span)), nodeClass(cut.Nodes)
	for c, top := q.low, min(q.top, nodeClass(freeNodes)+1); c < top; c++ {
		lo, hi := q.start(c), q.cut[c]
		if c > nc {
			hi = lo + q.cellStart(c, sc+1)
		}
		for i := lo; i < hi; i++ {
			s := &q.slots[i]
			if !s.MayFit(freeNodes, freeBB) || s.HasDeps && !depsReady(s.Job, r.depsDone) {
				continue
			}
			if keep == nil || keep(s.Entry) {
				r.tail = append(r.tail, ranked{s.Entry, q.prioAt(i, r.now).Prio})
			}
		}
	}
	r.pending = 0
	r.tailHW = max(r.tailHW, len(r.tail))
}

// order moves the tail behind the ordered entries, sorted once, gathering
// it first if nothing has.
func (r *Ranking) order() {
	if r.pending > 0 {
		r.gather(math.MaxInt, math.MaxInt64, none, nil)
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
