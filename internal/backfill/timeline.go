package backfill

// This file holds Timeline and Planner: the persistent, incrementally
// maintained release timeline and the pooled planning pass built on it.
// The simulator owns one Timeline for the whole run — job starts insert
// entries, completions remove them — so a scheduling pass no longer
// copies and re-sorts the running set, and one Planner whose scratch
// buffers make the steady-state pass allocation-free. The Planner reads
// the queue as a queue.Ranking — the same one the window pass took its
// window from — and takes the jobs behind the window best-first from what
// its prune keeps, so a pass orders only the jobs it starts, and tests
// each entry's two flat demands against the free totals before it touches
// the job.
// Plan (backfill.go) remains the straightforward reference implementation
// the fuzz suite compares against.

import (
	"fmt"
	"sort"

	"bbsched/internal/cluster"
	"bbsched/internal/job"
	"bbsched/internal/queue"
)

// Timeline is a release list kept permanently sorted in canonical order
// (releaseLess: time, then job ID). Insert and Remove are an O(log R)
// binary search plus one shifted copy in a reused buffer, replacing the
// per-pass rebuild + full sort of the running set.
type Timeline struct {
	entries []Running
}

// Len returns the number of pending release entries.
func (tl *Timeline) Len() int { return len(tl.entries) }

// Entries exposes the sorted entries; callers must not mutate them.
func (tl *Timeline) Entries() []Running { return tl.entries }

// Reset empties the timeline, keeping its storage.
func (tl *Timeline) Reset() { tl.entries = tl.entries[:0] }

// Insert adds r, keeping canonical order. The (ReleaseTime, JobID) key
// must be unique (one job never releases two entry sets at one instant).
func (tl *Timeline) Insert(r Running) {
	pos := sort.Search(len(tl.entries), func(i int) bool { return releaseLess(r, tl.entries[i]) })
	tl.entries = append(tl.entries, Running{})
	copy(tl.entries[pos+1:], tl.entries[pos:])
	tl.entries[pos] = r
}

// Remove deletes the entry with the exact (releaseTime, jobID) key,
// reporting whether it was present.
func (tl *Timeline) Remove(releaseTime int64, jobID int) bool {
	key := Running{ReleaseTime: releaseTime, JobID: jobID}
	pos := sort.Search(len(tl.entries), func(i int) bool { return !releaseLess(tl.entries[i], key) })
	if pos >= len(tl.entries) || tl.entries[pos].ReleaseTime != releaseTime || tl.entries[pos].JobID != jobID {
		return false
	}
	copy(tl.entries[pos:], tl.entries[pos+1:])
	tl.entries[len(tl.entries)-1] = Running{} // drop slice aliases
	tl.entries = tl.entries[:len(tl.entries)-1]
	return true
}

// Planner runs EASY planning passes against a Timeline with pooled
// scratch: the per-pass working copy of the timeline, the free / shadow /
// reservation snapshots, the phase-1 placement arena, and the result
// slice are all reused across calls. A Planner is not safe for concurrent
// use, and the slice returned by Plan is valid only until the next call.
type Planner struct {
	free, work cluster.Snapshot
	releases   []Running
	started    []*job.Job
	nodeArena  []int
	allocBuf   []int
	ahead      []queue.Entry // Plan's ordered slice as entries
	none       queue.Ranking // the empty ranking behind it

	// The pass's instant and, once phase 1 has found the reservation
	// head, its shadow time; work then holds the shadow-time leftover.
	now, shadow int64
	// free's and work's node totals, kept current through phase 2.
	freeNodes, workNodes int
}

// Plan is PlanRanked over a queue the caller has already put in
// base-priority order (dependency-blocked jobs filtered out).
func (p *Planner) Plan(snap cluster.Snapshot, tl *Timeline, waiting []*job.Job, now int64) []*job.Job {
	p.ahead = p.ahead[:0]
	for _, j := range waiting {
		p.ahead = append(p.ahead, queue.EntryOf(j))
	}
	return p.PlanRanked(snap, tl, p.ahead, &p.none, now)
}

// PlanRanked is the EASY planning pass of the package doc, semantically
// identical to the reference Plan but reading the persistent timeline
// and allocating (amortized) nothing. The queue arrives as ahead — jobs
// already in base order, all ranked before anything in rest (the window
// jobs a pass left behind) — followed by the ranking rest.
//
// Phase 1 pops heads while they fit; the first that does not becomes the
// reservation head. Phase 2 starts later jobs only if they fit now and
// either complete before the head's shadow time or fit inside the
// shadow-time leftover. After the window jobs left behind, phase 2 prunes
// rest to the jobs that pass that test now and takes them best-first
// (queue.Ranking.Next), pruning again after each start: free and leftover
// only shrink while phase 2 runs and Snapshot.CanFit is monotone in free
// resources, so a job that fails now fails at its turn too, and the best
// survivor is the next job the reference walk would start. Only jobs that
// start are ever ordered. Each prune hands the queue the part of that test
// it can apply on its own (queue.Cut): a job must end by the shadow time,
// span ≤ shadow − now, or ask for at most the leftover's nodes. The first
// prune gathers the rest of the queue and reads only the (node class,
// span class) cells that may hold such a job; mayBackfill still decides
// every job the gather reads.
//
// Every phase-2 fit question is first put to the entry (queue.Entry.MayFit
// against the free node and burst-buffer totals, refreshed after each
// start): most of a deep queue cannot fit a nearly full machine, and is
// rejected on two integers without the job being loaded. MayFit is only
// necessary for CanFit — an SSD-class or extra-dimension shortfall passes
// it — so CanFit and AllocInto still decide every job it lets through and
// the plan is the reference Plan's, job for job.
func (p *Planner) PlanRanked(snap cluster.Snapshot, tl *Timeline, ahead []queue.Entry, rest *queue.Ranking, now int64) []*job.Job {
	p.started = p.started[:0]
	if len(ahead) == 0 && rest.Len() == 0 {
		return nil
	}
	p.free.CopyFrom(snap)
	p.releases = append(p.releases[:0], tl.entries...)
	p.nodeArena = p.nodeArena[:0]
	if n := p.free.NumClasses(); cap(p.allocBuf) < n {
		p.allocBuf = make([]int, n)
	}
	p.now = now

	// Phase 1: start heads in priority order while they fit outright.
	var head *job.Job
	for {
		var j *job.Job
		if len(ahead) > 0 {
			j, ahead = ahead[0].Job, ahead[1:]
		} else if e, ok := rest.Next(); ok {
			j = e.Job
		} else {
			return p.started
		}
		placed, err := p.free.AllocInto(j.Demand, p.arenaBuf(p.free.NumClasses()))
		if err != nil {
			head = j
			break
		}
		p.started = append(p.started, j)
		end := now + j.WalltimeEst
		if j.StageOutSec > 0 {
			p.insertScratch(Running{ReleaseTime: end, JobID: j.ID, NodesByClass: placed.NodesByClass, Extra: placed.Extra})
			p.insertScratch(Running{ReleaseTime: end + j.StageOutSec, JobID: j.ID, BB: j.Demand.BB()})
		} else {
			p.insertScratch(Running{ReleaseTime: end, JobID: j.ID, NodesByClass: placed.NodesByClass, BB: j.Demand.BB(), Extra: placed.Extra})
		}
	}

	// Phase 2: reserve for the head, then backfill behind the reservation.
	var ok bool
	if p.shadow, ok = p.reservation(head.Demand); !ok {
		// The head cannot fit even once everything drains — it is bigger
		// than the machine. Workload validation prevents this; be safe.
		return p.started
	}
	p.freeNodes, p.workNodes = p.free.FreeNodes(), p.work.FreeNodes()
	for _, e := range ahead {
		if e.MayFit(p.freeNodes, p.free.FreeBB) {
			p.backfill(e)
		}
	}
	rest.Prune(p.freeNodes, p.free.FreeBB, p.mayBackfill, p.cut())
	for e, ok := rest.Next(); ok; e, ok = rest.Next() {
		if p.backfill(e) {
			rest.Prune(p.freeNodes, p.free.FreeBB, p.mayBackfill, p.cut())
		}
	}
	return p.started
}

// mayBackfill reports whether e's job fits now and either completes
// before the head's shadow time or fits inside the shadow-time leftover.
// It asks the cheapest test that can say no first: the shadow time, the
// entry against the leftover's node and burst-buffer totals, the leftover,
// and what is free last.
func (p *Planner) mayBackfill(e queue.Entry) bool {
	j := e.Job
	if !p.endsBeforeShadow(j) && (!e.MayFit(p.workNodes, p.work.FreeBB) || !p.work.CanFit(j.Demand)) {
		return false
	}
	return p.free.CanFit(j.Demand)
}

// cut is the part of mayBackfill the queue applies itself: a job that
// neither ends by the shadow time nor asks for at most the leftover's nodes
// is rejected.
func (p *Planner) cut() queue.Cut {
	return queue.Cut{Span: p.shadow - p.now, Nodes: p.workNodes}
}

// endsBeforeShadow reports whether j, started now, has released everything
// by the head's shadow time. A staging-out job holds burst buffer past its
// walltime; it counts as done only once that is released too (conservative
// for the node dimension, safe for the head's reservation).
func (p *Planner) endsBeforeShadow(j *job.Job) bool {
	return p.now+j.WalltimeEst+j.StageOutSec <= p.shadow
}

// backfill starts e's job behind the reservation if it may, reporting
// whether it did. Its callers have put e to MayFit against the free
// totals as they stand: phase 2 inline, for each window job left behind,
// and the Prune that kept it, for the rest.
func (p *Planner) backfill(e queue.Entry) bool {
	if !p.mayBackfill(e) {
		return false
	}
	j := e.Job
	if _, err := p.free.AllocInto(j.Demand, p.allocBuf); err != nil {
		return false
	}
	p.freeNodes -= j.Demand.NodeCount()
	if !p.endsBeforeShadow(j) {
		// Runs past the shadow: consume the head's leftover too.
		if _, err := p.work.AllocInto(j.Demand, p.allocBuf); err != nil {
			// mayBackfill makes this unreachable; keep state exact.
			return false
		}
		p.workNodes -= j.Demand.NodeCount()
	}
	p.started = append(p.started, j)
	return true
}

// reservation computes the head job's shadow time — the earliest instant
// the head fits as planned releases replay — and leaves in p.work the
// leftover free resources at that instant after setting the head's
// reservation aside.
func (p *Planner) reservation(head job.Demand) (shadow int64, ok bool) {
	p.work.CopyFrom(p.free)
	for k := range p.releases {
		r := &p.releases[k]
		for c, n := range r.NodesByClass {
			p.work.FreeByClass[c] += n
		}
		p.work.FreeBB += r.BB
		for e, v := range r.Extra {
			p.work.FreeExtra[e] += v
		}
		if p.work.CanFit(head) {
			if _, err := p.work.AllocInto(head, p.allocBuf); err != nil {
				return 0, false
			}
			return r.ReleaseTime, true
		}
	}
	return 0, false
}

// insertScratch keeps the pass's working release copy in canonical order,
// reusing its capacity across passes.
func (p *Planner) insertScratch(r Running) {
	p.releases = insertRelease(p.releases, r)
}

// arenaBuf carves an n-int zeroed placement buffer out of the pass arena.
// Phase-1 placements live in release entries for the rest of the pass, so
// they cannot share one scratch buffer; the arena gives each its own
// storage without per-placement allocations once its capacity has grown.
// (If append reallocates, earlier carved slices keep the old backing
// array — they are never written again, so staying there is safe.)
func (p *Planner) arenaBuf(n int) []int {
	base := len(p.nodeArena)
	for k := 0; k < n; k++ {
		p.nodeArena = append(p.nodeArena, 0)
	}
	return p.nodeArena[base : base+n : base+n]
}

// NewTimelineFrom builds a canonical-order timeline from an unsorted
// running set — the reference construction the fuzz suite uses.
func NewTimelineFrom(running []Running) *Timeline {
	tl := &Timeline{entries: append([]Running(nil), running...)}
	sort.Slice(tl.entries, func(i, j int) bool { return releaseLess(tl.entries[i], tl.entries[j]) })
	return tl
}

// CheckInvariant verifies canonical ordering and key uniqueness; tests
// call it after random operation sequences.
func (tl *Timeline) CheckInvariant() error {
	for i := 1; i < len(tl.entries); i++ {
		if !releaseLess(tl.entries[i-1], tl.entries[i]) {
			return fmt.Errorf("backfill: timeline out of order at %d: %+v !< %+v",
				i, tl.entries[i-1], tl.entries[i])
		}
	}
	return nil
}
