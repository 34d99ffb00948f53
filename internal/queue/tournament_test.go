package queue

import (
	"fmt"
	"maps"
	"math"
	"slices"
	"testing"

	"bbsched/internal/job"
	"bbsched/internal/rng"
)

// tieJob draws a job from keys built to collide: equal submit times, the
// pair nodes 8/est 200 and nodes 1/est 100 (one WFP line, so their
// priorities tie in real arithmetic but may not in float), jobs asking for
// no node, estimates ≤ 0, submit times past the clock, and now and then a
// dependency on one of 1000..1003.
func tieJob(r *rng.Stream, id int, now int64) *job.Job {
	keys := [...]struct{ nodes, est int64 }{{8, 200}, {1, 100}, {0, 100}, {3, 0}, {5, -7}, {27, 300}, {1, 1}}
	k := keys[r.Intn(len(keys))]
	j := &job.Job{
		ID:          id,
		SubmitTime:  now - int64(r.Intn(4))*50 + int64(r.Intn(3)-1)*int64(r.Intn(2))*7,
		WalltimeEst: k.est,
		Runtime:     50,
		Demand:      job.NewDemand(int(k.nodes), int64(r.Intn(3))*100, 0),
	}
	if r.Bool(0.1) {
		j.Deps = []int{1000 + r.Intn(4)}
	}
	return j
}

// settledCopy returns a copy of q sharing nothing the tournament or the
// slots write, so that an oracle can settle it without touching q.
func settledCopy(q *Queue, now int64, depsDone func(int) bool) *Queue {
	c := *q
	c.slots = slices.Clone(q.slots)
	c.tour.node = slices.Clone(q.tour.node)
	c.tour.leaves = slices.Clone(q.tour.leaves)
	c.tour.free = slices.Clone(q.tour.free)
	c.tour.freed = slices.Clone(q.tour.freed)
	c.tour.deps = slices.Clone(q.tour.deps)
	c.tour.ids = maps.Clone(q.tour.ids)
	c.rank = Ranking{}
	c.checkDeps(depsDone)
	c.settle(now)
	return &c
}

// checkWinner requires the tournament, brought to now on a copy of q as
// the next Rank would bring it, to name the best dep-ready job behind the
// front by before, each priority evaluated afresh. q itself is left as it
// was, stale paths, freed leaves and all.
func checkWinner(t *testing.T, q *Queue, now int64, depsDone func(int) bool, label string) {
	t.Helper()
	q = settledCopy(q, now, depsDone)
	var best *Slot
	for i := q.front; i < len(q.slots); i++ {
		s := SlotOf(q.slots[i].Job)
		if s.HasDeps && !depsReady(s.Job, depsDone) {
			continue
		}
		one := []Slot{s}
		q.policy.Prioritize(one, now)
		patchNaN(&one[0])
		if best == nil || before(&one[0], best) {
			best = &one[0]
		}
	}
	w := q.tour.winner()
	switch {
	case best == nil && w >= 0:
		t.Fatalf("%s: tournament names job %d behind an empty tail", label, q.slots[q.tour.leaves[w].pos].ID)
	case best != nil && w < 0:
		t.Fatalf("%s: tournament names nobody, best is job %d", label, best.ID)
	case best != nil && q.slots[q.tour.leaves[w].pos].ID != best.ID:
		t.Fatalf("%s: tournament names job %d, best is job %d", label, q.slots[q.tour.leaves[w].pos].ID, best.ID)
	}
}

// FuzzTailTournament drives random Add, Remove and Rank sequences over
// clocks that advance, repeat and go back, for FCFS, WFP, Multifactor and
// reversing, on keys built to tie (tieJob). After every step a copy of
// the queue, settled as the next Rank would settle it, must name the
// brute-force best job behind the front, and after every Rank the front
// must be the first dep-ready jobs of Sorted. The oracle leaves the queue
// alone, so jobs added between Ranks, stale paths and freed leaves reach
// the next Rank as they do in the engine. Short inputs are padded from the seed, so the seed corpus alone
// runs long sequences.
func FuzzTailTournament(f *testing.F) {
	for seed := uint64(0); seed < 8; seed++ {
		f.Add(seed, []byte{})
	}
	f.Add(uint64(3), []byte{7, 0, 0, 8, 12, 3, 6, 6, 15, 7, 1, 2, 31, 15})
	policies := []Policy{FCFS{}, WFP{}, Multifactor{MachineNodes: 64, MaxAgeSec: 300}, reversing{}}
	f.Fuzz(func(t *testing.T, seed uint64, ops []byte) {
		r := rng.New(seed)
		for len(ops) < 400 {
			ops = append(ops, byte(r.Intn(256)))
		}
		pol := policies[seed%uint64(len(policies))]
		q := New(pol)
		waiting := map[int]*job.Job{}
		nextID, doneBelow, now := 1, 1001, int64(1000)
		depsDone := func(id int) bool { return id < doneBelow }
		for step, op := range ops {
			label := fmt.Sprintf("%s step %d (op %d, now %d, n %d)", pol.Name(), step, op, now, q.Len())
			switch arg := int64(op >> 3); op & 7 {
			case 0, 1, 2:
				j := tieJob(r, nextID, now)
				nextID++
				if err := q.Add(j); err != nil {
					t.Fatal(err)
				}
				waiting[j.ID] = j
			case 3:
				if len(waiting) > 0 {
					id := pickAny(r, waiting)
					if err := q.Remove(id); err != nil {
						t.Fatal(err)
					}
					delete(waiting, id)
				}
			case 4:
				now += arg
			case 5:
				now -= arg % 8 // the clock goes back
			case 6:
				doneBelow = 1001 + int(arg%4)
			case 7:
				front := frontFor(r, testFronts[int(arg)%len(testFronts)], q.Len())
				q.Rank(now, depsDone, front)
				want := refWindow(q.Sorted(now), front, depsDone)
				if got := slotIDs(q.slots[:q.front]); fmt.Sprint(got) != fmt.Sprint(jobIDs(want)) {
					t.Fatalf("%s: front %v, reference %v", label, got, jobIDs(want))
				}
			}
			checkInvariant(t, q)
			checkWinner(t, q, now, depsDone, label)
		}
	})
}

// TestOvertakeNeverLate pins the Overtaker contract: over random pairs of
// keys (ties in real arithmetic, zero nodes, estimates ≤ 0, submit times
// past the clock), the first job, ordered before the second now, stays so
// at every instant before the one Overtake names — checked second by
// second near now and at spread instants up to it.
func TestOvertakeNeverLate(t *testing.T) {
	policies := []Policy{FCFS{}, WFP{}, Multifactor{}, Multifactor{MachineNodes: 64, MaxAgeSec: 300}, Multifactor{AgeWeight: 3, SizeWeight: 0.7, MaxAgeSec: 1000, MachineNodes: 4392}}
	r := rng.New(77)
	trials := 4000
	if testing.Short() {
		trials = 1000
	}
	prio := func(pol Policy, j *job.Job, at int64) Slot {
		s := []Slot{SlotOf(j)}
		pol.Prioritize(s, at)
		patchNaN(&s[0])
		return s[0]
	}
	for _, pol := range policies {
		over := pol.(Overtaker)
		for trial := 0; trial < trials; trial++ {
			now := int64(r.Intn(5000))
			a, b := tieJob(r, 1, now), tieJob(r, 2, now)
			if r.Bool(0.5) {
				a.Demand.Set(job.Nodes, int64(1+r.Intn(4392)))
				a.WalltimeEst = int64(r.Intn(90000))
				a.SubmitTime = now - int64(r.Intn(100000))
			}
			sa, sb := prio(pol, a, now), prio(pol, b, now)
			if before(&sb, &sa) {
				a, b, sa, sb = b, a, sb, sa
			}
			until := over.Overtake(&sa, &sb, now)
			if until <= now {
				t.Fatalf("%s: Overtake(%+v, %+v, %d) = %d, not after now", pol.Name(), sa.Key, sb.Key, now, until)
			}
			check := func(at int64) {
				pa, pb := prio(pol, a, at), prio(pol, b, at)
				if !before(&pa, &pb) {
					t.Fatalf("%s: job %+v was ahead of %+v at %d until %d, but not at %d (%v vs %v)",
						pol.Name(), sa.Key, sb.Key, now, until, at, pa.Prio, pb.Prio)
				}
			}
			last := until - 1
			if until == math.MaxInt64 {
				last = now + 1<<40
			}
			for at := now; at <= min(last, now+300); at++ {
				check(at)
			}
			for k := int64(1); k <= 64; k++ {
				check(now + (last-now)/64*k)
			}
			check(last)
		}
	}
}
