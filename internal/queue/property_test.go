package queue

import (
	"fmt"
	"math"
	"sort"
	"testing"
	"unsafe"

	"bbsched/internal/job"
	"bbsched/internal/rng"
)

// TestWFPPriorityNoNaN is the regression test for the 0/0 priority bug:
// a job with WalltimeEst == 0 (impossible via the validating constructors
// but representable on a hand-built Job) used to yield NaN at wait == 0
// and +Inf afterwards, leaning on Sorted's NaN→0 patch-up. The guard
// clamps the estimate to one second, so the priority is finite — and zero
// at zero wait — on its own.
func TestWFPPriorityNoNaN(t *testing.T) {
	j := &job.Job{ID: 1, SubmitTime: 100, WalltimeEst: 0, Demand: job.NewDemand(4, 0, 0)}
	p := WFP{}
	if got := priorityOf(p, j, 100); got != 0 {
		t.Fatalf("wait=0, est=0: priority = %v, want 0", got)
	}
	for _, now := range []int64{0, 100, 101, 1000} {
		got := priorityOf(p, j, now)
		if math.IsNaN(got) || math.IsInf(got, 0) {
			t.Fatalf("est=0, now=%d: priority = %v, want finite", now, got)
		}
	}
	// Valid estimates are untouched: the clamp only fires for est <= 0.
	valid := &job.Job{ID: 2, SubmitTime: 0, WalltimeEst: 1000, Demand: job.NewDemand(8, 0, 0)}
	if got, want := priorityOf(p, valid, 1000), 8.0; got != want {
		t.Fatalf("valid job priority = %v, want %v", got, want)
	}
}

// TestPolicyKeyMatchesJobFormula pins the slot-based policies, bit for
// bit, to the job-based formulas they replaced (kept here): same float
// operations in the same order, on the edges where a reordering would
// show — now before submit, a zero or negative estimate, one node and
// job.MaxDemand nodes, waits up to 1e9 s, the age factor at saturation.
func TestPolicyKeyMatchesJobFormula(t *testing.T) {
	wfp := func(j *job.Job, now int64) float64 {
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
	multifactor := func(m Multifactor) func(*job.Job, int64) float64 {
		return func(j *job.Job, now int64) float64 {
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
	}
	mf, mfTuned := Multifactor{}, Multifactor{AgeWeight: 3, SizeWeight: 0.7, MaxAgeSec: 1000, MachineNodes: 4392}
	cases := []struct {
		pol Policy
		ref func(*job.Job, int64) float64
	}{
		{FCFS{}, func(*job.Job, int64) float64 { return 0 }},
		{WFP{}, wfp},
		{mf, multifactor(mf)},
		{mfTuned, multifactor(mfTuned)},
	}
	var jobs []*job.Job
	for _, nodes := range []int64{1, 3, 4392, job.MaxDemand} {
		for _, est := range []int64{-5, 0, 1, 7, 3600, 86400} {
			for _, submit := range []int64{0, 999, 1_000_000_000} {
				jobs = append(jobs, &job.Job{ID: len(jobs), SubmitTime: submit, WalltimeEst: est, Demand: job.Demand{Res: []int64{nodes, 50, 0}}})
			}
		}
	}
	slots := make([]Slot, len(jobs))
	for _, c := range cases {
		for _, now := range []int64{-10, 0, 998, 999, 1000, 1999, 2000, 604800, 604801, 1_000_000_000, 2_000_000_000} {
			for i, j := range jobs {
				slots[i] = SlotOf(j)
			}
			c.pol.Prioritize(slots, now)
			for i, j := range jobs {
				if got, want := slots[i].Prio, c.ref(j, now); math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("%s, now %d, job %+v: slot priority %v (%#x), job formula %v (%#x)",
						c.pol.Name(), now, *j, got, math.Float64bits(got), want, math.Float64bits(want))
				}
			}
		}
	}
}

// TestSlotAndEntrySizes pins the two numbers a deep queue's memory scales
// with — a slot per waiting job, an entry per ranked job — and that an
// entry's clamped demands still never make the prefilter reject a job
// whose exact demands would pass.
func TestSlotAndEntrySizes(t *testing.T) {
	if n := unsafe.Sizeof(Slot{}); n > 64 {
		t.Errorf("a Slot is %d bytes, want at most 64 (one cache line)", n)
	}
	if n := unsafe.Sizeof(Entry{}); n > 24 {
		t.Errorf("an Entry is %d bytes, want at most 24", n)
	}
	huge := EntryOf(&job.Job{Demand: job.Demand{Res: []int64{job.MaxDemand, job.MaxDemand}}})
	if !huge.MayFit(math.MaxInt, math.MaxInt64) {
		t.Error("a job.MaxDemand entry is rejected by a machine that holds it")
	}
	if huge.MayFit(1<<20, 1<<20) {
		t.Error("a clamped entry fits a machine smaller than its clamp")
	}
	for _, d := range []job.Demand{{}, {Res: []int64{0, 0}}, {Res: []int64{-3, -7}}} {
		if !EntryOf(&job.Job{Demand: d}).MayFit(0, 0) {
			t.Errorf("demand %v: the prefilter rejects what it must leave to CanFit", d)
		}
	}
}

// TestCheckInvariantCatches shows the invariant has teeth: a job edited
// while it waits (the stale copy Add's contract forbids), a job waiting
// twice, a front out of base order after a Rank and a front longer than
// the queue are each reported.
func TestCheckInvariantCatches(t *testing.T) {
	build := func(pol Policy) *Queue {
		q := New(pol)
		for id := 1; id <= 4; id++ {
			if err := q.Add(mkJob(id, int64(id), id, 100)); err != nil {
				t.Fatal(err)
			}
		}
		q.Rank(500, func(int) bool { return true }, 3)
		checkInvariant(t, q)
		return q
	}
	for name, corrupt := range map[string]func(q *Queue){
		"stale key":          func(q *Queue) { q.slots[1].Job.WalltimeEst++ },
		"stale entry":        func(q *Queue) { q.slots[1].Job.Demand.Set(job.BurstBufferGB, 9) },
		"waits twice":        func(q *Queue) { q.slots = append(q.slots, q.slots[2]) },
		"front out of order": func(q *Queue) { q.slots[1], q.slots[2] = q.slots[2], q.slots[1] },
		"front past its end": func(q *Queue) { q.front = len(q.slots) + 1 },
	} {
		for _, pol := range []Policy{FCFS{}, WFP{}} {
			q := build(pol)
			corrupt(q)
			if q.CheckInvariant() == nil {
				t.Errorf("%s, %s: CheckInvariant found nothing", pol.Name(), name)
			}
		}
	}
}

// TestAddRemoveErrors pins the two error texts callers (the simulator's
// restore path among them) wrap.
func TestAddRemoveErrors(t *testing.T) {
	q := New(WFP{})
	if err := q.Add(mkJob(7, 0, 1, 10)); err != nil {
		t.Fatal(err)
	}
	if err := q.Add(mkJob(7, 5, 2, 20)); err == nil || err.Error() != "queue: job 7 already waiting" {
		t.Errorf("duplicate Add: %v", err)
	}
	if _, err := q.Remove(8); err == nil || err.Error() != "queue: job 8 not waiting" {
		t.Errorf("Remove of an absent job: %v", err)
	}
	if q.Len() != 1 || !q.Contains(7) {
		t.Error("a rejected Add or Remove changed the queue")
	}
}

// indexedQueueOracle mirrors a Queue's contents for the property test.
type indexedQueueOracle struct {
	jobs map[int]*job.Job
}

// TestIndexMatchesSortedReference is the property suite pinning the
// incremental order index against the reference Sorted implementation:
// random add/remove sequences with advancing (and repeating) clocks,
// random dependency sets, heavy priority/submit-time collisions to
// exercise tie-breaks, across all three policies. After every mutation
// the index's WindowInto must equal filter(Sorted)[:k] for several k,
// including the full dep-ready extraction the backfill pass uses.
func TestIndexMatchesSortedReference(t *testing.T) {
	policies := []Policy{
		FCFS{},
		WFP{},
		Multifactor{MachineNodes: 64},
	}
	for _, pol := range policies {
		t.Run(pol.Name(), func(t *testing.T) {
			r := rng.New(uint64(7 + len(pol.Name())))
			trials := 60
			if testing.Short() {
				trials = 20
			}
			for trial := 0; trial < trials; trial++ {
				q := New(pol)
				oracle := &indexedQueueOracle{jobs: map[int]*job.Job{}}
				done := map[int]bool{}
				depsDone := func(id int) bool { return done[id] }
				nextID := 1
				now := int64(0)
				for op := 0; op < 150; op++ {
					switch {
					case len(oracle.jobs) > 0 && r.Bool(0.35):
						// Remove a random waiting job.
						victim := pickAny(r, oracle.jobs)
						if _, err := q.Remove(victim); err != nil {
							t.Fatalf("trial %d: remove %d: %v", trial, victim, err)
						}
						delete(oracle.jobs, victim)
						done[victim] = r.Bool(0.7) // some removed jobs "finish"
					default:
						// Add a job with heavy key collisions: few distinct
						// submit times, sizes, and walltimes.
						j := &job.Job{
							ID:          nextID,
							SubmitTime:  int64(r.Intn(5)) * 10,
							WalltimeEst: []int64{100, 100, 500, 0}[r.Intn(4)],
							Runtime:     50,
							Demand:      job.NewDemand(1+r.Intn(4)*7, int64(r.Intn(3))*100, 0),
						}
						if r.Bool(0.25) { // random dependencies, some unmet
							j.Deps = []int{1 + r.Intn(nextID)}
						}
						nextID++
						if err := q.Add(j); err != nil {
							t.Fatalf("trial %d: add %d: %v", trial, j.ID, err)
						}
						oracle.jobs[j.ID] = j
						// Double-adds must be rejected without corrupting
						// the index.
						if err := q.Add(j); err == nil {
							t.Fatalf("trial %d: double add of %d accepted", trial, j.ID)
						}
					}
					// The clock mostly advances but sometimes repeats —
					// time-varying priorities must be recomputed per call.
					if r.Bool(0.7) {
						now += int64(r.Intn(40))
					}

					if q.Len() != len(oracle.jobs) {
						t.Fatalf("trial %d: Len %d, oracle %d", trial, q.Len(), len(oracle.jobs))
					}
					if err := q.CheckInvariant(); err != nil {
						t.Fatalf("trial %d op %d: %v", trial, op, err)
					}
					ref := refWindow(q.Sorted(now), q.Len(), depsDone)
					for _, k := range []int{1, 3, q.Len(), q.Len() + 5} {
						if k <= 0 {
							continue
						}
						got := q.WindowInto(nil, now, k, depsDone)
						want := ref
						if k < len(want) {
							want = want[:k]
						}
						if fmt.Sprint(jobIDs(got)) != fmt.Sprint(jobIDs(want)) {
							t.Fatalf("trial %d op %d (now=%d, k=%d): index %v, reference %v",
								trial, op, now, k, jobIDs(got), jobIDs(want))
						}
					}
					// Window (the allocating wrapper) agrees with WindowInto.
					if got := q.Window(now, 2, depsDone); fmt.Sprint(jobIDs(got)) != fmt.Sprint(jobIDs(q.WindowInto(nil, now, 2, depsDone))) {
						t.Fatalf("trial %d: Window and WindowInto disagree", trial)
					}
				}
			}
		})
	}
}

// nanEvery wraps a time-varying policy and returns NaN for every third
// job: the ranking must apply Sorted's NaN→0 patch-up on every path. It
// embeds the Policy interface, not a policy struct, so it has no Overtake
// and every pair it ranks behind the front is re-decided the next second.
type nanEvery struct{ Policy }

func (p nanEvery) Prioritize(slots []Slot, now int64) {
	p.Policy.Prioritize(slots, now)
	for i := range slots {
		if slots[i].ID%3 == 0 {
			slots[i].Prio = math.NaN()
		}
	}
}

// reversing is the adversarial time-varying policy: every odd step of the
// clock turns the whole base order around, so no pass finds anything of
// the last pass's order to keep and Rank's repair must give up and sort.
type reversing struct{}

func (reversing) Name() string { return "reversing" }

func (reversing) Prioritize(slots []Slot, now int64) {
	for i := range slots {
		slots[i].Prio = float64(slots[i].ID)
		if now%2 != 0 {
			slots[i].Prio = -slots[i].Prio
		}
	}
}

// randomJob draws a job with heavy key collisions: few distinct submit
// times, sizes and walltimes, and sometimes a dependency on one of
// 1000..1003.
func randomJob(r *rng.Stream, id int) *job.Job {
	j := &job.Job{
		ID:          id,
		SubmitTime:  int64(r.Intn(6)) * 10,
		WalltimeEst: []int64{100, 100, 500, 0}[r.Intn(4)],
		Runtime:     50,
		Demand:      job.NewDemand(1+r.Intn(4)*7, int64(r.Intn(3))*100, 0),
	}
	if r.Bool(0.2) {
		j.Deps = []int{1000 + r.Intn(4)}
	}
	return j
}

// entryJobs unwraps entries, requiring each to carry its job's demands.
func entryJobs(t *testing.T, entries []Entry) []*job.Job {
	t.Helper()
	jobs := make([]*job.Job, len(entries))
	for i, e := range entries {
		if e != EntryOf(e.Job) {
			t.Fatalf("entry %+v does not carry job %d's demand %v", e, e.Job.ID, e.Job.Demand)
		}
		jobs[i] = e.Job
	}
	return jobs
}

// testFronts are the fronts the ranking suites rank at: a window of one,
// a short and the paper's window, the whole queue (frontLen) and past it.
// frontDrawn draws a fresh one from these for every pass.
const (
	frontLen   = -1
	frontDrawn = -2
)

var testFronts = []int{1, 3, 20, frontLen, math.MaxInt}

// frontFor resolves a testFronts value for a queue of n jobs.
func frontFor(r *rng.Stream, front, n int) int {
	switch front {
	case frontLen:
		return n
	case frontDrawn:
		return frontFor(r, testFronts[r.Intn(len(testFronts))], n)
	}
	return front
}

// driveRanking consumes rk, ranked at front, with up to ops random Take,
// Front, Next, Rest and Prune calls and requires the jobs to come out
// exactly as want — the reference filter(Sorted(now)) — lists them. Half
// the jobs taken are removed from q, as a scheduling pass does when it
// starts them; the ranking must not notice. Half the time it first makes
// the engine's calls: Front(front), Prune, Next and Prune again. It
// returns what of want is left.
func driveRanking(t *testing.T, r *rng.Stream, q *Queue, rk *Ranking, front int, want []*job.Job, ops int, label string) []*job.Job {
	t.Helper()
	check := func(op string, got []*job.Job, k int) {
		t.Helper()
		if k > len(want) {
			k = len(want)
		}
		if fmt.Sprint(jobIDs(got)) != fmt.Sprint(jobIDs(want[:k])) {
			t.Fatalf("%s %s: ranking %v, reference %v", label, op, jobIDs(got), jobIDs(want[:k]))
		}
		for _, j := range got { // the pass starts what it took
			if r.Bool(0.5) {
				if _, err := q.Remove(j.ID); err != nil {
					t.Fatal(err)
				}
			}
		}
		want = want[k:]
	}
	// prune draws the prefilter's totals among the demands randomJob
	// draws or out of the way; keep may be asked only about the jobs still
	// ranked that pass the prefilter.
	prune := func() {
		t.Helper()
		m, c := 2+r.Intn(3), r.Intn(2)
		freeNodes, freeBB := 1+r.Intn(4)*7, int64(r.Intn(3))*100
		if r.Bool(0.3) {
			freeNodes, freeBB = math.MaxInt, math.MaxInt64
		}
		ranked := map[*job.Job]bool{}
		for _, j := range want {
			ranked[j] = true
		}
		keep := func(e Entry) bool {
			j := e.Job
			if e != EntryOf(j) || !ranked[j] || !e.MayFit(freeNodes, freeBB) {
				t.Fatalf("%s Prune(%d, %d): asked about job %d, demand %v, ranked %v", label, freeNodes, freeBB, j.ID, j.Demand, ranked[j])
			}
			return j.ID%m != c
		}
		rk.Prune(freeNodes, freeBB, keep)
		kept := want[:0:0]
		for _, j := range want {
			if EntryOf(j).MayFit(freeNodes, freeBB) && j.ID%m != c {
				kept = append(kept, j)
			}
		}
		want = kept
	}
	next := func() {
		t.Helper()
		e, ok := rk.Next()
		if ok != (len(want) > 0) {
			t.Fatalf("%s Next: ok %v with %d ranked jobs left", label, ok, len(want))
		}
		if ok {
			check("Next", entryJobs(t, []Entry{e}), 1)
		}
	}
	if r.Bool(0.5) {
		check(fmt.Sprintf("Front(%d)", front), entryJobs(t, rk.Front(front)), front)
		prune()
		next()
		prune()
	}
	for ; ops > 0; ops-- {
		if rk.Len() != len(want) {
			t.Fatalf("%s: Len %d, reference %d", label, rk.Len(), len(want))
		}
		if len(want) == 0 {
			break
		}
		switch r.Intn(5) {
		case 0: // a short prefix: the window
			k := r.Intn(5)
			if r.Bool(0.5) {
				check(fmt.Sprintf("Front(%d)", k), entryJobs(t, rk.Front(k)), k)
				continue
			}
			check(fmt.Sprintf("Take(%d)", k), rk.Take(nil, k), k)
		case 1: // a long prefix: a giant window
			k := len(want)/2 + r.Intn(len(want)/2+2)
			check(fmt.Sprintf("Take(%d)", k), rk.Take(nil, k), k)
		case 2:
			next()
		case 3:
			if r.Bool(0.7) {
				continue // drains the ranking: keep it rare
			}
			check("Rest", entryJobs(t, rk.Rest()), len(want))
		case 4:
			prune()
		}
	}
	return want
}

// TestRankingMatchesSortedReference is the differential suite for one
// ranking: over random queues (key collisions, unmet dependencies, NaN
// priorities), each ranked once at each of testFronts, it drives random
// interleavings of Take, Front, Next, Rest and Prune until the ranking is
// empty and requires the jobs to come out exactly as filter(Sorted(now))
// lists them.
func TestRankingMatchesSortedReference(t *testing.T) {
	policies := []Policy{
		FCFS{},
		WFP{},
		Multifactor{MachineNodes: 64},
		nanEvery{WFP{}},
	}
	for pi, pol := range policies {
		t.Run(fmt.Sprintf("%d-%s", pi, pol.Name()), func(t *testing.T) {
			r := rng.New(uint64(101 + pi))
			trials := 400
			if testing.Short() {
				trials = 100
			}
			for trial := 0; trial < trials; trial++ {
				jobs := make([]*job.Job, r.Intn(90))
				for i := range jobs {
					jobs[i] = randomJob(r, i+1)
				}
				depsDone := func(id int) bool { return id < 1002 }
				now := int64(r.Intn(400))
				for _, tf := range testFronts {
					q := New(pol)
					for _, j := range jobs {
						if err := q.Add(j); err != nil {
							t.Fatal(err)
						}
					}
					want := refWindow(q.Sorted(now), q.Len(), depsDone)
					front := frontFor(r, tf, q.Len())
					rk := q.Rank(now, depsDone, front)
					label := fmt.Sprintf("trial %d (n=%d, now=%d, front=%d)", trial, len(jobs), now, front)
					driveRanking(t, r, q, rk, front, want, math.MaxInt, label)
					if e, ok := rk.Next(); ok {
						t.Fatalf("%s: exhausted ranking yielded job %d", label, e.Job.ID)
					}
					if got := rk.Take(nil, 3); len(got) != 0 {
						t.Fatalf("%s: exhausted ranking yielded %v", label, jobIDs(got))
					}
				}
			}
		})
	}
	// The zero Ranking is empty and safe to drive.
	var zero Ranking
	zero.Prune(math.MaxInt, math.MaxInt64, func(Entry) bool { return true })
	if _, ok := zero.Next(); ok || zero.Len() != 0 || len(zero.Take(nil, 5)) != 0 || len(zero.Front(5)) != 0 || len(zero.Rest()) != 0 {
		t.Fatal("zero Ranking is not empty")
	}
}

// TestRankingCarriedAcrossPasses ranks one queue again and again, the way
// the engine does, so that every Rank starts from the front the last one
// left: between passes jobs arrive, jobs anywhere in the queue leave,
// dependencies finish (and, now and then, the predicate takes one back),
// and the clock advances, repeats or goes backwards
// (in odd steps, so that `reversing` turns the order around whenever it
// moves). Each case runs at each of testFronts and at a front drawn anew
// every pass. After every Rank the queue's front must be the first front
// dep-ready jobs of Sorted(now), and the ranking, consumed by a few random
// calls, must match filter(Sorted(now)).
func TestRankingCarriedAcrossPasses(t *testing.T) {
	policies := []Policy{
		FCFS{},
		WFP{},
		Multifactor{MachineNodes: 64},
		nanEvery{WFP{}},
		reversing{},
	}
	for pi, pol := range policies {
		t.Run(fmt.Sprintf("%d-%s", pi, pol.Name()), func(t *testing.T) {
			r := rng.New(uint64(211 + pi))
			trials := 40
			if testing.Short() {
				trials = 10
			}
			for trial := 0; trial < trials; trial++ {
				for _, tf := range append(testFronts, frontDrawn) {
					carryRanking(t, r, pol, tf, fmt.Sprintf("trial %d front %d", trial, tf))
				}
			}
		})
	}
}

// carryRanking is one TestRankingCarriedAcrossPasses case: 60 passes over
// one queue ranked at front tf.
func carryRanking(t *testing.T, r *rng.Stream, pol Policy, tf int, label string) {
	t.Helper()
	q := New(pol)
	waiting := map[int]*job.Job{}
	nextID, doneBelow, now := 1, 1001, int64(r.Intn(100))
	depsDone := func(id int) bool { return id < doneBelow }
	for pass := 0; pass < 60; pass++ {
		for n := r.Intn(12); n > 0; n-- {
			j := randomJob(r, nextID)
			j.SubmitTime += now / 2 // arrivals follow the clock
			nextID++
			if err := q.Add(j); err != nil {
				t.Fatal(err)
			}
			waiting[j.ID] = j
			checkInvariant(t, q)
		}
		for n := r.Intn(3); n > 0 && len(waiting) > 0; n-- {
			id := pickAny(r, waiting)
			if _, err := q.Remove(id); err != nil {
				t.Fatal(err)
			}
			delete(waiting, id)
			checkInvariant(t, q)
		}
		step := int64(2*r.Intn(30) + 1)
		switch {
		case r.Bool(0.15): // the clock repeats
		case r.Bool(0.15):
			now -= step
		default:
			now += step
		}
		switch {
		case doneBelow < 1004 && r.Bool(0.05):
			doneBelow++
		case doneBelow > 1001 && r.Bool(0.03):
			// Taken back: front jobs waiting on it must leave the front.
			doneBelow--
		}

		sorted := q.Sorted(now)
		front := frontFor(r, tf, q.Len())
		rk := q.Rank(now, depsDone, front)
		checkInvariant(t, q)
		ref := refWindow(sorted, len(sorted), depsDone)
		wantFront := ref[:min(front, len(ref))]
		if got := slotIDs(q.slots[:q.front]); fmt.Sprint(got) != fmt.Sprint(jobIDs(wantFront)) {
			t.Fatalf("%s pass %d (now=%d, front=%d): queue front %v, reference %v",
				label, pass, now, front, got, jobIDs(wantFront))
		}
		passLabel := fmt.Sprintf("%s pass %d (n=%d, now=%d, front=%d)", label, pass, q.Len(), now, front)
		driveRanking(t, r, q, rk, front, ref, 1+r.Intn(4), passLabel)
		checkInvariant(t, q)
		for id := range waiting {
			if !q.Contains(id) {
				delete(waiting, id)
			}
		}
	}
}

// TestRankingHistoryIndependent pins what checkpoint restore relies on:
// a ranking depends on the waiting set and the instant, not on how the
// queue's arrays got there. A queue carried through many passes and a
// fresh one, re-Added in ID order as restore does, rank identically.
func TestRankingHistoryIndependent(t *testing.T) {
	ready := func(int) bool { return true }
	for _, pol := range []Policy{FCFS{}, WFP{}, Multifactor{MachineNodes: 64}, reversing{}} {
		r := rng.New(307)
		carried := New(pol)
		nextID, now := 1, int64(0)
		for pass := 0; pass < 50; pass++ {
			for n := 2 + r.Intn(6); n > 0; n-- {
				j := randomJob(r, nextID)
				j.SubmitTime += now
				nextID++
				if err := carried.Add(j); err != nil {
					t.Fatal(err)
				}
			}
			now += int64(r.Intn(60))
			k := r.Intn(4)
			for _, j := range carried.Rank(now, ready, k).Take(nil, k) {
				if _, err := carried.Remove(j.ID); err != nil {
					t.Fatal(err)
				}
			}
		}
		var set []*job.Job
		for j := range carried.Waiting() {
			set = append(set, j)
		}
		sort.Slice(set, func(a, b int) bool { return set[a].ID < set[b].ID })
		fresh := New(pol)
		for _, j := range set {
			if err := fresh.Add(j); err != nil {
				t.Fatal(err)
			}
		}
		for i, at := range []int64{now, now + 1, now + 500, now - 40} {
			got := jobIDs(entryJobs(t, carried.Rank(at, ready, 3).Rest()))
			want := jobIDs(entryJobs(t, fresh.Rank(at, ready, 1+7*i).Rest()))
			checkInvariant(t, carried)
			checkInvariant(t, fresh)
			if fmt.Sprint(got) != fmt.Sprint(want) {
				t.Fatalf("%s at %d: carried queue ranks %v, re-added queue %v", pol.Name(), at, got, want)
			}
		}
	}
}

// TestRankAllocs pins a steady-state pass at zero allocations — the
// tournament behind the front kept up as the clock creeps forward (WFP,
// Multifactor) or re-decided whole every pass (reversing, which turns the
// order around) — with the window taken off the front and backfilling's
// Prune and Next behind it, and then Rank's fallback sort, forced every
// other pass by a front that jumps from one job to the whole queue.
func TestRankAllocs(t *testing.T) {
	ready := func(int) bool { return true }
	for _, pol := range []Policy{WFP{}, Multifactor{}, reversing{}} {
		r := rng.New(401)
		q := New(pol)
		for id := 1; id <= 200; id++ {
			if err := q.Add(randomJob(r, id)); err != nil {
				t.Fatal(err)
			}
		}
		buf := make([]*job.Job, 0, q.Len())
		now := int64(100)
		pass := func() {
			now++
			rk := q.Rank(now, ready, 20)
			buf = rk.Take(buf[:0], 20)
			rk.Prune(15, 100, func(e Entry) bool { return e.Job.ID%2 == 0 })
			rk.Next()
		}
		pass() // grow the pooled arrays
		if allocs := testing.AllocsPerRun(50, pass); allocs != 0 {
			t.Errorf("%s: Rank+Take+Prune+Next allocates %v times a pass, want 0", pol.Name(), allocs)
		}
		front := 1
		jump := func() {
			now++
			front = q.Len() + 1 - front
			q.Rank(now, ready, front)
		}
		jump()
		jump()
		sorts := q.sorts
		if allocs := testing.AllocsPerRun(50, jump); allocs != 0 || q.sorts == sorts {
			t.Errorf("%s: %v allocations a pass over %d fallback sorts, want 0 over some", pol.Name(), allocs, q.sorts-sorts)
		}
	}
}

// TestRankSortsScrambledFront pins Rank's fallback: a restored queue —
// 4 096 jobs re-Added in ID order — ranked at a front of 1 024 has no
// order to repair, so Rank sorts once instead of inserting a thousand
// jobs one by one, and the next pass, a few seconds on, repairs what the
// sort left without sorting again.
func TestRankSortsScrambledFront(t *testing.T) {
	ready := func(int) bool { return true }
	r := rng.New(509)
	q := New(WFP{})
	for id := 1; id <= 4096; id++ {
		if err := q.Add(randomJob(r, id)); err != nil {
			t.Fatal(err)
		}
	}
	for pass, now := range []int64{600, 603} {
		q.Rank(now, ready, 1024)
		checkInvariant(t, q)
		if want := refWindow(q.Sorted(now), 1024, ready); fmt.Sprint(slotIDs(q.slots[:q.front])) != fmt.Sprint(jobIDs(want)) {
			t.Fatalf("pass %d: the front is not the first 1 024 jobs of Sorted", pass)
		}
		if q.sorts != 1 {
			t.Fatalf("pass %d: %d fallback sorts so far, want 1", pass, q.sorts)
		}
	}
}

// TestWindowIntoReusesBuffer pins the pooling contract: with a
// sufficiently large destination buffer, WindowInto returns a slice
// aliasing it.
func TestWindowIntoReusesBuffer(t *testing.T) {
	for _, pol := range []Policy{FCFS{}, WFP{}} {
		q := New(pol)
		for i := 0; i < 10; i++ {
			q.Add(mkJob(i+1, int64(i), 2, 100))
		}
		buf := make([]*job.Job, 0, 16)
		out := q.WindowInto(buf, 50, 8, func(int) bool { return true })
		if len(out) != 8 {
			t.Fatalf("%s: window len %d, want 8", pol.Name(), len(out))
		}
		if &out[0] != &buf[0:1][0] {
			t.Fatalf("%s: WindowInto did not reuse the provided buffer", pol.Name())
		}
	}
}

func checkInvariant(t *testing.T, q *Queue) {
	t.Helper()
	if err := q.CheckInvariant(); err != nil {
		t.Fatal(err)
	}
}

// refWindow is the reference extraction: dependency-filter the sorted
// order and truncate.
func refWindow(sorted []*job.Job, size int, depsDone func(int) bool) []*job.Job {
	var out []*job.Job
	for _, j := range sorted {
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

// pickAny deterministically picks a waiting job ID: map iteration order
// must not leak into the test, so keys are sorted before drawing.
func pickAny(r *rng.Stream, m map[int]*job.Job) int {
	keys := make([]int, 0, len(m))
	for id := range m {
		keys = append(keys, id)
	}
	sort.Ints(keys)
	return keys[r.Intn(len(keys))]
}

func slotIDs(slots []Slot) []int {
	out := make([]int, len(slots))
	for i := range slots {
		out[i] = slots[i].ID
	}
	return out
}

func jobIDs(jobs []*job.Job) []int {
	out := make([]int, len(jobs))
	for i, j := range jobs {
		out[i] = j.ID
	}
	return out
}
