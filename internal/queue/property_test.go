package queue

import (
	"fmt"
	"math"
	"sort"
	"testing"

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
	if got := p.Priority(j, 100); got != 0 {
		t.Fatalf("wait=0, est=0: priority = %v, want 0", got)
	}
	for _, now := range []int64{0, 100, 101, 1000} {
		got := p.Priority(j, now)
		if math.IsNaN(got) || math.IsInf(got, 0) {
			t.Fatalf("est=0, now=%d: priority = %v, want finite", now, got)
		}
	}
	// Valid estimates are untouched: the clamp only fires for est <= 0.
	valid := &job.Job{ID: 2, SubmitTime: 0, WalltimeEst: 1000, Demand: job.NewDemand(8, 0, 0)}
	if got, want := p.Priority(valid, 1000), 8.0; got != want {
		t.Fatalf("valid job priority = %v, want %v", got, want)
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
						if err := q.Remove(victim); err != nil {
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
// job: the ranking must apply Sorted's NaN→0 patch-up on every path.
type nanEvery struct{ Policy }

func (p nanEvery) Priority(j *job.Job, now int64) float64 {
	if j.ID%3 == 0 {
		return math.NaN()
	}
	return p.Policy.Priority(j, now)
}

// TestRankingMatchesSortedReference is the differential suite for the
// lazy ranking: over random queues (key collisions, unmet dependencies,
// NaN priorities) it drives random interleavings of Take, Next, Rest and Prune
// — so every mix of heap pops, crossover sorts, re-heapifies after a
// prune and the FCFS walk occurs — and requires the jobs to come out
// exactly as filter(Sorted(now)) lists them. Jobs taken mid-sequence are
// removed from the queue, as a scheduling pass does when it starts them;
// the ranking must not notice.
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
				q := New(pol)
				n := r.Intn(90)
				for id := 1; id <= n; id++ {
					j := &job.Job{
						ID:          id,
						SubmitTime:  int64(r.Intn(6)) * 10,
						WalltimeEst: []int64{100, 100, 500, 0}[r.Intn(4)],
						Runtime:     50,
						Demand:      job.NewDemand(1+r.Intn(4)*7, 0, 0),
					}
					if r.Bool(0.2) {
						j.Deps = []int{1000 + r.Intn(4)} // 1000, 1001 finished; 1002, 1003 not
					}
					if err := q.Add(j); err != nil {
						t.Fatal(err)
					}
				}
				depsDone := func(id int) bool { return id < 1002 }
				now := int64(r.Intn(400))
				want := refWindow(q.Sorted(now), q.Len(), depsDone)

				rk := q.Rank(now, depsDone)
				check := func(op string, got []*job.Job, k int) {
					t.Helper()
					if k > len(want) {
						k = len(want)
					}
					if fmt.Sprint(jobIDs(got)) != fmt.Sprint(jobIDs(want[:k])) {
						t.Fatalf("trial %d (n=%d, now=%d) %s: ranking %v, reference %v",
							trial, n, now, op, jobIDs(got), jobIDs(want[:k]))
					}
					for _, j := range got { // the pass starts what it took
						if r.Bool(0.5) {
							if err := q.Remove(j.ID); err != nil {
								t.Fatal(err)
							}
						}
					}
					want = want[k:]
				}
				for steps := 0; ; steps++ {
					if rk.Len() != len(want) {
						t.Fatalf("trial %d: Len %d, reference %d", trial, rk.Len(), len(want))
					}
					if len(want) == 0 {
						break
					}
					switch r.Intn(5) {
					case 0: // a short prefix: the window
						k := r.Intn(5)
						check(fmt.Sprintf("Take(%d)", k), rk.Take(nil, k), k)
					case 1: // a long prefix: crosses the sort threshold
						k := len(want)/2 + r.Intn(len(want)/2+2)
						check(fmt.Sprintf("Take(%d)", k), rk.Take(nil, k), k)
					case 2:
						check("Next", []*job.Job{rk.Next()}, 1)
					case 3:
						if r.Bool(0.7) {
							continue // drains the ranking: keep it rare
						}
						check("Rest", rk.Rest(), len(want))
					case 4:
						m, c := 2+r.Intn(3), r.Intn(2)
						keep := func(j *job.Job) bool { return j.ID%m != c }
						rk.Prune(keep)
						kept := want[:0:0]
						for _, j := range want {
							if keep(j) {
								kept = append(kept, j)
							}
						}
						want = kept
					}
				}
				if j := rk.Next(); j != nil {
					t.Fatalf("trial %d: exhausted ranking yielded job %d", trial, j.ID)
				}
				if got := rk.Take(nil, 3); len(got) != 0 {
					t.Fatalf("trial %d: exhausted ranking yielded %v", trial, jobIDs(got))
				}
			}
		})
	}
	// The zero Ranking is empty and safe to drive.
	var zero Ranking
	zero.Prune(func(*job.Job) bool { return true })
	if zero.Len() != 0 || zero.Next() != nil || len(zero.Take(nil, 5)) != 0 || len(zero.Rest()) != 0 {
		t.Fatal("zero Ranking is not empty")
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

func jobIDs(jobs []*job.Job) []int {
	out := make([]int, len(jobs))
	for i, j := range jobs {
		out[i] = j.ID
	}
	return out
}
