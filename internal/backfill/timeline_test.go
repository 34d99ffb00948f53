package backfill

import (
	"fmt"
	"reflect"
	"slices"
	"sort"
	"testing"

	"bbsched/internal/cluster"
	"bbsched/internal/job"
	"bbsched/internal/queue"
	"bbsched/internal/rng"
	"bbsched/internal/trace"
)

// TestTimelineMatchesResortOracle drives random insert/remove sequences
// through the incremental Timeline and mirrors every operation into a
// plain slice that is re-sorted from scratch with the canonical order —
// the oracle the persistent structure must match entry-for-entry.
func TestTimelineMatchesResortOracle(t *testing.T) {
	r := rng.New(1234)
	for trial := 0; trial < 200; trial++ {
		var tl Timeline
		var oracle []Running
		nextID := 1
		for op := 0; op < 120; op++ {
			if len(oracle) > 0 && r.Bool(0.4) {
				// Remove a random live entry.
				victim := oracle[r.Intn(len(oracle))]
				if !tl.Remove(victim.ReleaseTime, victim.JobID) {
					t.Fatalf("trial %d: entry (%d,%d) missing from timeline", trial, victim.ReleaseTime, victim.JobID)
				}
				for i := range oracle {
					if oracle[i].ReleaseTime == victim.ReleaseTime && oracle[i].JobID == victim.JobID {
						oracle = append(oracle[:i], oracle[i+1:]...)
						break
					}
				}
			} else {
				// Insert one or two entries for a new job; times are drawn
				// from a small range so equal-time collisions across jobs
				// are common and exercise the job-ID tie-break.
				id := nextID
				nextID++
				release := int64(r.Intn(50))
				e := Running{ReleaseTime: release, JobID: id, NodesByClass: []int{1 + r.Intn(8)}, BB: int64(r.Intn(100))}
				tl.Insert(e)
				oracle = append(oracle, e)
				if r.Bool(0.3) { // simulated stage-out: a later BB-only entry
					e2 := Running{ReleaseTime: release + 1 + int64(r.Intn(20)), JobID: id, BB: int64(1 + r.Intn(100))}
					tl.Insert(e2)
					oracle = append(oracle, e2)
				}
			}
			if err := tl.CheckInvariant(); err != nil {
				t.Fatalf("trial %d op %d: %v", trial, op, err)
			}
			sorted := append([]Running(nil), oracle...)
			sort.Slice(sorted, func(i, j int) bool { return releaseLess(sorted[i], sorted[j]) })
			if got := tl.Entries(); !reflect.DeepEqual(trimRunning(got), trimRunning(sorted)) {
				t.Fatalf("trial %d op %d: timeline diverges from oracle\n got: %v\nwant: %v", trial, op, got, sorted)
			}
		}
	}
}

// trimRunning normalizes nil-vs-empty slices for DeepEqual.
func trimRunning(rs []Running) []Running {
	out := make([]Running, len(rs))
	for i, r := range rs {
		if len(r.NodesByClass) == 0 {
			r.NodesByClass = nil
		}
		if len(r.Extra) == 0 {
			r.Extra = nil
		}
		out[i] = r
	}
	return out
}

func TestTimelineRemoveMissing(t *testing.T) {
	var tl Timeline
	tl.Insert(Running{ReleaseTime: 10, JobID: 1})
	if tl.Remove(10, 2) {
		t.Fatal("removed an entry that was never inserted")
	}
	if tl.Remove(11, 1) {
		t.Fatal("removed with the wrong time key")
	}
	if !tl.Remove(10, 1) || tl.Len() != 0 {
		t.Fatal("exact-key removal failed")
	}
}

// TestPlannerMatchesReferencePlan fuzzes random machines (SSD classes,
// extra dimensions), running sets, and waiting queues (stage-out jobs,
// the odd job bigger than the machine, which makes the reservation fail,
// and the demands awkwardDemand draws to get past the planner's prefilter)
// through one pooled Planner — reused across all cases, so scratch reuse
// is exercised — and checks every pass against the reference Plan, three
// ways: fed the waiting jobs as an already-ordered slice; fed the way the
// engine feeds it — the ranking of a queue whose front is the window a
// pass took a prefix of and started some of — against reference Plan over
// the fully sorted remainder; and over one queue ranked pass after pass.
func TestPlannerMatchesReferencePlan(t *testing.T) {
	r := rng.New(99)
	var p Planner
	trials := 600
	if testing.Short() {
		trials = 150
	}
	blind := 0
	for trial := 0; trial < trials; trial++ {
		blind += plannerCase(t, r, &p, fmt.Sprintf("trial %d", trial))
		plannerCarriedCase(t, r, &p, fmt.Sprintf("trial %d, carried", trial))
	}
	if blind < trials {
		t.Fatalf("%d (job, snapshot) pairs in %d trials passed the prefilter and failed CanFit; the generator no longer reaches the prefilter's blind side", blind, trials)
	}
}

// FuzzPlanRankedMatchesPlan is the same differential check with the case
// drawn from a fuzzed seed: ranked planner == reference Plan over Sorted,
// on one ranking and on a queue carried across passes.
func FuzzPlanRankedMatchesPlan(f *testing.F) {
	for seed := uint64(0); seed < 8; seed++ {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, seed uint64) {
		var p Planner
		r := rng.New(seed)
		for pass := 0; pass < 3; pass++ { // later passes reuse p's scratch
			plannerCase(t, r, &p, fmt.Sprintf("seed %d pass %d", seed, pass))
		}
		plannerCarriedCase(t, r, &p, fmt.Sprintf("seed %d, carried", seed))
	})
}

var plannerPolicies = []queue.Policy{queue.FCFS{}, queue.WFP{}, queue.Multifactor{MachineNodes: 32}}

// plannerCase draws one machine, running set and waiting queue from r and
// checks p against the reference Plan on it, both ways. It returns how
// many (job, snapshot) pairs it drew that only CanFit could reject.
func plannerCase(t *testing.T, r *rng.Stream, p *Planner, label string) (blind int) {
	ready := func(id int) bool { return id != 999 } // job 999 never finishes
	cfg := randMachine(r)
	cl := cluster.MustNew(cfg)
	snapshot := cl.Snapshot()

	// Pre-occupy the machine with a random running set.
	var runs []Running
	nRunning := r.Intn(8)
	for k := 0; k < nRunning; k++ {
		d := randDemand(r, cfg)
		placed, err := snapshot.Alloc(d)
		if err != nil {
			continue
		}
		release := int64(1 + r.Intn(40))
		id := 1000 + k
		if r.Bool(0.3) && d.BB() > 0 {
			runs = append(runs,
				Running{ReleaseTime: release, JobID: id, NodesByClass: placed.NodesByClass, Extra: placed.Extra},
				Running{ReleaseTime: release + 1 + int64(r.Intn(10)), JobID: id, BB: d.BB()})
		} else {
			runs = append(runs, Running{ReleaseTime: release, JobID: id, NodesByClass: placed.NodesByClass, BB: d.BB(), Extra: placed.Extra})
		}
	}

	var waiting []*job.Job
	for k, n := 0, r.Intn(40); k < n; k++ {
		waiting = append(waiting, randWaitingJob(r, cfg, snapshot, k+1, 0))
	}
	blind = prefilterOnlyRejects(t, snapshot, waiting, label)

	now := int64(20 + r.Intn(10))
	want := Plan(snapshot, runs, waiting, now)
	got := p.Plan(snapshot, NewTimelineFrom(runs), waiting, now)
	if fmt.Sprint(ids(got)) != fmt.Sprint(ids(want)) {
		t.Fatalf("%s: planner %v, reference %v (machine %+v, %d running, %d waiting)",
			label, ids(got), ids(want), cfg, len(runs), len(waiting))
	}

	// The engine's route: rank the unordered queue with the window as its
	// front, let the window pass take it and start some of it, then plan
	// over what the window left behind plus the rest of the ranking.
	q := queue.New(plannerPolicies[r.Intn(len(plannerPolicies))])
	for _, j := range waiting {
		if r.Bool(0.1) {
			j.Deps = []int{999} // dependency-blocked: never ranked
		}
		if err := q.Add(j); err != nil {
			t.Fatal(err)
		}
	}
	w := r.Intn(8)
	ranking := q.Rank(now, ready, w)
	var left []queue.Entry
	for _, e := range ranking.Front(w) {
		j := e.Job
		if r.Bool(0.5) {
			if placed, err := snapshot.Alloc(j.Demand); err == nil {
				runs = append(runs, Running{ReleaseTime: now + j.WalltimeEst, JobID: j.ID, NodesByClass: placed.NodesByClass, BB: j.Demand.BB(), Extra: placed.Extra})
				if err := q.Remove(j.ID); err != nil { // as the engine starts it
					t.Fatal(err)
				}
				continue
			}
		}
		left = append(left, e)
	}
	blind += prefilterOnlyRejects(t, snapshot, waiting, label)
	want = Plan(snapshot, runs, readySorted(q, now, ready), now)
	got = p.PlanRanked(snapshot, NewTimelineFrom(runs), left, ranking, now)
	if fmt.Sprint(ids(got)) != fmt.Sprint(ids(want)) {
		t.Fatalf("%s: ranked planner %v, reference %v (%s, window %d, machine %+v, %d running, %d left of %d waiting)",
			label, ids(got), ids(want), q.Policy().Name(), w, cfg, len(runs), len(left), q.Len())
	}
	return blind
}

// plannerCarriedCase runs passes over one queue the way the engine does:
// each ranks the queue with the window it takes as the front, starts some
// of the window and removes those jobs from the queue, plans with
// PlanRanked and starts and removes what it planned. Between passes the
// clock moves, running jobs due by then finish — which lets the jobs that
// depend on them into the ranking — and jobs arrive. Every pass is checked
// against the reference Plan over Sorted.
func plannerCarriedCase(t *testing.T, r *rng.Stream, p *Planner, label string) {
	cfg := randMachine(r)
	snapshot := cluster.MustNew(cfg).Snapshot()
	q := queue.New(plannerPolicies[r.Intn(len(plannerPolicies))])
	done := map[int]bool{}
	ready := func(id int) bool { return done[id] }
	var runs []Running
	start := func(j *job.Job, now int64) {
		t.Helper()
		placed, err := snapshot.Alloc(j.Demand)
		if err != nil {
			t.Fatalf("%s: starting job %d: %v", label, j.ID, err)
		}
		runs = append(runs, Running{ReleaseTime: now + j.WalltimeEst, JobID: j.ID, NodesByClass: placed.NodesByClass, BB: j.Demand.BB(), Extra: placed.Extra})
		if err := q.Remove(j.ID); err != nil {
			t.Fatal(err)
		}
	}
	nextID, now := 1, int64(0)
	for pass := 0; pass < 6; pass++ {
		kept := runs[:0]
		for _, run := range runs {
			if run.ReleaseTime > now {
				kept = append(kept, run)
				continue
			}
			for c, n := range run.NodesByClass {
				snapshot.FreeByClass[c] += n
			}
			snapshot.FreeBB += run.BB
			for k, v := range run.Extra {
				snapshot.FreeExtra[k] += v
			}
			done[run.JobID] = true
		}
		runs = kept
		for n := r.Intn(15); n > 0; n-- {
			j := randWaitingJob(r, cfg, snapshot, nextID, now-15)
			if r.Bool(0.15) {
				j.Deps = []int{1 + r.Intn(nextID)} // waiting, running or done
			}
			nextID++
			if err := q.Add(j); err != nil {
				t.Fatal(err)
			}
		}

		w := r.Intn(8)
		ranking := q.Rank(now, ready, w)
		var left []queue.Entry
		for _, e := range ranking.Front(w) {
			if r.Bool(0.5) && snapshot.CanFit(e.Job.Demand) {
				start(e.Job, now)
				continue
			}
			left = append(left, e)
		}
		want := Plan(snapshot, runs, readySorted(q, now, ready), now)
		got := p.PlanRanked(snapshot, NewTimelineFrom(runs), left, ranking, now)
		if fmt.Sprint(ids(got)) != fmt.Sprint(ids(want)) {
			t.Fatalf("%s pass %d: ranked planner %v, reference %v (%s, window %d, machine %+v, %d running, %d left of %d waiting)",
				label, pass, ids(got), ids(want), q.Policy().Name(), w, cfg, len(runs), len(left), q.Len())
		}
		for _, j := range append([]*job.Job(nil), got...) {
			start(j, now)
		}
		now += int64(1 + r.Intn(15))
	}
}

// randWaitingJob draws waiting job id, submitted up to 15 s after submit,
// for the machine cfg whose free state is free.
func randWaitingJob(r *rng.Stream, cfg cluster.Config, free cluster.Snapshot, id int, submit int64) *job.Job {
	d := randDemand(r, cfg)
	switch {
	case r.Bool(0.03):
		d = job.NewDemand(cfg.Nodes+1+r.Intn(4), 0, 0) // can never fit
	case r.Bool(0.2):
		d = awkwardDemand(r, cfg, free)
	}
	wall := int64(1 + r.Intn(60))
	// Hand-built: job.New refuses the zero-node demand awkwardDemand draws.
	j := &job.Job{ID: id, SubmitTime: submit + int64(r.Intn(4))*5, Runtime: wall, WalltimeEst: wall, Demand: d, StartTime: -1, EndTime: -1}
	if r.Bool(0.2) {
		j.StageOutSec = int64(1 + r.Intn(20))
	}
	return j
}

// readySorted is the reference queue a plan reads: q's dep-ready jobs in
// Sorted(now) order.
func readySorted(q *queue.Queue, now int64, ready func(int) bool) []*job.Job {
	var out []*job.Job
	for _, j := range q.Sorted(now) {
		if !slices.ContainsFunc(j.Deps, func(d int) bool { return !ready(d) }) {
			out = append(out, j)
		}
	}
	return out
}

// prefilterOnlyRejects requires of every job that the planner's prefilter
// says no only where Snapshot.CanFit says no, and counts the jobs it
// passes on for CanFit to reject.
func prefilterOnlyRejects(t *testing.T, snap cluster.Snapshot, jobs []*job.Job, label string) (blind int) {
	t.Helper()
	for _, j := range jobs {
		may, fits := queue.EntryOf(j).MayFit(snap.FreeNodes(), snap.FreeBB), snap.CanFit(j.Demand)
		if fits && !may {
			t.Fatalf("%s: prefilter rejects job %d, demand %v, which fits %+v", label, j.ID, j.Demand, snap)
		}
		if may && !fits {
			blind++
		}
	}
	return blind
}

// awkwardDemand draws a demand on the prefilter's blind side or on its
// edge: node and burst-buffer totals that fit free while the demand does
// not (more nodes than the SSD classes big enough for it hold free, an
// extra dimension over its free amount or one the machine lacks), a
// burst-buffer request of exactly what is free, or no nodes at all.
func awkwardDemand(r *rng.Stream, cfg cluster.Config, free cluster.Snapshot) job.Demand {
	nodes := 1 + r.Intn(max(1, free.FreeNodes()))
	switch r.Intn(5) {
	case 0:
		if n := free.NumClasses(); n > 1 {
			nodes = min(free.FreeByClass[n-1]+1+r.Intn(3), max(1, free.FreeNodes()))
			return job.NewDemand(nodes, 0, free.ClassCapacity(n-1))
		}
		return job.NewDemand(nodes, 0, 1<<20) // an SSD no class has
	case 1:
		if free.NumExtra() > 0 {
			return job.NewDemandVector(nodes, 0, 0, free.FreeExtra[0]+1+int64(r.Intn(5)))
		}
		return job.NewDemandVector(nodes, 0, 0, 1) // a dimension the machine lacks
	case 2:
		return job.NewDemandVector(nodes, 0, 0, 0, 1+int64(r.Intn(3))) // a second extra dimension: no machine here has one
	case 3:
		return job.NewDemand(nodes, free.FreeBB, 0)
	default:
		return job.Demand{Res: []int64{0, int64(r.Intn(3)), 0}}
	}
}

// TestPlannerAgainstSimulatedWorkload replays a generated trace shape:
// the planner and the reference must agree on every scheduling pass even
// when the waiting set comes from a realistic heavy-BB workload.
func TestPlannerAgainstSimulatedWorkload(t *testing.T) {
	sys := trace.Scale(trace.Theta(), 64)
	w := trace.Generate(trace.GenConfig{System: sys, Jobs: 60, Seed: 5})
	cl := cluster.MustNew(sys.Cluster)
	snapshot := cl.Snapshot()
	var runs []Running
	// Occupy ~half the machine.
	for i := 0; i < 30 && i < len(w.Jobs); i++ {
		d := w.Jobs[i].Demand
		placed, err := snapshot.Alloc(d)
		if err != nil {
			continue
		}
		runs = append(runs, Running{ReleaseTime: int64(10 + i), JobID: w.Jobs[i].ID, NodesByClass: placed.NodesByClass, BB: d.BB()})
	}
	waiting := w.Jobs[30:]
	var p Planner
	for pass := 0; pass < 4; pass++ { // repeated passes exercise pooling
		want := Plan(snapshot, runs, waiting, int64(pass))
		got := p.Plan(snapshot, NewTimelineFrom(runs), waiting, int64(pass))
		if fmt.Sprint(ids(got)) != fmt.Sprint(ids(want)) {
			t.Fatalf("pass %d: planner %v, reference %v", pass, ids(got), ids(want))
		}
	}
}

func randMachine(r *rng.Stream) cluster.Config {
	cfg := cluster.Config{Name: "fuzz", Nodes: 8 + r.Intn(48), BurstBufferGB: int64(r.Intn(500))}
	if r.Bool(0.4) { // heterogeneous SSD classes
		a := 1 + r.Intn(cfg.Nodes-1)
		cfg.SSDClasses = []cluster.SSDClass{
			{CapacityGB: 128, Count: a},
			{CapacityGB: 256, Count: cfg.Nodes - a},
		}
	}
	if r.Bool(0.3) {
		cfg.Extra = []cluster.ResourceSpec{{Name: "power_kw", Capacity: int64(50 + r.Intn(200)), Unit: "kW"}}
	}
	return cfg
}

func randDemand(r *rng.Stream, cfg cluster.Config) job.Demand {
	nodes := 1 + r.Intn(cfg.Nodes)
	bb := int64(0)
	if cfg.BurstBufferGB > 0 && r.Bool(0.6) {
		bb = int64(r.Intn(int(cfg.BurstBufferGB)))
	}
	ssd := int64(0)
	if len(cfg.SSDClasses) > 0 && r.Bool(0.4) {
		ssd = []int64{64, 128, 256}[r.Intn(3)]
	}
	if len(cfg.Extra) > 0 && r.Bool(0.5) {
		return job.NewDemandVector(nodes, bb, ssd, int64(r.Intn(int(cfg.Extra[0].Capacity))))
	}
	return job.NewDemand(nodes, bb, ssd)
}
