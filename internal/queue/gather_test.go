package queue

import (
	"cmp"
	"fmt"
	"math"
	"math/bits"
	"slices"
	"testing"

	"bbsched/internal/job"
	"bbsched/internal/rng"
	"bbsched/internal/trace"
)

// edgeNodes draws a node count at a node-class edge — 0, 2^k − 1 or 2^k —
// or now and then any count up to 70, or none at all.
func edgeNodes(r *rng.Stream) int {
	switch k := r.Intn(8); {
	case r.Bool(0.1):
		return r.Intn(71)
	case r.Bool(0.05):
		return math.MaxInt
	case k == 0:
		return 0
	default:
		return 1<<k - r.Intn(2)
	}
}

// edgeSpan draws a span at a span-class edge — 0, 2^k − 1 or 2^k for k
// up to the last class and past it — or at the cap a validated job can
// reach, job.MaxDemand per time.
func edgeSpan(r *rng.Stream) int64 {
	switch k := r.Intn(36); {
	case r.Bool(0.05):
		return 2 * job.MaxDemand
	case r.Bool(0.05):
		return job.MaxDemand
	case k == 0:
		return 0
	default:
		return 1<<k - int64(r.Intn(2))
	}
}

// edgeJob draws job id with a node count and a span at class edges, the
// span split between walltime estimate and stage-out, and now and then a
// dependency on one of 1000..1003.
func edgeJob(r *rng.Stream, id int, now int64) *job.Job {
	span := max(edgeSpan(r), 1)
	est := span
	if r.Bool(0.3) {
		est = 1 + r.Int63n(span)
	}
	j := &job.Job{
		ID:          id,
		SubmitTime:  now - int64(r.Intn(4))*50,
		WalltimeEst: min(est, job.MaxDemand),
		Runtime:     50,
		Demand:      job.NewDemand(min(edgeNodes(r), 1<<20), int64(r.Intn(3))*100, 0),
	}
	j.StageOutSec = min(span-j.WalltimeEst, job.MaxDemand)
	if r.Bool(0.15) {
		j.Deps = []int{1000 + r.Intn(4)}
	}
	return j
}

// FuzzGatherCells drives random Add, Remove, clock and dependency steps
// over jobs at node-class and span-class edges (edgeJob), and passes that
// prune the ranking with a random cut and a keep that honours it, for
// fronts, free totals, span bounds and leftovers drawn at the class edges,
// 0 among them. The jobs a pass's Next hands out must be the flat scan of
// Sorted that MayFit and keep pass, in order; keep must never be asked
// about a tail job outside the cells the gather may read; a second Prune
// with a leftover shrunk, as EASY's after a start, must narrow the rest
// the same way. CheckInvariant runs after every step.
func FuzzGatherCells(f *testing.F) {
	for seed := uint64(0); seed < 8; seed++ {
		f.Add(seed, []byte{})
	}
	policies := []Policy{FCFS{}, WFP{}, Multifactor{MachineNodes: 64, MaxAgeSec: 300}}
	f.Fuzz(func(t *testing.T, seed uint64, ops []byte) {
		r := rng.New(seed)
		for len(ops) < 300 {
			ops = append(ops, byte(r.Intn(256)))
		}
		q := New(policies[seed%uint64(len(policies))])
		waiting := map[int]*job.Job{}
		nextID, doneBelow, now := 1, 1001, int64(1000)
		depsDone := func(id int) bool { return id < doneBelow }
		for step, op := range ops {
			label := fmt.Sprintf("%s step %d (op %d, now %d, n %d)", q.Policy().Name(), step, op, now, q.Len())
			switch arg := int64(op >> 3); op & 7 {
			case 0, 1, 2:
				j := edgeJob(r, nextID, now)
				nextID++
				if err := q.Add(j); err != nil {
					t.Fatal(err)
				}
				waiting[j.ID] = j
			case 3:
				if len(waiting) > 0 {
					id := pickAny(r, waiting)
					if _, err := q.Remove(id); err != nil {
						t.Fatal(err)
					}
					delete(waiting, id)
				}
			case 4:
				now += arg
				if arg == 0 {
					doneBelow = min(doneBelow+1, 1004)
				}
			default:
				for _, j := range gatherPass(t, r, q, now, depsDone, label) {
					delete(waiting, j.ID)
				}
			}
			checkInvariant(t, q)
		}
	})
}

// gatherPass ranks q at now, prunes it with a random cut and a keep that
// honours it, and checks what the ranking hands out against the flat scan
// of Sorted, as FuzzGatherCells describes. It returns the jobs it removed
// from q, as a pass removes the jobs it starts.
func gatherPass(t *testing.T, r *rng.Stream, q *Queue, now int64, depsDone func(int) bool, label string) (removed []*job.Job) {
	t.Helper()
	rk := q.Pass(now, depsDone, r.Intn(4))
	if r.Bool(0.3) {
		rk = q.Rank(now, depsDone, r.Intn(4))
	}
	front := map[*job.Job]bool{}
	for i := range q.slots[:q.front] {
		front[q.slots[i].Job] = true
	}
	ready := refWindow(q.Sorted(now), q.Len(), depsDone)
	freeNodes, freeBB := edgeNodes(r), int64(r.Intn(3))*100
	cut := Cut{Span: edgeSpan(r), Nodes: edgeNodes(r)}
	m := 1 + r.Intn(3)
	keeps := func(e Entry, cut Cut) bool {
		j := e.Job
		return (j.WalltimeEst+j.StageOutSec <= cut.Span || int64(e.nodes) <= int64(cut.Nodes)) && j.ID%m != 0
	}
	flat := func(jobs []*job.Job, cut Cut) []*job.Job {
		var out []*job.Job
		for _, j := range jobs {
			if e := EntryOf(j); e.MayFit(freeNodes, freeBB) && keeps(e, cut) {
				out = append(out, j)
			}
		}
		return out
	}
	want := flat(ready, cut)
	sc, nc, fc := int(spanClass(cut.Span)), nodeClass(cut.Nodes), nodeClass(freeNodes)
	rk.Prune(freeNodes, freeBB, func(e Entry) bool {
		s := SlotOf(e.Job)
		if c := classOf(&s); !front[e.Job] && (c > fc || int(s.span) > sc && c > nc) {
			t.Fatalf("%s: keep asked about job %d (node class %d, span class %d) outside the cells of cut %+v at %d free nodes",
				label, e.Job.ID, c, s.span, cut, freeNodes)
		}
		return keeps(e, cut)
	}, cut)
	var got []*job.Job
	for n := r.Intn(3); n > 0; n-- {
		if e, ok := rk.Next(); ok {
			got = append(got, e.Job)
		}
	}
	if len(got) > len(want) || !slices.Equal(got, want[:len(got)]) {
		t.Fatalf("%s: cut %+v at %d free nodes, %d free BB: ranking begins %v, flat scan %v", label, cut, freeNodes, freeBB, jobIDs(got), jobIDs(want))
	}
	rest := want[len(got):]
	if len(got) > 0 && r.Bool(0.5) {
		// EASY after a start: the same span bound, a smaller leftover.
		cut.Nodes = max(cut.Nodes-1-r.Intn(8), 0)
		rest = flat(rest, cut)
		rk.Prune(freeNodes, freeBB, func(e Entry) bool { return keeps(e, cut) }, cut)
	}
	for _, j := range got {
		if r.Bool(0.5) {
			if _, err := q.Remove(j.ID); err != nil {
				t.Fatal(err)
			}
			removed = append(removed, j)
		}
	}
	var tail []*job.Job
	for e, ok := rk.Next(); ok; e, ok = rk.Next() {
		tail = append(tail, e.Job)
	}
	if !slices.Equal(tail, rest) {
		t.Fatalf("%s: cut %+v at %d free nodes, %d free BB: ranking goes on %v, flat scan %v", label, cut, freeNodes, freeBB, jobIDs(tail), jobIDs(rest))
	}
	return removed
}

// TestGatherKeepCallsOnDeepQueue replays a generated deep queue (Theta/32,
// S4, four times the machine's load) under EASY, once with the cut in its
// Prunes and once without, and requires the two schedules to be equal and
// the cut's gathers to ask keep at most a third as often as the flat
// scan's.
func TestGatherKeepCallsOnDeepQueue(t *testing.T) {
	sys := trace.Scale(trace.Theta(), 32)
	w, err := trace.ApplyVariant(trace.Generate(trace.GenConfig{System: sys, Jobs: 2500, Seed: 42, TargetLoad: 4}), "S4", 42)
	if err != nil {
		t.Fatal(err)
	}
	cells, cellStarts, gathers, deepest := easyReplay(t, w, true)
	flat, flatStarts, _, _ := easyReplay(t, w, false)
	if !slices.Equal(cellStarts, flatStarts) {
		t.Fatal("the schedule with the cut differs from the flat scan's")
	}
	t.Logf("%d gathers, queue up to %d deep: keep asked %.1f times a gather with the cut, %.1f without",
		gathers, deepest, float64(cells)/float64(gathers), float64(flat)/float64(gathers))
	if deepest < 500 || gathers < 500 {
		t.Fatalf("%d gathers over a queue up to %d deep: the test needs a deep queue to mean anything", gathers, deepest)
	}
	if 3*cells > flat {
		t.Errorf("the gathers asked keep %d times, the flat scan's %d: want at most a third", cells, flat)
	}
}

// easyReplay runs w's jobs through one queue under EASY on a machine of
// nodes and burst buffer, the way the engine plans a pass behind a window
// of 20, and returns how many times the passes' gathers asked keep, the
// order the jobs started in, how many gathers there were and the deepest
// queue. With cut set, every Prune is given EASY's cut.
func easyReplay(t *testing.T, w trace.Workload, cut bool) (calls int, started []int, gathers, deepest int) {
	t.Helper()
	// A job releases its nodes at its end and its burst buffer after its
	// stage-out: due by its runtime, planned by its walltime estimate.
	type release struct {
		id    int
		at    int64
		nodes int
		bb    int64
	}
	var due, planned []release
	freeNodes, freeBB := w.System.Cluster.Nodes, w.System.Cluster.BurstBufferGB
	q := New(WFP{})
	ready := func(int) bool { return true }
	start := func(j *job.Job, now int64) {
		nodes, bb := j.Demand.NodeCount(), j.Demand.BB()
		freeNodes, freeBB = freeNodes-nodes, freeBB-bb
		due = append(due, release{j.ID, now + j.Runtime, nodes, 0}, release{j.ID, now + j.Runtime + j.StageOutSec, 0, bb})
		planned = append(planned, release{j.ID, now + j.WalltimeEst, nodes, 0}, release{j.ID, now + j.WalltimeEst + j.StageOutSec, 0, bb})
		if _, err := q.Remove(j.ID); err != nil {
			t.Fatal(err)
		}
		started = append(started, j.ID)
	}
	next := 0
	for next < len(w.Jobs) || len(due) > 0 {
		now := int64(math.MaxInt64)
		if next < len(w.Jobs) {
			now = w.Jobs[next].SubmitTime
		}
		for _, d := range due {
			now = min(now, d.at)
		}
		for k := 0; k < len(due); k++ {
			if d := due[k]; d.at <= now {
				freeNodes, freeBB = freeNodes+d.nodes, freeBB+d.bb
				due[k], due = due[len(due)-1], due[:len(due)-1]
				planned = slices.DeleteFunc(planned, func(p release) bool { return p.id == d.id && p.bb == d.bb && p.nodes == d.nodes })
				k--
			}
		}
		for ; next < len(w.Jobs) && w.Jobs[next].SubmitTime <= now; next++ {
			if err := q.Add(w.Jobs[next]); err != nil {
				t.Fatal(err)
			}
		}
		deepest = max(deepest, q.Len())
		if q.Len() == 0 || freeNodes == 0 {
			continue
		}
		rk := q.Rank(now, ready, 20)
		var head *job.Job
		for e, ok := rk.Next(); ok; e, ok = rk.Next() {
			if j := e.Job; j.Demand.NodeCount() > freeNodes || j.Demand.BB() > freeBB {
				head = j
				break
			}
			start(e.Job, now)
		}
		if head == nil {
			continue
		}
		// The head's shadow time and the leftover there, replaying the
		// planned releases in time order.
		slices.SortFunc(planned, func(a, b release) int { return cmp.Compare(a.at, b.at) })
		shadow, leftNodes, leftBB := int64(-1), freeNodes, freeBB
		for _, p := range planned {
			leftNodes, leftBB = leftNodes+p.nodes, leftBB+p.bb
			if head.Demand.NodeCount() <= leftNodes && head.Demand.BB() <= leftBB {
				shadow, leftNodes, leftBB = p.at, leftNodes-head.Demand.NodeCount(), leftBB-head.Demand.BB()
				break
			}
		}
		if shadow < 0 {
			t.Fatalf("job %d never fits", head.ID)
		}
		counting := true
		keep := func(e Entry) bool {
			if counting {
				calls++
			}
			j := e.Job
			nodes, bb := j.Demand.NodeCount(), j.Demand.BB()
			if now+j.WalltimeEst+j.StageOutSec > shadow && (nodes > leftNodes || bb > leftBB) {
				return false
			}
			return nodes <= freeNodes && bb <= freeBB
		}
		prune := func() {
			if cut {
				rk.Prune(freeNodes, freeBB, keep, Cut{Span: shadow - now, Nodes: leftNodes})
			} else {
				rk.Prune(freeNodes, freeBB, keep)
			}
		}
		prune()
		gathers++
		counting = false
		for e, ok := rk.Next(); ok; e, ok = rk.Next() {
			j := e.Job
			if !keep(e) {
				continue
			}
			if now+j.WalltimeEst+j.StageOutSec > shadow {
				leftNodes, leftBB = leftNodes-j.Demand.NodeCount(), leftBB-j.Demand.BB()
			}
			start(j, now)
			prune()
		}
	}
	return calls, started, gathers, deepest
}

// TestCheckInvariantCatchesCells shows the layout checks have teeth: a
// stale span class, a tail job outside its cell, cell sizes that miss a
// slot or go negative and a cell marked empty are each reported.
func TestCheckInvariantCatchesCells(t *testing.T) {
	build := func() *Queue {
		q := New(FCFS{})
		for id := 1; id <= 8; id++ {
			j := mkJob(id, int64(id), 1+id%2, int64(1)<<(id%3*4))
			if err := q.Add(j); err != nil {
				t.Fatal(err)
			}
		}
		checkInvariant(t, q)
		if bits.OnesCount32(q.cells[1]) < 2 {
			t.Fatalf("class 1 holds cells %b; the test needs two", q.cells[1])
		}
		return q
	}
	for name, corrupt := range map[string]func(q *Queue){
		"stale span class": func(q *Queue) { q.slots[0].span++ },
		"job outside its cell": func(q *Queue) {
			i, j := 0, q.cut[1]-1 // the lowest and the highest cell of class 1
			q.slots[i], q.slots[j] = q.slots[j], q.slots[i]
			q.tour.leaves[q.slots[i].leaf].pos, q.tour.leaves[q.slots[j].leaf].pos = int32(i), int32(j)
		},
		"cell sizes off by one": func(q *Queue) { q.sizes[1][1]-- },
		"negative cell size":    func(q *Queue) { q.sizes[1][0], q.sizes[1][1] = -1, q.sizes[1][1]+1 },
		"cell bit unset":        func(q *Queue) { q.cells[1] = 0 },
	} {
		q := build()
		corrupt(q)
		if q.CheckInvariant() == nil {
			t.Errorf("%s: CheckInvariant found nothing", name)
		}
	}
}
