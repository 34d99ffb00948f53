package queue

import (
	"testing"

	"bbsched/internal/job"
)

func mkJob(id int, submit int64, nodes int, walltime int64) *job.Job {
	return job.MustNew(id, submit, walltime, walltime, job.NewDemand(nodes, 0, 0))
}

// priorityOf evaluates p for one job.
func priorityOf(p Policy, j *job.Job, now int64) float64 {
	s := []Slot{SlotOf(j)}
	p.Prioritize(s, now)
	return s[0].Prio
}

func TestByName(t *testing.T) {
	for _, name := range []string{"FCFS", "WFP"} {
		p, err := ByName(name)
		if err != nil || p.Name() != name {
			t.Errorf("ByName(%q) = %v, %v", name, p, err)
		}
	}
	if _, err := ByName("SJF"); err == nil {
		t.Error("unknown policy accepted")
	}
}

func TestAddRemove(t *testing.T) {
	q := New(FCFS{})
	j := mkJob(1, 0, 4, 100)
	if err := q.Add(j); err != nil {
		t.Fatal(err)
	}
	if err := q.Add(j); err == nil {
		t.Fatal("double add accepted")
	}
	if !q.Contains(1) || q.Len() != 1 {
		t.Fatal("queue state wrong after add")
	}
	if err := q.Remove(1); err != nil {
		t.Fatal(err)
	}
	if err := q.Remove(1); err == nil {
		t.Fatal("double remove accepted")
	}
	if q.Contains(1) || q.Len() != 0 {
		t.Fatal("queue state wrong after remove")
	}
}

func TestFCFSOrder(t *testing.T) {
	q := New(FCFS{})
	q.Add(mkJob(2, 100, 1, 10))
	q.Add(mkJob(1, 50, 1, 10))
	q.Add(mkJob(3, 100, 1, 10)) // same submit as 2: tie by ID
	order := q.Sorted(200)
	want := []int{1, 2, 3}
	for i, id := range want {
		if order[i].ID != id {
			t.Fatalf("position %d: job %d, want %d (order %v)", i, order[i].ID, id, ids(order))
		}
	}
}

func TestWFPFavorsLargeAndLongWaiting(t *testing.T) {
	q := New(WFP{})
	// Same wait and walltime: larger job wins.
	q.Add(mkJob(1, 0, 10, 1000))
	q.Add(mkJob(2, 0, 100, 1000))
	order := q.Sorted(500)
	if order[0].ID != 2 {
		t.Fatalf("WFP should put the 100-node job first, got %v", ids(order))
	}

	// Same size: the job that has waited longer (relative to its
	// walltime) wins.
	q2 := New(WFP{})
	q2.Add(mkJob(1, 0, 10, 1000))   // waited 500
	q2.Add(mkJob(2, 400, 10, 1000)) // waited 100
	if got := q2.Sorted(500); got[0].ID != 1 {
		t.Fatalf("WFP should favor the longer-waiting job, got %v", ids(got))
	}

	// Shorter requested walltime boosts priority at equal wait and size.
	q3 := New(WFP{})
	q3.Add(mkJob(1, 0, 10, 10000))
	q3.Add(mkJob(2, 0, 10, 1000))
	if got := q3.Sorted(500); got[0].ID != 2 {
		t.Fatalf("WFP should favor the shorter job, got %v", ids(got))
	}
}

func TestWFPPriorityCubicGrowth(t *testing.T) {
	p := WFP{}
	j := mkJob(1, 0, 8, 1000)
	p1 := priorityOf(p, j, 1000) // ratio 1
	p2 := priorityOf(p, j, 2000) // ratio 2
	if p2 != 8*p1 {
		t.Fatalf("cubic growth violated: %v then %v", p1, p2)
	}
	if priorityOf(p, j, -100) != 0 {
		t.Fatal("negative wait should clamp to zero priority")
	}
}

func TestWindowDependencyGating(t *testing.T) {
	q := New(FCFS{})
	a := mkJob(1, 0, 1, 10)
	b := mkJob(2, 1, 1, 10)
	b.Deps = []int{99}
	c := mkJob(3, 2, 1, 10)
	for _, j := range []*job.Job{a, b, c} {
		q.Add(j)
	}
	done := map[int]bool{}
	win := q.Window(10, 3, func(id int) bool { return done[id] })
	if got := ids(win); len(got) != 2 || got[0] != 1 || got[1] != 3 {
		t.Fatalf("window = %v, want [1 3] (dep-blocked job skipped)", got)
	}
	done[99] = true
	win = q.Window(10, 3, func(id int) bool { return done[id] })
	if got := ids(win); len(got) != 3 || got[1] != 2 {
		t.Fatalf("window = %v, want [1 2 3] once deps done", got)
	}
}

func TestWindowSizeLimit(t *testing.T) {
	q := New(FCFS{})
	for i := 0; i < 10; i++ {
		q.Add(mkJob(i, int64(i), 1, 10))
	}
	if win := q.Window(100, 4, func(int) bool { return true }); len(win) != 4 {
		t.Fatalf("window size = %d, want 4", len(win))
	}
	if win := q.Window(100, 0, func(int) bool { return true }); win != nil {
		t.Fatal("zero-size window should be empty")
	}
	if win := q.Window(100, 100, func(int) bool { return true }); len(win) != 10 {
		t.Fatalf("window should cap at queue length, got %d", len(win))
	}
}

func TestSortedDeterministicAcrossCalls(t *testing.T) {
	q := New(WFP{})
	for i := 0; i < 50; i++ {
		q.Add(mkJob(i, int64(i%7), 1+i%16, 100+int64(i%5)*100))
	}
	a := ids(q.Sorted(1000))
	b := ids(q.Sorted(1000))
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("Sorted not deterministic")
		}
	}
}

func ids(jobs []*job.Job) []int {
	out := make([]int, len(jobs))
	for i, j := range jobs {
		out[i] = j.ID
	}
	return out
}
