package metrics

import (
	"math"
	"testing"
	"testing/quick"

	"bbsched/internal/job"
)

func TestCollectorIntegration(t *testing.T) {
	var c Collector
	c.Observe(0, Usage{Nodes: 10, BBGB: 100})
	c.Observe(50, Usage{Nodes: 20, BBGB: 0}) // 10 nodes for 50s
	c.Observe(100, Usage{})                  // 20 nodes for 50s
	nodeSec, bbSec, _, _ := c.Integrals()
	if nodeSec != 10*50+20*50 {
		t.Fatalf("nodeSec = %v", nodeSec)
	}
	if bbSec != 100*50 {
		t.Fatalf("bbSec = %v", bbSec)
	}
	lo, hi := c.Span()
	if lo != 0 || hi != 100 {
		t.Fatalf("span = [%d, %d]", lo, hi)
	}
}

func TestCollectorPanicsOnTimeTravel(t *testing.T) {
	var c Collector
	c.Observe(100, Usage{})
	defer func() {
		if recover() == nil {
			t.Fatal("no panic on backwards time")
		}
	}()
	c.Observe(50, Usage{})
}

func TestCollectorWindowClipping(t *testing.T) {
	var c Collector
	c.SetWindow(100, 200)
	c.Observe(0, Usage{Nodes: 10})
	c.Observe(150, Usage{Nodes: 4}) // 10 nodes over [100,150] counts
	c.Observe(300, Usage{})         // 4 nodes over [150,200] counts
	nodeSec, _, _, _ := c.Integrals()
	if nodeSec != 10*50+4*50 {
		t.Fatalf("windowed nodeSec = %v, want 700", nodeSec)
	}
	lo, hi := c.Span()
	if lo != 100 || hi != 200 {
		t.Fatalf("windowed span = [%d, %d]", lo, hi)
	}
}

func TestSetWindowValidation(t *testing.T) {
	var c Collector
	c.Observe(0, Usage{})
	func() {
		defer func() {
			if recover() == nil {
				t.Error("SetWindow after Observe did not panic")
			}
		}()
		c.SetWindow(0, 10)
	}()
	var c2 Collector
	defer func() {
		if recover() == nil {
			t.Error("inverted window did not panic")
		}
	}()
	c2.SetWindow(10, 0)
}

// finished is a completed job and the instant it started.
type finished struct {
	j     *job.Job
	start int64
}

func finishedJob(id int, submit, start, runtime int64, nodes int, bb int64) finished {
	return finished{job.MustNew(id, submit, runtime, runtime, job.NewDemand(nodes, bb, 0)), start}
}

// Compute is the report of JobStats' exact back-end over the finished
// jobs, observed in order.
func Compute(c *Collector, cap Capacity, jobs []finished, slowdownFloor int64, b Buckets) Report {
	s := NewJobStats(slowdownFloor, b, false, len(jobs))
	for _, f := range jobs {
		s.Observe(f.j, f.start)
	}
	return s.Report(c, cap)
}

func TestComputeUsageRatios(t *testing.T) {
	var c Collector
	c.Observe(0, Usage{Nodes: 50, BBGB: 500, SSDAssignedGB: 200, SSDRequestedGB: 150})
	c.Observe(100, Usage{})
	cap := Capacity{Nodes: 100, BBGB: 1000, SSDGB: 400}
	r := Compute(&c, cap, nil, 60, Buckets{})
	if math.Abs(r.NodeUsage-0.5) > 1e-12 {
		t.Errorf("NodeUsage = %v, want 0.5", r.NodeUsage)
	}
	if math.Abs(r.BBUsage-0.5) > 1e-12 {
		t.Errorf("BBUsage = %v, want 0.5", r.BBUsage)
	}
	if math.Abs(r.SSDUsage-150.0/400) > 1e-12 {
		t.Errorf("SSDUsage = %v", r.SSDUsage)
	}
	if math.Abs(r.WastedSSDFrac-50.0/400) > 1e-12 {
		t.Errorf("WastedSSDFrac = %v", r.WastedSSDFrac)
	}
	if r.CompletedJobs != 0 || r.AvgWaitSec != 0 {
		t.Error("no finished jobs should yield zero per-job metrics")
	}
}

func TestComputePerJobMetrics(t *testing.T) {
	var c Collector
	c.Observe(0, Usage{})
	c.Observe(1000, Usage{})
	jobs := []finished{
		finishedJob(1, 0, 100, 400, 4, 0),  // wait 100, slowdown (100+400)/400
		finishedJob(2, 50, 250, 100, 2, 0), // wait 200, slowdown (200+100)/100
	}
	r := Compute(&c, Capacity{Nodes: 10}, jobs, 60, Buckets{})
	if r.CompletedJobs != 2 {
		t.Fatalf("completed = %d", r.CompletedJobs)
	}
	if r.AvgWaitSec != 150 {
		t.Errorf("AvgWaitSec = %v, want 150", r.AvgWaitSec)
	}
	want := (500.0/400 + 300.0/100) / 2
	if math.Abs(r.AvgSlowdown-want) > 1e-12 {
		t.Errorf("AvgSlowdown = %v, want %v", r.AvgSlowdown, want)
	}

	// Exact percentiles over ten waits given out of order: nearest rank
	// takes the 5th, 9th and 10th smallest. The literals were computed by
	// the Compute of the commit before JobStats became its body, so they
	// are an oracle for the exact back-end that is not the back-end.
	jobs = jobs[:0]
	for i, wait := range []int64{700, 30, 910, 50, 10, 400, 90, 1000, 20, 60} {
		jobs = append(jobs, finishedJob(i, 0, wait, 100, 1, 0))
	}
	r = Compute(&c, Capacity{Nodes: 10}, jobs, 60, Buckets{})
	if r.WaitP50Sec != 60 || r.WaitP90Sec != 910 || r.WaitP99Sec != 1000 {
		t.Errorf("wait p50/p90/p99 = %v/%v/%v, want 60/910/1000", r.WaitP50Sec, r.WaitP90Sec, r.WaitP99Sec)
	}
	if r.AvgWaitSec != 327 {
		t.Errorf("AvgWaitSec = %v, want 327", r.AvgWaitSec)
	}
}

func TestSlowdownFloorApplied(t *testing.T) {
	var c Collector
	c.Observe(0, Usage{})
	c.Observe(10, Usage{})
	short := finishedJob(1, 0, 1000, 1, 1, 0) // 1s runtime, wait 1000
	r := Compute(&c, Capacity{Nodes: 1}, []finished{short}, 60, Buckets{})
	want := 1001.0 / 60
	if math.Abs(r.AvgSlowdown-want) > 1e-9 {
		t.Errorf("bounded slowdown = %v, want %v", r.AvgSlowdown, want)
	}
}

func TestBreakdowns(t *testing.T) {
	var c Collector
	c.Observe(0, Usage{})
	c.Observe(10, Usage{})
	jobs := []finished{
		finishedJob(1, 0, 100, 1800, 4, 0),            // 1-8 nodes, no BB, <=1h
		finishedJob(2, 0, 300, 7200, 64, 50_000),      // 9-128, <=100TB, 1-4h
		finishedJob(3, 0, 500, 50_000, 2000, 250_000), // >1024, >200TB, >12h
	}
	r := Compute(&c, Capacity{Nodes: 4392}, jobs, 60, DefaultBuckets())
	if len(r.WaitBySize) != 4 {
		t.Fatalf("size buckets = %d", len(r.WaitBySize))
	}
	if r.WaitBySize[0].Jobs != 1 || r.WaitBySize[0].AvgWaitSec != 100 {
		t.Errorf("size bucket 0 = %+v", r.WaitBySize[0])
	}
	if r.WaitBySize[3].Jobs != 1 || r.WaitBySize[3].AvgWaitSec != 500 {
		t.Errorf("size bucket 3 = %+v", r.WaitBySize[3])
	}
	if len(r.WaitByBB) != 4 {
		t.Fatalf("bb buckets = %d: %v", len(r.WaitByBB), r.WaitByBB)
	}
	if r.WaitByBB[0].Jobs != 1 { // no-BB bucket
		t.Errorf("no-BB bucket = %+v", r.WaitByBB[0])
	}
	if r.WaitByBB[3].Jobs != 1 { // >200TB
		t.Errorf(">200TB bucket = %+v", r.WaitByBB[3])
	}
	if len(r.WaitByRuntime) != 4 {
		t.Fatalf("runtime buckets = %d", len(r.WaitByRuntime))
	}
	if r.WaitByRuntime[1].Jobs != 1 || r.WaitByRuntime[1].AvgWaitSec != 300 {
		t.Errorf("runtime bucket 1 = %+v", r.WaitByRuntime[1])
	}
}

func TestBucketIndex(t *testing.T) {
	bounds := []int64{8, 128, 1024}
	cases := map[int64]int{1: 0, 8: 0, 9: 1, 128: 1, 129: 2, 1024: 2, 1025: 3, 99999: 3}
	for v, want := range cases {
		if got := bucketIndex(v, bounds); got != want {
			t.Errorf("bucketIndex(%d) = %d, want %d", v, got, want)
		}
	}
}

func TestNormalize01(t *testing.T) {
	got := Normalize01([]float64{2, 4, 6})
	want := []float64{0, 0.5, 1}
	for i := range want {
		if math.Abs(got[i]-want[i]) > 1e-12 {
			t.Fatalf("Normalize01 = %v", got)
		}
	}
	if got := Normalize01([]float64{3, 3}); got[0] != 1 || got[1] != 1 {
		t.Fatalf("constant input = %v, want all ones", got)
	}
	if got := Normalize01([]float64{math.NaN(), 5}); got[0] != 0 {
		t.Fatalf("NaN should map to 0: %v", got)
	}
	if Normalize01(nil) != nil {
		t.Fatal("nil input should return nil")
	}
}

func TestNormalize01PropertyRange(t *testing.T) {
	f := func(raw []int32) bool {
		// Metric values are usages, waits, and slowdowns — modest finite
		// magnitudes; derive them from int32 to stay in domain.
		vals := make([]float64, len(raw))
		for i, v := range raw {
			vals[i] = float64(v) / 1000
		}
		for _, v := range Normalize01(vals) {
			if v < 0 || v > 1 || math.IsNaN(v) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestKiviatArea(t *testing.T) {
	// Square of unit radii: area = ½·sin(90°)·4 = 2.
	if a := KiviatArea([]float64{1, 1, 1, 1}); math.Abs(a-2) > 1e-12 {
		t.Fatalf("unit square kiviat area = %v, want 2", a)
	}
	if KiviatArea([]float64{1, 1}) != 0 {
		t.Fatal("degenerate polygon should have zero area")
	}
	// Monotone: growing any radius cannot shrink the area.
	small := KiviatArea([]float64{0.5, 1, 1, 1})
	big := KiviatArea([]float64{1, 1, 1, 1})
	if small >= big {
		t.Fatal("area not monotone in radii")
	}
}

func TestReciprocal(t *testing.T) {
	if Reciprocal(4) != 0.25 {
		t.Fatal("1/4 wrong")
	}
	if Reciprocal(0) != 0 || Reciprocal(-5) != 0 {
		t.Fatal("non-positive inputs should map to 0")
	}
}

func TestSortedLabels(t *testing.T) {
	m := map[string]int{"b": 1, "a": 2, "c": 3}
	got := SortedLabels(m)
	if len(got) != 3 || got[0] != "a" || got[2] != "c" {
		t.Fatalf("SortedLabels = %v", got)
	}
}

// TestObserveSteadyStateAllocs pins the event-loop contract: once the
// collector's extra-dimension scratch has warmed up, Observe allocates
// nothing, no matter how many samples the simulation feeds it.
func TestObserveSteadyStateAllocs(t *testing.T) {
	var c Collector
	u := Usage{Nodes: 4, BBGB: 100, Extra: []int64{7, 9}}
	c.Observe(0, u) // warm up the deep-copy scratch
	allocs := testing.AllocsPerRun(200, func() {
		u.Nodes++
		u.Extra[0]++
		c.Observe(c.lastT+10, u)
	})
	if allocs != 0 {
		t.Fatalf("steady-state Observe allocates %.1f per call, want 0", allocs)
	}
}
