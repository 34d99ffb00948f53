package metrics

import (
	"math"
	"math/rand/v2"
	"reflect"
	"sort"
	"testing"

	"bbsched/internal/job"
)

// streamFixture builds a collector plus a finished-job set with varied
// sizes, BB requests, runtimes, and waits.
func streamFixture(n int, seed uint64) (*Collector, Capacity, []*job.Job) {
	r := rand.New(rand.NewPCG(seed, 0))
	var c Collector
	c.Observe(0, Usage{Nodes: 40, BBGB: 1000})
	c.Observe(5000, Usage{})
	cap := Capacity{Nodes: 100, BBGB: 10_000}
	jobs := make([]*job.Job, n)
	for i := range jobs {
		nodes := 1 << r.IntN(12)
		var bb int64
		if r.IntN(3) == 0 {
			bb = int64(r.IntN(300_000)) + 1
		}
		rt := int64(r.IntN(15*3600)) + 1
		j := job.MustNew(i, int64(i), rt, rt+60, job.NewDemand(nodes, bb, 0))
		j.StartTime = j.SubmitTime + int64(r.IntN(5000))
		jobs[i] = j
	}
	return &c, cap, jobs
}

// TestJobStatsMatchesCompute compares the two percentile back-ends of
// the one accumulator — Compute is its exact back-end behind a slice
// front-end: after observing the same finished jobs in the same order,
// every mean and bucket breakdown is bit-identical, and the P² estimates
// track the exact nearest-rank percentiles.
func TestJobStatsMatchesCompute(t *testing.T) {
	for _, n := range []int{0, 1, 3, 4, 500} {
		c, cap, jobs := streamFixture(n, uint64(n)+7)
		want := Compute(c, cap, jobs, 10, Buckets{})
		s := NewJobStats(10, Buckets{}, true, 0)
		for _, j := range jobs {
			s.Observe(j)
		}
		if s.Count() != n {
			t.Fatalf("n=%d: Count() = %d", n, s.Count())
		}
		got := s.Report(c, cap)

		// Percentiles are the one legitimately different field family:
		// exact nearest-rank vs P² estimate. Compare them with tolerance,
		// then zero them and require everything else identical.
		waits := make([]float64, 0, n)
		for _, j := range jobs {
			waits = append(waits, float64(j.WaitTime()))
		}
		sort.Float64s(waits)
		for _, pc := range []struct {
			p          float64
			exact, est float64
		}{
			{0.50, want.WaitP50Sec, got.WaitP50Sec},
			{0.90, want.WaitP90Sec, got.WaitP90Sec},
			{0.99, want.WaitP99Sec, got.WaitP99Sec},
		} {
			if n < 5 {
				// Below five observations the sketch falls back to exact.
				if pc.est != pc.exact {
					t.Fatalf("n=%d p%.0f: small-sample fallback %v != exact %v", n, pc.p*100, pc.est, pc.exact)
				}
				continue
			}
			// P² error on smooth distributions is small; 10% of the spread
			// is a loose, deterministic bound for this fixture.
			spread := waits[len(waits)-1] - waits[0]
			if d := math.Abs(pc.est - pc.exact); d > 0.10*spread+1 {
				t.Fatalf("n=%d p%.0f: estimate %v vs exact %v (off by %v, spread %v)", n, pc.p*100, pc.est, pc.exact, d, spread)
			}
		}
		got.WaitP50Sec, got.WaitP90Sec, got.WaitP99Sec = 0, 0, 0
		want.WaitP50Sec, want.WaitP90Sec, want.WaitP99Sec = 0, 0, 0
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("n=%d: streaming report diverges from Compute:\n got: %+v\nwant: %+v", n, got, want)
		}
	}
}

// TestJobStatsCustomBuckets checks custom buckets thread through both
// back-ends alike.
func TestJobStatsCustomBuckets(t *testing.T) {
	b := Buckets{SizeBounds: []int{2}, BBBoundsGB: []int64{50}, RuntimeBounds: []int64{100}}
	c, cap, jobs := streamFixture(60, 3)
	want := Compute(c, cap, jobs, 10, b)
	s := NewJobStats(10, b, true, 0)
	for _, j := range jobs {
		s.Observe(j)
	}
	got := s.Report(c, cap)
	if !reflect.DeepEqual(got.WaitBySize, want.WaitBySize) ||
		!reflect.DeepEqual(got.WaitByBB, want.WaitByBB) ||
		!reflect.DeepEqual(got.WaitByRuntime, want.WaitByRuntime) {
		t.Fatalf("custom buckets diverge:\n got: %+v\nwant: %+v", got, want)
	}
}

// TestP2Quantile exercises the estimator directly against exact
// nearest-rank quantiles of known distributions.
func TestP2Quantile(t *testing.T) {
	r := rand.New(rand.NewPCG(1, 2))
	for _, tc := range []struct {
		name string
		draw func() float64
	}{
		{"uniform", func() float64 { return r.Float64() * 1000 }},
		{"exponential", func() float64 { return r.ExpFloat64() * 100 }},
		{"constant", func() float64 { return 42 }},
	} {
		var e p2Quantile
		e.init(0.90)
		xs := make([]float64, 20_000)
		for i := range xs {
			xs[i] = tc.draw()
			e.observe(xs[i])
		}
		sort.Float64s(xs)
		exact := nearestRank(xs, 0.90)
		spread := xs[len(xs)-1] - xs[0]
		if d := math.Abs(e.value() - exact); d > 0.05*spread+1e-9 {
			t.Fatalf("%s: p90 estimate %v vs exact %v (off %v, spread %v)", tc.name, e.value(), exact, d, spread)
		}
	}
	// Degenerate counts.
	var e p2Quantile
	e.init(0.5)
	if e.value() != 0 {
		t.Fatal("empty estimator should report 0")
	}
	e.observe(3)
	e.observe(1)
	if e.value() != 1 {
		t.Fatalf("2-sample p50 = %v, want exact nearest-rank 1", e.value())
	}
}

// TestNearestRank pins the exact percentile definition used by Compute.
func TestNearestRank(t *testing.T) {
	xs := []float64{10, 20, 30, 40}
	for _, tc := range []struct {
		p    float64
		want float64
	}{{0.25, 10}, {0.50, 20}, {0.75, 30}, {0.90, 40}, {1.0, 40}} {
		if got := nearestRank(xs, tc.p); got != tc.want {
			t.Fatalf("nearestRank(p=%v) = %v, want %v", tc.p, got, tc.want)
		}
	}
}
