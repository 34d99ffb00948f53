package metrics

import (
	"sort"

	"bbsched/internal/job"
)

// Per-job metric accumulation: JobStats is the one accumulator of the
// per-job half of §4.2. A run folds each measured job into it as the job
// completes and keeps nothing else of the job. Sums are accumulated in
// completion order, so every mean and bucket breakdown is a function of
// that order alone. The wait-time percentiles come from one of two
// back-ends fixed at construction: exact nearest-rank over one float64
// per observed job (the default), or three O(1) P² sketches for runs
// too long to keep a float per job.

// JobStats accumulates per-job §4.2 metrics one completed job at a time.
type JobStats struct {
	slowdownFloor int64
	b             Buckets

	n       int
	waitSum float64
	sdSum   float64

	sizeLabels []string
	bbLabels   []string
	rtLabels   []string
	sizeBounds []int64
	sizeSums   []float64
	sizeCounts []int
	bbSums     []float64
	bbCounts   []int
	rtSums     []float64
	rtCounts   []int

	// Percentile back-end: the three sketches when sketch is set, else the
	// observed waits in completion order. The other stays zero.
	sketch        bool
	waits         []float64
	p50, p90, p99 p2Quantile
}

// NewJobStats returns an accumulator using the given slowdown floor and
// breakdown buckets (zero buckets fall back to DefaultBuckets). sketch
// selects P² percentile estimates in constant memory; otherwise the
// percentiles are exact and the accumulator keeps one float64 per
// observed job, with room for sizeHint of them up front.
func NewJobStats(slowdownFloor int64, b Buckets, sketch bool, sizeHint int) *JobStats {
	if len(b.SizeBounds) == 0 && len(b.BBBoundsGB) == 0 && len(b.RuntimeBounds) == 0 {
		b = DefaultBuckets()
	}
	s := &JobStats{
		slowdownFloor: slowdownFloor,
		b:             b,
		sizeLabels:    sizeLabels(b.SizeBounds),
		bbLabels:      bbLabels(b.BBBoundsGB),
		rtLabels:      runtimeLabels(b.RuntimeBounds),
		sizeBounds:    toInt64(b.SizeBounds),
		sketch:        sketch,
	}
	s.sizeSums = make([]float64, len(s.sizeLabels))
	s.sizeCounts = make([]int, len(s.sizeLabels))
	s.bbSums = make([]float64, len(s.bbLabels))
	s.bbCounts = make([]int, len(s.bbLabels))
	s.rtSums = make([]float64, len(s.rtLabels))
	s.rtCounts = make([]int, len(s.rtLabels))
	if sketch {
		s.p50.init(0.50)
		s.p90.init(0.90)
		s.p99.init(0.99)
	} else {
		s.waits = make([]float64, 0, sizeHint)
	}
	return s
}

// Observe folds one completed job into the running statistics. The sums
// are floating-point, so the order of the calls is part of the result.
func (s *JobStats) Observe(j *job.Job) {
	wait := float64(j.WaitTime())
	s.n++
	s.waitSum += wait
	s.sdSum += j.Slowdown(s.slowdownFloor)

	if s.sketch {
		s.p50.observe(wait)
		s.p90.observe(wait)
		s.p99.observe(wait)
	} else {
		s.waits = append(s.waits, wait)
	}

	i := bucketIndex(int64(j.Demand.NodeCount()), s.sizeBounds)
	s.sizeSums[i] += wait
	s.sizeCounts[i]++
	i = 0
	if bb := j.Demand.BB(); bb > 0 {
		i = 1 + bucketIndex(bb, s.b.BBBoundsGB)
	}
	s.bbSums[i] += wait
	s.bbCounts[i]++
	i = bucketIndex(j.Runtime, s.b.RuntimeBounds)
	s.rtSums[i] += wait
	s.rtCounts[i]++
}

// Count returns the number of jobs observed.
func (s *JobStats) Count() int { return s.n }

// Report assembles the full §4.2 report from the usage collector and the
// accumulated per-job statistics.
func (s *JobStats) Report(c *Collector, cap Capacity) Report {
	r := usageReport(c, cap)
	if s.n == 0 {
		return r
	}
	r.CompletedJobs = s.n
	r.AvgWaitSec = s.waitSum / float64(s.n)
	r.AvgSlowdown = s.sdSum / float64(s.n)
	if s.sketch {
		r.WaitP50Sec = s.p50.value()
		r.WaitP90Sec = s.p90.value()
		r.WaitP99Sec = s.p99.value()
	} else {
		// Sort a copy: the stored completion order is checkpoint state.
		sorted := append([]float64(nil), s.waits...)
		sort.Float64s(sorted)
		r.WaitP50Sec = nearestRank(sorted, 0.50)
		r.WaitP90Sec = nearestRank(sorted, 0.90)
		r.WaitP99Sec = nearestRank(sorted, 0.99)
	}
	r.WaitBySize = bucketStats(s.sizeLabels, s.sizeSums, s.sizeCounts)
	r.WaitByBB = bucketStats(s.bbLabels, s.bbSums, s.bbCounts)
	r.WaitByRuntime = bucketStats(s.rtLabels, s.rtSums, s.rtCounts)
	return r
}

func bucketStats(labels []string, sums []float64, counts []int) []BucketStat {
	out := make([]BucketStat, len(labels))
	for i := range labels {
		out[i] = BucketStat{Label: labels[i], Jobs: counts[i]}
		if counts[i] > 0 {
			out[i].AvgWaitSec = sums[i] / float64(counts[i])
		}
	}
	return out
}

// p2Quantile is the P² streaming quantile estimator (Jain & Chlamtac,
// CACM 1985): five markers tracking the quantile and its neighborhood,
// adjusted per observation with parabolic interpolation. O(1) memory,
// deterministic, no configuration — the standard choice for single-pass
// percentiles when a fixed error bound is not required.
type p2Quantile struct {
	p     float64
	count int
	q     [5]float64 // marker heights
	n     [5]float64 // marker positions
	np    [5]float64 // desired positions
	dn    [5]float64 // desired-position increments
}

func (e *p2Quantile) init(p float64) {
	e.p = p
	e.dn = [5]float64{0, p / 2, p, (1 + p) / 2, 1}
}

func (e *p2Quantile) observe(x float64) {
	if e.count < 5 {
		e.q[e.count] = x
		e.count++
		if e.count == 5 {
			sort.Float64s(e.q[:])
			for i := 0; i < 5; i++ {
				e.n[i] = float64(i + 1)
			}
			p := e.p
			e.np = [5]float64{1, 1 + 2*p, 1 + 4*p, 3 + 2*p, 5}
		}
		return
	}
	// Find the cell containing x, extending the extremes if needed.
	var k int
	switch {
	case x < e.q[0]:
		e.q[0] = x
		k = 0
	case x >= e.q[4]:
		e.q[4] = x
		k = 3
	default:
		for k = 0; k < 3; k++ {
			if x < e.q[k+1] {
				break
			}
		}
	}
	for i := k + 1; i < 5; i++ {
		e.n[i]++
	}
	for i := 0; i < 5; i++ {
		e.np[i] += e.dn[i]
	}
	// Adjust interior markers toward their desired positions.
	for i := 1; i <= 3; i++ {
		d := e.np[i] - e.n[i]
		if (d >= 1 && e.n[i+1]-e.n[i] > 1) || (d <= -1 && e.n[i-1]-e.n[i] < -1) {
			s := 1.0
			if d < 0 {
				s = -1.0
			}
			qn := e.parabolic(i, s)
			if !(e.q[i-1] < qn && qn < e.q[i+1]) {
				qn = e.linear(i, s)
			}
			e.q[i] = qn
			e.n[i] += s
		}
	}
	e.count++
}

func (e *p2Quantile) parabolic(i int, d float64) float64 {
	return e.q[i] + d/(e.n[i+1]-e.n[i-1])*
		((e.n[i]-e.n[i-1]+d)*(e.q[i+1]-e.q[i])/(e.n[i+1]-e.n[i])+
			(e.n[i+1]-e.n[i]-d)*(e.q[i]-e.q[i-1])/(e.n[i]-e.n[i-1]))
}

func (e *p2Quantile) linear(i int, d float64) float64 {
	return e.q[i] + d*(e.q[i+int(d)]-e.q[i])/(e.n[i+int(d)]-e.n[i])
}

// value returns the current estimate; with fewer than five observations
// it falls back to the exact nearest-rank value over the buffered prefix.
func (e *p2Quantile) value() float64 {
	if e.count == 0 {
		return 0
	}
	if e.count < 5 {
		buf := append([]float64(nil), e.q[:e.count]...)
		sort.Float64s(buf)
		return nearestRank(buf, e.p)
	}
	return e.q[2]
}
