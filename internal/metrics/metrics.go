// Package metrics computes the paper's §4.2 evaluation metrics: node,
// burst-buffer and local-SSD usage (time-weighted resource integrals over
// the measured interval), wasted local SSD, average job wait time, and
// bounded average slowdown — plus the by-size/by-BB/by-runtime wait-time
// breakdowns of Figs. 9–11 and the Kiviat normalization of Figs. 13–14.
package metrics

import (
	"fmt"
	"math"
	"sort"
)

// Usage is an instantaneous resource usage sample.
type Usage struct {
	// Nodes is the allocated node count.
	Nodes int
	// BBGB is the allocated burst buffer in GB.
	BBGB int64
	// SSDAssignedGB is the aggregate SSD capacity of allocated nodes.
	SSDAssignedGB int64
	// SSDRequestedGB is the aggregate requested SSD volume of running jobs
	// (assigned − requested = wasted, §5's f4).
	SSDRequestedGB int64
	// Extra is the allocated amount per extra resource dimension, aligned
	// to the cluster config's Extra specs. Nil on 2-dimension machines.
	Extra []int64
}

// Collector integrates piecewise-constant resource usage over time and
// gathers per-job statistics for completed jobs. Observe must be called
// with non-decreasing timestamps. An optional measurement window clips the
// integrals to the paper's warm-up/cool-down-trimmed interval.
type Collector struct {
	lastT   int64
	started bool
	cur     Usage
	// curExtra owns cur.Extra's storage: Observe deep-copies the sample's
	// Extra slice so callers may keep mutating theirs between samples.
	curExtra []int64

	// integrals in resource-seconds
	nodeSec, bbSec, ssdAssignedSec, ssdRequestedSec float64
	extraSec                                        []float64

	firstT int64
	lastTs int64

	windowed         bool
	winStart, winEnd int64
}

// SetWindow restricts integration to [start, end]; usage outside the
// window is ignored and Span reports the window. Must be called before the
// first Observe.
func (c *Collector) SetWindow(start, end int64) {
	if c.started {
		panic("metrics: SetWindow after Observe")
	}
	if end < start {
		panic(fmt.Sprintf("metrics: window end %d before start %d", end, start))
	}
	c.windowed, c.winStart, c.winEnd = true, start, end
}

// Observe records that usage u holds from time now onward (and closes the
// integral for the previous usage up to now).
func (c *Collector) Observe(now int64, u Usage) {
	if !c.started {
		c.started = true
		c.firstT = now
	} else {
		if now < c.lastT {
			panic(fmt.Sprintf("metrics: time went backwards: %d after %d", now, c.lastT))
		}
		lo, hi := c.lastT, now
		if c.windowed {
			lo = max64(lo, c.winStart)
			hi = min64(hi, c.winEnd)
		}
		if hi > lo {
			dt := float64(hi - lo)
			c.nodeSec += float64(c.cur.Nodes) * dt
			c.bbSec += float64(c.cur.BBGB) * dt
			c.ssdAssignedSec += float64(c.cur.SSDAssignedGB) * dt
			c.ssdRequestedSec += float64(c.cur.SSDRequestedGB) * dt
			for k, v := range c.cur.Extra {
				c.extraSec[k] += float64(v) * dt
			}
		}
	}
	c.cur = u
	if len(u.Extra) > 0 {
		// Deep-copy: the caller typically keeps one live Usage and mutates
		// its Extra slice in place between samples.
		c.curExtra = append(c.curExtra[:0], u.Extra...)
		c.cur.Extra = c.curExtra
		for len(c.extraSec) < len(u.Extra) {
			c.extraSec = append(c.extraSec, 0)
		}
	} else {
		c.cur.Extra = nil
	}
	c.lastT = now
	c.lastTs = now
}

// Span returns the interval the integrals cover: the measurement window if
// set, otherwise [first observation, last observation].
func (c *Collector) Span() (int64, int64) {
	if c.windowed {
		return c.winStart, c.winEnd
	}
	return c.firstT, c.lastTs
}

func max64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}

func min64(a, b int64) int64 {
	if a < b {
		return a
	}
	return b
}

// Integrals returns the accumulated resource-seconds.
func (c *Collector) Integrals() (nodeSec, bbSec, ssdAssignedSec, ssdRequestedSec float64) {
	return c.nodeSec, c.bbSec, c.ssdAssignedSec, c.ssdRequestedSec
}

// DimCapacity names one extra resource dimension's machine capacity.
type DimCapacity struct {
	// Name identifies the dimension (the cluster resource spec's name).
	Name string
	// Total is the machine capacity in the dimension's unit.
	Total int64
}

// Capacity describes the machine totals usage ratios are taken against.
type Capacity struct {
	// Nodes is the machine node count.
	Nodes int
	// BBGB is the burst-buffer pool in GB.
	BBGB int64
	// SSDGB is the aggregate local SSD capacity in GB.
	SSDGB int64
	// Extra lists the extra resource dimensions, aligned to Usage.Extra.
	Extra []DimCapacity
}

// Report is the §4.2 metric set over one simulation run.
type Report struct {
	// NodeUsage is used node-hours / elapsed node-hours (§4.2).
	NodeUsage float64
	// BBUsage is used burst-buffer-hours / elapsed burst-buffer-hours.
	BBUsage float64
	// SSDUsage is requested-SSD-hours / elapsed SSD-capacity-hours (§5 f3
	// normalized).
	SSDUsage float64
	// WastedSSDFrac is (assigned − requested) SSD-hours / elapsed
	// SSD-capacity-hours; lower is better (§5 f4).
	WastedSSDFrac float64
	// ExtraUsage is the per-extra-dimension usage ratio (used
	// dimension-hours / elapsed capacity-hours), aligned to the machine's
	// extra resource specs. Nil on 2-dimension machines.
	ExtraUsage []DimUsage
	// AvgWaitSec is the mean job wait time in seconds (§4.2).
	AvgWaitSec float64
	// AvgSlowdown is the mean bounded slowdown (§4.2).
	AvgSlowdown float64
	// WaitP50Sec, WaitP90Sec and WaitP99Sec are wait-time percentiles over
	// the measured jobs: exact (nearest-rank) by default, P²-sketch
	// estimates from a JobStats built with sketch set.
	WaitP50Sec float64
	WaitP90Sec float64
	WaitP99Sec float64
	// CompletedJobs is the number of jobs the per-job averages cover.
	CompletedJobs int

	// WaitBySize breaks AvgWaitSec down by job node count (Fig. 9).
	WaitBySize []BucketStat
	// WaitByBB breaks AvgWaitSec down by burst-buffer request (Fig. 10).
	WaitByBB []BucketStat
	// WaitByRuntime breaks AvgWaitSec down by actual runtime (Fig. 11).
	WaitByRuntime []BucketStat
}

// DimUsage is one extra resource dimension's usage ratio.
type DimUsage struct {
	// Name identifies the dimension.
	Name string
	// Usage is used dimension-hours / elapsed capacity-hours.
	Usage float64
}

// BucketStat is one bar of a breakdown figure.
type BucketStat struct {
	// Label describes the bucket range.
	Label string
	// Jobs is the job count in the bucket.
	Jobs int
	// AvgWaitSec is the bucket's mean wait time.
	AvgWaitSec float64
}

// Buckets configures the breakdown boundaries. Zero values fall back to
// defaults proportioned for the paper's Theta plots.
type Buckets struct {
	// SizeBounds are inclusive upper node-count bounds, e.g. {8, 128,
	// 1024} yields buckets 1–8, 9–128, 129–1024, >1024.
	SizeBounds []int
	// BBBoundsGB are inclusive upper burst-buffer bounds in GB; a leading
	// implicit bucket holds jobs with no BB request.
	BBBoundsGB []int64
	// RuntimeBounds are inclusive upper runtime bounds in seconds.
	RuntimeBounds []int64
}

// DefaultBuckets mirrors the paper's figure axes (Theta: 1–8 …
// 1024–4392 nodes; BB 0 / ≤100 TB / ≤200 TB / >200 TB; runtimes by hour).
func DefaultBuckets() Buckets {
	return Buckets{
		SizeBounds:    []int{8, 128, 1024},
		BBBoundsGB:    []int64{100_000, 200_000},
		RuntimeBounds: []int64{3600, 4 * 3600, 12 * 3600},
	}
}

// usageReport fills the resource-usage ratios from the collector's
// integrals.
func usageReport(c *Collector, cap Capacity) Report {
	var r Report
	first, last := c.Span()
	elapsed := float64(last - first)
	if elapsed > 0 {
		if cap.Nodes > 0 {
			r.NodeUsage = c.nodeSec / (float64(cap.Nodes) * elapsed)
		}
		if cap.BBGB > 0 {
			r.BBUsage = c.bbSec / (float64(cap.BBGB) * elapsed)
		}
		if cap.SSDGB > 0 {
			r.SSDUsage = c.ssdRequestedSec / (float64(cap.SSDGB) * elapsed)
			r.WastedSSDFrac = (c.ssdAssignedSec - c.ssdRequestedSec) / (float64(cap.SSDGB) * elapsed)
		}
		for k, dim := range cap.Extra {
			u := DimUsage{Name: dim.Name}
			if dim.Total > 0 && k < len(c.extraSec) {
				u.Usage = c.extraSec[k] / (float64(dim.Total) * elapsed)
			}
			r.ExtraUsage = append(r.ExtraUsage, u)
		}
	}
	return r
}

// nearestRank returns the nearest-rank percentile of sorted (ascending)
// values: the ⌈p·n⌉-th value.
func nearestRank(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(p*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}

// bucketIndex returns the index of v among inclusive upper bounds, with a
// final open bucket.
func bucketIndex(v int64, bounds []int64) int {
	for i, b := range bounds {
		if v <= b {
			return i
		}
	}
	return len(bounds)
}

func toInt64(xs []int) []int64 {
	out := make([]int64, len(xs))
	for i, x := range xs {
		out[i] = int64(x)
	}
	return out
}

func sizeLabels(bounds []int) []string {
	labels := make([]string, 0, len(bounds)+1)
	lo := 1
	for _, b := range bounds {
		labels = append(labels, fmt.Sprintf("%d-%d nodes", lo, b))
		lo = b + 1
	}
	return append(labels, fmt.Sprintf(">=%d nodes", lo))
}

func bbLabels(bounds []int64) []string {
	labels := []string{"no BB"}
	lo := int64(1)
	for _, b := range bounds {
		labels = append(labels, fmt.Sprintf("%d-%dGB BB", lo, b))
		lo = b + 1
	}
	return append(labels, fmt.Sprintf(">=%dGB BB", lo))
}

func runtimeLabels(bounds []int64) []string {
	labels := make([]string, 0, len(bounds)+1)
	lo := int64(0)
	for _, b := range bounds {
		labels = append(labels, fmt.Sprintf("%d-%ds runtime", lo, b))
		lo = b + 1
	}
	return append(labels, fmt.Sprintf(">=%ds runtime", lo))
}

// Normalize01 maps values onto [0,1] with 1 the maximum and 0 the minimum
// (the Kiviat scaling of Fig. 13). Constant inputs map to all-ones. NaNs
// are treated as the minimum.
func Normalize01(vals []float64) []float64 {
	if len(vals) == 0 {
		return nil
	}
	lo, hi := math.Inf(1), math.Inf(-1)
	for _, v := range vals {
		if math.IsNaN(v) {
			continue
		}
		lo = math.Min(lo, v)
		hi = math.Max(hi, v)
	}
	out := make([]float64, len(vals))
	for i, v := range vals {
		switch {
		case math.IsNaN(v) || math.IsInf(lo, 1):
			out[i] = 0
		case hi == lo:
			out[i] = 1
		default:
			out[i] = (v - lo) / (hi - lo)
		}
	}
	return out
}

// KiviatArea returns the area of the radar polygon with the given radii
// (axes equally spaced): ½·sin(2π/n)·Σ rᵢ·rᵢ₊₁. Larger is better overall
// (Fig. 13's reading).
func KiviatArea(radii []float64) float64 {
	n := len(radii)
	if n < 3 {
		return 0
	}
	s := 0.0
	for i := 0; i < n; i++ {
		s += radii[i] * radii[(i+1)%n]
	}
	return 0.5 * math.Sin(2*math.Pi/float64(n)) * s
}

// Reciprocal returns 1/v for positive v and 0 otherwise; Figs. 13–14 plot
// reciprocal wait and slowdown so larger is uniformly better.
func Reciprocal(v float64) float64 {
	if v > 0 {
		return 1 / v
	}
	return 0
}

// SortedLabels returns map keys in sorted order (stable experiment output).
func SortedLabels[M ~map[string]V, V any](m M) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
