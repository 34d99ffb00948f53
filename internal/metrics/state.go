package metrics

import "fmt"

// Checkpoint state: the State types below are the serialized form of the
// accumulators. internal/checkpoint carries them on the wire as they are,
// walking their fields in an explicit order, so a restored run continues
// with bit-identical integrals and sketches. A field added here is not
// serialized until that package's walk names it (and bumps the format
// version). SetState writes the private fields directly (it is a restore,
// not a configuration call, so the SetWindow-after-Observe guard does not
// apply).

// CollectorState is the complete serializable state of a Collector.
type CollectorState struct {
	LastT   int64
	Started bool
	Cur     Usage // Extra is deep-copied on both capture and restore

	NodeSec, BBSec, SSDAssignedSec, SSDRequestedSec float64
	ExtraSec                                        []float64

	FirstT int64
	LastTs int64

	Windowed         bool
	WinStart, WinEnd int64
}

// State captures the collector's current state. The returned value shares
// no storage with the collector.
func (c *Collector) State() CollectorState {
	st := CollectorState{
		LastT:           c.lastT,
		Started:         c.started,
		Cur:             c.cur,
		NodeSec:         c.nodeSec,
		BBSec:           c.bbSec,
		SSDAssignedSec:  c.ssdAssignedSec,
		SSDRequestedSec: c.ssdRequestedSec,
		FirstT:          c.firstT,
		LastTs:          c.lastTs,
		Windowed:        c.windowed,
		WinStart:        c.winStart,
		WinEnd:          c.winEnd,
	}
	st.Cur.Extra = append([]int64(nil), c.cur.Extra...)
	st.ExtraSec = append([]float64(nil), c.extraSec...)
	return st
}

// SetState restores a state captured by State, overwriting the collector
// entirely. The collector takes private copies of the state's slices.
func (c *Collector) SetState(st CollectorState) {
	c.lastT = st.LastT
	c.started = st.Started
	c.cur = st.Cur
	c.curExtra = append(c.curExtra[:0], st.Cur.Extra...)
	if len(c.curExtra) > 0 {
		c.cur.Extra = c.curExtra
	} else {
		c.cur.Extra = nil
	}
	c.nodeSec = st.NodeSec
	c.bbSec = st.BBSec
	c.ssdAssignedSec = st.SSDAssignedSec
	c.ssdRequestedSec = st.SSDRequestedSec
	c.extraSec = append(c.extraSec[:0], st.ExtraSec...)
	if len(c.extraSec) == 0 {
		c.extraSec = nil
	}
	c.firstT = st.FirstT
	c.lastTs = st.LastTs
	c.windowed = st.Windowed
	c.winStart = st.WinStart
	c.winEnd = st.WinEnd
}

// QuantileState is the serializable state of one P² percentile sketch.
type QuantileState struct {
	P     float64
	Count int
	Q     [5]float64
	N     [5]float64
	NP    [5]float64
	DN    [5]float64
}

func (e *p2Quantile) state() QuantileState {
	return QuantileState{P: e.p, Count: e.count, Q: e.q, N: e.n, NP: e.np, DN: e.dn}
}

func (e *p2Quantile) setState(st QuantileState) {
	e.p, e.count, e.q, e.n, e.np, e.dn = st.P, st.Count, st.Q, st.N, st.NP, st.DN
}

// JobStatsState is the complete serializable accumulation state of a
// JobStats. The configuration (slowdown floor, bucket bounds, labels) is
// not part of the state: a restored JobStats is built with NewJobStats
// from the run's options, and SetState only refills its accumulators.
type JobStatsState struct {
	N       int
	WaitSum float64
	SdSum   float64

	SizeSums   []float64
	SizeCounts []int
	BBSums     []float64
	BBCounts   []int
	RTSums     []float64
	RTCounts   []int

	// Sketch says which percentile back-end the state is of: the three
	// sketches when set, otherwise Waits, in completion order.
	Sketch        bool
	Waits         []float64
	P50, P90, P99 QuantileState
}

// State captures the accumulation state. The returned value shares no
// storage with the accumulator.
func (s *JobStats) State() JobStatsState {
	return JobStatsState{
		N:          s.n,
		WaitSum:    s.waitSum,
		SdSum:      s.sdSum,
		SizeSums:   append([]float64(nil), s.sizeSums...),
		SizeCounts: append([]int(nil), s.sizeCounts...),
		BBSums:     append([]float64(nil), s.bbSums...),
		BBCounts:   append([]int(nil), s.bbCounts...),
		RTSums:     append([]float64(nil), s.rtSums...),
		RTCounts:   append([]int(nil), s.rtCounts...),
		Sketch:     s.sketch,
		Waits:      append([]float64(nil), s.waits...),
		P50:        s.p50.state(),
		P90:        s.p90.state(),
		P99:        s.p99.state(),
	}
}

// SetState restores a state captured by State into an accumulator built
// with the same bucket configuration and percentile back-end. The state
// may have come off the network, so every count in it is checked against
// N: one that is off restores cleanly and reports a wrong average at the
// end of the run. It also errors when the state's bucket counts do not
// match the accumulator's — the snapshot came from a run with different
// buckets and silently truncating or padding it would mis-restore the
// breakdowns.
func (s *JobStats) SetState(st JobStatsState) error {
	if st.Sketch != s.sketch {
		return fmt.Errorf("metrics: job-stats state is of the other metrics mode (Sketch=%v, accumulator sketch=%v)", st.Sketch, s.sketch)
	}
	if len(st.SizeSums) != len(s.sizeSums) || len(st.SizeCounts) != len(s.sizeCounts) ||
		len(st.BBSums) != len(s.bbSums) || len(st.BBCounts) != len(s.bbCounts) ||
		len(st.RTSums) != len(s.rtSums) || len(st.RTCounts) != len(s.rtCounts) {
		return fmt.Errorf("metrics: job-stats state has %d/%d/%d buckets, accumulator has %d/%d/%d",
			len(st.SizeSums), len(st.BBSums), len(st.RTSums),
			len(s.sizeSums), len(s.bbSums), len(s.rtSums))
	}
	if st.N < 0 {
		return fmt.Errorf("metrics: job-stats state has negative N %d", st.N)
	}
	for _, f := range []struct {
		name   string
		counts []int
	}{{"SizeCounts", st.SizeCounts}, {"BBCounts", st.BBCounts}, {"RTCounts", st.RTCounts}} {
		sum := 0
		for _, c := range f.counts {
			if c < 0 || c > st.N {
				return fmt.Errorf("metrics: job-stats state %s holds %d, outside [0, N=%d]", f.name, c, st.N)
			}
			sum += c
		}
		if sum != st.N {
			return fmt.Errorf("metrics: job-stats state %s sum to %d, N is %d", f.name, sum, st.N)
		}
	}
	if s.sketch {
		for _, q := range []struct {
			name string
			st   QuantileState
		}{{"P50", st.P50}, {"P90", st.P90}, {"P99", st.P99}} {
			if q.st.Count != st.N {
				return fmt.Errorf("metrics: job-stats state %s.Count is %d, N is %d", q.name, q.st.Count, st.N)
			}
		}
	} else if len(st.Waits) != st.N {
		return fmt.Errorf("metrics: job-stats state has %d Waits, N is %d", len(st.Waits), st.N)
	}
	s.n = st.N
	s.waitSum = st.WaitSum
	s.sdSum = st.SdSum
	copy(s.sizeSums, st.SizeSums)
	copy(s.sizeCounts, st.SizeCounts)
	copy(s.bbSums, st.BBSums)
	copy(s.bbCounts, st.BBCounts)
	copy(s.rtSums, st.RTSums)
	copy(s.rtCounts, st.RTCounts)
	s.waits = append(s.waits[:0], st.Waits...)
	s.p50.setState(st.P50)
	s.p90.setState(st.P90)
	s.p99.setState(st.P99)
	return nil
}
