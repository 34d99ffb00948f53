package main

import (
	"bufio"
	"encoding/json"
	"math/bits"
	"os"
	"sort"
	"sync"
	"time"
)

// layer names one seam the traced run records spans at.
type layer int

const (
	layTraceNext layer = iota
	laySimNew
	laySimSchedule
	laySchedSelect
	laySolverSolve
	layMetricsReport
	layHandlerLease
	layHandlerCheckpoint
	layHandlerResult
	layHandlerFail
	layRTTLease
	layRTTCheckpoint
	layRTTResult
	layRTTFail
	numLayers
)

var layerNames = [numLayers]string{
	"trace.next", "sim.new", "sim.schedule", "sched.select", "solver.solve", "metrics.report",
	"farm.handler.lease", "farm.handler.checkpoint", "farm.handler.result", "farm.handler.fail",
	"farm.rtt.lease", "farm.rtt.checkpoint", "farm.rtt.result", "farm.rtt.fail",
}

// spanCap bounds the per-call records kept for one layer. Past it the
// layer keeps only its count, sum and histogram, and times only every
// sampleEvery-th call, which then stands for sampleEvery calls: timing and
// recording every call of the million-call layers (trace.next and
// sched.select on the stream workload) costs a fifth of the run, this a
// twentieth.
const (
	spanCap     = 100_000
	sampleEvery = 16
)

// span is one recorded call. Times are nanoseconds since the tracer's
// epoch; Parent is the ID of the span that caused it (0 = the run).
type span struct {
	Name   string `json:"name"`
	Run    int    `json:"run"`
	ID     int64  `json:"id"`
	Parent int64  `json:"parent,omitempty"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// layerStat aggregates one layer: every call counts here whether or not
// its span was kept.
type layerStat struct {
	seen int64 // calls
	sum  time.Duration
	hist [48]int64 // bucket i holds durations in [2^i, 2^(i+1)) ns
	kept int
}

// tracer records spans in memory; write flushes them after the run.
type tracer struct {
	// shared is set for a farm pass, whose handlers and workers record
	// concurrently; a replay records from its one goroutine and skips the
	// lock, which is a third of what tracing a cheap call costs.
	shared bool
	mu     sync.Mutex
	epoch  time.Time
	run    int
	nextID int64
	spans  []span
	stats  [numLayers]layerStat

	// Replays are single-goroutine, so the IDs of the enclosing spans are
	// plain fields: passID is reserved for the scheduling pass in flight
	// (its span is only recorded when the pass ends), selectID is the
	// sched.select call a solver.solve belongs to.
	passID, selectID int64
}

func newTracer() *tracer {
	t := &tracer{epoch: time.Now()}
	t.passID = t.newID()
	return t
}

func (t *tracer) newID() int64 {
	t.nextID++
	return t.nextID
}

// weight says how the next call of layer l is to be traced: 1 = time it
// (its span is kept), sampleEvery = time it on behalf of that many calls,
// 0 = let it pass untimed.
func (t *tracer) weight(l layer) int64 {
	if t.shared {
		t.mu.Lock()
		defer t.mu.Unlock()
	}
	st := &t.stats[l]
	st.seen++
	switch {
	case st.seen <= spanCap:
		return 1
	case st.seen%sampleEvery == 0:
		return sampleEvery
	}
	return 0
}

// timed records a call of a layer whose every call is timed: the rare
// ones and the expensive ones.
func (t *tracer) timed(l layer, id, parent int64, start, end time.Time) {
	t.weight(l)
	t.record(l, id, parent, start, end, 1)
}

// record adds a timed call of layer l standing for weight calls. A call
// of weight 1 keeps its span while the layer has room; id 0 allocates it
// a fresh span ID.
func (t *tracer) record(l layer, id, parent int64, start, end time.Time, weight int64) {
	d := end.Sub(start)
	if t.shared {
		t.mu.Lock()
		defer t.mu.Unlock()
	}
	st := &t.stats[l]
	st.sum += d * time.Duration(weight)
	if d > 0 {
		st.hist[bits.Len64(uint64(d))-1] += weight
	} else {
		st.hist[0] += weight
	}
	if weight == 1 && st.kept < spanCap {
		st.kept++
		if id == 0 {
			id = t.newID()
		}
		t.spans = append(t.spans, span{
			Name: layerNames[l], Run: t.run, ID: id, Parent: parent,
			Start: start.Sub(t.epoch).Nanoseconds(), End: end.Sub(t.epoch).Nanoseconds(),
		})
	}
}

// seconds and calls read one layer's totals; past spanCap calls, seconds
// is an estimate from every sampleEvery-th call.
func (t *tracer) seconds(l layer) float64 { return t.stats[l].sum.Seconds() }
func (t *tracer) calls(l layer) float64   { return float64(t.stats[l].seen) }

// percentileMs is a layer's call-duration percentile in milliseconds:
// exact while every call kept its span, else the upper edge of the
// histogram bucket the percentile falls in.
func (t *tracer) percentileMs(l layer, p float64) float64 {
	st := &t.stats[l]
	if st.seen == 0 {
		return 0
	}
	if int64(st.kept) == st.seen {
		var ds []float64
		for i := range t.spans {
			if t.spans[i].Name == layerNames[l] {
				ds = append(ds, float64(t.spans[i].End-t.spans[i].Start)/1e6)
			}
		}
		sort.Float64s(ds)
		return percentileSorted(ds, p)
	}
	want := int64(p * float64(st.seen))
	var seen int64
	for i, n := range st.hist {
		seen += n
		if seen >= want {
			return float64(uint64(1)<<(i+1)) / 1e6
		}
	}
	return 0
}

// write flushes the spans, then one summary line per layer that saw
// calls, as JSON lines.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range t.spans {
		if err := enc.Encode(&t.spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	for l := layer(0); l < numLayers; l++ {
		st := &t.stats[l]
		if st.seen == 0 {
			continue
		}
		last := len(st.hist)
		for last > 0 && st.hist[last-1] == 0 {
			last--
		}
		if err := enc.Encode(map[string]any{
			"layer": layerNames[l], "calls": st.seen, "sum_ns": st.sum.Nanoseconds(),
			"spans_kept": st.kept, "hist_log2_ns": st.hist[:last],
		}); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
