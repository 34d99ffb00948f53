package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"hash"
	"sort"
	"time"

	"bbsched/internal/sim"
	"bbsched/internal/solver"
)

// round is one measured round of a workload: one pass over every trace of
// a replay workload, or one sweep plus one farm pass over the grid.
type round struct {
	timing          // the round's; for the grid, its farm pass's
	sweep    timing // grid only: the RunSweep pass
	jobs     int
	passes   int     // scheduling passes behind the percentiles
	p50, p99 float64 // pass latency, reference ms
	peakHeap uint64  // live heap above the pre-round baseline, bytes
	nodePct  float64 // the paper's result metrics, means over the
	bbPct    float64 // round's results
	waitSec  float64
	digest   string
	attempts int // operations: replays of one trace, or grid cells
	errs     []error

	// traced rounds only
	layers layerValues
	forms  []solver.LinearForm // replays: windows kept for the LP probe
}

// faults are the test hooks of the negative tests: each breaks one thing
// an output check must catch.
type faults struct {
	truncateSteps int  // stop every replay after this many steps
	flipFarmBit   bool // flip one mantissa bit in the farm's first result
}

// fold adds one of the round's n results: completeness check, job count,
// quality means, and the result's digest into h.
func (rd *round) fold(res *sim.Result, wantJobs, n int, h hash.Hash) error {
	if err := checkResult(res, wantJobs); err != nil {
		return err
	}
	rd.jobs += res.TotalJobs
	rd.nodePct += 100 * res.NodeUsage / float64(n)
	rd.bbPct += 100 * res.BBUsage / float64(n)
	rd.waitSec += res.AvgWaitSec / float64(n)
	h.Write([]byte(resultDigest(res)))
	return nil
}

// setPasses reduces the round's pass latencies to their percentiles, in
// reference ms. It sorts passes in place.
func (rd *round) setPasses(passes []time.Duration) {
	sort.Slice(passes, func(i, j int) bool { return passes[i] < passes[j] })
	ms := func(p float64) float64 {
		if len(passes) == 0 {
			return 0
		}
		return float64(passes[nearestRank(len(passes), p)]) / 1e6 * rd.factor
	}
	rd.passes, rd.p50, rd.p99 = len(passes), ms(0.50), ms(0.99)
}

// checkResult is the completeness check: the run drained (Result itself
// refuses an undrained simulator and re-checks the cluster invariants) and
// every generated job went through it.
func checkResult(res *sim.Result, wantJobs int) error {
	if res == nil {
		return errors.New("no result")
	}
	if res.TotalJobs != wantJobs {
		return fmt.Errorf("replayed %d jobs, generated %d", res.TotalJobs, wantJobs)
	}
	if res.NodeUsage <= 0 || res.NodeUsage > 1 || res.BBUsage < 0 || res.BBUsage > 1 {
		return fmt.Errorf("usage out of range: node %v, burst buffer %v", res.NodeUsage, res.BBUsage)
	}
	return nil
}

// resultDigest hashes everything deterministic in a Result: the wall-clock
// decision times are zeroed, every other field (floats included, to the
// last bit — Go's JSON float encoding round-trips) must repeat exactly.
func resultDigest(res *sim.Result) string {
	c := *res
	c.AvgDecisionTime, c.MaxDecisionTime = 0, 0
	b, err := json.Marshal(&c)
	if err != nil {
		return "unencodable: " + err.Error()
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:16])
}

func hexDigest(h hash.Hash) string { return hex.EncodeToString(h.Sum(nil)[:16]) }
