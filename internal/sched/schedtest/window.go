// Package schedtest generates random scheduling decisions for the
// differential tests and fuzz targets of the packages around sched: one
// generator, so sched's and core's tests walk the same windows.
package schedtest

import (
	"bbsched/internal/cluster"
	"bbsched/internal/job"
	"bbsched/internal/rng"
	"bbsched/internal/sched"
)

// MaxWindow is the largest window Window generates — small enough for
// every registered backend, the size-capped exact one included.
const MaxWindow = 24

// Window returns the decision drawn from seed: a window of 1…MaxWindow
// jobs against the free resources of a machine that is, by seed, a plain
// two-dimension one, one with an extra pool dimension, or one with two
// SSD node classes. About half the decisions are dead — no job fits the
// free machine even alone — because most machines are drawn nearly full
// in one resource; some jobs cannot fit any machine state (a per-node SSD
// demand no class holds, a demand in a dimension the machine lacks). The
// returned Context carries Window, Snap and Totals; Rand and Memory are
// the caller's to set.
func Window(seed uint64) (cluster.Config, *sched.Context) {
	s := rng.New(seed)
	cfg := cluster.Config{Name: "schedtest", Nodes: 64, BurstBufferGB: 2000}
	switch s.Intn(3) {
	case 1:
		cfg.Extra = []cluster.ResourceSpec{{Name: "power_kw", Capacity: 300, Unit: "kW"}}
	case 2:
		cfg.SSDClasses = []cluster.SSDClass{{CapacityGB: 128, Count: 40}, {CapacityGB: 512, Count: 24}}
	}
	snap := cluster.MustNew(cfg).Snapshot()

	// Free resources: a uniform share of each pool, then — three times in
	// four — one resource squeezed to (almost) nothing.
	for c, n := range snap.FreeByClass {
		snap.FreeByClass[c] = s.Intn(n + 1)
	}
	snap.FreeBB = s.Int63n(snap.FreeBB + 1)
	for k, v := range snap.FreeExtra {
		snap.FreeExtra[k] = s.Int63n(v + 1)
	}
	if s.Intn(4) > 0 {
		switch tight := s.Intn(3); {
		case tight == 1:
			snap.FreeBB = s.Int63n(12)
		case tight == 2 && len(snap.FreeExtra) > 0:
			snap.FreeExtra[0] = s.Int63n(4)
		default:
			for c := range snap.FreeByClass {
				snap.FreeByClass[c] = s.Intn(2)
			}
		}
	}

	window := make([]*job.Job, 1+s.Intn(MaxWindow))
	for i := range window {
		nodes := 1 + s.Intn(16)
		bb := 5 + s.Int63n(400)
		var ssd int64
		switch {
		case len(cfg.SSDClasses) > 0:
			ssd = []int64{0, 64, 128, 256, 600}[s.Intn(5)] // 600: no class holds it
		case s.Intn(10) == 0:
			ssd = 32 // the machine has no local SSD at all
		}
		d := job.NewDemand(nodes, bb, ssd)
		switch {
		case len(cfg.Extra) > 0:
			d = job.NewDemandVector(nodes, bb, ssd, 2+s.Int63n(40))
		case s.Intn(8) == 0:
			d = job.NewDemandVector(nodes, bb, ssd, s.Int63n(3)) // a dimension the machine lacks; 0 asks nothing of it
		}
		window[i] = job.MustNew(i+1, 0, 600, 600, d)
	}
	return cfg, &sched.Context{Window: window, Snap: snap, Totals: sched.TotalsOf(cfg)}
}
