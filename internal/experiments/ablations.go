package experiments

import (
	"fmt"

	"bbsched/internal/core"
	"bbsched/internal/sched"
	"bbsched/internal/sim"
	"bbsched/internal/trace"
)

// Ablations runs the design-choice studies DESIGN.md calls out, on the
// Theta-S4-like workload where method differences are largest: static vs
// adaptive trade-off factor, fixed vs queue-adaptive window, EASY
// backfilling on/off, starvation bound settings, and Slurm stage-out.
func Ablations(o Options) (string, error) {
	_, theta := o.systems()
	base := trace.Generate(trace.GenConfig{System: theta, Jobs: o.Jobs, Seed: o.Seed})
	base.Name = "Theta-S4"
	_, heavy := trace.BBFloors(base)
	s4 := trace.ExpandBB(base, "Theta-S4", 0.75, heavy, o.Seed+4)

	type variant struct {
		name   string
		w      trace.Workload
		method sched.Method
		plugin core.PluginConfig
		noBF   bool
	}
	bb := func() *core.BBSched { return bbsched2(o.GA) }
	factor := func(f float64) *core.BBSched {
		m := bb()
		m.TradeoffFactor = f
		return m
	}
	variants := []variant{
		{"baseline_reference", s4, sched.Baseline{}, o.plugin(), false},
		{"bbsched_factor_1x", s4, factor(1), o.plugin(), false},
		{"bbsched_factor_2x", s4, bb(), o.plugin(), false},
		{"bbsched_factor_4x", s4, factor(4), o.plugin(), false},
		{"bbsched_adaptive_factor", s4, core.NewAdaptive(bb()), o.plugin(), false},
		{"window_fixed_20", s4, bb(), o.plugin(), false},
		{"window_adaptive", s4, bb(), core.PluginConfig{DynamicWindow: true, StarvationBound: o.Starvation}, false},
		{"starvation_off", s4, bb(), core.PluginConfig{WindowSize: o.Window}, false},
		{"starvation_10", s4, bb(), core.PluginConfig{WindowSize: o.Window, StarvationBound: 10}, false},
		{"backfill_off", s4, bb(), o.plugin(), true},
		{"stageout_20GBps", trace.WithStageOut(s4, 20), bb(), o.plugin(), false},
	}

	var rows [][]string
	for _, v := range variants {
		res, err := runOne(v.w, v.method, sim.WithPlugin(v.plugin), sim.WithBackfill(!v.noBF),
			sim.WithSeed(o.Seed), sim.WithBuckets(buckets(v.w.System)))
		if err != nil {
			return "", fmt.Errorf("experiments: ablation %s: %w", v.name, err)
		}
		rows = append(rows, []string{
			v.name, pct(res.NodeUsage), pct(res.BBUsage),
			secs(res.AvgWaitSec), f2(res.AvgSlowdown),
		})
	}
	return "Ablations on Theta-S4 (design choices from DESIGN.md)\n" +
		table([]string{"variant", "node_usage", "bb_usage", "avg_wait", "avg_slowdown"}, rows), nil
}
