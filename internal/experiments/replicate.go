package experiments

import (
	"context"
	"fmt"
	"math"
	"sort"

	"bbsched/internal/sim"
	"bbsched/internal/trace"
)

// Stat is a mean ± sample standard deviation over replicated runs.
type Stat struct {
	// Mean is the across-seed average.
	Mean float64
	// Std is the sample standard deviation (0 for a single seed).
	Std float64
	// N is the replication count.
	N int
}

// String renders "mean±std".
func (s Stat) String() string { return fmt.Sprintf("%.4f±%.4f", s.Mean, s.Std) }

// NewStat summarizes samples.
func NewStat(samples []float64) Stat {
	n := len(samples)
	if n == 0 {
		return Stat{}
	}
	var sum float64
	for _, v := range samples {
		sum += v
	}
	mean := sum / float64(n)
	var ss float64
	for _, v := range samples {
		d := v - mean
		ss += d * d
	}
	std := 0.0
	if n > 1 {
		std = math.Sqrt(ss / float64(n-1))
	}
	return Stat{Mean: mean, Std: std, N: n}
}

// ReplicatedResult aggregates one (workload, method) cell across seeds.
type ReplicatedResult struct {
	Workload, Method string
	NodeUsage        Stat
	BBUsage          Stat
	AvgWaitSec       Stat
	AvgSlowdown      Stat
}

// Replicate runs every method on the workload across the given seeds
// (both workload generation noise and solver noise vary per seed) and
// returns per-method statistics. The paper reports single-trace numbers;
// replication quantifies how much of a method gap is signal. Each seed is
// one deterministic sweep over the methods, and every statistic sums its
// samples in seed order, so the result is the same bit for bit at any
// Parallelism.
func Replicate(o Options, build func(seed uint64) trace.Workload, seeds []uint64) ([]ReplicatedResult, error) {
	if len(seeds) == 0 {
		return nil, fmt.Errorf("experiments: no seeds")
	}
	ms := Methods(o.GA)
	byMethod := make([][]*sim.Result, len(ms)) // per method, in seed order
	var wlName string
	for _, seed := range seeds {
		w := build(seed)
		runs, err := sim.RunSweep(context.Background(), sim.Sweep{
			Workloads: []trace.Workload{w},
			Methods:   ms,
			Seeds:     []uint64{seed},
			Workers:   o.parallelism(),
			Options:   []sim.Option{sim.WithPlugin(o.plugin()), sim.WithBuckets(buckets(w.System))},
		})
		if err != nil {
			return nil, fmt.Errorf("experiments: replicate seed %d: %w", seed, err)
		}
		for i, r := range runs { // one workload and one seed: runs align with ms
			byMethod[i] = append(byMethod[i], r.Result)
			wlName = r.Workload
		}
	}
	out := make([]ReplicatedResult, 0, len(ms))
	for i, m := range ms {
		rs := byMethod[i]
		collect := func(get func(*sim.Result) float64) Stat {
			vals := make([]float64, len(rs))
			for k, r := range rs {
				vals[k] = get(r)
			}
			return NewStat(vals)
		}
		out = append(out, ReplicatedResult{
			Workload:    wlName,
			Method:      m.Name(),
			NodeUsage:   collect(func(r *sim.Result) float64 { return r.NodeUsage }),
			BBUsage:     collect(func(r *sim.Result) float64 { return r.BBUsage }),
			AvgWaitSec:  collect(func(r *sim.Result) float64 { return r.AvgWaitSec }),
			AvgSlowdown: collect(func(r *sim.Result) float64 { return r.AvgSlowdown }),
		})
	}
	return out, nil
}

// ReplicateS4 replicates the headline S4 comparison on the Theta-like
// system and renders the table.
func ReplicateS4(o Options, seeds []uint64) (string, error) {
	_, theta := o.systems()
	rows, err := Replicate(o, func(seed uint64) trace.Workload {
		base := trace.Generate(trace.GenConfig{System: theta, Jobs: o.Jobs, Seed: seed})
		base.Name = "Theta-S4"
		_, heavy := trace.BBFloors(base)
		return trace.ExpandBB(base, "Theta-S4", 0.75, heavy, seed+4)
	}, seeds)
	if err != nil {
		return "", err
	}
	sort.Slice(rows, func(a, b int) bool { return rows[a].Method < rows[b].Method })
	var out [][]string
	for _, r := range rows {
		out = append(out, []string{
			r.Method, r.NodeUsage.String(), r.BBUsage.String(),
			fmt.Sprintf("%.0f±%.0f", r.AvgWaitSec.Mean, r.AvgWaitSec.Std),
			fmt.Sprintf("%.2f±%.2f", r.AvgSlowdown.Mean, r.AvgSlowdown.Std),
		})
	}
	return fmt.Sprintf("Replicated Theta-S4 comparison over %d seeds (mean±std)\n", len(seeds)) +
		table([]string{"method", "node_usage", "bb_usage", "avg_wait_s", "avg_slowdown"}, out), nil
}
