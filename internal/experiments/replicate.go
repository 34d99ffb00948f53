package experiments

import (
	"fmt"
	"math"
	"sort"
	"sync"

	"bbsched/internal/sched"
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
// replication quantifies how much of a method gap is signal.
func Replicate(o Options, build func(seed uint64) trace.Workload, seeds []uint64) ([]ReplicatedResult, error) {
	if len(seeds) == 0 {
		return nil, fmt.Errorf("experiments: no seeds")
	}
	methodNames := []string{}
	for _, m := range Methods(o.GA) {
		methodNames = append(methodNames, m.Name())
	}
	type sample struct {
		method string
		res    *sim.Result
	}
	var (
		mu      sync.Mutex
		wg      sync.WaitGroup
		firstEr error
		samples []sample
		sem     = make(chan struct{}, o.parallelism())
	)
	for _, seed := range seeds {
		w := build(seed)
		for _, m := range Methods(o.GA) {
			wg.Add(1)
			sem <- struct{}{}
			go func(w trace.Workload, m sched.Method, seed uint64) {
				defer wg.Done()
				defer func() { <-sem }()
				res, err := runOne(w, m, sim.WithPlugin(o.plugin()), sim.WithSeed(seed),
					sim.WithBuckets(buckets(w.System)))
				mu.Lock()
				defer mu.Unlock()
				if err != nil {
					if firstEr == nil {
						firstEr = fmt.Errorf("experiments: replicate seed %d %s: %w", seed, m.Name(), err)
					}
					return
				}
				samples = append(samples, sample{method: m.Name(), res: res})
			}(w, m, seed)
		}
	}
	wg.Wait()
	if firstEr != nil {
		return nil, firstEr
	}

	byMethod := map[string][]*sim.Result{}
	var wlName string
	for _, s := range samples {
		byMethod[s.method] = append(byMethod[s.method], s.res)
		wlName = s.res.Workload
	}
	out := make([]ReplicatedResult, 0, len(methodNames))
	for _, name := range methodNames {
		rs := byMethod[name]
		collect := func(get func(*sim.Result) float64) Stat {
			vals := make([]float64, len(rs))
			for i, r := range rs {
				vals[i] = get(r)
			}
			return NewStat(vals)
		}
		out = append(out, ReplicatedResult{
			Workload:    wlName,
			Method:      name,
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
