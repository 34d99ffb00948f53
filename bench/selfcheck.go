package main

import (
	"encoding/json"
	"fmt"
	"os"
)

// manifest is the part of BENCHMARK.json the self-check reads.
type manifest struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

// selfCheckRuns is the number of seeds per set, as in the benchmark's
// acceptance procedure.
const selfCheckRuns = 10

// selfCheck repeats the benchmark's acceptance procedure: two sets of
// selfCheckRuns runs per workload, each run on another seed. Per metric it
// prints both sets' medians, how much worse the second is than the first,
// and each set's quartile spread, all against the metric's bound in
// BENCHMARK.json (read from the working directory). A second median worse
// by more than the bound, or a spread above it (setup_s excepted), fails.
func selfCheck(selected []workload, cfg config) error {
	raw, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		return fmt.Errorf("self-check reads the bounds from BENCHMARK.json in the working directory: %w", err)
	}
	var mf manifest
	if err := json.Unmarshal(raw, &mf); err != nil {
		return fmt.Errorf("BENCHMARK.json: %w", err)
	}
	fmt.Printf("| workload | metric | median 1 | median 2 | worse by | spread 1 | spread 2 | bound | verdict |\n")
	fmt.Printf("|---|---|---|---|---|---|---|---|---|\n")
	failed := 0
	for _, w := range selected {
		var sets [2]map[string][]float64
		for s := range sets {
			sets[s] = map[string][]float64{}
			for i := 0; i < selfCheckRuns; i++ {
				c := cfg
				c.seed = cfg.seed + uint64(s*selfCheckRuns+i)
				c.traced = false
				o := w.run(c)
				if !o.Correct || o.Failed > 0 {
					o.print(os.Stderr)
					return fmt.Errorf("%s failed its checks at seed %d", w.name, c.seed)
				}
				for k, v := range o.Metrics {
					sets[s][k] = append(sets[s][k], v.Value)
				}
			}
		}
		for _, m := range mf.EndToEnd {
			m1, m2 := median(sets[0][m.Name]), median(sets[1][m.Name])
			worse := (m2 - m1) / m1
			if m.Better == "higher" {
				worse = -worse
			}
			s1, s2 := quartileSpread(sets[0][m.Name]), quartileSpread(sets[1][m.Name])
			verdict := "ok"
			if worse > m.Bound || (m.Name != "setup_s" && (s1 > m.Bound || s2 > m.Bound)) {
				verdict = "FAIL"
				failed++
			} else if m.Name != "setup_s" && (s1 > m.Bound/3 || s2 > m.Bound/3) {
				verdict = "ok (spread above a third of the bound)"
			}
			fmt.Printf("| %s | %s | %.6g | %.6g | %+.1f%% | %.1f%% | %.1f%% | %.0f%% | %s |\n",
				w.name, m.Name, m1, m2, 100*worse, 100*s1, 100*s2, 100*m.Bound, verdict)
		}
	}
	if failed > 0 {
		return fmt.Errorf("self-check: %d metric/workload pairs outside their bound", failed)
	}
	return nil
}
