package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"math"
)

// pinned.json holds, per workload, what a run at the default seed must
// reproduce: the exact result digest where no solver is involved (any
// change there is an engine behaviour change), and for the solver
// workloads reference values of the paper's quality metrics with the
// relative tolerance a solver change may move them by.
//
//go:embed pinned.json
var pinnedJSON []byte

type pin struct {
	Digest       string  `json:"digest,omitempty"`
	NodeUsagePct float64 `json:"node_usage_pct,omitempty"`
	BBUsagePct   float64 `json:"bb_usage_pct,omitempty"`
	AvgWaitS     float64 `json:"avg_wait_s,omitempty"`
	Tolerance    float64 `json:"tolerance,omitempty"`
}

func loadPins() (map[string]pin, error) {
	var pins map[string]pin
	if err := json.Unmarshal(pinnedJSON, &pins); err != nil {
		return nil, fmt.Errorf("pinned.json: %w", err)
	}
	return pins, nil
}

// checkPins holds a default-seed round against the workload's pin. At any
// other seed only determinism, completeness and farm==sweep apply.
func checkPins(name string, cfg config, rd round) error {
	p, ok := cfg.pins[name]
	if !ok || cfg.seed != defaultSeed {
		return nil
	}
	if p.Digest != "" && rd.digest != p.Digest {
		return fmt.Errorf("%s: result digest %s differs from the pinned %s: the engine's behaviour changed", name, rd.digest, p.Digest)
	}
	for _, q := range []struct {
		metric    string
		got, want float64
	}{
		{"node_usage_pct", rd.nodePct, p.NodeUsagePct},
		{"bb_usage_pct", rd.bbPct, p.BBUsagePct},
		{"avg_wait_s", rd.waitSec, p.AvgWaitS},
	} {
		if q.want != 0 && math.Abs(q.got-q.want) > p.Tolerance*q.want {
			return fmt.Errorf("%s: %s %.6g is more than %g%% off the pinned reference %.6g",
				name, q.metric, q.got, 100*p.Tolerance, q.want)
		}
	}
	return nil
}
