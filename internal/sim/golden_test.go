package sim

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"bbsched/internal/metrics"
	"bbsched/internal/moo"
	"bbsched/internal/registry"
	"bbsched/internal/sched"
	"bbsched/internal/trace"
)

// The golden equivalence suite pins the simulator's observable behaviour
// bit-for-bit: for every registry method over FCFS, WFP, stage-out, and
// SSD workloads it records a SHA-256 of the JSONL event stream plus every
// deterministic Result field, captured from the 2-dimension implementation
// BEFORE the N-resource generalization. The generalized engine must
// reproduce each value exactly — byte-identical event streams, identical
// float bit patterns — both serially and under RunSweep.
//
// Regenerate (only when behaviour is intentionally changed) with:
//
//	go test ./internal/sim -run TestGoldenEquivalence -update-golden

var updateGolden = flag.Bool("update-golden", false, "rewrite testdata/golden_equivalence.json from the current implementation")

const goldenPath = "testdata/golden_equivalence.json"

// goldenResult is the deterministic slice of a Result. Floats are pinned
// as %.17g strings so a bit flip anywhere shows up as a diff.
type goldenResult struct {
	NodeUsage   string `json:"node_usage"`
	BBUsage     string `json:"bb_usage"`
	SSDUsage    string `json:"ssd_usage"`
	WastedSSD   string `json:"wasted_ssd"`
	AvgWait     string `json:"avg_wait"`
	AvgSlowdown string `json:"avg_slowdown"`
	Completed   int    `json:"completed"`
	Measured    int    `json:"measured"`
	Total       int    `json:"total"`
	Invocations int    `json:"invocations"`
	Makespan    int64  `json:"makespan"`
	Buckets     string `json:"buckets"` // sha256 over the breakdown tables
}

// goldenEntry is one (scenario, method) capture.
type goldenEntry struct {
	Scenario string       `json:"scenario"`
	Method   string       `json:"method"`
	Events   string       `json:"events"` // sha256 over the JSONL event stream
	Lines    int          `json:"lines"`
	Result   goldenResult `json:"result"`
}

// goldenScenario describes one workload under golden pin.
type goldenScenario struct {
	name    string
	ssd     bool
	methods []string
	build   func() trace.Workload
}

func goldenGA() moo.GAConfig {
	return moo.GAConfig{Generations: 60, Population: 12, MutationProb: 0.0005}
}

func goldenScenarios() []goldenScenario {
	section4 := []string{
		"Baseline", "Weighted", "Weighted_CPU", "Weighted_BB",
		"Constrained_CPU", "Constrained_BB", "Bin_Packing", "BBSched",
	}
	section5 := []string{
		"Baseline", "Weighted", "Constrained_CPU", "Constrained_BB",
		"Constrained_SSD", "Bin_Packing", "BBSched",
	}
	return []goldenScenario{
		{
			// Cori: FCFS base policy, S2 burst-buffer expansion.
			name: "cori-fcfs-s2", methods: section4,
			build: func() trace.Workload {
				sys := trace.Scale(trace.Cori(), 128)
				base := trace.Generate(trace.GenConfig{System: sys, Jobs: 90, Seed: 13})
				base.Name = sys.Cluster.Name + "-Original"
				return mustGoldenVariant(base, "S2", 13)
			},
		},
		{
			// Theta: WFP base policy, heavy S4 expansion, stage-out phases.
			name: "theta-wfp-s4", methods: section4,
			build: func() trace.Workload {
				sys := trace.Scale(trace.Theta(), 64)
				base := trace.Generate(trace.GenConfig{System: sys, Jobs: 80, Seed: 7})
				base.Name = sys.Cluster.Name + "-Original"
				return trace.WithStageOut(mustGoldenVariant(base, "S4", 7), 2)
			},
		},
		{
			// Theta with heterogeneous local SSDs: the §5 S5 variant and
			// the four-objective method builds.
			name: "theta-ssd-s5", ssd: true, methods: section5,
			build: func() trace.Workload {
				sys := trace.Scale(trace.Theta(), 64)
				base := trace.Generate(trace.GenConfig{System: sys, Jobs: 70, Seed: 7})
				base.Name = sys.Cluster.Name + "-Original"
				return mustGoldenVariant(base, "S5", 7)
			},
		},
	}
}

func mustGoldenVariant(base trace.Workload, variant string, seed uint64) trace.Workload {
	w, err := trace.ApplyVariant(base, variant, seed)
	if err != nil {
		panic(err)
	}
	return w
}

func summarize(res *Result) goldenResult {
	bh := sha256.New()
	for _, tbl := range [][]metrics.BucketStat{res.WaitBySize, res.WaitByBB, res.WaitByRuntime} {
		for _, b := range tbl {
			fmt.Fprintf(bh, "%s|%d|%.17g\n", b.Label, b.Jobs, b.AvgWaitSec)
		}
	}
	return goldenResult{
		NodeUsage:   fmt.Sprintf("%.17g", res.NodeUsage),
		BBUsage:     fmt.Sprintf("%.17g", res.BBUsage),
		SSDUsage:    fmt.Sprintf("%.17g", res.SSDUsage),
		WastedSSD:   fmt.Sprintf("%.17g", res.WastedSSDFrac),
		AvgWait:     fmt.Sprintf("%.17g", res.AvgWaitSec),
		AvgSlowdown: fmt.Sprintf("%.17g", res.AvgSlowdown),
		Completed:   res.CompletedJobs,
		Measured:    res.MeasuredJobs,
		Total:       res.TotalJobs,
		Invocations: res.SchedInvocations,
		Makespan:    res.MakespanSec,
		Buckets:     hex.EncodeToString(bh.Sum(nil)),
	}
}

// countingHash wraps sha256 counting newline-terminated records.
type countingHash struct {
	h     interface{ Write([]byte) (int, error) }
	lines int
}

func (c *countingHash) Write(p []byte) (int, error) {
	for _, b := range p {
		if b == '\n' {
			c.lines++
		}
	}
	return c.h.Write(p)
}

func goldenOpts(seed uint64, extra ...Option) []Option {
	opts := []Option{WithWindow(5, 50), WithSeed(seed)}
	return append(opts, extra...)
}

func runGoldenSerial(t *testing.T, w trace.Workload, m sched.Method, extra ...Option) (goldenResult, string, int) {
	t.Helper()
	h := sha256.New()
	ch := &countingHash{h: h}
	s, err := NewSimulator(w, m, goldenOpts(1, append(extra, WithEventLog(ch))...)...)
	if err != nil {
		t.Fatalf("%s/%s: %v", w.Name, m.Name(), err)
	}
	res, err := s.Run(context.Background())
	if err != nil {
		t.Fatalf("%s/%s: %v", w.Name, m.Name(), err)
	}
	return summarize(res), hex.EncodeToString(h.Sum(nil)), ch.lines
}

func TestGoldenEquivalence(t *testing.T) {
	scenarios := goldenScenarios()

	var captured []goldenEntry
	for _, sc := range scenarios {
		w := sc.build()
		var methods []sched.Method
		for _, name := range sc.methods {
			m, err := registry.New(name, goldenGA(), sc.ssd)
			if err != nil {
				t.Fatal(err)
			}
			methods = append(methods, m)
		}

		// Serial runs capture the golden entries.
		serial := make(map[string]goldenEntry, len(methods))
		for _, m := range methods {
			res, events, lines := runGoldenSerial(t, w, m)
			e := goldenEntry{Scenario: sc.name, Method: m.Name(), Events: events, Lines: lines, Result: res}
			captured = append(captured, e)
			serial[m.Name()] = e
		}

		// The same grid under the parallel sweep driver must reproduce the
		// serial Results exactly, for any worker count.
		runs, err := RunSweep(context.Background(), Sweep{
			Workloads: []trace.Workload{w},
			Methods:   methods,
			Seeds:     []uint64{1},
			Options:   goldenOpts(1),
			Workers:   3,
		})
		if err != nil {
			t.Fatalf("%s: sweep: %v", sc.name, err)
		}
		if len(runs) != len(methods) {
			t.Fatalf("%s: sweep returned %d runs, want %d", sc.name, len(runs), len(methods))
		}
		for _, r := range runs {
			got := summarize(r.Result)
			if got != serial[r.Method].Result {
				t.Errorf("%s/%s: RunSweep result diverges from serial run:\n  sweep:  %+v\n  serial: %+v",
					sc.name, r.Method, got, serial[r.Method].Result)
			}
		}
	}

	if *updateGolden {
		raw, err := json.MarshalIndent(captured, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll(filepath.Dir(goldenPath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath, append(raw, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %d golden entries to %s", len(captured), goldenPath)
		return
	}

	raw, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("reading golden data (regenerate with -update-golden): %v", err)
	}
	var want []goldenEntry
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatal(err)
	}
	wantByKey := make(map[string]goldenEntry, len(want))
	for _, e := range want {
		wantByKey[e.Scenario+"/"+e.Method] = e
	}
	if len(captured) != len(want) {
		t.Errorf("captured %d entries, golden file has %d", len(captured), len(want))
	}
	for _, got := range captured {
		key := got.Scenario + "/" + got.Method
		exp, ok := wantByKey[key]
		if !ok {
			t.Errorf("%s: no golden entry (regenerate with -update-golden?)", key)
			continue
		}
		if got.Events != exp.Events || got.Lines != exp.Lines {
			t.Errorf("%s: event stream diverged: %d lines hash %s, want %d lines hash %s",
				key, got.Lines, got.Events, exp.Lines, exp.Events)
		}
		if got.Result != exp.Result {
			t.Errorf("%s: result diverged:\n  got:  %+v\n  want: %+v", key, got.Result, exp.Result)
		}
	}
}
