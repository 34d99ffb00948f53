package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"regexp"
	"strings"
	"testing"
)

// benchmarkJSON mirrors ../BENCHMARK.json.
type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []declared `json:"end_to_end"`
	PerLayer []declared `json:"per_layer"`
}

type declared struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound"`
}

func loadManifest(t *testing.T) benchmarkJSON {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var mf benchmarkJSON
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&mf); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	return mf
}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// TestManifestMatchesCode holds BENCHMARK.json and the program together:
// the same workloads and the same metrics with the same units, in both
// directions, each named once.
func TestManifestMatchesCode(t *testing.T) {
	mf := loadManifest(t)
	seen := map[string]bool{}
	once := func(name string) {
		t.Helper()
		if !nameRE.MatchString(name) {
			t.Errorf("name %q does not match %v", name, nameRE)
		}
		if seen[name] {
			t.Errorf("name %q is used twice", name)
		}
		seen[name] = true
	}

	var inCode, inFile []string
	for _, w := range workloads() {
		inCode = append(inCode, w.name)
	}
	for _, w := range mf.Workloads {
		once(w.Name)
		inFile = append(inFile, w.Name)
		if w.Why == "" || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters", w.Name)
		}
	}
	if strings.Join(inCode, " ") != strings.Join(inFile, " ") {
		t.Errorf("workloads: code has %v, BENCHMARK.json has %v", inCode, inFile)
	}

	compare := func(kind string, code []metric, file []declared, bounded bool) {
		t.Helper()
		want := map[string]string{}
		for _, m := range code {
			want[m.name] = m.unit
		}
		for _, d := range file {
			once(d.Name)
			unit, ok := want[d.Name]
			switch {
			case !ok:
				t.Errorf("%s metric %s is in BENCHMARK.json but not in the program", kind, d.Name)
			case unit != d.Unit:
				t.Errorf("%s metric %s: program says unit %q, BENCHMARK.json %q", kind, d.Name, unit, d.Unit)
			}
			delete(want, d.Name)
			if d.Better != "higher" && d.Better != "lower" {
				t.Errorf("%s metric %s: better is %q", kind, d.Name, d.Better)
			}
			if bounded != (d.Bound != nil) {
				t.Errorf("%s metric %s: bound present = %v, want %v", kind, d.Name, d.Bound != nil, bounded)
			}
			if d.Bound != nil && (*d.Bound <= 0 || *d.Bound > 0.25) {
				t.Errorf("%s metric %s: bound %v outside (0, 0.25]", kind, d.Name, *d.Bound)
			}
		}
		for name := range want {
			t.Errorf("%s metric %s is in the program but not in BENCHMARK.json", kind, name)
		}
	}
	compare("end-to-end", endToEnd, mf.EndToEnd, true)
	compare("per-layer", perLayer, mf.PerLayer, false)
	if len(mf.PerLayer) > 128 {
		t.Errorf("%d per-layer metrics, at most 128 allowed", len(mf.PerLayer))
	}
}

// toy shrinks a workload until both kinds of run together take about a
// second, race detector included.
func toy(w workload) workload {
	if w.replay != nil {
		r := *w.replay
		r.traces, r.jobs = 1, min(max(r.jobs/50, 5), 1000)
		w.replay = &r
	} else {
		g := *w.grid
		g.traces, g.seeds, g.jobs, g.checkpointEvents = 1, 2, 60, 40
		w.grid = &g
	}
	return w
}

func toyConfig(t *testing.T) config {
	return config{seed: 7, outDir: t.TempDir()}
}

// TestSmoke runs all five workloads at toy sizes, untraced and traced, and
// checks the result line: exactly the declared metrics, each once, finite
// and with its unit; no failed operation; traced and untraced digests
// equal (run itself checks that).
func TestSmoke(t *testing.T) {
	for _, w := range workloads() {
		w := toy(w)
		for _, traced := range []bool{false, true} {
			cfg := toyConfig(t)
			cfg.traced = traced
			o := w.run(cfg)
			var buf bytes.Buffer
			o.print(&buf)
			if !o.Correct || o.Failed != 0 || o.Attempted < 1 || exitCode([]*outcome{o}) != 0 {
				t.Fatalf("%s traced=%v failed:\n%s", w.name, traced, buf.String())
			}
			lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
			var line struct {
				Correct   *bool            `json:"correct"`
				Attempted *int             `json:"attempted"`
				Failed    *int             `json:"failed"`
				Metrics   map[string]value `json:"metrics"`
			}
			dec := json.NewDecoder(strings.NewReader(lines[len(lines)-1]))
			dec.DisallowUnknownFields()
			if err := dec.Decode(&line); err != nil {
				t.Fatalf("%s: last line is not the result object: %v\n%s", w.name, err, lines[len(lines)-1])
			}
			if line.Correct == nil || line.Attempted == nil || line.Failed == nil {
				t.Fatalf("%s: result object lacks a key: %s", w.name, lines[len(lines)-1])
			}
			want := endToEnd
			if traced {
				want = perLayer
			}
			if len(line.Metrics) != len(want) {
				t.Errorf("%s traced=%v: %d metrics emitted, %d declared", w.name, traced, len(line.Metrics), len(want))
			}
			for _, m := range want {
				v, ok := line.Metrics[m.name]
				switch {
				case !ok:
					t.Errorf("%s traced=%v: %s not emitted", w.name, traced, m.name)
				case v.Unit != m.unit:
					t.Errorf("%s: %s has unit %q, declared %q", w.name, m.name, v.Unit, m.unit)
				case math.IsNaN(v.Value) || math.IsInf(v.Value, 0):
					t.Errorf("%s: %s is %v", w.name, m.name, v.Value)
				case !traced && v.Value <= 0:
					t.Errorf("%s: end-to-end metric %s is %v, must be positive", w.name, m.name, v.Value)
				}
			}
		}
	}
}

func byName(t *testing.T, name string) workload {
	t.Helper()
	for _, w := range workloads() {
		if w.name == name {
			return toy(w)
		}
	}
	t.Fatalf("no workload %s", name)
	return workload{}
}

// mustFail asserts what every broken output check has to do: fail the
// check, count a failed operation, and turn the exit status non-zero.
func mustFail(t *testing.T, o *outcome, wantErr string) {
	t.Helper()
	if o.Correct || o.Failed == 0 || exitCode([]*outcome{o}) == 0 {
		t.Fatalf("run passed: correct=%v failed=%d of %d", o.Correct, o.Failed, o.Attempted)
	}
	for _, err := range o.errs {
		if strings.Contains(err.Error(), wantErr) {
			return
		}
	}
	t.Fatalf("no failure mentions %q: %v", wantErr, o.errs)
}

func TestPinnedDigestCheck(t *testing.T) {
	w := byName(t, "replay-deep-queue")
	cfg := toyConfig(t)
	cfg.seed = defaultSeed
	o := w.run(cfg)
	if !o.Correct {
		t.Fatalf("unpinned run failed: %v", o.errs)
	}
	digest := o.digest

	cfg.pins = map[string]pin{w.name: {Digest: digest}}
	if o := w.run(cfg); !o.Correct {
		t.Fatalf("run against its own digest failed: %v", o.errs)
	}
	flipped := []byte(digest)
	flipped[0] ^= 1
	cfg.pins = map[string]pin{w.name: {Digest: string(flipped)}}
	mustFail(t, w.run(cfg), "pinned")

	// A pin holds at the default seed only.
	cfg.seed = defaultSeed + 1
	if o := w.run(cfg); !o.Correct {
		t.Fatalf("pin applied at a non-default seed: %v", o.errs)
	}
}

func TestPinnedQualityCheck(t *testing.T) {
	w := byName(t, "replay-lp-w1024")
	cfg := toyConfig(t)
	cfg.seed = defaultSeed
	o := w.run(cfg)
	if !o.Correct {
		t.Fatalf("unpinned run failed: %v", o.errs)
	}
	node := o.Metrics["node_usage_pct"].Value
	cfg.pins = map[string]pin{w.name: {NodeUsagePct: node * 1.01, Tolerance: 0.02}}
	if o := w.run(cfg); !o.Correct {
		t.Fatalf("1%% off with 2%% tolerance failed: %v", o.errs)
	}
	cfg.pins = map[string]pin{w.name: {NodeUsagePct: node * 1.05, Tolerance: 0.02}}
	mustFail(t, w.run(cfg), "pinned reference")
}

func TestFarmEqualsSweepCheck(t *testing.T) {
	w := byName(t, "farm-grid")
	cfg := toyConfig(t)
	cfg.faults.flipFarmBit = true
	mustFail(t, w.run(cfg), "differs from the sweep's")
}

func TestCompletenessCheck(t *testing.T) {
	w := byName(t, "replay-deep-queue")
	cfg := toyConfig(t)
	cfg.faults.truncateSteps = 20
	mustFail(t, w.run(cfg), "not drained")
}

func TestQuartileSpreadMatchesPython(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	vals := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	if got, want := quartileSpread(vals), (8.25-2.75)/5.5; math.Abs(got-want) > 1e-12 {
		t.Errorf("quartileSpread = %v, want %v", got, want)
	}
}
