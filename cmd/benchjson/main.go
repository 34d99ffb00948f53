// Command benchjson turns `go test -bench` output into a committed JSON
// perf trajectory and gates CI on it.
//
// Two modes:
//
//	# parse bench output from stdin and write/refresh the baseline
//	go test -bench '^BenchmarkSimThroughput$' -benchtime=3x -run '^$' ./internal/sim | \
//	    go run ./cmd/benchjson -out BENCH_sim.json
//
//	# parse a fresh run from stdin and fail if it regressed vs the baseline
//	go test -bench '^BenchmarkSimThroughput$' -benchtime=3x -run '^$' ./internal/sim | \
//	    go run ./cmd/benchjson -check BENCH_sim.json -max-regress 0.2
//
// The check compares every benchmark present in both runs: jobs/sec (and
// any other higher-is-better rate metric) must not drop more than
// -max-regress relative to the baseline, and allocs/event — which is
// machine-independent, so it gates reliably even when CI hardware differs
// from the machine that produced the baseline — must not grow more than
// the same fraction.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"
)

// Benchmark is one parsed benchmark result.
type Benchmark struct {
	// Name is the benchmark name with the -cpus suffix stripped.
	Name string `json:"name"`
	// Pkg is the package that produced the benchmark (the nearest
	// preceding `pkg:` header); combined runs concatenate several
	// packages' output, so provenance is per-benchmark.
	Pkg string `json:"pkg,omitempty"`
	// Iters is the harness iteration count.
	Iters int64 `json:"iters"`
	// Metrics maps unit -> value (ns/op, B/op, allocs/op, plus every
	// b.ReportMetric unit such as jobs/sec and allocs/event).
	Metrics map[string]float64 `json:"metrics"`
}

// File is the committed BENCH_*.json layout.
type File struct {
	// GeneratedAt is the RFC 3339 timestamp of the run.
	GeneratedAt string `json:"generated_at"`
	// Pkg records the bench header's package when every benchmark came
	// from one package (empty for combined multi-package runs — see
	// Benchmark.Pkg); Host records the CPU line, for provenance when
	// comparing across machines.
	Pkg  string `json:"pkg,omitempty"`
	Host string `json:"host,omitempty"`
	// GoMaxProcs records the worker parallelism of the run (the -<n>
	// suffix the bench harness appends to names; on single-core runs,
	// where the harness omits the suffix, -out falls back to its own
	// GOMAXPROCS), so throughput numbers carry the core count they were
	// measured at: the sweep, farm and portfolio benches run concurrent
	// goroutines.
	GoMaxProcs int `json:"gomaxprocs,omitempty"`
	// Benchmarks lists the parsed results, sorted by name.
	Benchmarks []Benchmark `json:"benchmarks"`
}

func main() {
	var (
		out        = flag.String("out", "", "write the parsed run to this JSON file")
		check      = flag.String("check", "", "compare the parsed run against this baseline JSON file")
		maxRegress = flag.Float64("max-regress", 0.20, "maximum tolerated fractional regression")
		require    = flag.String("require", "", "comma-separated benchmark name prefixes that must appear in the parsed run; a bench that vanishes (e.g. its package failed to build) fails the check instead of silently dropping its gate")
	)
	flag.Parse()
	if (*out == "") == (*check == "") {
		fmt.Fprintln(os.Stderr, "benchjson: exactly one of -out or -check is required")
		os.Exit(2)
	}

	cur, err := Parse(os.Stdin)
	if err != nil {
		fail(err)
	}
	if len(cur.Benchmarks) == 0 {
		fail(fmt.Errorf("no benchmark lines found on stdin"))
	}
	if missing := missingRequired(cur, *require); len(missing) > 0 {
		fail(fmt.Errorf("required benchmark(s) missing from the run: %s (did a bench package fail?)", strings.Join(missing, ", ")))
	}

	if *out != "" {
		cur.GeneratedAt = time.Now().UTC().Format(time.RFC3339)
		if cur.GoMaxProcs == 0 {
			// The harness omits the -<n> name suffix when GOMAXPROCS is 1.
			// -out parses benches piped from this same machine, so our own
			// value is the run's.
			cur.GoMaxProcs = runtime.GOMAXPROCS(0)
		}
		data, err := json.MarshalIndent(cur, "", "  ")
		if err != nil {
			fail(err)
		}
		if err := os.WriteFile(*out, append(data, '\n'), 0o644); err != nil {
			fail(err)
		}
		fmt.Printf("benchjson: wrote %d benchmark(s) to %s\n", len(cur.Benchmarks), *out)
		return
	}

	base, err := readFile(*check)
	if err != nil {
		fail(err)
	}
	report, ok := Compare(base, cur, *maxRegress)
	fmt.Print(report)
	if !ok {
		fmt.Fprintln(os.Stderr, "benchjson: FAIL: performance regressed beyond the threshold")
		os.Exit(1)
	}
	fmt.Println("benchjson: OK")
}

// missingRequired returns the -require prefixes matching no parsed
// benchmark name.
func missingRequired(f *File, require string) []string {
	var missing []string
	for _, prefix := range strings.Split(require, ",") {
		prefix = strings.TrimSpace(prefix)
		if prefix == "" {
			continue
		}
		found := false
		for _, b := range f.Benchmarks {
			if strings.HasPrefix(b.Name, prefix) {
				found = true
				break
			}
		}
		if !found {
			missing = append(missing, prefix)
		}
	}
	return missing
}

func readFile(path string) (*File, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f File
	if err := json.Unmarshal(data, &f); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &f, nil
}

// Parse reads `go test -bench` output — possibly several packages'
// output concatenated — and extracts every benchmark line, attributing
// each to the nearest preceding `pkg:` header.
func Parse(r io.Reader) (*File, error) {
	f := &File{}
	pkg := ""
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1024*1024), 1024*1024)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		switch {
		case strings.HasPrefix(line, "goos:") || strings.HasPrefix(line, "goarch:"):
			continue
		case strings.HasPrefix(line, "cpu:"):
			f.Host = strings.TrimSpace(strings.TrimPrefix(line, "cpu:"))
			continue
		case strings.HasPrefix(line, "pkg:"):
			pkg = strings.TrimSpace(strings.TrimPrefix(line, "pkg:"))
			continue
		}
		if !strings.HasPrefix(line, "Benchmark") {
			continue
		}
		b, procs, err := parseLine(line)
		if err != nil {
			return nil, err
		}
		b.Pkg = pkg
		if procs > 0 {
			f.GoMaxProcs = procs
		}
		f.Benchmarks = append(f.Benchmarks, b)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	// Single-package runs keep the top-level Pkg field for backward
	// compatibility; combined runs record provenance per benchmark only.
	single := true
	for _, b := range f.Benchmarks {
		if b.Pkg != pkg {
			single = false
			break
		}
	}
	if single {
		f.Pkg = pkg
		for i := range f.Benchmarks {
			f.Benchmarks[i].Pkg = ""
		}
	}
	sort.Slice(f.Benchmarks, func(i, j int) bool { return f.Benchmarks[i].Name < f.Benchmarks[j].Name })
	return f, nil
}

// parseLine parses one benchmark line: name, iteration count, then
// (value, unit) pairs. The second return is the GOMAXPROCS suffix the
// harness appended to the name (0 when absent).
func parseLine(line string) (Benchmark, int, error) {
	fields := strings.Fields(line)
	if len(fields) < 4 || len(fields)%2 != 0 {
		return Benchmark{}, 0, fmt.Errorf("malformed benchmark line: %q", line)
	}
	name, procs := stripCPUSuffix(fields[0])
	b := Benchmark{Name: name, Metrics: map[string]float64{}}
	iters, err := strconv.ParseInt(fields[1], 10, 64)
	if err != nil {
		return Benchmark{}, 0, fmt.Errorf("iteration count in %q: %w", line, err)
	}
	b.Iters = iters
	for i := 2; i+1 < len(fields); i += 2 {
		v, err := strconv.ParseFloat(fields[i], 64)
		if err != nil {
			return Benchmark{}, 0, fmt.Errorf("value %q in %q: %w", fields[i], line, err)
		}
		b.Metrics[fields[i+1]] = v
	}
	return b, procs, nil
}

// stripCPUSuffix removes the trailing -<gomaxprocs> the bench harness
// appends to names (Benchmark names themselves never end in -<digits>)
// and returns its value, 0 when no suffix is present.
func stripCPUSuffix(name string) (string, int) {
	i := strings.LastIndexByte(name, '-')
	if i < 0 {
		return name, 0
	}
	procs, err := strconv.Atoi(name[i+1:])
	if err != nil || procs <= 0 {
		return name, 0
	}
	return name[:i], procs
}

// higherIsBetter classifies a metric unit: rates (anything per second)
// improve upward; costs (ns/op, B/op, allocs/op, allocs/event, B/event)
// improve downward.
func higherIsBetter(unit string) bool {
	return strings.HasSuffix(unit, "/sec") || strings.HasSuffix(unit, "/s")
}

// gatedMetrics are the units the -check mode enforces; everything else is
// reported but informational. Rate metrics (jobs/sec, solves/sec) track
// wall clock; allocs/event and allocs/op are machine-independent and
// catch pooling regressions even across differing CI hardware (both
// solver benches and the sim throughput bench are deterministic, so
// their allocation counts are stable). peak-B is the streaming engine's
// memory ceiling (peak live heap of the stream-1M bench): it is bounded
// by queue depth plus look-ahead, so any O(trace-length) regression —
// retaining finished jobs, preloading arrivals, unbounded metrics —
// blows far past the tolerance. makespan-ms is the farm benches'
// grid-makespan (lower is better, per the suffix rule): it gates the
// coordinator's tail behavior — losing work-stealing or cache hits shows
// up as a multiple, not a percentage.
var gatedMetrics = map[string]bool{
	"jobs/sec":     true,
	"solves/sec":   true,
	"allocs/event": true,
	"allocs/op":    true,
	"peak-B":       true,
	"makespan-ms":  true,
}

// absSlack is the minimum absolute worsening, per unit, before a
// lower-is-better metric counts as regressed. Millisecond-scale
// makespans (the cache-warm farm bench completes its whole grid in a
// few ms) jitter by single milliseconds on a loaded CI box; a pure
// ratio gate over such a baseline would flag timer noise. The failures
// this gate exists for — a lost lever — show up as multiples of the
// slack.
var absSlack = map[string]float64{"makespan-ms": 10}

// Compare reports per-benchmark metric deltas and whether every gated
// metric stayed within the tolerated regression.
func Compare(base, cur *File, maxRegress float64) (string, bool) {
	var sb strings.Builder
	ok := true
	baseBy := map[string]Benchmark{}
	for _, b := range base.Benchmarks {
		baseBy[b.Name] = b
	}
	for _, c := range cur.Benchmarks {
		b, found := baseBy[c.Name]
		if !found {
			fmt.Fprintf(&sb, "%s: new benchmark (no baseline)\n", c.Name)
			continue
		}
		// A gated metric the baseline tracks must still be reported by the
		// current run — otherwise the gate would silently become a no-op.
		for u := range b.Metrics {
			if _, inCur := c.Metrics[u]; gatedMetrics[u] && !inCur {
				fmt.Fprintf(&sb, "%s %s: gated metric missing from current run FAIL\n", c.Name, u)
				ok = false
			}
		}
		units := make([]string, 0, len(c.Metrics))
		for u := range c.Metrics {
			if _, inBase := b.Metrics[u]; inBase {
				units = append(units, u)
			}
		}
		sort.Strings(units)
		for _, u := range units {
			was, now := b.Metrics[u], c.Metrics[u]
			delta := 0.0
			if was != 0 {
				delta = (now - was) / was
			}
			status := "ok"
			gated := gatedMetrics[u]
			regressed := false
			if higherIsBetter(u) {
				regressed = was > 0 && now < was*(1-maxRegress)
			} else {
				regressed = now > was*(1+maxRegress) && now-was > 1e-9 && now-was >= absSlack[u]
			}
			if regressed {
				if gated {
					status = "FAIL"
					ok = false
				} else {
					status = "regressed (informational)"
				}
			}
			fmt.Fprintf(&sb, "%s %s: %.4g -> %.4g (%+.1f%%) %s\n", c.Name, u, was, now, delta*100, status)
		}
	}
	return sb.String(), ok
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "benchjson:", err)
	os.Exit(1)
}
