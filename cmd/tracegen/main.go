// Command tracegen generates synthetic Cori-like or Theta-like workload
// traces (optionally with the paper's S1–S4 burst-buffer expansions or
// S5–S7 local-SSD mixes) and writes them as CSV. By default the trace is
// trace.ApplyVariant over trace.Generate, the same workload bbsim
// -variant and the paper matrices build.
//
// With -stream the trace is generated and written one job at a time
// through the streaming pipeline (GenSource → variant combinators →
// CSVWriter), so arbitrarily long traces — the 1M-job bench input, say —
// are produced in constant memory. Streaming variants approximate the
// materialized expansions distributionally (see ApplyVariantSource), so
// the two modes emit different bytes for S1–S7.
//
// Usage:
//
//	tracegen -system theta -jobs 5000 -variant S4 -o theta-s4.csv
//	tracegen -system cori -scale 64 -variant S6 -o cori-s6.csv
//	tracegen -stream -jobs 1000000 -variant S2 -o theta-s2-1m.csv
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"bbsched/internal/trace"
)

func main() {
	var (
		system  = flag.String("system", "theta", "system model: cori or theta")
		jobs    = flag.Int("jobs", 1000, "number of jobs")
		seed    = flag.Uint64("seed", 42, "generator seed")
		scale   = flag.Int("scale", 1, "machine scale divisor (1 = full size)")
		variant = flag.String("variant", "original", "original, S1..S4 (burst buffer), S5..S7 (local SSD)")
		deps    = flag.Float64("deps", 0, "fraction of jobs given a dependency")
		stream  = flag.Bool("stream", false, "generate and write one job at a time (constant memory; for very large -jobs)")
		out     = flag.String("o", "-", "output file ('-' = stdout)")
	)
	flag.Parse()

	var dst io.Writer = os.Stdout
	if *out != "-" {
		f, err := os.Create(*out)
		if err != nil {
			fmt.Fprintln(os.Stderr, "tracegen:", err)
			os.Exit(1)
		}
		defer f.Close()
		dst = f
	}

	var (
		src  trace.JobSource
		name string
		err  error
	)
	if *stream {
		src, name, err = streamSource(*system, *jobs, *seed, *scale, *variant, *deps)
	} else {
		var w trace.Workload
		w, err = build(*system, *jobs, *seed, *scale, *variant, *deps)
		src, name = trace.SourceOf(w), w.Name
	}
	if err == nil {
		err = emit(dst, name, src)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "tracegen:", err)
		os.Exit(1)
	}
}

// emit writes src as CSV and prints a summary line, tracking its
// statistics as running sums so a stream is never held.
func emit(dst io.Writer, name string, src trace.JobSource) error {
	w := trace.NewCSVWriter(dst)
	var n, bbJobs int
	var bbGB, horizon int64
	for {
		j, err := src.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			return err
		}
		if err := w.Write(j); err != nil {
			return err
		}
		n++
		if bb := j.Demand.BB(); bb > 0 {
			bbJobs++
			bbGB += bb
		}
		horizon = j.SubmitTime
	}
	if err := w.Flush(); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "%s: %d jobs, %d with BB requests (%.1f TB aggregate), horizon %ds\n",
		name, n, bbJobs, float64(bbGB)/1000, horizon)
	return nil
}

// streamSource is the streaming pipeline: GenSource → variant combinators.
func streamSource(system string, jobs int, seed uint64, scale int, variant string, deps float64) (trace.JobSource, string, error) {
	sys, err := systemModel(system, scale)
	if err != nil {
		return nil, "", err
	}
	src := trace.GenSource(trace.GenConfig{System: sys, Jobs: jobs, Seed: seed, DependencyFraction: deps})
	src, _, name, err := trace.ApplyVariantSource(src, sys, variant, seed)
	return src, name, err
}

func systemModel(system string, scale int) (trace.SystemModel, error) {
	var sys trace.SystemModel
	switch strings.ToLower(system) {
	case "cori":
		sys = trace.Cori()
	case "theta":
		sys = trace.Theta()
	default:
		return trace.SystemModel{}, fmt.Errorf("unknown system %q (want cori or theta)", system)
	}
	return trace.Scale(sys, scale), nil
}

// build is the materialized pipeline: Generate → ApplyVariant.
func build(system string, jobs int, seed uint64, scale int, variant string, deps float64) (trace.Workload, error) {
	sys, err := systemModel(system, scale)
	if err != nil {
		return trace.Workload{}, err
	}
	base := trace.Generate(trace.GenConfig{System: sys, Jobs: jobs, Seed: seed, DependencyFraction: deps})
	return trace.ApplyVariant(base, variant, seed)
}
