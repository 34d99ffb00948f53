// Command tracegen generates synthetic Cori-like or Theta-like workload
// traces (optionally with the paper's S1–S4 burst-buffer expansions or
// S5–S7 local-SSD mixes) and writes them as CSV, gzipped when the output
// name ends in ".gz". The flags describe a trace.Recipe, the recipe bbsim
// and the sweep farm build their workloads through: by default it is
// built (trace.ApplyVariant over trace.Generate, the same workload bbsim
// -variant and the paper matrices build).
//
// With -stream the recipe is opened instead, and the trace is generated
// and written one job at a time through the streaming pipeline (GenSource
// → variant combinators → CSVWriter), so arbitrarily long traces — the
// 1M-job bench input, say — are produced in constant memory. Streaming
// variants approximate the materialized expansions distributionally (see
// ApplyVariantSource), so the two modes emit different bytes for S1–S7.
//
// Usage:
//
//	tracegen -system theta -jobs 5000 -variant S4 -o theta-s4.csv
//	tracegen -system cori -scale 64 -variant S6 -o cori-s6.csv
//	tracegen -stream -jobs 1000000 -variant S2 -o theta-s2-1m.csv.gz
package main

import (
	"compress/gzip"
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
		scale   = flag.Int("scale", 1, "machine scale divisor (1 = full size; bbsim defaults to 32, so pass the same -scale to both)")
		variant = flag.String("variant", "original", "original, S1..S4 (burst buffer), S5..S7 (local SSD)")
		deps    = flag.Float64("deps", 0, "fraction of jobs given a dependency")
		stream  = flag.Bool("stream", false, "generate and write one job at a time (constant memory; for very large -jobs)")
		out     = flag.String("o", "-", "output file ('-' = stdout; a name ending in .gz is gzipped)")
	)
	flag.Parse()

	rec, err := recipe(*system, *scale, *jobs, *seed, *variant, *deps, *stream)
	var (
		w   trace.Workload // with -stream, the job-less shell
		src trace.JobSource
	)
	switch {
	case err != nil:
	case rec.Stream:
		w, src, err = rec.Open()
	default:
		w, err = rec.Build()
		src = trace.SourceOf(w)
	}
	if err == nil {
		err = write(*out, w.Name, src)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "tracegen:", err)
		os.Exit(1)
	}
}

// write emits src to path ('-' = stdout), gzipped at BestSpeed when the
// name ends in ".gz", as every trace reader (trace.OpenTrace, bbsim
// -stream) expects of such a name.
func write(path, name string, src trace.JobSource) error {
	if path == "-" {
		return emit(os.Stdout, name, src)
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	var dst io.Writer = f
	var gz *gzip.Writer
	if strings.HasSuffix(strings.ToLower(path), ".gz") {
		gz, _ = gzip.NewWriterLevel(f, gzip.BestSpeed) // a valid level: cannot fail
		dst = gz
	}
	err = emit(dst, name, src)
	if err == nil && gz != nil {
		err = gz.Close()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
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

// recipe is the recipe the flags describe, validated: -seed seeds both the
// generator and the variant's draws.
func recipe(system string, scale, jobs int, seed uint64, variant string, deps float64, stream bool) (trace.Recipe, error) {
	sys, err := trace.SystemByName(system, scale)
	if err != nil {
		return trace.Recipe{}, err
	}
	rec := trace.Recipe{
		Gen:     trace.GenConfig{System: sys, Jobs: jobs, Seed: seed, DependencyFraction: deps},
		Variant: variant, VariantSeed: seed, Stream: stream,
	}
	return rec, rec.Validate()
}
