package sim

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"bbsched/internal/job"
	"bbsched/internal/registry"
	"bbsched/internal/sched"
	"bbsched/internal/trace"
)

// runGoldenStream mirrors runGoldenSerial through the streaming driver:
// the workload's jobs are replayed via SliceSource + WithSource instead
// of being preloaded, with any extra options appended.
func runGoldenStream(t *testing.T, w trace.Workload, m sched.Method, extra ...Option) (goldenResult, string, int) {
	t.Helper()
	h := sha256.New()
	ch := &countingHash{h: h}
	shell := trace.Workload{Name: w.Name, System: w.System}
	opts := goldenOpts(1, WithEventLog(ch), WithSource(trace.SourceOf(w)))
	opts = append(opts, extra...)
	s, err := NewSimulator(shell, m, opts...)
	if err != nil {
		t.Fatalf("%s/%s: %v", w.Name, m.Name(), err)
	}
	res, err := s.Run(context.Background())
	if err != nil {
		t.Fatalf("%s/%s: %v", w.Name, m.Name(), err)
	}
	return summarize(res), hex.EncodeToString(h.Sum(nil)), ch.lines
}

// TestGoldenStreamEquivalence drives every golden (scenario, method) pair
// through SliceSource + the streaming ingestion path and requires a
// byte-identical event stream and exact result floats vs the materialized
// path — under the default look-ahead, a degenerate 1-job look-ahead, and
// the bounded-memory metrics accumulator (whose means and breakdowns must
// also be bit-identical; goldenResult carries no percentiles, the one
// field family where the streaming estimator legitimately differs).
func TestGoldenStreamEquivalence(t *testing.T) {
	for _, sc := range goldenScenarios() {
		w := sc.build()
		for _, name := range sc.methods {
			m, err := registry.New(name, goldenGA(), sc.ssd)
			if err != nil {
				t.Fatal(err)
			}
			wantRes, wantEvents, wantLines := runGoldenSerial(t, w, m)
			variants := []struct {
				label string
				extra []Option
			}{
				{"stream", nil},
				{"stream-lookahead1", []Option{func(o *options) { o.lookahead = 1 }}},
				{"stream-bounded-metrics", []Option{WithStreamingMetrics()}},
			}
			for _, v := range variants {
				gotRes, gotEvents, gotLines := runGoldenStream(t, w, m, v.extra...)
				if gotEvents != wantEvents || gotLines != wantLines {
					t.Errorf("%s/%s/%s: event stream diverged from materialized run: %d lines hash %s, want %d lines hash %s",
						sc.name, name, v.label, gotLines, gotEvents, wantLines, wantEvents)
				}
				if gotRes != wantRes {
					t.Errorf("%s/%s/%s: result diverged from materialized run:\n  got:  %+v\n  want: %+v",
						sc.name, name, v.label, gotRes, wantRes)
				}
			}
		}
	}
}

// errSource yields canned jobs, then a terminal error or EOF.
type errSource struct {
	jobs []*job.Job
	i    int
	err  error
}

func (s *errSource) Next() (*job.Job, error) {
	if s.i < len(s.jobs) {
		j := s.jobs[s.i]
		s.i++
		return j, nil
	}
	if s.err != nil {
		return nil, s.err
	}
	return nil, io.EOF
}

func streamTestSystem() trace.SystemModel { return trace.Scale(trace.Theta(), 128) }

func TestStreamHorizonResolution(t *testing.T) {
	sys := streamTestSystem()
	shell := trace.Workload{Name: "stream", System: sys}
	src := func() trace.JobSource {
		return &errSource{jobs: []*job.Job{job.MustNew(0, 0, 60, 60, job.NewDemand(1, 0, 0))}}
	}

	// Horizon-less source + default fractional trim must be rejected with
	// actionable guidance.
	_, err := NewSimulator(shell, sched.Baseline{}, WithSource(src()))
	if err == nil || !strings.Contains(err.Error(), "WithMeasureWindow") {
		t.Fatalf("horizon-less stream with fractional trim: err = %v, want WithMeasureWindow guidance", err)
	}

	// WithMeasurement(0,0) measures the full run.
	s, err := NewSimulator(shell, sched.Baseline{}, WithSource(src()), WithMeasurement(0, 0))
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if res.TotalJobs != 1 || res.MeasuredJobs != 1 {
		t.Fatalf("full-run measurement: total %d measured %d, want 1/1", res.TotalJobs, res.MeasuredJobs)
	}

	// An absolute window excludes jobs submitted outside it.
	s, err = NewSimulator(shell, sched.Baseline{}, WithSource(src()), WithMeasureWindow(10, 100))
	if err != nil {
		t.Fatal(err)
	}
	if res, err = s.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	if res.TotalJobs != 1 || res.MeasuredJobs != 0 {
		t.Fatalf("windowed measurement: total %d measured %d, want 1/0", res.TotalJobs, res.MeasuredJobs)
	}
}

// TestStreamContractViolations tables the JobSource contract against both
// ways jobs are supplied: a source trips over each fault mid-run (admit),
// and the same jobs as a workload's own are refused by NewSimulator
// (Workload.Validate) in the same words — a workload that validates is
// exactly one that streams.
func TestStreamContractViolations(t *testing.T) {
	sys := streamTestSystem()
	shell := trace.Workload{Name: "stream", System: sys}
	mk := func(id int, submit int64, deps ...int) *job.Job {
		j := job.MustNew(id, submit, 60, 60, job.NewDemand(1, 0, 0))
		j.Deps = deps
		return j
	}
	cases := []struct {
		name string
		jobs []*job.Job
		err  error // terminal source failure after jobs; stream-only
		want string
	}{
		{"sparse IDs", []*job.Job{mk(0, 0), mk(2, 10)}, nil, "dense"},
		{"ID out of submit order", []*job.Job{mk(1, 0), mk(0, 10)}, nil, "dense"},
		{"submit regression", []*job.Job{mk(0, 50), mk(1, 10)}, nil, "before previous"},
		{"forward dep", []*job.Job{mk(0, 0), mk(1, 10, 2)}, nil, "earlier job"},
		{"dep on a same-instant later ID", []*job.Job{mk(0, 5, 1), mk(1, 5)}, nil, "earlier job"},
		{"oversized job", []*job.Job{mk(0, 0), job.MustNew(1, 5, 60, 60, job.NewDemand(sys.Cluster.Nodes+1, 0, 0))}, nil, "nodes"},
		{"source failure", []*job.Job{mk(0, 0)}, fmt.Errorf("disk on fire"), "disk on fire"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if tc.err == nil {
				w := shell
				w.Jobs = tc.jobs
				if _, err := NewSimulator(w, sched.Baseline{}); err == nil || !strings.Contains(err.Error(), tc.want) {
					t.Fatalf("NewSimulator err = %v, want substring %q", err, tc.want)
				}
			}
			src := &errSource{jobs: tc.jobs, err: tc.err}
			s, err := NewSimulator(shell, sched.Baseline{}, WithSource(src), WithMeasurement(0, 0))
			if err != nil {
				t.Fatal(err)
			}
			if _, err := s.Run(context.Background()); err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("streamed err = %v, want substring %q", err, tc.want)
			}
		})
	}

	// A source alongside materialized jobs is a construction error.
	w := trace.Generate(trace.GenConfig{System: sys, Jobs: 5, Seed: 1})
	if _, err := NewSimulator(w, sched.Baseline{}, WithSource(&errSource{})); err == nil {
		t.Fatal("WithSource over a materialized workload: want error")
	}
}

// TestSweepStreams pins RunSweep over stream-backed workloads: fresh
// sources per grid cell, deterministic results across repeats, and
// agreement with the same jobs swept materialized.
func TestSweepStreams(t *testing.T) {
	sys := streamTestSystem()
	w := trace.Generate(trace.GenConfig{System: sys, Jobs: 60, Seed: 3})
	w.Name = "stream-sweep"
	methods := []sched.Method{sched.Baseline{}}
	sweep := func() Sweep {
		return Sweep{
			Streams: []StreamWorkload{{
				Name:   w.Name,
				System: sys,
				Open:   func() (trace.JobSource, error) { return trace.SourceOf(w), nil },
			}},
			Methods: methods,
			Seeds:   []uint64{1, 2},
			Options: []Option{WithWindow(5, 50)},
			Workers: 2,
		}
	}
	first, err := RunSweep(context.Background(), sweep())
	if err != nil {
		t.Fatal(err)
	}
	again, err := RunSweep(context.Background(), sweep())
	if err != nil {
		t.Fatal(err)
	}
	if len(again) != len(first) {
		t.Fatalf("repeat returned %d runs, want %d", len(again), len(first))
	}
	for i := range first {
		a, b := first[i], again[i]
		// Decision timings are wall-clock; everything else must repeat.
		if a.Workload != b.Workload || a.Method != b.Method || a.Seed != b.Seed ||
			!reflect.DeepEqual(a.Result.Report, b.Result.Report) {
			t.Fatalf("run %d: stream sweep not deterministic across repeats", i)
		}
	}

	mat, err := RunSweep(context.Background(), Sweep{
		Workloads: []trace.Workload{w},
		Methods:   methods,
		Seeds:     []uint64{1, 2},
		Options:   []Option{WithWindow(5, 50)},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(mat) != len(first) {
		t.Fatalf("%d stream runs vs %d materialized", len(first), len(mat))
	}
	for i := range mat {
		if !reflect.DeepEqual(first[i].Result.Report, mat[i].Result.Report) {
			t.Fatalf("run %d: stream sweep report diverges from materialized sweep", i)
		}
	}
}

// peakLiveHeap runs a streaming simulation of n generated jobs and
// returns the peak live heap (bytes) sampled across the run after forced
// collections, minus the pre-run baseline.
func peakLiveHeap(t *testing.T, n int) uint64 {
	t.Helper()
	sys := trace.Scale(trace.Theta(), 32)
	src := trace.GenSource(trace.GenConfig{System: sys, Jobs: n, Seed: 42, TargetLoad: 0.9})
	shell := trace.Workload{Name: "stream-mem", System: sys}
	s, err := NewSimulator(shell, sched.Baseline{}, WithSource(src),
		WithStreamingMetrics(), WithMeasurement(0, 0), func(o *options) { o.lookahead = 64 }, WithSeed(1))
	if err != nil {
		t.Fatal(err)
	}
	var ms runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&ms)
	base := ms.HeapAlloc
	var peak uint64
	steps := 0
	for {
		more, err := s.Step()
		if err != nil {
			t.Fatal(err)
		}
		if !more {
			break
		}
		if steps++; steps%5000 == 0 {
			runtime.GC()
			runtime.ReadMemStats(&ms)
			if ms.HeapAlloc > peak {
				peak = ms.HeapAlloc
			}
		}
	}
	if _, err := s.Result(); err != nil {
		t.Fatal(err)
	}
	if peak <= base {
		return 0
	}
	return peak - base
}

// TestStreamPeakMemoryBounded is the memory-ceiling property behind the
// stream-1M benchmark gate, at test scale: tripling the trace length must
// not scale peak live heap, because streaming memory is bounded by queue
// depth plus the look-ahead window, not job count. A materialized-style
// O(jobs) regression (retaining finished jobs, preloading arrivals)
// triples the peak and fails the margin.
func TestStreamPeakMemoryBounded(t *testing.T) {
	if testing.Short() {
		t.Skip("memory-ceiling property needs a long stream")
	}
	small := peakLiveHeap(t, 10_000)
	large := peakLiveHeap(t, 30_000)
	if limit := small*3/2 + 8<<20; large > limit {
		t.Fatalf("peak live heap grew with trace length: %d B at 10k jobs, %d B at 30k (limit %d)", small, large, limit)
	}
}
