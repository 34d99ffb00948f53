package sim

// The engine throughput harness. BenchmarkSimThroughput/materialized-20k
// drives the production Simulator over a 20k-job Theta-S4-like trace with
// a cheap selection method, so the event loop — queue index, release
// timeline, pooled scheduling pass, event heap — dominates the profile;
// BenchmarkSimThroughput/deep-queue overloads a short trace until more
// than a thousand jobs wait, so ranking the queue dominates instead;
// BenchmarkSimThroughput/stream-1M replays a million-job generated stream
// through the online ingestion path and reports peak live heap;
// BenchmarkSimThroughputReference runs the materialized trace on the
// frozen pre-rework engine (reference_engine_test.go). All report
// jobs/sec (plus allocs/event or peak-B). Nothing gates these numbers:
// they are for local profiling, and the gated end-to-end figures are the
// BENCHMARK.json workloads in bench/.

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"runtime"
	"testing"

	"bbsched/internal/moo"
	"bbsched/internal/registry"
	"bbsched/internal/sched"
	"bbsched/internal/trace"
)

// throughputWorkload is a Theta-S4-like trace (heavy burst-buffer demand)
// at 1/32 machine scale, the regime the paper's method comparisons use.
func throughputWorkload(jobs int, stageOut bool) trace.Workload {
	sys := trace.Scale(trace.Theta(), 32)
	base := trace.Generate(trace.GenConfig{System: sys, Jobs: jobs, Seed: 42})
	base.Name = "Theta-S4"
	_, heavy := trace.BBFloors(base)
	w := trace.ExpandBB(base, "Theta-S4", 0.75, heavy, 46)
	if stageOut {
		w = trace.WithStageOut(w, 20)
	}
	return w
}

// countEvents returns the total simulation events a workload generates:
// one arrival and one completion per job, plus one burst-buffer release
// per staged-out job.
func countEvents(w trace.Workload) int {
	n := 2 * len(w.Jobs)
	for _, j := range w.Jobs {
		if j.StageOutSec > 0 && j.Demand.BB() > 0 {
			n++
		}
	}
	return n
}

func benchThroughput(b *testing.B, run func() (*Result, error), jobs, events int) {
	b.Helper()
	b.ReportAllocs()
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := run(); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	runtime.ReadMemStats(&after)
	n := float64(b.N)
	if sec := b.Elapsed().Seconds(); sec > 0 {
		b.ReportMetric(float64(jobs)*n/sec, "jobs/sec")
	}
	b.ReportMetric(float64(after.Mallocs-before.Mallocs)/n/float64(events), "allocs/event")
	b.ReportMetric(float64(after.TotalAlloc-before.TotalAlloc)/n/float64(events), "B/event")
}

// baselineRun is one benchmark op over a materialized workload: a full
// simulation with the Baseline method, construction included.
func baselineRun(w trace.Workload) func() (*Result, error) {
	return func() (*Result, error) {
		s, err := NewSimulator(w, sched.Baseline{}, WithSeed(1))
		if err != nil {
			return nil, err
		}
		return s.Run(context.Background())
	}
}

// BenchmarkSimThroughput measures the production engine in four regimes.
// materialized-20k preloads a 20k-job trace (one op = one full
// simulation, construction included) — the historical headline number.
// deep-queue replays 2 500 Theta-S4 jobs arriving at four times the
// machine's capacity, the shape of the repo benchmark's replay-deep-queue:
// the queue passes 1 000 waiting jobs and every pass re-ranks it under
// WFP, so a regression in queue.Rank or the EASY pruning shows here
// whatever depth the 20k-job trace happens to reach.
// deep-window runs Weighted_LP at a window of 1 024 over the same shape at
// fifty times capacity, the shape of replay-lp-w1024: almost every pass
// finds no window job that fits, so what a dead pass costs shows here.
// stream-1M drives a million-job synthetic Theta trace through the
// streaming ingestion path (WithSource + bounded-memory metrics) and
// additionally reports "peak-B", the peak live heap above the pre-run
// baseline: streaming memory is bounded by queue depth plus the
// look-ahead window, not trace length. The gated form of that ceiling is
// the stream-1m workload's peak_heap_mb in bench/; the allocation count
// per streamed job is pinned by TestStreamAllocsPerJob.
func BenchmarkSimThroughput(b *testing.B) {
	b.Run("materialized-20k", func(b *testing.B) {
		jobs := 20000
		if testing.Short() {
			jobs = 2000
		}
		w := throughputWorkload(jobs, false)
		benchThroughput(b, baselineRun(w), jobs, countEvents(w))
	})
	b.Run("deep-queue", func(b *testing.B) {
		jobs := 2500
		sys := trace.Scale(trace.Theta(), 32)
		w, err := trace.ApplyVariant(trace.Generate(trace.GenConfig{System: sys, Jobs: jobs, Seed: 42, TargetLoad: 4}), "S4", 42)
		if err != nil {
			b.Fatal(err)
		}
		benchThroughput(b, baselineRun(w), jobs, countEvents(w))
	})
	b.Run("deep-window", func(b *testing.B) {
		w := deepWindowWorkload(42)
		benchThroughput(b, func() (*Result, error) {
			m, err := registry.New("Weighted_LP", moo.DefaultGAConfig(), false)
			if err != nil {
				return nil, err
			}
			s, err := NewSimulator(w, m, WithWindow(1024, 50), WithSeed(42))
			if err != nil {
				return nil, err
			}
			return s.Run(context.Background())
		}, len(w.Jobs), countEvents(w))
	})
	b.Run("stream-1M", func(b *testing.B) {
		benchStream(b, 1_000_000)
	})
}

// deepWindowWorkload is one trace shaped like the repo benchmark's
// replay-lp-w1024: 1 600 Theta-S4 jobs arriving at fifty times the
// machine's capacity, so that more than a thousand wait.
func deepWindowWorkload(seed uint64) trace.Workload {
	cfg := trace.GenConfig{System: trace.Scale(trace.Theta(), 32), Jobs: 1600, Seed: seed, TargetLoad: 50}
	w, err := trace.ApplyVariant(trace.Generate(cfg), "S4", seed)
	if err != nil {
		panic(err)
	}
	return w
}

// newStreamSimulator returns a simulator over a generated Theta stream of
// the given length, with bounded-memory metrics.
func newStreamSimulator(jobs int) (*Simulator, error) {
	sys := trace.Scale(trace.Theta(), 32)
	// Load just under capacity keeps the queue — and so the streaming
	// engine's live set — bounded over an arbitrarily long trace.
	src := trace.GenSource(trace.GenConfig{System: sys, Jobs: jobs, Seed: 42, TargetLoad: 0.95})
	return NewSimulator(trace.Workload{Name: "Theta-stream", System: sys}, sched.Baseline{},
		WithSource(src), WithStreamingMetrics(), WithMeasurement(0, 0), WithSeed(1))
}

// benchStream runs a generated stream of the given length and reports
// jobs/sec plus peak live heap, sampled after forced collections every
// 100k event instants (the forced GCs are inside the timed region, so
// jobs/sec here is slightly conservative).
func benchStream(b *testing.B, jobs int) {
	b.ReportAllocs()
	var ms runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&ms)
	base := ms.HeapAlloc
	var peak uint64
	sample := func() {
		runtime.GC()
		runtime.ReadMemStats(&ms)
		if ms.HeapAlloc > peak {
			peak = ms.HeapAlloc
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s, err := newStreamSimulator(jobs)
		if err != nil {
			b.Fatal(err)
		}
		steps := 0
		for {
			more, err := s.Step()
			if err != nil {
				b.Fatal(err)
			}
			if !more {
				break
			}
			if steps++; steps%100_000 == 0 {
				sample()
			}
		}
		sample()
		if _, err := s.Result(); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	if sec := b.Elapsed().Seconds(); sec > 0 {
		b.ReportMetric(float64(jobs)*float64(b.N)/sec, "jobs/sec")
	}
	if peak < base {
		peak = base
	}
	b.ReportMetric(float64(peak-base), "peak-B")
}

// BenchmarkSimThroughputReference is the frozen pre-rework baseline for
// BenchmarkSimThroughput: identical trace, method, and seed on the old
// event loop.
func BenchmarkSimThroughputReference(b *testing.B) {
	jobs := 20000
	if testing.Short() {
		jobs = 2000
	}
	w := throughputWorkload(jobs, false)
	events := countEvents(w)
	benchThroughput(b, func() (*Result, error) {
		s, err := newRefSimulator(w, sched.Baseline{}, WithSeed(1))
		if err != nil {
			return nil, err
		}
		return s.run()
	}, jobs, events)
}

// TestSimulatorMatchesReferenceEngine proves the reworked engine and the
// frozen pre-rework engine are observably identical: byte-identical JSONL
// event streams and equal Results over FCFS and WFP policies, with and
// without stage-out, for both cheap methods. (The golden suite pins the
// production engine against pre-rework captures; this test additionally
// pins the benchmark baseline itself, so the before/after comparison is
// guaranteed to measure the same computation.)
func TestSimulatorMatchesReferenceEngine(t *testing.T) {
	jobs := 1500
	if testing.Short() {
		jobs = 400
	}
	for _, tc := range []struct {
		name     string
		stageOut bool
		policy   trace.BasePolicy
	}{
		{"wfp", false, trace.WFP},
		{"wfp_stageout", true, trace.WFP},
		{"fcfs", false, trace.FCFS},
		{"fcfs_stageout", true, trace.FCFS},
	} {
		for _, m := range []sched.Method{sched.Baseline{}, sched.BinPacking{}} {
			t.Run(fmt.Sprintf("%s/%s", tc.name, m.Name()), func(t *testing.T) {
				w := throughputWorkload(jobs, tc.stageOut)
				w.System.Policy = tc.policy

				var gotLog bytes.Buffer
				s, err := NewSimulator(w, m, WithSeed(7), WithEventLog(&gotLog))
				if err != nil {
					t.Fatal(err)
				}
				got, err := s.Run(context.Background())
				if err != nil {
					t.Fatal(err)
				}

				var wantLog bytes.Buffer
				ref, err := newRefSimulator(w, m, WithSeed(7), WithEventLog(&wantLog))
				if err != nil {
					t.Fatal(err)
				}
				want, err := ref.run()
				if err != nil {
					t.Fatal(err)
				}

				if !bytes.Equal(gotLog.Bytes(), wantLog.Bytes()) {
					t.Fatalf("event streams diverge (%d vs %d bytes)", gotLog.Len(), wantLog.Len())
				}
				compareResults(t, got, want)
			})
		}
	}
}

func compareResults(t *testing.T, got, want *Result) {
	t.Helper()
	type pair struct {
		name     string
		got, wnt float64
	}
	for _, p := range []pair{
		{"node_usage", got.NodeUsage, want.NodeUsage},
		{"bb_usage", got.BBUsage, want.BBUsage},
		{"ssd_usage", got.SSDUsage, want.SSDUsage},
		{"wasted_ssd", got.WastedSSDFrac, want.WastedSSDFrac},
		{"avg_wait", got.AvgWaitSec, want.AvgWaitSec},
		{"avg_slowdown", got.AvgSlowdown, want.AvgSlowdown},
	} {
		if math.Float64bits(p.got) != math.Float64bits(p.wnt) {
			t.Errorf("%s: %v != %v", p.name, p.got, p.wnt)
		}
	}
	if got.TotalJobs != want.TotalJobs || got.MeasuredJobs != want.MeasuredJobs ||
		got.CompletedJobs != want.CompletedJobs ||
		got.SchedInvocations != want.SchedInvocations || got.MakespanSec != want.MakespanSec {
		t.Errorf("run shape diverges: got %+v want %+v", got, want)
	}
}

// TestStepSteadyStateAllocs pins the tentpole claim directly: once the
// pooled buffers have warmed up, advancing the simulation allocates
// (amortized) nothing per event instant with a cheap method.
func TestStepSteadyStateAllocs(t *testing.T) {
	jobs := 4000
	if testing.Short() {
		jobs = 1200
	}
	w := throughputWorkload(jobs, false)
	s, err := NewSimulator(w, sched.Baseline{}, WithSeed(1))
	if err != nil {
		t.Fatal(err)
	}
	// Warm up: run the first half so every pooled buffer reaches its
	// working capacity.
	warm := jobs
	for i := 0; i < warm; i++ {
		if _, err := s.Step(); err != nil {
			t.Fatal(err)
		}
	}
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	steps := 0
	for {
		more, err := s.Step()
		if err != nil {
			t.Fatal(err)
		}
		if !more {
			break
		}
		steps++
	}
	runtime.ReadMemStats(&after)
	if steps == 0 {
		t.Fatal("no steps measured after warm-up")
	}
	allocs := float64(after.Mallocs - before.Mallocs)
	perStep := allocs / float64(steps)
	t.Logf("steady state: %d steps, %.0f allocs (%.4f allocs/step)", steps, allocs, perStep)
	// Amortized zero: occasional map/slice growth is tolerated, a
	// per-event allocation (the old engine paid dozens) is not.
	if perStep > 0.1 {
		t.Fatalf("steady-state Step allocates %.4f allocs/step, want amortized ~0", perStep)
	}
}

// TestStreamAllocsPerJob holds the streaming path's allocations per job:
// 20 000 GenSource jobs through WithSource and WithStreamingMetrics
// (newStreamSimulator), construction and Result included. It measured
// 1.02 allocs/job once a job and its demand became one allocation
// (job.NewPacked), and the ceiling is that plus 20%, so one more
// allocation per job — in the generator, the engine or the sketches —
// crosses it.
func TestStreamAllocsPerJob(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts differ under -race")
	}
	const jobs = 20000
	var err error
	allocs := testing.AllocsPerRun(1, func() {
		var s *Simulator
		if s, err = newStreamSimulator(jobs); err == nil {
			_, err = s.Run(context.Background())
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	perJob := allocs / jobs
	t.Logf("stream: %.0f allocs over %d jobs (%.3f allocs/job, ceiling 1.22)", allocs, jobs, perJob)
	if perJob > 1.22 {
		t.Fatalf("streaming run makes %.3f allocs/job, ceiling 1.22", perJob)
	}
}
