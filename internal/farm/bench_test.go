package farm

import (
	"compress/gzip"
	"context"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"bbsched/internal/trace"
)

// benchFarmRun executes one full farm sweep — coordinator, HTTP server,
// the given workers — and returns the coordinator stats. Worker contexts
// are cancelled as soon as the grid assembles so a straggling
// speculative twin can't stretch the measured makespan past Wait.
func benchFarmRun(b *testing.B, g Grid, workers []*Worker, copts ...CoordinatorOption) Stats {
	b.Helper()
	coord, err := NewCoordinator(g, copts...)
	if err != nil {
		b.Fatal(err)
	}
	srv := httptest.NewServer(coord.Handler())
	defer srv.Close()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var wg sync.WaitGroup
	for _, w := range workers {
		w.Coordinator = srv.URL
		wg.Add(1)
		go func(w *Worker) {
			defer wg.Done()
			w.Run(ctx)
		}(w)
	}
	wctx, wcancel := context.WithTimeout(ctx, 5*time.Minute)
	defer wcancel()
	if _, err := coord.Wait(wctx); err != nil {
		b.Fatal(err)
	}
	cancel()
	wg.Wait()
	return coord.Stats()
}

// stragglerBenchGrid: four cheap materialized cells with a checkpoint
// cadence coarse enough (~4 snapshots per cell) that upload cost doesn't
// drown the straggler's injected per-step stall — the stall, not the
// simulation, must dominate the rigged cell so the steal-on/steal-off
// makespan ratio survives a single-core CI box.
func stragglerBenchGrid() Grid {
	g := matGrid(1, 2)
	g.CheckpointEvents = 25
	return g
}

// benchStraggler measures grid makespan with one healthy worker and one
// rigged straggler stalling 5ms per event — orders of magnitude slower
// than the healthy worker's pure-compute cells. (The healthy worker
// gets no artificial stall: sub-millisecond sleeps round up toward a
// millisecond on CI kernels, which would quietly shrink the rigged
// gap.) The straggler's cell is sleep-dominated and therefore
// deterministic even on a single-core box: with stealing off the grid
// waits out the straggler's full cell; with stealing on, the healthy
// worker goes idle after draining the other three cells and duplicates
// the straggler's cell from its last checkpoint at full speed.
func benchStraggler(b *testing.B, steal bool) {
	g := stragglerBenchGrid()
	steals := 0
	for i := 0; i < b.N; i++ {
		workers := []*Worker{
			{ID: "fast", Poll: 2 * time.Millisecond},
			{ID: "slow", Poll: 2 * time.Millisecond, StepHook: func(cell, steps int) error {
				time.Sleep(5 * time.Millisecond)
				return nil
			}},
		}
		st := benchFarmRun(b, g, workers, WithLeaseTTL(time.Hour), WithSpeculation(steal))
		steals += st.Steals
	}
	b.ReportMetric(float64(b.Elapsed().Milliseconds())/float64(b.N), "makespan-ms")
	b.ReportMetric(float64(steals)/float64(b.N), "steals/op")
}

// benchCache measures grid makespan on a cold content-addressed cache
// (every cell simulated, then stored) versus a pre-warmed one (every
// cell answered from disk without simulating).
func benchCache(b *testing.B, warm bool) {
	sys := trace.Scale(trace.Cori(), 128)
	g := Grid{
		Workloads: []WorkloadSpec{
			{Name: "bench-mat", Gen: trace.GenConfig{System: sys, Jobs: 200, Seed: 5}},
		},
		Methods: []MethodSpec{
			{Name: "Baseline", GA: testGA()},
			{Name: "BBSched", GA: testGA()},
		},
		Seeds: []uint64{1, 2},
		Opts:  RunOptions{Window: 5, StarvationBound: 50, Measure: "full"},
	}
	hits, leases := 0, 0
	if warm {
		dir := b.TempDir()
		benchFarmRun(b, g, []*Worker{{ID: "prewarm", Poll: 2 * time.Millisecond, CacheDir: dir}})
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			w := &Worker{ID: "warm", Poll: 2 * time.Millisecond, CacheDir: dir}
			benchFarmRun(b, g, []*Worker{w})
			hits += w.Stats().CacheHits
			leases += w.Stats().Leases
		}
	} else {
		for i := 0; i < b.N; i++ {
			// A fresh directory per run: every cell misses and stores.
			w := &Worker{ID: "cold", Poll: 2 * time.Millisecond, CacheDir: b.TempDir()}
			benchFarmRun(b, g, []*Worker{w})
			hits += w.Stats().CacheHits
			leases += w.Stats().Leases
		}
	}
	b.ReportMetric(float64(b.Elapsed().Milliseconds())/float64(b.N), "makespan-ms")
	if leases > 0 {
		b.ReportMetric(float64(hits)/float64(leases), "hit-rate")
	}
}

// BenchmarkFarm times the farm's fleet-scale throughput levers: grid
// makespan with work-stealing off vs on under a rigged 10×-slow
// straggler, and with a cold vs pre-warmed content-addressed result
// cache. Ungated, for local profiling — losing either lever shows up in
// makespan-ms as a multiple, not a percentage.
func BenchmarkFarm(b *testing.B) {
	b.Run("steal-off", func(b *testing.B) { benchStraggler(b, false) })
	b.Run("steal-on", func(b *testing.B) { benchStraggler(b, true) })
	b.Run("cache-cold", func(b *testing.B) { benchCache(b, false) })
	b.Run("cache-warm", func(b *testing.B) { benchCache(b, true) })
}

// BenchmarkFarmRelayTrace times a stream cell over a .csv.gz trace file,
// relayed in 512-job segments (the RelayJobs floor) by one worker. Every
// segment re-opens the file and skips the jobs the segments before it
// consumed (sim.Restore → trace.Skip, a pop per job through the opened
// source), so with 8 192 jobs the worker decodes 61 440 skipped jobs
// beside the 8 192 it simulates: the read-ahead's drain rate, with
// nothing behind the pops, shows here and in no bench/ workload.
func BenchmarkFarmRelayTrace(b *testing.B) {
	const jobs, relay = 8192, 512
	sys := trace.Scale(trace.Cori(), 128)
	path := filepath.Join(b.TempDir(), "relay.csv.gz")
	f, err := os.Create(path)
	if err != nil {
		b.Fatal(err)
	}
	gz, _ := gzip.NewWriterLevel(f, gzip.BestSpeed)
	w := trace.Generate(trace.GenConfig{System: sys, Jobs: jobs, Seed: 6, TargetLoad: 0.9})
	if err := trace.WriteCSV(gz, w.Jobs); err != nil {
		b.Fatal(err)
	}
	if err := gz.Close(); err != nil {
		b.Fatal(err)
	}
	if err := f.Close(); err != nil {
		b.Fatal(err)
	}
	g := Grid{
		Workloads: []WorkloadSpec{
			{Name: "relay-trace", Gen: trace.GenConfig{System: sys}, Stream: true, TracePath: path},
		},
		Methods:          []MethodSpec{{Name: "Baseline", GA: testGA()}},
		Seeds:            []uint64{3},
		Opts:             RunOptions{Window: 5, StarvationBound: 50, Measure: "full"},
		CheckpointEvents: 1 << 20,
		RelayJobs:        relay,
	}
	segments := 0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		st := benchFarmRun(b, g, []*Worker{{ID: "w1", Poll: 2 * time.Millisecond}}, WithLeaseTTL(time.Hour))
		segments += st.Segments
	}
	b.ReportMetric(float64(segments)/float64(b.N), "segments/op")
	b.ReportMetric(float64(jobs)*float64(b.N)/b.Elapsed().Seconds(), "jobs/s")
}
