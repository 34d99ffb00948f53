// Distributed sweep farm: a coordinator shards a workloads × methods ×
// seeds grid onto HTTP workers, collects per-run Reports, and survives
// worker failures by resuming cells from their last uploaded simulator
// checkpoint.
//
// Everything here runs in one process — a localhost coordinator and a
// few worker goroutines — but the workers only talk HTTP, so the
// same code spans machines by pointing FarmWorker.Coordinator at a
// remote URL (or running `sweepd -coordinator`). Three acts:
//
//  1. Crash recovery: one worker is rigged to die mid-cell after two
//     checkpoints. Its lease expires, the cell is re-leased, and the
//     retry resumes from the snapshot — the assembled grid is identical
//     to an uninterrupted sweep because checkpoint restore is
//     bit-identical.
//  2. Straggler stealing: one worker is rigged to stall on every event
//     instant. Once the healthy worker drains the rest of the grid it
//     steals a speculative duplicate of the straggler's cell, seeded
//     from the latest checkpoint, and finishes it first — the
//     attempt-gated protocol keeps the result bit-identical either way.
//  3. Content-addressed cache: the same grid re-runs against a warm
//     on-disk cache and every cell is answered from its recipe's
//     SHA-256 without simulating.
//
// Run with: go run ./examples/farm
package main

import (
	"context"
	"errors"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"sync"
	"time"

	"bbsched"
)

func demoGrid() bbsched.FarmGrid {
	system := bbsched.ScaleSystem(bbsched.Cori(), 64)
	return bbsched.FarmGrid{
		Workloads: []bbsched.FarmWorkloadSpec{{
			Name:        "cori-s2",
			Gen:         bbsched.GenConfig{System: system, Jobs: 120, Seed: 42},
			Variant:     "S2",
			VariantSeed: 42,
		}},
		Methods: []bbsched.FarmMethodSpec{
			{Name: "Baseline"},
			{Name: "BBSched", GA: bbsched.GAConfig{Generations: 40, Population: 12, MutationProb: 0.0005}},
		},
		Seeds: []uint64{1, 2},
		Opts:  bbsched.FarmRunOptions{Window: 10, StarvationBound: 50},
		// Snapshot every 25 event instants: a crashed or stolen cell
		// loses at most 25 instants of work.
		CheckpointEvents: 25,
	}
}

// sweep serves the grid on a localhost coordinator, runs the given
// workers against it, and returns the assembled runs plus the
// coordinator's recovery counters.
func sweep(grid bbsched.FarmGrid, workers []*bbsched.FarmWorker, opts ...bbsched.FarmCoordinatorOption) ([]bbsched.SweepRun, bbsched.FarmStats, error) {
	coord, err := bbsched.NewFarmCoordinator(grid, opts...)
	if err != nil {
		return nil, bbsched.FarmStats{}, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, bbsched.FarmStats{}, err
	}
	srv := &http.Server{Handler: coord.Handler()}
	go srv.Serve(ln)
	defer srv.Close()

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var wg sync.WaitGroup
	for _, w := range workers {
		w.Coordinator = "http://" + ln.Addr().String()
		wg.Add(1)
		go func(w *bbsched.FarmWorker) {
			defer wg.Done()
			// The post-Wait cancel below interrupts straggling workers
			// mid-request; that's expected, not a failure.
			if err := w.Run(ctx); err != nil && !errors.Is(err, context.Canceled) {
				log.Printf("%s: %v", w.ID, err)
			}
		}(w)
	}
	runs, err := coord.Wait(context.Background())
	cancel() // release any straggling speculative twin
	wg.Wait()
	return runs, coord.Stats(), err
}

func main() {
	grid := demoGrid()
	fmt.Printf("grid: %d cells\n\n", len(grid.Cells()))

	// Act 1 — crash recovery. Short leases so the rigged crash recovers
	// quickly (real deployments keep the default 60s); speculation off
	// so the recovery below is the lease-expiry path, not a steal.
	var crashed sync.Once
	workers := make([]*bbsched.FarmWorker, 3)
	for i := range workers {
		workers[i] = &bbsched.FarmWorker{ID: fmt.Sprintf("worker-%d", i)}
	}
	// Rig worker-0 to die once, mid-cell, after two checkpoints.
	workers[0].StepHook = func(cell, steps int) error {
		var boom error
		if steps == 60 {
			crashed.Do(func() { boom = errors.New("simulated crash") })
		}
		return boom
	}
	runs, st, err := sweep(grid, workers,
		bbsched.WithFarmLeaseTTL(500*time.Millisecond), bbsched.WithFarmSpeculation(false))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("crash recovery: %d lease expiries, %d retries, %d checkpoint resumes\n\n",
		st.Expired, st.Retries, st.Resumes)

	// Act 2 — straggler stealing. worker-slow stalls 3ms on every event
	// instant; worker-fast drains the other cells, then steals a
	// speculative duplicate of the straggler's cell from its latest
	// checkpoint. The hour-long TTL proves the win comes from stealing,
	// not lease expiry.
	slow := &bbsched.FarmWorker{ID: "worker-slow", StepHook: func(cell, steps int) error {
		time.Sleep(3 * time.Millisecond)
		return nil
	}}
	fast := &bbsched.FarmWorker{ID: "worker-fast"}
	if _, st, err = sweep(grid, []*bbsched.FarmWorker{slow, fast}, bbsched.WithFarmLeaseTTL(time.Hour)); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("straggler: %d speculative steals, %d won by the thief\n\n", st.Steals, st.StealWins)

	// Act 3 — content-addressed cache. A cold pass fills the cache; the
	// re-run answers every cell from disk without simulating.
	dir, err := os.MkdirTemp("", "bbsched-farm-cache")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)
	for _, pass := range []string{"cold", "warm"} {
		w := &bbsched.FarmWorker{ID: "worker-" + pass, CacheDir: dir}
		if runs, _, err = sweep(grid, []*bbsched.FarmWorker{w}); err != nil {
			log.Fatal(err)
		}
		ws := w.Stats()
		fmt.Printf("cache %s pass: %d cells, %d hits, %d stores\n", pass, ws.Leases, ws.CacheHits, ws.CacheStores)
	}

	fmt.Printf("\n%-10s %-10s %4s  %10s %10s %8s\n", "workload", "method", "seed", "node util", "avg wait", "jobs")
	for _, r := range runs {
		if r.Canceled || r.Result == nil {
			fmt.Printf("%-10s %-10s %4d  canceled\n", r.Workload, r.Method, r.Seed)
			continue
		}
		fmt.Printf("%-10s %-10s %4d  %9.2f%% %9.0fs %8d\n",
			r.Workload, r.Method, r.Seed,
			100*r.Result.NodeUsage, r.Result.AvgWaitSec, r.Result.TotalJobs)
	}
}
