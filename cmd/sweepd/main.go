// Command sweepd is the distributed sweep farm: a coordinator that
// shards a workloads × methods × solvers × seeds grid onto workers over
// HTTP, and the worker that executes leased cells — resuming from
// the coordinator's last stored checkpoint after a failure.
//
// The grid is a JSON farm.Grid (see -print-grid for a template). Every
// cell ships as a recipe, never as a job table, and every run is
// deterministic in its cell, so results assemble in grid order identical
// to a serial in-process sweep no matter how many workers join, leave,
// or crash.
//
// Coordinator (also runs -workers local workers when asked):
//
//	sweepd -grid grid.json -addr :8080 -workers 4 -out results.json
//
// Extra workers, on any machine that can reach the coordinator:
//
//	sweepd -coordinator http://host:8080 -id worker-7
//
// Interrupting the coordinator (SIGINT/SIGTERM) drains: the results file
// still spans the full grid, completed cells keep their Reports, and
// unfinished cells are marked canceled for resubmission.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"sync"
	"syscall"
	"time"

	"bbsched/internal/farm"
	"bbsched/internal/moo"
	"bbsched/internal/trace"
)

func main() {
	var (
		gridPath    = flag.String("grid", "", "grid JSON file (coordinator mode)")
		addr        = flag.String("addr", "127.0.0.1:8080", "coordinator listen address")
		out         = flag.String("out", "", "results JSON file (default stdout)")
		workers     = flag.Int("workers", 0, "in-process workers to run alongside the coordinator")
		leaseTTL    = flag.Duration("lease-ttl", 60*time.Second, "worker lease duration; checkpoint uploads renew it")
		maxAttempts = flag.Int("max-attempts", 3, "failed attempts per cell before the sweep fails")
		coordinator = flag.String("coordinator", "", "coordinator URL (worker mode)")
		id          = flag.String("id", "", "worker name (worker mode; default host:pid)")
		cacheDir    = flag.String("cache", "", "content-addressed result cache directory (workers answer repeat cells without simulating)")
		journal     = flag.String("journal", "", "coordinator journal file: completed cells and relay segments are logged and replayed on restart")
		steal       = flag.Bool("steal", true, "speculative tail work-stealing: duplicate in-flight leases onto idle workers")
		printGrid   = flag.Bool("print-grid", false, "print a grid template and exit")
	)
	flag.Parse()

	if *printGrid {
		emitTemplate()
		return
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	var err error
	switch {
	case *coordinator != "":
		err = runWorker(ctx, *coordinator, *id, *cacheDir)
	case *gridPath != "":
		err = runCoordinator(ctx, *gridPath, *addr, *out, *workers, *leaseTTL, *maxAttempts, *cacheDir, *journal, *steal)
	default:
		err = fmt.Errorf("need -grid (coordinator mode) or -coordinator (worker mode); see -h")
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "sweepd:", err)
		os.Exit(1)
	}
}

// loadGrid reads a grid file strictly: a field the build does not know —
// a typo, or an option a later build removed — is an error naming it, not
// a setting silently dropped.
func loadGrid(path string) (farm.Grid, error) {
	var grid farm.Grid
	raw, err := os.ReadFile(path)
	if err != nil {
		return grid, err
	}
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&grid); err != nil {
		return grid, fmt.Errorf("parsing %s: %w", path, err)
	}
	return grid, nil
}

func runCoordinator(ctx context.Context, gridPath, addr, out string, workers int, ttl time.Duration, attempts int, cacheDir, journal string, steal bool) error {
	grid, err := loadGrid(gridPath)
	if err != nil {
		return err
	}
	copts := []farm.CoordinatorOption{
		farm.WithLeaseTTL(ttl),
		farm.WithMaxAttempts(attempts),
		farm.WithSpeculation(steal),
	}
	if journal != "" {
		copts = append(copts, farm.WithJournal(journal))
	}
	coord, err := farm.NewCoordinator(grid, copts...)
	if err != nil {
		return err
	}
	defer coord.Close()

	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	srv := &http.Server{Handler: coord.Handler()}
	go srv.Serve(ln)
	defer srv.Close()
	fmt.Fprintf(os.Stderr, "sweepd: coordinating %d cells on %s\n", len(grid.Cells()), ln.Addr())

	workerCtx, stopWorkers := context.WithCancel(ctx)
	defer stopWorkers()
	var wg sync.WaitGroup
	for i := range workers {
		w := &farm.Worker{Coordinator: "http://" + ln.Addr().String(), ID: fmt.Sprintf("local-%d", i), CacheDir: cacheDir}
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := w.Run(workerCtx); err != nil && workerCtx.Err() == nil {
				fmt.Fprintf(os.Stderr, "sweepd: worker %s: %v\n", w.ID, err)
			}
		}()
	}

	runs, sweepErr := coord.Wait(ctx)
	stopWorkers()
	wg.Wait()

	blob, err := json.MarshalIndent(runs, "", "  ")
	if err != nil {
		return err
	}
	blob = append(blob, '\n')
	if out == "" {
		os.Stdout.Write(blob)
	} else if err := os.WriteFile(out, blob, 0o644); err != nil {
		return err
	}
	done, total := coord.Progress()
	fmt.Fprintf(os.Stderr, "sweepd: %d/%d cells completed (stats %+v)\n", done, total, coord.Stats())
	return sweepErr
}

func runWorker(ctx context.Context, url, id, cacheDir string) error {
	if id == "" {
		host, _ := os.Hostname()
		id = fmt.Sprintf("%s:%d", host, os.Getpid())
	}
	w := &farm.Worker{Coordinator: url, ID: id, CacheDir: cacheDir}
	err := w.Run(ctx)
	fmt.Fprintf(os.Stderr, "sweepd: worker %s stats %+v\n", id, w.Stats())
	if ctx.Err() != nil {
		return nil // interrupted: abandoned leases expire and get retried
	}
	return err
}

// emitTemplate prints a small runnable grid as a starting point.
func emitTemplate() {
	blob, _ := json.MarshalIndent(templateGrid(), "", "  ")
	fmt.Println(string(blob))
}

func templateGrid() farm.Grid {
	sys := trace.Scale(trace.Cori(), 64)
	return farm.Grid{
		Workloads: []farm.WorkloadSpec{
			{Name: "cori-s2", Gen: trace.GenConfig{System: sys, Jobs: 200, Seed: 42}, Variant: "S2", VariantSeed: 42},
		},
		Methods: []farm.MethodSpec{
			{Name: "Baseline"},
			{Name: "BBSched", GA: moo.GAConfig{Generations: 60, Population: 12, MutationProb: 0.0005}},
		},
		Seeds:            []uint64{1, 2, 3},
		Opts:             farm.RunOptions{Window: 20, StarvationBound: 50},
		CheckpointEvents: 200,
	}
}
