package sim

import (
	"context"
	"errors"
	"sync"
	"testing"

	"bbsched/internal/job"
	"bbsched/internal/sched"
	"bbsched/internal/trace"
)

// countingCloser wraps a JobSource and counts Close calls — the probe for
// the close-exactly-once contract on every sweep exit path. The wrapper
// deliberately hides the underlying source's Horizoner, so tests pass an
// explicit measurement window.
type countingCloser struct {
	trace.JobSource
	mu     *sync.Mutex
	closes *int
}

func (c *countingCloser) Close() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	*c.closes++
	return nil
}

// failingSource yields `after` jobs from the wrapped source, then fails.
type failingSource struct {
	src   trace.JobSource
	after int
	n     int
}

func (f *failingSource) Next() (*job.Job, error) {
	if f.n >= f.after {
		return nil, errors.New("injected source failure")
	}
	f.n++
	return f.src.Next()
}

// TestSweepClosesSourcesOnce pins the leak audit: every source a sweep
// opens is closed exactly once — on the success path, on a mid-run cell
// failure that cancels the rest of the grid, and on a construction
// failure after the open.
func TestSweepClosesSourcesOnce(t *testing.T) {
	sys := streamTestSystem()
	w := trace.Generate(trace.GenConfig{System: sys, Jobs: 30, Seed: 5})
	w.Name = "close-sweep"

	open := func(mu *sync.Mutex, closes map[int]*int, opened *int, failFirst bool) func() (trace.JobSource, error) {
		return func() (trace.JobSource, error) {
			mu.Lock()
			defer mu.Unlock()
			n := new(int)
			closes[*opened] = n
			*opened++
			var src trace.JobSource = trace.SourceOf(w)
			if failFirst && *opened == 1 {
				src = &failingSource{src: src, after: 5}
			}
			return &countingCloser{JobSource: src, mu: mu, closes: n}, nil
		}
	}
	assertClosedOnce := func(t *testing.T, mu *sync.Mutex, closes map[int]*int) {
		t.Helper()
		mu.Lock()
		defer mu.Unlock()
		for i, n := range closes {
			if *n != 1 {
				t.Errorf("source %d closed %d times, want exactly 1", i, *n)
			}
		}
	}

	t.Run("success", func(t *testing.T) {
		var mu sync.Mutex
		closes := map[int]*int{}
		opened := 0
		sw := Sweep{
			Streams: []StreamWorkload{{
				Name:   w.Name,
				System: sys,
				Open:   open(&mu, closes, &opened, false),
			}},
			Methods: []sched.Method{sched.Baseline{}},
			Seeds:   []uint64{1, 2, 3},
			Options: []Option{WithWindow(5, 50), WithMeasurement(0, 0)},
			Workers: 2,
		}
		if _, err := RunSweep(context.Background(), sw); err != nil {
			t.Fatal(err)
		}
		if opened != 3 {
			t.Fatalf("opened %d sources, want 3", opened)
		}
		assertClosedOnce(t, &mu, closes)
	})

	t.Run("cell-failure-cancels-rest", func(t *testing.T) {
		// The first cell's source fails mid-stream, failing that run and
		// cancelling the rest of the grid. Every source that was opened —
		// including the failing one, abandoned part-consumed — must still
		// be closed exactly once.
		var mu sync.Mutex
		closes := map[int]*int{}
		opened := 0
		sw := Sweep{
			Streams: []StreamWorkload{{
				Name:   w.Name,
				System: sys,
				Open:   open(&mu, closes, &opened, true),
			}},
			Methods: []sched.Method{sched.Baseline{}},
			Seeds:   []uint64{1, 2, 3},
			Options: []Option{WithWindow(5, 50), WithMeasurement(0, 0)},
			Workers: 1,
		}
		if _, err := RunSweep(context.Background(), sw); err == nil {
			t.Fatal("sweep with a failing source reported success")
		}
		if opened == 0 {
			t.Fatal("no source was ever opened")
		}
		assertClosedOnce(t, &mu, closes)
	})

	t.Run("construction-failure-after-open", func(t *testing.T) {
		// PerRun injects an invalid option, so NewSimulator fails after the
		// source was opened — the sweep must close the orphaned source.
		var mu sync.Mutex
		closes := map[int]*int{}
		opened := 0
		sw := Sweep{
			Streams: []StreamWorkload{{
				Name:   w.Name,
				System: sys,
				Open:   open(&mu, closes, &opened, false),
			}},
			Methods: []sched.Method{sched.Baseline{}},
			Seeds:   []uint64{1},
			PerRun: func(trace.Workload, sched.Method, uint64) []Option {
				return []Option{WithMeasurement(-1, 0)} // rejected by option validation
			},
			Workers: 1,
		}
		if _, err := RunSweep(context.Background(), sw); err == nil {
			t.Fatal("sweep with an invalid option reported success")
		}
		if opened != 1 {
			t.Fatalf("opened %d sources, want 1", opened)
		}
		assertClosedOnce(t, &mu, closes)
	})
}
