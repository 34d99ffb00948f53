package farm

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http/httptest"
	"testing"
	"time"

	"bbsched/internal/sim"
)

// oneCellGrid trims the smoke grid to a single cell so every lease the
// coordinator hands out targets cell 0.
func oneCellGrid() Grid {
	g := testGrid()
	g.Workloads = g.Workloads[:1]
	g.Methods = g.Methods[:1]
	return g
}

// TestFarmSpeculationFirstResultWins drives the twin-lease protocol by
// hand: with nothing pending, idle workers are granted duplicate leases
// on the oldest in-flight cell up to maxCellLeases, and whichever
// attempt reports first wins while the losers' messages bounce as stale.
func TestFarmSpeculationFirstResultWins(t *testing.T) {
	t.Run("primary-first", func(t *testing.T) {
		coord, err := NewCoordinator(oneCellGrid(), WithLeaseTTL(time.Hour))
		if err != nil {
			t.Fatal(err)
		}
		l1 := coord.lease("w1")
		if l1.Cell != 0 {
			t.Fatalf("primary lease: %+v", l1)
		}
		l2 := coord.lease("w2")
		if l2.Cell != 0 || l2.Attempt == l1.Attempt {
			t.Fatalf("idle worker not granted a speculative twin: %+v", l2)
		}
		if got := coord.lease("w2"); got.Cell != -1 {
			t.Fatalf("worker granted a second lease on a cell it already runs: %+v", got)
		}
		l3 := coord.lease("w3")
		if l3.Cell != 0 {
			t.Fatalf("second twin: %+v", l3)
		}
		if got := coord.lease("w4"); got.Cell != -1 {
			t.Fatalf("cell over-subscribed past maxCellLeases: %+v", got)
		}
		if st := coord.Stats(); st.Steals != 2 {
			t.Fatalf("Steals = %d, want 2", st.Steals)
		}

		if live, err := coord.acceptResult(ResultMsg{Cell: 0, Attempt: l1.Attempt, Worker: "w1", Result: &sim.Result{TotalJobs: 1}}); err != nil || !live {
			t.Fatal("primary result rejected")
		}
		if live, err := coord.acceptResult(ResultMsg{Cell: 0, Attempt: l2.Attempt, Worker: "w2", Result: &sim.Result{TotalJobs: 2}}); err != nil || live {
			t.Fatal("losing twin's result accepted after the cell completed")
		}
		if st := coord.Stats(); st.StealWins != 0 {
			t.Fatalf("StealWins = %d, want 0 (the primary won)", st.StealWins)
		}
		runs, err := coord.Wait(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		if runs[0].Result.TotalJobs != 1 {
			t.Fatalf("assembled grid carries TotalJobs %d, want the first-reported result", runs[0].Result.TotalJobs)
		}
	})
	t.Run("twin-first", func(t *testing.T) {
		coord, err := NewCoordinator(oneCellGrid(), WithLeaseTTL(time.Hour))
		if err != nil {
			t.Fatal(err)
		}
		l1 := coord.lease("w1")
		l2 := coord.lease("w2")
		if live, err := coord.acceptResult(ResultMsg{Cell: 0, Attempt: l2.Attempt, Worker: "w2", Result: &sim.Result{TotalJobs: 2}}); err != nil || !live {
			t.Fatal("twin result rejected")
		}
		if live, err := coord.acceptResult(ResultMsg{Cell: 0, Attempt: l1.Attempt, Worker: "w1", Result: &sim.Result{TotalJobs: 1}}); err != nil || live {
			t.Fatal("beaten primary's result accepted")
		}
		if st := coord.Stats(); st.Steals != 1 || st.StealWins != 1 {
			t.Fatalf("stats %+v, want Steals 1 StealWins 1", st)
		}
		runs, err := coord.Wait(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		if runs[0].Result.TotalJobs != 2 {
			t.Fatalf("assembled grid carries TotalJobs %d, want the twin's result", runs[0].Result.TotalJobs)
		}
	})
	t.Run("disabled", func(t *testing.T) {
		coord, err := NewCoordinator(oneCellGrid(), WithLeaseTTL(time.Hour), WithSpeculation(false))
		if err != nil {
			t.Fatal(err)
		}
		if l := coord.lease("w1"); l.Cell != 0 {
			t.Fatalf("primary lease: %+v", l)
		}
		if got := coord.lease("w2"); got.Cell != -1 {
			t.Fatalf("speculation disabled but idle worker got a twin: %+v", got)
		}
	})
}

// TestFarmStragglerSpeculation is the end-to-end stealing contract: a
// 10×-slow worker grabs a cell, the fast worker drains the rest of the
// grid and then speculatively duplicates the straggler's cell, and the
// assembled grid is still bit-identical to the serial sweep. The
// hour-long TTL pins the rescue on stealing — lease expiry never fires.
func TestFarmStragglerSpeculation(t *testing.T) {
	g := matGrid(3, 4) // 4 cells
	want := serialReference(t, g)
	coord, err := NewCoordinator(g, WithLeaseTTL(time.Hour))
	if err != nil {
		t.Fatal(err)
	}
	slow := &Worker{ID: "slow", Poll: 5 * time.Millisecond, StepHook: func(cell, steps int) error {
		time.Sleep(15 * time.Millisecond)
		return nil
	}}
	fast := &Worker{ID: "fast", Poll: 5 * time.Millisecond}
	got := runFarm(t, coord, []*Worker{slow, fast}, 2*time.Minute)

	st := coord.Stats()
	if st.Steals < 1 {
		t.Errorf("Steals = %d, want >= 1 (idle fast worker must duplicate the straggler's cell)", st.Steals)
	}
	if st.Expired != 0 || st.Retries != 0 {
		t.Errorf("stats %+v: recovery must come from speculation alone, not lease expiry", st)
	}
	compareRuns(t, got, want)
}

// TestFarmCacheHoldsAcceptedResult: a speculative twin that loses still
// runs its cell to the end, and its Result differs from the winner's in
// the wall-clock decision times. The cache entry must be the result the
// coordinator accepted, so that a warm pass assembles the grid a cold
// pass did. The primary holds its first step until the twin's result is
// in, so the twin wins and the primary loses.
func TestFarmCacheHoldsAcceptedResult(t *testing.T) {
	g := matGrid(3)
	g.Methods = g.Methods[:1] // one cell
	g.CheckpointEvents = 0    // a stale checkpoint would abandon the loser before its result
	coord, err := NewCoordinator(g, WithLeaseTTL(time.Hour))
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(coord.Handler())
	defer srv.Close()
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	dir := t.TempDir()
	primary := &Worker{Coordinator: srv.URL, ID: "primary", Poll: 2 * time.Millisecond, CacheDir: dir,
		StepHook: func(cell, steps int) error {
			for steps == 1 && ctx.Err() == nil {
				if done, _ := coord.Progress(); done == 1 {
					break
				}
				time.Sleep(time.Millisecond)
			}
			return nil
		}}
	twin := &Worker{Coordinator: srv.URL, ID: "twin", Poll: 2 * time.Millisecond, CacheDir: dir}
	errs := make(chan error, 2)
	go func() { errs <- primary.Run(ctx) }()
	for primary.Stats().Leases == 0 && ctx.Err() == nil {
		time.Sleep(time.Millisecond)
	}
	go func() { errs <- twin.Run(ctx) }()
	runs, err := coord.Wait(ctx)
	if err != nil {
		t.Fatal(err)
	}
	for range 2 {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
	if st := coord.Stats(); st.Steals != 1 || st.StealWins != 1 {
		t.Fatalf("coordinator stats %+v, want Steals 1 StealWins 1", st)
	}
	if st := primary.Stats(); st.Completed != 1 || st.CacheStores != 0 {
		t.Fatalf("losing primary stats %+v, want its run completed and not cached", st)
	}
	key, err := RecipeKey(g.Cells()[0])
	if err != nil {
		t.Fatal(err)
	}
	cached, ok := loadCachedResult(dir, key)
	if !ok {
		t.Fatal("accepted result not cached")
	}
	got, _ := json.Marshal(cached)
	want, _ := json.Marshal(runs[0].Result)
	if !bytes.Equal(got, want) {
		t.Fatalf("cache entry differs from the accepted result:\ncache:    %s\naccepted: %s", got, want)
	}
}
