package farm

import (
	"context"
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
