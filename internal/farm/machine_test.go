package farm

import (
	"encoding/json"
	"reflect"
	"strings"
	"testing"
	"time"

	"bbsched/internal/sim"
	"bbsched/internal/trace"
)

// machineGrid is two materialized cells followed by two relay cells
// (3000 stream jobs in 1000-job segments).
func machineGrid() Grid {
	sys := trace.Scale(trace.Cori(), 128)
	return Grid{
		Workloads: []WorkloadSpec{
			{Name: "m-mat", Gen: trace.GenConfig{System: sys, Jobs: 40, Seed: 5}},
			{Name: "m-relay", Gen: trace.GenConfig{System: sys, Jobs: 3000, Seed: 6}, Stream: true},
		},
		Methods:          []MethodSpec{{Name: "Baseline", GA: testGA()}},
		Seeds:            []uint64{3, 4},
		Opts:             RunOptions{Window: 5, StarvationBound: 50, Measure: "full"},
		CheckpointEvents: 5,
		RelayJobs:        1000,
	}
}

func newTestMachine(t *testing.T, g Grid) *machine {
	t.Helper()
	m := &machine{grid: g, leaseTTL: time.Minute, maxAttempts: 2, speculate: true}
	if err := m.addCells(); err != nil {
		t.Fatal(err)
	}
	return m
}

// TestFarmMachineTransitions drives the coordinator's machine by hand at
// instants the test picks — no goroutine, HTTP, sleep or wall clock —
// through lease expiry, a stale attempt after the re-lease, a relay
// segment, a steal and its stale loser, and exhausted attempts. The
// journal records the run produced, replayed into a fresh machine, must
// rebuild its done cells and relay segments.
func TestFarmMachineTransitions(t *testing.T) {
	g := machineGrid()
	m := newTestMachine(t, g)
	var records []journalRec
	commit := func(rec *journalRec, live bool) bool {
		t.Helper()
		if rec != nil {
			records = append(records, *rec)
			if err := m.apply(*rec); err != nil {
				t.Fatal(err)
			}
		}
		return live
	}
	wantLease := func(got LeaseResponse, cell, attempt int, checkpoint string) {
		t.Helper()
		if got.Cell != cell || got.Attempt != attempt || string(got.Checkpoint) != checkpoint {
			t.Fatalf("lease = cell %d attempt %d checkpoint %q, want cell %d attempt %d checkpoint %q",
				got.Cell, got.Attempt, got.Checkpoint, cell, attempt, checkpoint)
		}
	}
	t0 := time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)

	// Lease expiry: a checkpoint at t0+30s renews the lease to t0+90s; a
	// reap at that instant keeps it, one a nanosecond later drops it.
	wantLease(m.lease("w1", t0), 0, 1, "")
	if !commit(m.checkpoint(CheckpointMsg{Cell: 0, Attempt: 1, Worker: "w1", Data: []byte("c0")}, t0.Add(30*time.Second))) {
		t.Fatal("live checkpoint acked stale")
	}
	m.reap(t0.Add(90 * time.Second))
	if m.cells[0].state != cellLeased {
		t.Fatal("lease reaped at its renewed deadline")
	}
	m.reap(t0.Add(90*time.Second + 1))
	if m.cells[0].state != cellPending || m.stats.Expired != 1 {
		t.Fatalf("after the deadline: state %d, Expired %d; want pending, 1", m.cells[0].state, m.stats.Expired)
	}

	// A stale attempt after the re-lease: the retry resumes from attempt
	// 1's checkpoint, and attempt 1's messages change nothing.
	t1 := t0.Add(2 * time.Minute)
	wantLease(m.lease("w2", t1), 0, 2, "c0")
	if m.stats.Retries != 1 || m.stats.Resumes != 1 {
		t.Fatalf("re-lease stats %+v, want Retries 1 Resumes 1", m.stats)
	}
	if commit(m.checkpoint(CheckpointMsg{Cell: 0, Attempt: 1, Data: []byte("stale")}, t1)) ||
		commit(m.result(ResultMsg{Cell: 0, Attempt: 1, Result: &sim.Result{}})) ||
		m.fail(FailMsg{Cell: 0, Attempt: 1, Error: "late"}) {
		t.Fatal("a message of the reaped attempt was live")
	}
	if string(m.cells[0].checkpoint) != "c0" || m.stats.Failed != 0 {
		t.Fatalf("stale messages moved the cell: checkpoint %q, Failed %d", m.cells[0].checkpoint, m.stats.Failed)
	}

	// A relay segment: its terminal snapshot makes the next segment
	// leasable at once; a terminal snapshot on a plain cell is refused.
	wantLease(m.lease("w3", t1.Add(time.Second)), 1, 1, "")
	seg := m.lease("w4", t1.Add(2*time.Second))
	wantLease(seg, 2, 1, "")
	if seg.SegmentEnd != 1000 {
		t.Fatalf("first segment ends at %d, want 1000", seg.SegmentEnd)
	}
	wantLease(m.lease("w5", t1.Add(3*time.Second)), 3, 1, "")
	if commit(m.checkpoint(CheckpointMsg{Cell: 1, Attempt: 1, Data: []byte("x"), Terminal: true}, t1)) {
		t.Fatal("terminal snapshot on a plain cell acked live")
	}
	if !commit(m.checkpoint(CheckpointMsg{Cell: 2, Attempt: 1, Data: []byte("seg1"), Terminal: true}, t1.Add(4*time.Second))) {
		t.Fatal("terminal snapshot acked stale")
	}
	if c := m.cells[2]; c.state != cellPending || c.segDone != 1 || m.stats.Segments != 1 {
		t.Fatalf("after the segment: state %d segDone %d Segments %d", c.state, c.segDone, m.stats.Segments)
	}
	seg = m.lease("w6", t1.Add(5*time.Second))
	wantLease(seg, 2, 2, "seg1")
	if seg.SegmentEnd != 2000 || m.stats.Retries != 1 {
		t.Fatalf("second segment ends at %d with Retries %d, want 2000 and 1", seg.SegmentEnd, m.stats.Retries)
	}

	// A steal and its stale loser: with every cell leased, an idle worker
	// twins the oldest primary lease (cell 0, from t1) and wins.
	wantLease(m.lease("w7", t1.Add(6*time.Second)), 0, 3, "c0")
	if m.stats.Steals != 1 {
		t.Fatalf("Steals = %d, want 1", m.stats.Steals)
	}
	r0, r1 := &sim.Result{Workload: "m-mat", TotalJobs: 40}, &sim.Result{Workload: "m-mat", TotalJobs: 41}
	if !commit(m.result(ResultMsg{Cell: 0, Attempt: 3, Worker: "w7", Result: r0})) {
		t.Fatal("twin's result acked stale")
	}
	if commit(m.result(ResultMsg{Cell: 0, Attempt: 2, Worker: "w2", Result: &sim.Result{}})) ||
		commit(m.checkpoint(CheckpointMsg{Cell: 0, Attempt: 2, Data: []byte("late")}, t1)) {
		t.Fatal("the beaten primary's message was live")
	}
	if m.stats.StealWins != 1 || m.cells[0].result != r0 {
		t.Fatalf("StealWins %d, result %+v; want 1 and the twin's", m.stats.StealWins, m.cells[0].result)
	}
	if !commit(m.result(ResultMsg{Cell: 1, Attempt: 1, Worker: "w3", Result: r1})) {
		t.Fatal("cell 1's result acked stale")
	}

	// Exhausted attempts: cell 3 fails once, is retried, and fails again.
	if !m.fail(FailMsg{Cell: 3, Attempt: 1, Worker: "w5", Error: "boom"}) {
		t.Fatal("live failure acked stale")
	}
	wantLease(m.lease("w5", t1.Add(7*time.Second)), 3, 2, "")
	if m.drained() {
		t.Fatal("sweep over after one failure of two allowed")
	}
	m.fail(FailMsg{Cell: 3, Attempt: 2, Worker: "w5", Error: "boom again"})
	if !m.drained() || m.cells[3].state != cellFailed {
		t.Fatalf("sweep not over after exhausted attempts: state %d", m.cells[3].state)
	}
	for _, want := range []string{"cell 3", "m-relay", "2 attempts", "boom again"} {
		if !strings.Contains(m.failErr.Error(), want) {
			t.Errorf("failure %q does not mention %q", m.failErr, want)
		}
	}
	if got := m.lease("w8", t1.Add(8*time.Second)); !got.Done {
		t.Fatalf("lease on a failed sweep = %+v, want Done", got)
	}

	// Replay the records, as written to and read back from a journal, into
	// a fresh machine; replaying them twice changes nothing more.
	if len(records) != 3 {
		t.Fatalf("run produced %d journal records, want 3 (a segment, two results)", len(records))
	}
	fresh := newTestMachine(t, g)
	for pass := 0; pass < 2; pass++ {
		for _, rec := range records {
			data, err := json.Marshal(rec)
			if err != nil {
				t.Fatal(err)
			}
			var disk journalRec
			if err := json.Unmarshal(data, &disk); err != nil {
				t.Fatal(err)
			}
			if err := fresh.apply(disk); err != nil {
				t.Fatal(err)
			}
		}
	}
	if fresh.stats.Replayed != 2 || fresh.open != m.open {
		t.Errorf("replay: Replayed %d open %d, want 2 and %d", fresh.stats.Replayed, fresh.open, m.open)
	}
	for i := range m.cells {
		live, got := &m.cells[i], &fresh.cells[i]
		if (live.state == cellDone) != (got.state == cellDone) || !reflect.DeepEqual(live.result, got.result) ||
			live.segDone != got.segDone || (live.relay && string(live.checkpoint) != string(got.checkpoint)) {
			t.Errorf("cell %d: replayed {done %v result %+v segDone %d checkpoint %q}, live {done %v result %+v segDone %d checkpoint %q}",
				i, got.state == cellDone, got.result, got.segDone, got.checkpoint,
				live.state == cellDone, live.result, live.segDone, live.checkpoint)
		}
	}
}
