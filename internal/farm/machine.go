package farm

import (
	"errors"
	"fmt"
	"slices"
	"time"

	"bbsched/internal/registry"
	"bbsched/internal/sim"
)

// Cell lifecycle states.
const (
	cellPending = iota
	cellLeased
	cellDone
	cellFailed
	// cellSkipped marks a cell that can never run — an incompatible
	// method×solver pair — decided at coordinator construction. Skipped
	// cells are never leased and assemble with SweepRun.Skipped set.
	cellSkipped
)

// lease is one live grant of a cell (or relay segment) to a worker. With
// speculation a cell can carry two concurrent leases; the first accepted
// result or terminal snapshot wins and the loser's messages go stale.
type lease struct {
	attempt  int
	worker   string
	started  time.Time
	deadline time.Time
	steal    bool
	segEnd   int
}

type cellRun struct {
	spec Cell
	// aliasOf is the lowest grid index sharing the cell's recipe key (==
	// own index for the canonical copy). Aliases are never leased — they
	// complete when the canonical cell does, so duplicate cells in one
	// grid simulate exactly once.
	aliasOf int
	state   int
	// attempt is the monotone lease counter (attempt IDs gate stale
	// messages); failures counts failed or expired attempts and is what
	// MaxAttempts bounds — relay segments and speculative twins inflate
	// attempt, never failures.
	attempt  int
	failures int
	requeued bool
	leases   []lease
	// checkpoint is the latest uploaded snapshot; for relay cells, the
	// last segment boundary. segDone counts completed relay segments.
	checkpoint []byte
	relay      bool
	segDone    int
	result     *sim.Result
}

// machine is the coordinator's sweep state and every transition on it,
// with no lock, goroutine, clock or file: the caller serializes the calls
// and passes in the instant each happens at. A transition that must be
// journaled changes nothing itself but returns the record; apply makes the
// change once the record is written, and replays the journal too.
type machine struct {
	grid        Grid
	leaseTTL    time.Duration
	maxAttempts int
	speculate   bool

	cells   []cellRun
	open    int // cells not yet done
	stats   Stats
	failErr error
}

// addCells lays out the grid's cells and dedups them by recipe key. It
// probes each method×solver×machine pairing once and marks every cell of
// an incompatible pairing skipped up front: it is excluded from the open
// count, never leased, and assembles with Skipped set — the grid analogue
// of `bbsim -sweep all -solver` noting and skipping the pair.
func (m *machine) addCells() error {
	type pairing struct {
		method, solver, clusterName string
	}
	incompat := map[pairing]bool{}
	keyOwner := map[string]int{}
	for idx, cell := range m.grid.Cells() {
		cr := cellRun{spec: cell, aliasOf: idx}
		rkey, err := RecipeKey(cell)
		if err != nil {
			return err
		}
		pkey := pairing{cell.Method.Name, cell.Solver, cell.Workload.Gen.System.Cluster.Name}
		skip, probed := incompat[pkey]
		if !probed {
			_, err := cell.Method.Build(cell.Workload.Gen.System.Cluster, cell.Solver)
			skip = errors.Is(err, registry.ErrIncompatibleSolver)
			incompat[pkey] = skip
		}
		if skip {
			cr.state = cellSkipped
		} else {
			if owner, dup := keyOwner[rkey]; dup {
				cr.aliasOf = owner
			} else {
				keyOwner[rkey] = idx
			}
			cr.relay = m.grid.relayCell(cell.Workload)
			m.open++
		}
		m.cells = append(m.cells, cr)
	}
	return nil
}

// drained reports whether every cell is done or one is out of attempts.
func (m *machine) drained() bool { return m.open == 0 || m.failErr != nil }

// lease reaps the leases expired at now and grants the lowest-indexed
// runnable pending cell. When nothing is pending but work is still in
// flight — the grid tail — it speculatively duplicates the oldest
// single-leased cell onto the idle worker instead of sending it away
// empty-handed.
func (m *machine) lease(worker string, now time.Time) LeaseResponse {
	m.reap(now)
	if m.drained() {
		return LeaseResponse{Done: true, Cell: -1}
	}
	for i := range m.cells {
		if m.cells[i].state == cellPending && m.cells[i].aliasOf == i {
			return m.grant(i, worker, false, now)
		}
	}
	if m.speculate {
		if i := m.stealCandidate(worker); i >= 0 {
			m.stats.Steals++
			return m.grant(i, worker, true, now)
		}
	}
	return LeaseResponse{Cell: -1}
}

// grant issues a lease on cell i. A speculative grant duplicates the
// primary lease's segment target and resumes from the latest checkpoint;
// a normal grant on a relay cell targets the next segment boundary.
func (m *machine) grant(i int, worker string, steal bool, now time.Time) LeaseResponse {
	cell := &m.cells[i]
	cell.attempt++
	segEnd := 0
	if steal {
		segEnd = cell.leases[0].segEnd
	} else if cell.relay {
		segEnd = (cell.segDone + 1) * m.grid.RelayJobs
	}
	cell.leases = append(cell.leases, lease{
		attempt:  cell.attempt,
		worker:   worker,
		started:  now,
		deadline: now.Add(m.leaseTTL),
		steal:    steal,
		segEnd:   segEnd,
	})
	cell.state = cellLeased
	if !steal && cell.requeued {
		m.stats.Retries++
		if len(cell.checkpoint) > 0 {
			m.stats.Resumes++
		}
		cell.requeued = false
	}
	return LeaseResponse{
		Cell:             i,
		Attempt:          cell.attempt,
		Spec:             cell.spec,
		CheckpointEvents: m.grid.CheckpointEvents,
		Checkpoint:       cell.checkpoint,
		LeaseMillis:      m.leaseTTL.Milliseconds(),
		SegmentEnd:       segEnd,
	}
}

// maxCellLeases caps concurrent attempts per cell: one primary plus up
// to two speculative twins. Enough for a small fleet to gang up on the
// last straggling cell (or one giant relay segment) without letting a
// large fleet burn itself redundantly on a single lease.
const maxCellLeases = 3

// stealCandidate picks the in-flight cell with the oldest primary lease
// that still has twin capacity and no lease held by the requesting
// worker, or -1.
func (m *machine) stealCandidate(worker string) int {
	best := -1
	var bestStart time.Time
	for i := range m.cells {
		cell := &m.cells[i]
		if cell.state != cellLeased || len(cell.leases) >= maxCellLeases ||
			slices.ContainsFunc(cell.leases, func(l lease) bool { return l.worker == worker }) {
			continue
		}
		if start := cell.leases[0].started; best < 0 || start.Before(bestStart) {
			best, bestStart = i, start
		}
	}
	return best
}

// leaseIndex resolves (cell, attempt) to the index of the live lease it
// references, or -1 when the message is stale.
func (m *machine) leaseIndex(cell, attempt int) int {
	if cell < 0 || cell >= len(m.cells) || m.cells[cell].state != cellLeased {
		return -1
	}
	return slices.IndexFunc(m.cells[cell].leases, func(l lease) bool { return l.attempt == attempt })
}

// checkpoint reports whether a snapshot upload's lease is live. A mid-run
// snapshot is stored and renews the lease at now; a relay segment's
// terminal snapshot becomes the segment record to journal and apply.
func (m *machine) checkpoint(msg CheckpointMsg, now time.Time) (*journalRec, bool) {
	li := m.leaseIndex(msg.Cell, msg.Attempt)
	if li < 0 || len(msg.Data) == 0 || (msg.Terminal && !m.cells[msg.Cell].relay) {
		return nil, false
	}
	cell := &m.cells[msg.Cell]
	if !msg.Terminal {
		cell.checkpoint = msg.Data
		cell.leases[li].deadline = now.Add(m.leaseTTL)
		return nil, true
	}
	return &journalRec{Kind: "segment", Cell: msg.Cell, attempt: msg.Attempt, SegDone: cell.segDone + 1, Checkpoint: msg.Data}, true
}

// result reports whether a result's lease is live, with its record.
func (m *machine) result(msg ResultMsg) (*journalRec, bool) {
	if m.leaseIndex(msg.Cell, msg.Attempt) < 0 {
		return nil, false
	}
	return &journalRec{Kind: "result", Cell: msg.Cell, attempt: msg.Attempt, Result: msg.Result}, true
}

// fail drops a failed attempt's lease and reports whether it was live.
func (m *machine) fail(msg FailMsg) bool {
	li := m.leaseIndex(msg.Cell, msg.Attempt)
	if li < 0 {
		return false
	}
	m.stats.Failed++
	cell := &m.cells[msg.Cell]
	cell.failures++
	cell.leases = slices.Delete(cell.leases, li, li+1)
	// While a twin attempt is still running it may yet complete the cell.
	if len(cell.leases) == 0 {
		m.requeue(msg.Cell, fmt.Errorf("worker %s: %s", msg.Worker, msg.Error))
	}
	return true
}

// reap drops every lease whose deadline is before now and requeues cells
// left with no live attempt.
func (m *machine) reap(now time.Time) {
	for i := range m.cells {
		cell := &m.cells[i]
		if cell.state != cellLeased {
			continue
		}
		var cause error
		kept := cell.leases[:0]
		for _, l := range cell.leases {
			if now.After(l.deadline) {
				m.stats.Expired++
				cell.failures++
				cause = fmt.Errorf("worker %s: lease expired", l.worker)
				continue
			}
			kept = append(kept, l)
		}
		cell.leases = kept
		if len(kept) == 0 {
			m.requeue(i, cause)
		}
	}
}

// requeue returns a cell to the pending pool for another attempt —
// keeping its last checkpoint so the retry resumes instead of restarting
// — or fails the sweep when failed attempts are exhausted.
func (m *machine) requeue(i int, cause error) {
	cell := &m.cells[i]
	cell.leases = nil
	if cell.failures >= m.maxAttempts {
		cell.state = cellFailed
		if m.failErr == nil {
			m.failErr = fmt.Errorf("farm: cell %d (%s/%s/seed %d) failed %d attempts: %w",
				i, cell.spec.Workload.Name, cell.spec.Method.Name, cell.spec.Seed, cell.failures, cause)
		}
		return
	}
	cell.state = cellPending
	cell.requeued = true
}

// apply makes the change a journal record describes. A live record names
// the lease that won, which stays live until apply runs; a replayed one
// names none, and is skipped when the grid already holds what it records.
func (m *machine) apply(rec journalRec) error {
	if rec.Cell < 0 || rec.Cell >= len(m.cells) {
		return fmt.Errorf("cell %d out of range", rec.Cell)
	}
	cell := &m.cells[rec.Cell]
	li := m.leaseIndex(rec.Cell, rec.attempt)
	stealWin := li >= 0 && cell.leases[li].steal
	switch rec.Kind {
	case "result":
		if li < 0 {
			if cell.state != cellPending || cell.aliasOf != rec.Cell {
				return nil
			}
			m.stats.Replayed++
		}
		m.complete(rec.Cell, rec.Result)
	case "segment":
		if li < 0 && (cell.state != cellPending || rec.SegDone <= cell.segDone) {
			return nil
		}
		if li >= 0 {
			m.stats.Segments++
		}
		cell.segDone, cell.checkpoint = rec.SegDone, rec.Checkpoint
		// Every lease on the old segment — including a speculative twin
		// still running it — is now stale; the next segment is leasable
		// immediately, by anyone.
		cell.leases, cell.state = nil, cellPending
	default:
		return fmt.Errorf("unknown record kind %q", rec.Kind)
	}
	if stealWin {
		m.stats.StealWins++
	}
	return nil
}

// complete marks cell i done with res and fans the result out to the
// cell's in-grid aliases (duplicate recipe keys), which were never
// leased.
func (m *machine) complete(i int, res *sim.Result) {
	cell := &m.cells[i]
	cell.state = cellDone
	cell.result = res
	cell.leases = nil
	cell.checkpoint = nil
	m.open--
	for j := range m.cells {
		alias := &m.cells[j]
		if j == i || alias.aliasOf != i || alias.state != cellPending {
			continue
		}
		alias.state = cellDone
		alias.result = res
		m.open--
		m.stats.Deduped++
	}
}
