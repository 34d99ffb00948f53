package farm

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"sync"
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

// Wire messages. Every route but /checkpoint carries a JSON body; a
// snapshot upload is the raw snapshot bytes, with the rest of its
// CheckpointMsg in the query string (see Handler).

// LeaseRequest asks for work.
type LeaseRequest struct {
	Worker string `json:"worker"`
}

// LeaseResponse grants one cell, reports the sweep drained, or reports
// nothing available right now (Cell == -1: every pending cell is leased
// to someone else — poll again).
type LeaseResponse struct {
	Done             bool   `json:"done"`
	Cell             int    `json:"cell"`
	Attempt          int    `json:"attempt,omitempty"`
	Spec             Cell   `json:"spec,omitempty"`
	CheckpointEvents int    `json:"checkpoint_events,omitempty"`
	Checkpoint       []byte `json:"checkpoint,omitempty"`
	LeaseMillis      int64  `json:"lease_millis,omitempty"`
	// SegmentEnd, when positive, makes this a relay-segment lease: run
	// until at least SegmentEnd jobs have been pulled from the source,
	// then upload a terminal checkpoint instead of a result (unless the
	// stream drains first, which completes the cell normally). Zero means
	// run to drain.
	SegmentEnd int `json:"segment_end,omitempty"`
}

// CheckpointMsg uploads a mid-run snapshot; accepting it renews the lease.
// Terminal marks a relay segment's boundary snapshot: accepting it
// finishes the segment and makes the next one leasable immediately. On
// the wire Data is the request body and the other fields are query
// parameters.
type CheckpointMsg struct {
	Cell     int
	Attempt  int
	Worker   string
	Data     []byte
	Terminal bool
}

// ResultMsg reports a completed cell.
type ResultMsg struct {
	Cell    int         `json:"cell"`
	Attempt int         `json:"attempt"`
	Worker  string      `json:"worker"`
	Result  *sim.Result `json:"result"`
}

// FailMsg reports a failed attempt (workers that die silently are caught
// by lease expiry instead).
type FailMsg struct {
	Cell    int    `json:"cell"`
	Attempt int    `json:"attempt"`
	Worker  string `json:"worker"`
	Error   string `json:"error"`
}

// Ack is the coordinator's reply to checkpoint/result/fail posts. Stale
// is true when the message referenced a lease the coordinator no longer
// honors (expired and re-issued, the cell already completed, or a
// speculative twin won); a stale worker should abandon the cell and lease
// fresh work.
type Ack struct {
	Stale bool `json:"stale,omitempty"`
}

// Stats counts coordinator-side recovery and recompute-avoidance events.
type Stats struct {
	// Retries counts re-leases of a cell after a failed or expired
	// attempt; Resumes counts the subset that carried a checkpoint.
	Retries, Resumes int
	// Expired counts leases reaped by deadline (silent worker death or
	// hang); Failed counts explicit failure reports.
	Expired, Failed int
	// Steals counts speculative duplicate leases issued in the grid tail;
	// StealWins counts the cells and relay segments a speculative attempt
	// finished first.
	Steals, StealWins int
	// Segments counts relay-segment terminal snapshots accepted.
	Segments int
	// Deduped counts grid cells completed by copying another cell's
	// result because both share one recipe key (in-grid memoization).
	Deduped int
	// Replayed counts cells restored from the coordinator journal at
	// construction instead of being re-run.
	Replayed int
}

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
	// key is the cell's content-addressed recipe key; aliasOf is the
	// lowest grid index sharing it (== own index for the canonical copy).
	// Aliases are never leased — they complete when the canonical cell
	// does, so duplicate cells in one grid simulate exactly once.
	key     string
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
	lastErr    error
}

// Coordinator owns a grid sweep: it leases cells to workers, collects
// checkpoints and results, requeues failed or expired attempts (resuming
// from the last checkpoint), duplicates tail leases onto idle workers,
// relays giant stream cells segment by segment, and assembles the
// grid-ordered results.
type Coordinator struct {
	grid        Grid
	leaseTTL    time.Duration
	maxAttempts int
	speculate   bool
	journalPath string

	mu       sync.Mutex
	cells    []cellRun
	open     int // cells not yet done
	stats    Stats
	failErr  error
	journal  *journal
	finished chan struct{}
	wake     chan struct{}
	once     sync.Once
}

// CoordinatorOption configures a Coordinator.
type CoordinatorOption func(*Coordinator)

// WithLeaseTTL sets how long a worker may hold a cell without renewing
// (a checkpoint upload renews). Default 60s.
func WithLeaseTTL(d time.Duration) CoordinatorOption {
	return func(c *Coordinator) { c.leaseTTL = d }
}

// WithMaxAttempts bounds failed attempts per cell before the sweep
// fails. Default 3.
func WithMaxAttempts(n int) CoordinatorOption {
	return func(c *Coordinator) { c.maxAttempts = n }
}

// WithSpeculation toggles tail work-stealing: when a worker asks for
// work and every runnable cell is already leased, the coordinator
// duplicates the oldest single-leased cell onto the idle worker, seeded
// from the latest checkpoint. Determinism makes the duplicate harmless —
// both attempts compute the same answer and the first one in wins — so
// speculation only moves the tail off stragglers. Default on.
func WithSpeculation(enabled bool) CoordinatorOption {
	return func(c *Coordinator) { c.speculate = enabled }
}

// WithJournal persists terminal cell state (results and relay-segment
// snapshots) to an append-only JSONL log at path, replayed by the next
// NewCoordinator over the same grid and path — so a crashed coordinator
// restarts without re-running completed work. The file is created if
// absent and must belong to this exact grid otherwise.
func WithJournal(path string) CoordinatorOption {
	return func(c *Coordinator) { c.journalPath = path }
}

// NewCoordinator validates the grid, dedups cells by recipe key, replays
// the journal when one is configured, and prepares the sweep.
func NewCoordinator(g Grid, opts ...CoordinatorOption) (*Coordinator, error) {
	if err := g.Validate(); err != nil {
		return nil, err
	}
	c := &Coordinator{
		grid:        g,
		leaseTTL:    60 * time.Second,
		maxAttempts: 3,
		speculate:   true,
		finished:    make(chan struct{}),
		wake:        make(chan struct{}, 1),
	}
	for _, apply := range opts {
		apply(c)
	}
	if c.leaseTTL <= 0 {
		return nil, fmt.Errorf("farm: non-positive lease TTL %v", c.leaseTTL)
	}
	if c.maxAttempts < 1 {
		return nil, fmt.Errorf("farm: max attempts %d < 1", c.maxAttempts)
	}
	// Probe each method×solver×machine pairing once and mark every cell of
	// an incompatible pairing skipped up front: it is excluded from the
	// open count, never leased, and assembles with Skipped set — the grid
	// analogue of `bbsim -sweep all -solver` noting and skipping the pair.
	type pairing struct {
		method, solver, clusterName string
	}
	incompat := map[pairing]error{}
	keyOwner := map[string]int{}
	for idx, cell := range g.Cells() {
		cr := cellRun{spec: cell, aliasOf: idx}
		rkey, err := RecipeKey(cell)
		if err != nil {
			return nil, err
		}
		cr.key = rkey
		pkey := pairing{cell.Method.Name, cell.Solver, cell.Workload.Gen.System.Cluster.Name}
		skip, probed := incompat[pkey]
		if !probed {
			if _, err := cell.Method.Build(cell.Workload.Gen.System.Cluster, cell.Solver); errors.Is(err, registry.ErrIncompatibleSolver) {
				skip = err
			}
			incompat[pkey] = skip
		}
		if skip != nil {
			cr.state = cellSkipped
			cr.lastErr = skip
		}
		if cr.state == cellPending {
			if owner, dup := keyOwner[rkey]; dup {
				cr.aliasOf = owner
			} else {
				keyOwner[rkey] = idx
			}
			cr.relay = g.relayCell(cell.Workload)
			c.open++
		}
		c.cells = append(c.cells, cr)
	}
	if err := c.replayJournal(); err != nil {
		return nil, err
	}
	if c.open == 0 {
		// Every cell skipped (or replayed): the sweep is trivially drained.
		c.once.Do(func() { close(c.finished) })
	}
	return c, nil
}

// replayJournal opens the configured journal, restores completed cells
// and relay-segment progress from a previous coordinator's records, and
// fans replayed results out to in-grid aliases.
func (c *Coordinator) replayJournal() error {
	if c.journalPath == "" {
		return nil
	}
	j, recs, err := openJournal(c.journalPath, gridSHA(c.grid))
	if err != nil {
		return err
	}
	c.journal = j
	for _, rec := range recs {
		if rec.Cell < 0 || rec.Cell >= len(c.cells) {
			return fmt.Errorf("farm: journal %s: cell %d out of range", c.journalPath, rec.Cell)
		}
		cell := &c.cells[rec.Cell]
		switch rec.Kind {
		case "result":
			if cell.state != cellPending || cell.aliasOf != rec.Cell {
				continue
			}
			var res sim.Result
			if err := json.Unmarshal(rec.Result, &res); err != nil {
				return fmt.Errorf("farm: journal %s: cell %d result: %w", c.journalPath, rec.Cell, err)
			}
			c.stats.Replayed++
			c.completeLocked(rec.Cell, &res, false)
		case "segment":
			if cell.state != cellPending || rec.SegDone <= cell.segDone {
				continue
			}
			cell.segDone = rec.SegDone
			cell.checkpoint = rec.Checkpoint
		default:
			return fmt.Errorf("farm: journal %s: unknown record kind %q", c.journalPath, rec.Kind)
		}
	}
	return nil
}

// Close releases the coordinator journal, if any. The coordinator itself
// needs no teardown.
func (c *Coordinator) Close() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.journal == nil {
		return nil
	}
	j := c.journal
	c.journal = nil
	return j.close()
}

// Handler returns the coordinator's HTTP API:
//
//	POST /lease      LeaseRequest  → LeaseResponse
//	POST /checkpoint?cell=&attempt=&worker=[&terminal=1]
//	                 snapshot bytes → Ack
//	POST /result     ResultMsg     → Ack
//	POST /fail       FailMsg       → Ack
//
// A /checkpoint body is the snapshot itself, sent as
// application/octet-stream; every other body and every reply is JSON.
func (c *Coordinator) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /lease", func(w http.ResponseWriter, r *http.Request) {
		var req LeaseRequest
		if !decodeBody(w, r, &req) {
			return
		}
		writeJSON(w, c.lease(req.Worker))
	})
	mux.HandleFunc("POST /checkpoint", func(w http.ResponseWriter, r *http.Request) {
		msg, ok := readCheckpoint(w, r)
		if !ok {
			return
		}
		writeJSON(w, Ack{Stale: !c.acceptCheckpoint(msg)})
	})
	mux.HandleFunc("POST /result", func(w http.ResponseWriter, r *http.Request) {
		var msg ResultMsg
		if !decodeBody(w, r, &msg) {
			return
		}
		if msg.Result == nil {
			http.Error(w, "result message without a result", http.StatusBadRequest)
			return
		}
		writeJSON(w, Ack{Stale: !c.acceptResult(msg)})
	})
	mux.HandleFunc("POST /fail", func(w http.ResponseWriter, r *http.Request) {
		var msg FailMsg
		if !decodeBody(w, r, &msg) {
			return
		}
		writeJSON(w, Ack{Stale: !c.acceptFailure(msg)})
	})
	return mux
}

// maxBodyBytes caps every request body the coordinator reads.
const maxBodyBytes = 256 << 20

func decodeBody(w http.ResponseWriter, r *http.Request, v any) bool {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBodyBytes))
	if err := dec.Decode(v); err != nil {
		http.Error(w, fmt.Sprintf("bad request body: %v", err), http.StatusBadRequest)
		return false
	}
	return true
}

// readCheckpoint parses a raw snapshot upload: the message fields from
// the query string, the snapshot from the body. The body must declare its
// length, which is checked against the cap before any of it is read and
// sizes the one buffer it is read into.
func readCheckpoint(w http.ResponseWriter, r *http.Request) (CheckpointMsg, bool) {
	if ct := r.Header.Get("Content-Type"); ct != "application/octet-stream" {
		http.Error(w, fmt.Sprintf("checkpoint body has content type %q, want application/octet-stream", ct), http.StatusUnsupportedMediaType)
		return CheckpointMsg{}, false
	}
	q := r.URL.Query()
	msg := CheckpointMsg{Worker: q.Get("worker")}
	var errCell, errAttempt, errTerminal error
	msg.Cell, errCell = strconv.Atoi(q.Get("cell"))
	msg.Attempt, errAttempt = strconv.Atoi(q.Get("attempt"))
	if t := q.Get("terminal"); t != "" {
		msg.Terminal, errTerminal = strconv.ParseBool(t)
	}
	if err := errors.Join(errCell, errAttempt, errTerminal); err != nil {
		http.Error(w, fmt.Sprintf("bad checkpoint query: %v", err), http.StatusBadRequest)
		return CheckpointMsg{}, false
	}
	switch {
	case r.ContentLength < 0:
		http.Error(w, "checkpoint body without a Content-Length", http.StatusLengthRequired)
		return CheckpointMsg{}, false
	case r.ContentLength > maxBodyBytes:
		http.Error(w, fmt.Sprintf("checkpoint body of %d bytes exceeds %d", r.ContentLength, maxBodyBytes), http.StatusRequestEntityTooLarge)
		return CheckpointMsg{}, false
	}
	msg.Data = make([]byte, r.ContentLength)
	if _, err := io.ReadFull(r.Body, msg.Data); err != nil {
		http.Error(w, fmt.Sprintf("bad checkpoint body: %v", err), http.StatusBadRequest)
		return CheckpointMsg{}, false
	}
	return msg, true
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(v)
}

// lease reaps expired leases and grants the lowest-indexed runnable
// pending cell. When nothing is pending but work is still in flight —
// the grid tail — it speculatively duplicates the oldest single-leased
// cell onto the idle worker instead of sending it away empty-handed.
func (c *Coordinator) lease(worker string) LeaseResponse {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.reapLocked(time.Now())
	if c.open == 0 || c.failErr != nil {
		return LeaseResponse{Done: true, Cell: -1}
	}
	for i := range c.cells {
		cell := &c.cells[i]
		if cell.state != cellPending || cell.aliasOf != i {
			continue
		}
		return c.grantLocked(i, worker, false)
	}
	if c.speculate {
		if i := c.stealCandidateLocked(worker); i >= 0 {
			c.stats.Steals++
			return c.grantLocked(i, worker, true)
		}
	}
	return LeaseResponse{Cell: -1}
}

// grantLocked issues a lease on cell i. A speculative grant duplicates
// the primary lease's segment target and resumes from the latest
// checkpoint; a normal grant on a relay cell targets the next segment
// boundary.
func (c *Coordinator) grantLocked(i int, worker string, steal bool) LeaseResponse {
	cell := &c.cells[i]
	cell.attempt++
	segEnd := 0
	if steal {
		segEnd = cell.leases[0].segEnd
	} else if cell.relay {
		segEnd = (cell.segDone + 1) * c.grid.RelayJobs
	}
	now := time.Now()
	cell.leases = append(cell.leases, lease{
		attempt:  cell.attempt,
		worker:   worker,
		started:  now,
		deadline: now.Add(c.leaseTTL),
		steal:    steal,
		segEnd:   segEnd,
	})
	cell.state = cellLeased
	if !steal && cell.requeued {
		c.stats.Retries++
		if len(cell.checkpoint) > 0 {
			c.stats.Resumes++
		}
		cell.requeued = false
	}
	return LeaseResponse{
		Cell:             i,
		Attempt:          cell.attempt,
		Spec:             cell.spec,
		CheckpointEvents: c.grid.CheckpointEvents,
		Checkpoint:       cell.checkpoint,
		LeaseMillis:      c.leaseTTL.Milliseconds(),
		SegmentEnd:       segEnd,
	}
}

// maxCellLeases caps concurrent attempts per cell: one primary plus up
// to two speculative twins. Enough for a small fleet to gang up on the
// last straggling cell (or one giant relay segment) without letting a
// large fleet burn itself redundantly on a single lease.
const maxCellLeases = 3

// stealCandidateLocked picks the in-flight cell with the oldest primary
// lease that still has twin capacity and no lease held by the requesting
// worker, or -1.
func (c *Coordinator) stealCandidateLocked(worker string) int {
	best := -1
	var bestStart time.Time
	for i := range c.cells {
		cell := &c.cells[i]
		if cell.state != cellLeased || len(cell.leases) >= maxCellLeases {
			continue
		}
		mine := false
		for _, l := range cell.leases {
			if l.worker == worker {
				mine = true
				break
			}
		}
		if mine {
			continue
		}
		if start := cell.leases[0].started; best < 0 || start.Before(bestStart) {
			best, bestStart = i, start
		}
	}
	return best
}

// leaseIndexLocked resolves (cell, attempt) to the index of the live
// lease it references, or -1 when the message is stale.
func (c *Coordinator) leaseIndexLocked(cell, attempt int) int {
	if cell < 0 || cell >= len(c.cells) || c.cells[cell].state != cellLeased {
		return -1
	}
	for li, l := range c.cells[cell].leases {
		if l.attempt == attempt {
			return li
		}
	}
	return -1
}

func (c *Coordinator) acceptCheckpoint(msg CheckpointMsg) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	li := c.leaseIndexLocked(msg.Cell, msg.Attempt)
	if li < 0 || len(msg.Data) == 0 {
		return false
	}
	cell := &c.cells[msg.Cell]
	if msg.Terminal {
		if !cell.relay {
			return false
		}
		steal := cell.leases[li].steal
		cell.checkpoint = msg.Data
		cell.segDone++
		// Every lease on the old segment — including a speculative twin
		// still running it — is now stale; the next segment is leasable
		// immediately, by anyone.
		cell.leases = nil
		cell.state = cellPending
		c.stats.Segments++
		if steal {
			c.stats.StealWins++
		}
		if c.journal != nil {
			_ = c.journal.append(journalRec{Kind: "segment", Cell: msg.Cell, SegDone: cell.segDone, Checkpoint: msg.Data})
		}
		c.signalWake()
		return true
	}
	cell.checkpoint = msg.Data
	cell.leases[li].deadline = time.Now().Add(c.leaseTTL)
	return true
}

func (c *Coordinator) acceptResult(msg ResultMsg) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	li := c.leaseIndexLocked(msg.Cell, msg.Attempt)
	if li < 0 {
		return false
	}
	if c.cells[msg.Cell].leases[li].steal {
		c.stats.StealWins++
	}
	c.completeLocked(msg.Cell, msg.Result, true)
	return true
}

// completeLocked marks cell i done with res, journals it, and fans the
// result out to the cell's in-grid aliases (duplicate recipe keys), which
// were never leased.
func (c *Coordinator) completeLocked(i int, res *sim.Result, journal bool) {
	cell := &c.cells[i]
	cell.state = cellDone
	cell.result = res
	cell.leases = nil
	cell.checkpoint = nil
	c.open--
	if journal && c.journal != nil {
		if data, err := json.Marshal(res); err == nil {
			_ = c.journal.append(journalRec{Kind: "result", Cell: i, Result: data})
		}
	}
	for j := range c.cells {
		alias := &c.cells[j]
		if j == i || alias.aliasOf != i || alias.state != cellPending {
			continue
		}
		alias.state = cellDone
		alias.result = res
		c.open--
		c.stats.Deduped++
	}
	if c.open == 0 {
		c.once.Do(func() { close(c.finished) })
	}
	c.signalWake()
}

func (c *Coordinator) acceptFailure(msg FailMsg) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	li := c.leaseIndexLocked(msg.Cell, msg.Attempt)
	if li < 0 {
		return false
	}
	c.stats.Failed++
	cell := &c.cells[msg.Cell]
	cell.failures++
	cause := fmt.Errorf("worker %s: %s", msg.Worker, msg.Error)
	cell.leases = append(cell.leases[:li], cell.leases[li+1:]...)
	if len(cell.leases) == 0 {
		c.requeueLocked(msg.Cell, cause)
	} else {
		// A twin attempt is still running; it may yet complete the cell.
		cell.lastErr = cause
	}
	return true
}

// reapLocked drops every lease whose deadline has passed and requeues
// cells left with no live attempt.
func (c *Coordinator) reapLocked(now time.Time) {
	for i := range c.cells {
		cell := &c.cells[i]
		if cell.state != cellLeased {
			continue
		}
		var cause error
		kept := cell.leases[:0]
		for _, l := range cell.leases {
			if now.After(l.deadline) {
				c.stats.Expired++
				cell.failures++
				cause = fmt.Errorf("worker %s: lease expired", l.worker)
				continue
			}
			kept = append(kept, l)
		}
		cell.leases = kept
		if cause != nil {
			cell.lastErr = cause
			if len(cell.leases) == 0 {
				c.requeueLocked(i, cause)
			}
		}
	}
}

// requeueLocked returns a cell to the pending pool for another attempt —
// keeping its last checkpoint so the retry resumes instead of restarting
// — or fails the sweep when failed attempts are exhausted.
func (c *Coordinator) requeueLocked(i int, cause error) {
	cell := &c.cells[i]
	cell.lastErr = cause
	cell.leases = nil
	if cell.failures >= c.maxAttempts {
		cell.state = cellFailed
		if c.failErr == nil {
			c.failErr = fmt.Errorf("farm: cell %d (%s/%s/seed %d) failed %d attempts: %w",
				i, cell.spec.Workload.Name, cell.spec.Method.Name, cell.spec.Seed, cell.failures, cause)
		}
		c.once.Do(func() { close(c.finished) })
		return
	}
	cell.state = cellPending
	cell.requeued = true
	c.signalWake()
}

// signalWake nudges Wait without blocking (the channel holds one pending
// wakeup; a second signal while one is queued is redundant anyway).
func (c *Coordinator) signalWake() {
	select {
	case c.wake <- struct{}{}:
	default:
	}
}

// Progress returns completed and total cell counts.
func (c *Coordinator) Progress() (done, total int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.cells) - c.open, len(c.cells)
}

// Stats returns a snapshot of the recovery counters.
func (c *Coordinator) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.stats
}

// Wait blocks until the sweep drains, a cell exhausts its attempts, or
// ctx is cancelled. Completion and failure are event-driven (results,
// failures, and terminal segments signal a wakeup channel, and draining
// closes finished), so drain latency does not depend on the lease TTL;
// the ticker survives only as the reaping fallback that catches workers
// that died without saying goodbye. Like sim.RunSweep, Wait always
// returns the full grid in grid order: completed cells carry their
// Result, incompatible method×solver cells their identity with Skipped
// set, and unfinished cells their identity with Canceled set, so an
// interrupted sweep keeps its completed work.
func (c *Coordinator) Wait(ctx context.Context) ([]sim.SweepRun, error) {
	tick := c.leaseTTL / 4
	if tick < 10*time.Millisecond {
		tick = 10 * time.Millisecond
	}
	ticker := time.NewTicker(tick)
	defer ticker.Stop()
	for {
		select {
		case <-ctx.Done():
			return c.assemble(), ctx.Err()
		case <-c.finished:
			c.mu.Lock()
			err := c.failErr
			c.mu.Unlock()
			return c.assemble(), err
		case <-c.wake:
			// State moved (result, failure, requeue, terminal segment);
			// terminal outcomes close finished, so there is nothing to
			// re-check here — the select just re-arms without waiting out
			// the ticker.
		case now := <-ticker.C:
			c.mu.Lock()
			c.reapLocked(now)
			c.mu.Unlock()
		}
	}
}

// assemble snapshots the grid-ordered results.
func (c *Coordinator) assemble() []sim.SweepRun {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]sim.SweepRun, len(c.cells))
	for i := range c.cells {
		cell := &c.cells[i]
		name := cell.spec.Workload.Name
		if name == "" {
			name = cell.spec.Workload.Gen.System.Cluster.Name + "-" + variantLabel(cell.spec.Workload.Variant)
		}
		out[i] = sim.SweepRun{Workload: name, Method: cell.spec.Method.Name, Seed: cell.spec.Seed}
		switch cell.state {
		case cellDone:
			out[i].Result = cell.result
			if cell.result != nil {
				// Trust the worker's authoritative naming.
				out[i].Workload = cell.result.Workload
				out[i].Method = cell.result.Method
			}
		case cellSkipped:
			out[i].Skipped = true
		default:
			out[i].Canceled = true
		}
	}
	return out
}

func variantLabel(v string) string {
	if v == "" {
		return "Original"
	}
	return v
}
