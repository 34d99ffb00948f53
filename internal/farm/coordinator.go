package farm

import (
	"cmp"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"sync"
	"time"

	"bbsched/internal/sim"
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

// Coordinator owns a grid sweep: it leases cells to workers, collects
// checkpoints and results, requeues failed or expired attempts (resuming
// from the last checkpoint), duplicates tail leases onto idle workers,
// relays giant stream cells segment by segment, and assembles the
// grid-ordered results. It serializes the calls on its machine, reads
// the clock, writes the journal and serves HTTP.
type Coordinator struct {
	journalPath string

	mu       sync.Mutex // guards m and journal
	m        machine
	journal  *journal
	finished chan struct{} // closed once the machine has drained
	once     sync.Once
}

// CoordinatorOption configures a Coordinator.
type CoordinatorOption func(*Coordinator)

// WithLeaseTTL sets how long a worker may hold a cell without renewing
// (a checkpoint upload renews). Default 60s.
func WithLeaseTTL(d time.Duration) CoordinatorOption {
	return func(c *Coordinator) { c.m.leaseTTL = d }
}

// WithMaxAttempts bounds failed attempts per cell before the sweep
// fails. Default 3.
func WithMaxAttempts(n int) CoordinatorOption {
	return func(c *Coordinator) { c.m.maxAttempts = n }
}

// WithSpeculation toggles tail work-stealing: when a worker asks for
// work and every runnable cell is already leased, the coordinator
// duplicates the oldest single-leased cell onto the idle worker, seeded
// from the latest checkpoint. Determinism makes the duplicate harmless —
// both attempts compute the same answer and the first one in wins — so
// speculation only moves the tail off stragglers. Default on.
func WithSpeculation(enabled bool) CoordinatorOption {
	return func(c *Coordinator) { c.m.speculate = enabled }
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
		m:        machine{grid: g, leaseTTL: 60 * time.Second, maxAttempts: 3, speculate: true},
		finished: make(chan struct{}),
	}
	for _, apply := range opts {
		apply(c)
	}
	if c.m.leaseTTL <= 0 {
		return nil, fmt.Errorf("farm: non-positive lease TTL %v", c.m.leaseTTL)
	}
	if c.m.maxAttempts < 1 {
		return nil, fmt.Errorf("farm: max attempts %d < 1", c.m.maxAttempts)
	}
	if err := c.m.addCells(); err != nil {
		return nil, err
	}
	if c.journalPath != "" {
		j, recs, err := openJournal(c.journalPath, gridSHA(g))
		if err != nil {
			return nil, err
		}
		for _, rec := range recs {
			if err := c.m.apply(rec); err != nil {
				j.f.Close()
				return nil, fmt.Errorf("farm: journal %s: %w", c.journalPath, err)
			}
		}
		c.journal = j
	}
	// Every cell skipped (or replayed): the sweep is trivially drained.
	c.settleLocked()
	return c, nil
}

// Close releases the coordinator journal, if any. The coordinator itself
// needs no teardown.
func (c *Coordinator) Close() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.journal == nil {
		return nil
	}
	f := c.journal.f
	c.journal = nil
	return f.Close()
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
		live, err := c.acceptCheckpoint(msg)
		writeAck(w, live, err)
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
		live, err := c.acceptResult(msg)
		writeAck(w, live, err)
	})
	mux.HandleFunc("POST /fail", func(w http.ResponseWriter, r *http.Request) {
		var msg FailMsg
		if !decodeBody(w, r, &msg) {
			return
		}
		writeAck(w, c.acceptFailure(msg), nil)
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

// writeAck answers an accept: an Ack, or a 500 when the journal could not
// record it, which the worker retries.
func writeAck(w http.ResponseWriter, live bool, err error) {
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	writeJSON(w, Ack{Stale: !live})
}

// lease grants the worker a cell, or tells it to poll again or stop.
func (c *Coordinator) lease(worker string) (resp LeaseResponse) {
	c.step(func(now time.Time) (*journalRec, bool) {
		resp = c.m.lease(worker, now)
		return nil, true
	})
	return resp
}

func (c *Coordinator) acceptCheckpoint(msg CheckpointMsg) (bool, error) {
	return c.step(func(now time.Time) (*journalRec, bool) { return c.m.checkpoint(msg, now) })
}

func (c *Coordinator) acceptResult(msg ResultMsg) (bool, error) {
	return c.step(func(time.Time) (*journalRec, bool) { return c.m.result(msg) })
}

// acceptFailure cannot fail: a failure is not journaled.
func (c *Coordinator) acceptFailure(msg FailMsg) bool {
	live, _ := c.step(func(time.Time) (*journalRec, bool) { return nil, c.m.fail(msg) })
	return live
}

// step runs one transition on the machine at the current instant. The
// record it returns, if any, is journaled and only then applied: a failed
// write returns its error and leaves the machine as it was, so the
// worker's retry can still commit.
func (c *Coordinator) step(transition func(now time.Time) (*journalRec, bool)) (bool, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	rec, live := transition(time.Now())
	if rec != nil {
		if c.journal != nil {
			if err := c.journal.append(*rec); err != nil {
				return false, err
			}
		}
		if err := c.m.apply(*rec); err != nil {
			return false, err
		}
	}
	c.settleLocked()
	return live, nil
}

// settleLocked closes finished once the machine has drained.
func (c *Coordinator) settleLocked() {
	if c.m.drained() {
		c.once.Do(func() { close(c.finished) })
	}
}

// Progress returns completed and total cell counts.
func (c *Coordinator) Progress() (done, total int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.m.cells) - c.m.open, len(c.m.cells)
}

// Stats returns a snapshot of the recovery counters.
func (c *Coordinator) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.m.stats
}

// Wait blocks until the sweep drains, a cell exhausts its attempts, or
// ctx is cancelled; its ticker reaps the leases of workers that died
// without saying goodbye. Like sim.RunSweep, Wait always returns the full
// grid in grid order: completed cells carry their Result, incompatible
// method×solver cells their identity with Skipped set, and unfinished
// cells their identity with Canceled set, so an interrupted sweep keeps
// its completed work.
func (c *Coordinator) Wait(ctx context.Context) ([]sim.SweepRun, error) {
	ticker := time.NewTicker(max(c.m.leaseTTL/4, 10*time.Millisecond))
	defer ticker.Stop()
	for {
		select {
		case <-ctx.Done():
			return c.assemble(), ctx.Err()
		case <-c.finished:
			c.mu.Lock()
			err := c.m.failErr
			c.mu.Unlock()
			return c.assemble(), err
		case <-ticker.C:
			c.step(func(now time.Time) (*journalRec, bool) {
				c.m.reap(now)
				return nil, false
			})
		}
	}
}

// assemble snapshots the grid-ordered results.
func (c *Coordinator) assemble() []sim.SweepRun {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]sim.SweepRun, len(c.m.cells))
	for i := range c.m.cells {
		cell := &c.m.cells[i]
		ws := cell.spec.Workload
		name := cmp.Or(ws.Name, ws.Gen.System.Cluster.Name+"-"+cmp.Or(ws.Variant, "Original"))
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
