package farm

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand/v2"
	"net/http"
	"net/url"
	"strconv"
	"sync"
	"time"

	"bbsched/internal/sim"
	"bbsched/internal/trace"
)

// errAbandon aborts the current cell without reporting anything to the
// coordinator — either a simulated crash (StepHook) or a stale lease
// (the coordinator already re-issued the cell, or a speculative twin
// finished it first).
var errAbandon = errors.New("farm: abandon cell")

// resultGrace is how long a result post may still take once the worker's
// context is cancelled: the cell is done, and only the coordinator's
// answer tells the worker whether to cache it. A caller that cancels its
// workers as soon as Wait returns would otherwise cut the last post off
// between the coordinator's accept and the ack, and lose that cell's
// cache entry.
const resultGrace = 2 * time.Second

// WorkerStats counts one worker's lease outcomes and transport retries.
type WorkerStats struct {
	// Leases counts granted leases processed, including cache hits and
	// relay segments; Completed counts final results posted.
	Leases, Completed int
	// CacheHits counts leases answered from CacheDir without simulating;
	// CacheStores counts freshly computed results written back to it.
	CacheHits, CacheStores int
	// Segments counts relay-segment terminal snapshots uploaded.
	Segments int
	// Builds counts workloads made from a recipe: each materialized
	// workload built (a run of cells sharing one recipe builds it once)
	// and each stream source opened (once per attempt, never reused).
	Builds int
	// TransientRetries counts transient coordinator-transport failures
	// absorbed by backoff instead of killing the worker.
	TransientRetries int
}

// Worker leases grid cells from a coordinator, runs them to completion —
// resuming from the lease's checkpoint when one is attached — and posts
// periodic checkpoints and final results back. It keeps the last
// materialized workload it built and reuses it for the next cell with the
// same WorkloadSpec, which the grid's workload-major order makes the usual
// case. One Worker value runs one Run loop at a time; start another Worker
// for more parallelism.
type Worker struct {
	// Coordinator is the coordinator's base URL.
	Coordinator string
	// ID names this worker in leases and coordinator errors.
	ID string
	// Client is the HTTP client (http.DefaultClient when nil).
	Client *http.Client
	// Poll is the idle backoff between lease attempts when every pending
	// cell is leased elsewhere. Default 50ms.
	Poll time.Duration
	// CacheDir, when non-empty, is the on-disk content-addressed result
	// cache: leases whose recipe key is already cached are answered
	// without simulating, and fresh results are written back. Workers may
	// share one directory (writes are atomic renames).
	CacheDir string
	// MaxRetries bounds the exponential-backoff retries of one transient
	// coordinator request before the worker gives up. Default 6.
	MaxRetries int
	// StepHook, when non-nil, is called after every event instant with
	// the cell index and the number of instants stepped this attempt.
	// Returning an error abandons the cell silently — no failure report,
	// no result — simulating a worker crash or hang so tests can exercise
	// lease-expiry recovery.
	StepHook func(cell, steps int) error

	mu    sync.Mutex
	stats WorkerStats

	// built is the last materialized workload and builtSpec the canonical
	// JSON of the WorkloadSpec it was built from. Jobs are read-only, so
	// every run over the recipe shares them.
	builtSpec []byte
	built     trace.Workload
}

// Stats returns a snapshot of the worker's counters.
func (w *Worker) Stats() WorkerStats {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.stats
}

func (w *Worker) bump(f func(*WorkerStats)) {
	w.mu.Lock()
	f(&w.stats)
	w.mu.Unlock()
}

// Run leases and executes cells until the coordinator reports the sweep
// drained or ctx is cancelled. Cell-level simulation failures are
// reported to the coordinator (which owns retry policy) and do not stop
// the worker; transient transport errors are retried with backoff, and
// only exhausted or permanent transport errors are fatal.
func (w *Worker) Run(ctx context.Context) error {
	poll := w.Poll
	if poll <= 0 {
		poll = 50 * time.Millisecond
	}
	for {
		if err := ctx.Err(); err != nil {
			return err
		}
		var lease LeaseResponse
		if err := w.post(ctx, "/lease", LeaseRequest{Worker: w.ID}, &lease); err != nil {
			return err
		}
		if lease.Done {
			return nil
		}
		if lease.Cell < 0 {
			select {
			case <-ctx.Done():
				return ctx.Err()
			case <-time.After(poll):
			}
			continue
		}
		if err := w.runCell(ctx, lease); err != nil {
			if errors.Is(err, errAbandon) {
				continue
			}
			return err
		}
	}
}

// runCell executes one leased cell or relay segment. Simulation errors
// are posted as failures and return nil; only coordinator-transport
// errors propagate.
func (w *Worker) runCell(ctx context.Context, lease LeaseResponse) error {
	w.bump(func(st *WorkerStats) { st.Leases++ })
	key := ""
	if w.CacheDir != "" {
		if k, err := RecipeKey(lease.Spec); err == nil {
			key = k
			if res, ok := loadCachedResult(w.CacheDir, key); ok {
				// The cached Result is what re-simulating the recipe would
				// produce, but for the wall-clock decision times — answer
				// without simulating.
				// (Valid even on a segment lease: the key identifies the
				// whole cell, and a full result completes it outright.)
				w.bump(func(st *WorkerStats) { st.CacheHits++; st.Completed++ })
				var ack Ack
				return w.post(ctx, "/result", ResultMsg{
					Cell: lease.Cell, Attempt: lease.Attempt, Worker: w.ID, Result: res,
				}, &ack)
			}
		}
	}
	s, err := w.buildSimulator(lease)
	if err != nil {
		return w.reportFailure(ctx, lease, err)
	}
	// Every exit — result, failure report, abandonment — releases the
	// cell's streaming source exactly once (Close is idempotent and a
	// no-op for materialized cells).
	defer s.Close()
	// One upload buffer serves every checkpoint of the cell.
	var snap bytes.Buffer
	steps := 0
	for {
		if err := ctx.Err(); err != nil {
			return err
		}
		if lease.SegmentEnd > 0 && s.SourcePulled() >= lease.SegmentEnd && !s.Done() {
			// Relay-segment boundary: hand the exact source position back
			// as a terminal snapshot; the next segment is someone else's
			// lease (possibly ours, next poll).
			if err := w.uploadSnapshot(ctx, lease, s, &snap, true); err != nil {
				return err
			}
			w.bump(func(st *WorkerStats) { st.Segments++ })
			return nil
		}
		more, err := s.Step()
		if err != nil {
			return w.reportFailure(ctx, lease, err)
		}
		if !more {
			break
		}
		steps++
		if w.StepHook != nil {
			if err := w.StepHook(lease.Cell, steps); err != nil {
				return errAbandon
			}
		}
		if lease.CheckpointEvents > 0 && steps%lease.CheckpointEvents == 0 {
			if err := w.uploadSnapshot(ctx, lease, s, &snap, false); err != nil {
				return err
			}
		}
	}
	res, err := s.Result()
	if err != nil {
		return w.reportFailure(ctx, lease, err)
	}
	postCtx, stop := withGrace(ctx, resultGrace)
	defer stop()
	var ack Ack
	if err := w.post(postCtx, "/result", ResultMsg{
		Cell: lease.Cell, Attempt: lease.Attempt, Worker: w.ID, Result: res,
	}, &ack); err != nil {
		return err
	}
	// Cache only the result the coordinator accepted: a speculative twin
	// that lost carries its own wall-clock decision times, and its entry
	// would replace the one matching the assembled grid.
	if key != "" && !ack.Stale {
		if storeCachedResult(w.CacheDir, key, res) == nil {
			w.bump(func(st *WorkerStats) { st.CacheStores++ })
		}
	}
	w.bump(func(st *WorkerStats) { st.Completed++ })
	return nil
}

// withGrace returns a context that ends grace after ctx does.
func withGrace(ctx context.Context, grace time.Duration) (context.Context, context.CancelFunc) {
	out, cancel := context.WithCancel(context.WithoutCancel(ctx))
	stop := context.AfterFunc(ctx, func() { time.AfterFunc(grace, cancel) })
	return out, func() { stop(); cancel() }
}

// buildSimulator rebuilds the cell's run from its recipe — and from the
// lease's checkpoint when the cell is being resumed. A materialized
// workload comes from materialize; a stream source is opened fresh.
func (w *Worker) buildSimulator(lease LeaseResponse) (*sim.Simulator, error) {
	cell := lease.Spec
	opts, err := cell.Opts.Options()
	if err != nil {
		return nil, err
	}
	opts = append(opts, sim.WithSeed(cell.Seed))

	var wl trace.Workload
	var src trace.JobSource
	if cell.Workload.Stream {
		shell, opened, err := cell.Workload.Open()
		if err != nil {
			return nil, err
		}
		w.bump(func(st *WorkerStats) { st.Builds++ })
		wl = shell
		src = opened
		opts = append(opts, sim.WithSource(src), sim.WithStreamingMetrics())
	} else {
		built, err := w.materialize(cell.Workload)
		if err != nil {
			return nil, err
		}
		wl = built
	}
	// Until the simulator takes ownership of the opened source, any
	// construction failure closes it here (re-opened fresh next attempt).
	closeSrc := func() {
		if c, ok := src.(trace.Closer); ok {
			c.Close()
		}
	}
	m, err := cell.Method.Build(wl.System.Cluster, cell.Solver)
	if err != nil {
		closeSrc()
		return nil, err
	}
	var s *sim.Simulator
	if len(lease.Checkpoint) > 0 {
		s, err = sim.Restore(wl, m, bytes.NewReader(lease.Checkpoint), opts...)
	} else {
		s, err = sim.NewSimulator(wl, m, opts...)
	}
	if err != nil {
		closeSrc()
		return nil, err
	}
	return s, nil
}

// materialize returns the workload ws builds, building it only when ws
// differs from the recipe of the last one built.
func (w *Worker) materialize(ws WorkloadSpec) (trace.Workload, error) {
	spec, err := json.Marshal(ws)
	if err != nil {
		return trace.Workload{}, fmt.Errorf("farm: workload %q: %w", ws.Name, err)
	}
	if bytes.Equal(spec, w.builtSpec) {
		return w.built, nil
	}
	built, err := ws.Build()
	if err != nil {
		return trace.Workload{}, err
	}
	w.bump(func(st *WorkerStats) { st.Builds++ })
	w.builtSpec, w.built = spec, built
	return built, nil
}

// uploadSnapshot checkpoints the run into buf, which it empties first,
// and posts it — terminally for a finished relay segment. A stale ack
// means the lease was reaped, re-issued, or beaten by a speculative twin,
// so the cell is abandoned.
func (w *Worker) uploadSnapshot(ctx context.Context, lease LeaseResponse, s *sim.Simulator, buf *bytes.Buffer, terminal bool) error {
	buf.Reset()
	if err := s.Checkpoint(buf); err != nil {
		return w.reportFailure(ctx, lease, err)
	}
	q := url.Values{
		"cell":    {strconv.Itoa(lease.Cell)},
		"attempt": {strconv.Itoa(lease.Attempt)},
		"worker":  {w.ID},
	}
	if terminal {
		q.Set("terminal", "1")
	}
	var ack Ack
	if err := w.send(ctx, "/checkpoint?"+q.Encode(), "application/octet-stream", buf.Bytes(), &ack); err != nil {
		return err
	}
	if ack.Stale {
		return errAbandon
	}
	return nil
}

// reportFailure posts a cell failure and folds the cell into the normal
// lease loop (returns nil, or the transport error).
func (w *Worker) reportFailure(ctx context.Context, lease LeaseResponse, cause error) error {
	var ack Ack
	return w.post(ctx, "/fail", FailMsg{
		Cell: lease.Cell, Attempt: lease.Attempt, Worker: w.ID, Error: cause.Error(),
	}, &ack)
}

// statusError is a non-200 coordinator reply; 5xx and 429 are transient.
type statusError struct {
	path   string
	code   int
	status string
}

func (e *statusError) Error() string {
	return fmt.Sprintf("farm: %s: coordinator returned %s", e.path, e.status)
}

// transient reports whether a post error is worth retrying: connection
// failures (coordinator restarting, network blip) and overload-class
// statuses. 4xx replies are contract violations and stay fatal.
func transient(err error) bool {
	var se *statusError
	if errors.As(err, &se) {
		return se.code >= 500 || se.code == http.StatusTooManyRequests
	}
	// Client.Do wraps every transport-level failure in a *url.Error.
	var ue *url.Error
	return errors.As(err, &ue)
}

// post sends one JSON request to the coordinator and decodes the reply.
func (w *Worker) post(ctx context.Context, path string, msg, reply any) error {
	body, err := json.Marshal(msg)
	if err != nil {
		return fmt.Errorf("farm: encoding %s: %w", path, err)
	}
	return w.send(ctx, path, "application/json", body, reply)
}

// send posts body to the coordinator and decodes the JSON reply,
// absorbing transient failures with bounded exponential backoff and
// jitter (the jitter de-synchronizes a fleet of workers retrying into a
// restarting coordinator).
func (w *Worker) send(ctx context.Context, path, contentType string, body []byte, reply any) error {
	maxRetries := w.MaxRetries
	if maxRetries <= 0 {
		maxRetries = 6
	}
	delay := 50 * time.Millisecond
	for try := 0; ; try++ {
		err := w.postOnce(ctx, path, contentType, body, reply)
		if err == nil || ctx.Err() != nil || try >= maxRetries || !transient(err) {
			return err
		}
		w.bump(func(st *WorkerStats) { st.TransientRetries++ })
		// Full jitter in [delay/2, 3·delay/2): retry times are a pure
		// wall-clock concern, so math/rand is fine here — cell results
		// remain deterministic regardless.
		sleep := delay/2 + rand.N(delay)
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(sleep):
		}
		if delay *= 2; delay > 2*time.Second {
			delay = 2 * time.Second
		}
	}
}

func (w *Worker) postOnce(ctx context.Context, path, contentType string, body []byte, reply any) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, w.Coordinator+path, bytes.NewReader(body))
	if err != nil {
		return fmt.Errorf("farm: %s: %w", path, err)
	}
	req.Header.Set("Content-Type", contentType)
	client := w.Client
	if client == nil {
		client = http.DefaultClient
	}
	resp, err := client.Do(req)
	if err != nil {
		return fmt.Errorf("farm: %s: %w", path, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return &statusError{path: path, code: resp.StatusCode, status: resp.Status}
	}
	if err := json.NewDecoder(resp.Body).Decode(reply); err != nil {
		return fmt.Errorf("farm: decoding %s reply: %w", path, err)
	}
	return nil
}
