package sim

import (
	"cmp"
	"crypto/sha256"
	"errors"
	"fmt"
	"io"
	"slices"
	"time"

	"bbsched/internal/checkpoint"
	"bbsched/internal/cluster"
	"bbsched/internal/job"
	"bbsched/internal/metrics"
	"bbsched/internal/rng"
	"bbsched/internal/sched"
	"bbsched/internal/trace"
)

// Checkpoint serializes the simulator's complete state to w in the
// versioned internal/checkpoint format, in one Write. Call it only at an
// event boundary — after NewSimulator, between Step calls, or after the
// run drains; never from inside an Observer callback, where an instant is
// half-processed. Restore rebuilds an equivalent simulator that
// continues with a byte-identical event stream and an identical Result.
//
// The snapshot covers the engine: clock, event heap, queue membership,
// running set with live allocations, usage/collector integrals, the
// per-job metric accumulator, RNG streams, and source position. It
// does not cover custom stateful components supplied by the caller —
// Observers, a stateful method (e.g. core.Adaptive), or a method whose
// solver carries cross-invocation state — which must be reconstructed
// (or accepted as reset) by the caller on Restore. A run over a
// materialized workload names the workload's jobs by their hash instead
// of writing them: its snapshot restores only over the same jobs.
func (s *Simulator) Checkpoint(w io.Writer) error {
	// Encode into the writer's spare capacity when it offers it, as
	// bytes.Buffer and bufio.Writer do: a caller that reuses one buffer
	// then checkpoints without allocating or copying the bytes.
	var dst []byte
	if ab, ok := w.(interface{ AvailableBuffer() []byte }); ok {
		dst = ab.AvailableBuffer()
	}
	b, err := checkpoint.Append(dst, s.snapshot())
	if err != nil {
		return err
	}
	_, err = w.Write(b)
	return err
}

// inFlight is one job the engine holds: its running record if it has
// started, else its window age, and whether it waits in the queue.
type inFlight struct {
	j      *job.Job
	r      *runningJob
	age    int
	queued bool
}

// flightKey orders the jobs in flight: a job's ID and where its inFlight
// entry is. Sorting keys, which hold no pointers, moves no pointer, so
// it runs without write barriers while the collector marks.
type flightKey struct{ id, at int }

// jobsHash returns trace.JobsHash of the workload's jobs, computed once.
func (s *Simulator) jobsHash() [sha256.Size]byte {
	if !s.hashed {
		s.hash, s.hashed = trace.JobsHash(s.workload.Jobs), true
	}
	return s.hash
}

// snapshot captures the simulator state as a checkpoint.Snapshot. The
// snapshot borrows the engine's int64 slices (demand vectors, allocation
// and usage extras) instead of copying them: it must be encoded before
// the engine moves again, which Checkpoint does. The running set is read
// off the event heap, each running job off its one end or burst-buffer
// release event.
func (s *Simulator) snapshot() *checkpoint.Snapshot {
	inFlightJobs := s.q.Len() + len(s.events) + len(s.pending) - s.pendHead
	snap := &checkpoint.Snapshot{
		Workload:      s.workload.Name,
		Method:        s.plugin.Method().Name(),
		Seed:          s.opt.seed,
		NumClasses:    int64(s.cl.Snapshot().NumClasses()),
		NumExtra:      int64(s.cl.NumExtra()),
		Hashed:        len(s.workload.Jobs) > 0,
		Now:           s.now,
		Invocations:   int64(s.invocations),
		WarmEnd:       s.warmEnd,
		CoolStart:     s.coolStart,
		Jobs:          make([]checkpoint.JobRecord, 0, inFlightJobs),
		Events:        make([]checkpoint.EventRecord, 0, len(s.events)),
		QueueIDs:      make([]int64, 0, s.q.Len()),
		Running:       make([]checkpoint.RunningRecord, 0, len(s.events)),
		PendingIDs:    make([]int64, 0, len(s.pending)-s.pendHead),
		DecideTotalNS: int64(s.decideTotal),
		DecideMaxNS:   int64(s.decideMax),
	}
	if snap.Hashed {
		snap.JobsHash = s.jobsHash()
	}

	// The jobs in flight, each in one container: the queue, the running
	// set, an arrival event or the look-ahead buffer. Jobs not yet pulled
	// are not state — restore re-reads them from the repositioned source —
	// and neither are finished ones, which finish has already folded into
	// stats. Sorted by ID, they give the job table, the queue and the
	// running set in their stored order.
	flight := make([]inFlight, 0, inFlightJobs)
	for j, age := range s.q.Waiting() {
		flight = append(flight, inFlight{j: j, age: age, queued: true})
	}
	for _, j := range s.pending[s.pendHead:] {
		flight = append(flight, inFlight{j: j})
		snap.PendingIDs = append(snap.PendingIDs, int64(j.ID))
	}
	// Event heap, serialized in total (time, kind, job ID) order. A
	// sorted array satisfies the heap property, so restore reloads it
	// without re-sifting and pops in the identical order.
	for _, ev := range s.events {
		snap.Events = append(snap.Events, checkpoint.EventRecord{T: ev.t, Kind: int64(ev.kind), JobID: int64(ev.j.ID)})
		flight = append(flight, inFlight{j: ev.j, r: ev.r})
	}
	slices.SortFunc(snap.Events, compareEventRecords)
	order := make([]flightKey, len(flight))
	for i, f := range flight {
		order[i] = flightKey{f.j.ID, i}
	}
	slices.SortFunc(order, func(a, b flightKey) int { return cmp.Compare(a.id, b.id) })

	// The records' node and dependency lists are cut from one arena.
	arena := make([]int64, 0, len(s.events)*int(snap.NumClasses))
	cut := func(xs []int) []int64 {
		if len(xs) == 0 {
			return nil
		}
		at := len(arena)
		for _, x := range xs {
			arena = append(arena, int64(x))
		}
		return arena[at:len(arena):len(arena)]
	}
	for _, k := range order {
		f := flight[k.at]
		state, start, end, age := job.Queued, int64(-1), int64(-1), f.age
		if r := f.r; r != nil {
			state, start, end, age = job.Running, r.start, r.end, r.age
			if r.staging {
				state = job.Finished // done but for its draining burst buffer (see finish)
			}
			snap.Running = append(snap.Running, checkpoint.RunningRecord{
				JobID:     int64(k.id),
				Release:   r.release,
				Staging:   r.staging,
				BBRelease: r.bbRelease,
				Alloc: checkpoint.AllocRecord{
					NodesByClass: cut(r.alloc.NodesByClass),
					BB:           r.alloc.BB,
					WastedSSD:    r.alloc.WastedSSD,
					Extra:        r.alloc.Extra,
				},
			})
		}
		if f.queued {
			snap.QueueIDs = append(snap.QueueIDs, int64(k.id))
		}
		rec := checkpoint.JobRecord{ID: int64(k.id), State: int64(state), StartTime: start, EndTime: end, WindowAge: int64(age)}
		if !snap.Hashed {
			j := f.j
			rec.User, rec.SubmitTime, rec.Runtime, rec.WalltimeEst = j.User, j.SubmitTime, j.Runtime, j.WalltimeEst
			rec.Res, rec.StageOutSec, rec.Deps = j.Demand.Res, j.StageOutSec, cut(j.Deps)
		}
		snap.Jobs = append(snap.Jobs, rec)
	}

	snap.Usage = s.usage
	snap.Collector = s.collector.State()
	snap.Stats = s.stats.State()

	snap.Rand = s.rand.State()
	if s.invStream != nil {
		snap.HaveInvStream = true
		snap.InvStream = s.invStream.State()
	}

	snap.Pulled = int64(s.pulled)
	snap.LastSubmit = s.lastSubmit
	snap.SrcDone = s.srcDone
	snap.DoneLow = int64(s.done.low)
	snap.DoneSparse = s.done.appendAbove(nil)
	return snap
}

// ErrSnapshotNeedsJobs refuses to restore a snapshot of a run over a
// materialized workload into a run fed by a source: the snapshot names its
// jobs by the workload's hash, and a source has no jobs to hash or to take
// theirs from.
var ErrSnapshotNeedsJobs = errors.New("snapshot names its jobs by a materialized workload's hash; restore it over that workload, not a source")

// Restore builds a simulator over the same workload, method, and options
// as the checkpointed run and resumes it from the snapshot read from r.
// The resumed simulator continues with a byte-identical event stream and
// produces the exact Result of an uninterrupted run.
//
// The caller must pass the same workload, method, and options the
// original run was built with — Restore validates the snapshot's
// identity (workload and method names, seed, metrics mode, machine
// shape, measurement window) against them and refuses mismatches. A
// snapshot of a run over a workload's own jobs names them by their hash
// (trace.JobsHash) and carries none of their trace fields, so it restores
// only over a workload whose jobs hash alike: under WithSource it is
// refused with ErrSnapshotNeedsJobs. A snapshot of a run fed by a source
// carries its jobs' trace fields; it restores under WithSource, or over a
// workload's own jobs when they match its records field by field.
// For WithSource runs, pass a freshly opened source; Restore repositions
// it at the consumed-jobs mark by replaying (and discarding) the consumed
// prefix through the full combinator pipeline, so stateful per-job
// transforms (ExpandBBSource's RNG draws) advance exactly as the original
// run advanced them.
func Restore(w trace.Workload, method sched.Method, r io.Reader, opts ...Option) (*Simulator, error) {
	snap, err := checkpoint.Decode(r)
	if err != nil {
		return nil, err
	}
	s, err := NewSimulator(w, method, opts...)
	if err != nil {
		return nil, err
	}
	if err := s.restore(snap); err != nil {
		return nil, fmt.Errorf("sim: restore: %w", err)
	}
	return s, nil
}

// restore overwrites a freshly constructed simulator with the snapshot,
// which it owns: decoded slices are handed to the engine, not copied.
func (s *Simulator) restore(snap *checkpoint.Snapshot) error {
	// Identity: the snapshot must describe this exact run configuration.
	if snap.Workload != s.workload.Name {
		return fmt.Errorf("snapshot is of workload %q, restoring into %q", snap.Workload, s.workload.Name)
	}
	if m := s.plugin.Method().Name(); snap.Method != m {
		return fmt.Errorf("snapshot is of method %q, restoring into %q", snap.Method, m)
	}
	if snap.Seed != s.opt.seed {
		return fmt.Errorf("snapshot has seed %d, run has %d", snap.Seed, s.opt.seed)
	}
	if nc := s.cl.Snapshot().NumClasses(); int(snap.NumClasses) != nc {
		return fmt.Errorf("snapshot has %d node classes, machine has %d", snap.NumClasses, nc)
	}
	if ne := s.cl.NumExtra(); int(snap.NumExtra) != ne {
		return fmt.Errorf("snapshot has %d extra dimensions, machine has %d", snap.NumExtra, ne)
	}
	if snap.WarmEnd != s.warmEnd || snap.CoolStart != s.coolStart {
		return fmt.Errorf("snapshot measurement window [%d, %d] differs from run's [%d, %d]",
			snap.WarmEnd, snap.CoolStart, s.warmEnd, s.coolStart)
	}
	if snap.Hashed {
		if len(s.workload.Jobs) == 0 {
			return ErrSnapshotNeedsJobs
		}
		if snap.JobsHash != s.jobsHash() {
			return fmt.Errorf("snapshot is of other jobs than the workload's: they hash to %x, the workload's to %x", snap.JobsHash, s.jobsHash())
		}
	}

	// Source position. These fields decide which jobs count as finished
	// and where the source resumes, so a corrupt value must not get as far
	// as releasing a dependant early.
	if snap.Pulled < 0 {
		return fmt.Errorf("snapshot has negative pulled count %d", snap.Pulled)
	}
	if snap.DoneLow < 0 || snap.DoneLow > snap.Pulled {
		return fmt.Errorf("snapshot done watermark %d outside [0, %d pulled]", snap.DoneLow, snap.Pulled)
	}
	for _, id := range snap.DoneSparse {
		if id <= snap.DoneLow || id >= snap.Pulled {
			return fmt.Errorf("snapshot sparse done ID %d outside (%d, %d)", id, snap.DoneLow, snap.Pulled)
		}
	}
	for i, id := range snap.PendingIDs {
		if want := snap.Pulled - int64(len(snap.PendingIDs)-i); id != want {
			return fmt.Errorf("snapshot look-ahead buffer holds job %d where the tail of %d pulled jobs has %d", id, snap.Pulled, want)
		}
	}

	// Job table: each record names its job — the workload's own when it
	// carries jobs — and the state the run holds of it.
	type held struct {
		j   *job.Job
		rec *checkpoint.JobRecord
		in  string      // the container holding the job; "" until one does
		r   *runningJob // the job's running record, if it has started
		ev  bool        // r's end or release event is loaded
	}
	hs := make([]held, len(snap.Jobs))
	byID := make(map[int64]*held, len(snap.Jobs))
	// place puts job id in a container, which must be its only one and
	// hold jobs in the job's recorded state, one of lo to hi.
	place := func(container string, id int64, lo, hi job.State) (*held, error) {
		h := byID[id]
		switch {
		case h == nil:
			return nil, fmt.Errorf("snapshot %s references unknown job %d", container, id)
		case job.State(h.rec.State) < lo || job.State(h.rec.State) > hi:
			return nil, fmt.Errorf("snapshot %s holds job %d, whose state is %s", container, id, job.State(h.rec.State))
		case h.in == container:
			return nil, fmt.Errorf("snapshot %s lists job %d twice", container, id)
		case h.in != "":
			return nil, fmt.Errorf("snapshot holds job %d in both the %s and the %s", id, h.in, container)
		}
		h.in = container
		return h, nil
	}
	for i := range snap.Jobs {
		rec := &snap.Jobs[i]
		if _, dup := byID[rec.ID]; dup {
			return fmt.Errorf("snapshot repeats job %d", rec.ID)
		}
		if rec.State < int64(job.Queued) || rec.State > int64(job.Finished) {
			return fmt.Errorf("snapshot job %d has unknown state %d", rec.ID, rec.State)
		}
		j, err := s.recordJob(rec, snap.Pulled, snap.Hashed)
		if err != nil {
			return err
		}
		hs[i] = held{j: j, rec: rec}
		byID[rec.ID] = &hs[i]
	}

	// The containers below must agree with each record's one State: a job
	// waits (queue, arrival event, look-ahead buffer) until it starts, and
	// from then on is in the running set, where it stays past Finished
	// while its burst buffer drains. Every record is in exactly one of
	// them, and every running job has exactly one event: its end, or its
	// burst-buffer release while it stages out.

	// Running set: reinstall allocations through the cluster's validated
	// restore path and rebuild the release timeline exactly as start and
	// finish would have left it.
	var nodes []int // scratch: RestoreAllocation copies what it keeps
	for _, rr := range snap.Running {
		want := job.Running
		if rr.Staging {
			want = job.Finished // done but for its draining burst buffer (see finish)
		}
		h, err := place("running set", rr.JobID, want, want)
		if err != nil {
			return err
		}
		nodes = nodes[:0]
		for _, n := range rr.Alloc.NodesByClass {
			nodes = append(nodes, int(n))
		}
		stored, err := s.cl.RestoreAllocation(cluster.Allocation{
			JobID:        int(rr.JobID),
			NodesByClass: nodes,
			BB:           rr.Alloc.BB,
			WastedSSD:    rr.Alloc.WastedSSD,
			Extra:        rr.Alloc.Extra,
		})
		if err != nil {
			return err
		}
		h.r = &runningJob{j: h.j, alloc: stored, release: rr.Release, staging: rr.Staging, bbRelease: rr.BBRelease,
			start: h.rec.StartTime, end: h.rec.EndTime, age: int(h.rec.WindowAge)}
		s.planRelease(h.r)
	}

	// Queue: re-enter in ascending ID order, each job with its window age.
	// Window extraction depends only on the queue's priority total order,
	// so the rebuilt queue yields byte-identical windows regardless of the
	// original insertion order.
	for _, id := range snap.QueueIDs {
		h, err := place("queue", id, job.Queued, job.InWindow)
		if err != nil {
			return err
		}
		if err := s.q.AddAged(h.j, int(h.rec.WindowAge)); err != nil {
			return err
		}
	}

	// Look-ahead buffer, from the job table.
	for _, id := range snap.PendingIDs {
		h, err := place("look-ahead buffer", id, job.Queued, job.InWindow)
		if err != nil {
			return err
		}
		s.pending = append(s.pending, h.j)
	}

	// Event heap: records are stored in total order; verify and load
	// directly (a sorted array is a valid min-heap). An arrival event is
	// its job's container; an end or release event carries the running
	// job it ends, due when start or finish would have pushed it.
	for i, ev := range snap.Events {
		if ev.Kind < evEnd || ev.Kind > evArrive {
			return fmt.Errorf("snapshot event %d has unknown kind %d", i, ev.Kind)
		}
		if i > 0 && compareEventRecords(snap.Events[i-1], ev) >= 0 {
			return fmt.Errorf("snapshot events out of order at index %d", i)
		}
		if ev.Kind == evArrive {
			h, err := place("arrival event", ev.JobID, job.Queued, job.InWindow)
			if err != nil {
				return err
			}
			if ev.T != h.j.SubmitTime {
				return fmt.Errorf("snapshot arrival event for job %d at %d, which submits at %d", ev.JobID, ev.T, h.j.SubmitTime)
			}
			s.events = append(s.events, event{t: ev.T, kind: evArrive, j: h.j})
			continue
		}
		h := byID[ev.JobID]
		switch {
		case h == nil || h.r == nil:
			return fmt.Errorf("snapshot event %d ends job %d, which is not running", i, ev.JobID)
		case h.ev:
			return fmt.Errorf("snapshot has a second event for running job %d", ev.JobID)
		case h.r.staging != (ev.Kind == evBBRelease):
			return fmt.Errorf("snapshot event %d has kind %d for job %d, whose staging is %v", i, ev.Kind, ev.JobID, h.r.staging)
		}
		due := h.r.start + h.j.Runtime
		if h.r.staging {
			due = h.r.bbRelease
		}
		if ev.T != due {
			return fmt.Errorf("snapshot event %d ends job %d at %d, not %d", i, ev.JobID, ev.T, due)
		}
		h.ev = true
		s.events = append(s.events, event{t: ev.T, kind: int(ev.Kind), j: h.j, r: h.r})
	}

	// Finished-ID membership for dependency checks. The done set and the
	// containers partition the pulled jobs: a job is done or in flight,
	// and only a job staging out is both.
	s.done = doneSet{low: int(snap.DoneLow), base: int(snap.DoneLow) &^ 63}
	for _, id := range snap.DoneSparse {
		s.done.set(int(id))
	}
	for i := range hs {
		h := &hs[i]
		staging, done := h.r != nil && h.r.staging, s.done.has(h.j.ID)
		switch {
		case h.in == "":
			return fmt.Errorf("snapshot job %d is in no container", h.j.ID)
		case h.r != nil && !h.ev:
			return fmt.Errorf("snapshot running job %d has no pending event", h.j.ID)
		case done && !staging:
			return fmt.Errorf("snapshot done set names job %d, which is still in the %s", h.j.ID, h.in)
		case staging && !done:
			return fmt.Errorf("snapshot done set leaves out job %d, which is staging out", h.j.ID)
		}
	}
	if snap.Pulled-snap.DoneLow > int64(len(snap.Jobs)+len(snap.DoneSparse)) {
		return fmt.Errorf("snapshot done set leaves out some of the %d pulled jobs above its watermark", snap.Pulled-snap.DoneLow)
	}
	for id := s.done.low; id < int(snap.Pulled); id++ {
		if _, ok := byID[int64(id)]; !ok && !s.done.has(id) {
			return fmt.Errorf("snapshot done set leaves out pulled job %d, which is in no container", id)
		}
	}

	// Metric state.
	if err := s.restoreUsage(snap.Usage); err != nil {
		return err
	}
	s.collector.SetState(snap.Collector)
	if err := s.stats.SetState(snap.Stats); err != nil {
		return err
	}

	// RNG streams: the simulator stream resumes mid-sequence; the pooled
	// invocation stream is reconstructed when the snapshot carried one
	// (it is reseeded at the top of every scheduling pass, but restoring
	// it keeps the pre- and post-checkpoint state machines identical).
	s.rand.SetState(snap.Rand)
	if snap.HaveInvStream {
		s.invStream = rng.New(snap.InvStream.Seed)
		s.invStream.SetState(snap.InvStream)
	} else {
		s.invStream = nil
	}

	s.now = snap.Now
	s.invocations = int(snap.Invocations)
	s.decideTotal = time.Duration(snap.DecideTotalNS)
	s.decideMax = time.Duration(snap.DecideMaxNS)

	// Source position: skip the fresh source past the consumed prefix.
	s.pulled = int(snap.Pulled)
	s.lastSubmit = snap.LastSubmit
	s.srcDone = snap.SrcDone
	if !s.srcDone {
		if err := trace.Skip(s.source, s.pulled); err != nil {
			return fmt.Errorf("repositioning source at job %d: %w", s.pulled, err)
		}
	}

	// Cross-checks: the restored state must satisfy the same invariants
	// the live engine maintains.
	if err := s.cl.CheckInvariants(s.held); err != nil {
		return err
	}
	if err := s.timeline.CheckInvariant(); err != nil {
		return err
	}
	if s.usage.Nodes != s.cl.UsedNodes() || s.usage.BBGB != s.cl.UsedBB() {
		return fmt.Errorf("snapshot usage (%d nodes, %d GB BB) disagrees with allocations (%d nodes, %d GB BB)",
			s.usage.Nodes, s.usage.BBGB, s.cl.UsedNodes(), s.cl.UsedBB())
	}
	return nil
}

// restoreUsage overwrites the usage sample, keeping the engine's own
// Extra buffer.
func (s *Simulator) restoreUsage(u metrics.Usage) error {
	if len(u.Extra) != len(s.usage.Extra) {
		return fmt.Errorf("snapshot usage has %d extra dimensions, machine has %d", len(u.Extra), len(s.usage.Extra))
	}
	copy(s.usage.Extra, u.Extra)
	u.Extra = s.usage.Extra
	s.usage = u
	return nil
}

// recordJob returns the job a snapshot record names, one of the pulled
// jobs. A run over a workload's own jobs takes the workload's: a hashed
// snapshot's jobs hash alike (restore checked), and a record with trace
// fields must match the workload's job in every one. A run fed by a source
// builds the job from the record, which carries the full static
// description (the job takes over the record's demand vector), and holds
// it to what the source's contract asks of a pulled job.
func (s *Simulator) recordJob(rec *checkpoint.JobRecord, pulled int64, hashed bool) (*job.Job, error) {
	if rec.ID < 0 || rec.ID >= pulled {
		return nil, fmt.Errorf("snapshot job %d is not one of the %d jobs pulled", rec.ID, pulled)
	}
	if base := s.workload.Jobs; len(base) > 0 {
		if rec.ID >= int64(len(base)) {
			return nil, fmt.Errorf("snapshot job %d is not in the workload", rec.ID)
		}
		j := base[rec.ID]
		if !hashed && (j.User != rec.User || j.SubmitTime != rec.SubmitTime || j.Runtime != rec.Runtime ||
			j.WalltimeEst != rec.WalltimeEst || !j.Demand.Equal(job.Demand{Res: rec.Res}) ||
			j.StageOutSec != rec.StageOutSec || !slices.EqualFunc(j.Deps, rec.Deps, func(d int, r int64) bool { return int64(d) == r })) {
			return nil, fmt.Errorf("snapshot job %d static fields differ from the workload's", rec.ID)
		}
		return j, nil
	}
	j := &job.Job{
		ID:          int(rec.ID),
		User:        rec.User,
		SubmitTime:  rec.SubmitTime,
		Runtime:     rec.Runtime,
		WalltimeEst: rec.WalltimeEst,
		Demand:      job.Demand{Res: rec.Res},
		StageOutSec: rec.StageOutSec,
		Deps:        i64ToInts(rec.Deps),
	}
	if err := s.admissible(j); err != nil {
		return nil, fmt.Errorf("snapshot job %d: %w", rec.ID, err)
	}
	return j, nil
}

func compareEventRecords(a, b checkpoint.EventRecord) int {
	return cmp.Or(cmp.Compare(a.T, b.T), cmp.Compare(a.Kind, b.Kind), cmp.Compare(a.JobID, b.JobID))
}

func i64ToInts(xs []int64) []int {
	if xs == nil {
		return nil
	}
	out := make([]int, len(xs))
	for i, x := range xs {
		out[i] = int(x)
	}
	return out
}
