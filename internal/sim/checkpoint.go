package sim

import (
	"cmp"
	"fmt"
	"io"
	"slices"
	"sort"
	"time"

	"bbsched/internal/backfill"
	"bbsched/internal/checkpoint"
	"bbsched/internal/cluster"
	"bbsched/internal/job"
	"bbsched/internal/metrics"
	"bbsched/internal/rng"
	"bbsched/internal/sched"
	"bbsched/internal/trace"
)

// Checkpoint serializes the simulator's complete state to w in the
// versioned internal/checkpoint format. Call it only at an event
// boundary — after NewSimulator, between Step calls, or after the run
// drains; never from inside an Observer callback, where an instant is
// half-processed. Restore rebuilds an equivalent simulator that
// continues with a byte-identical event stream and an identical Result.
//
// The snapshot covers the engine: clock, event heap, queue membership,
// running set with live allocations, usage/collector integrals, the
// per-job metric accumulator, RNG streams, and source position. It
// does not cover custom stateful components supplied by the caller —
// Observers, a stateful method (e.g. core.Adaptive), or a method whose
// solver carries cross-invocation state — which must be reconstructed
// (or accepted as reset) by the caller on Restore.
func (s *Simulator) Checkpoint(w io.Writer) error {
	return checkpoint.Encode(w, s.snapshot())
}

// snapshot captures the simulator state as a checkpoint.Snapshot. The
// snapshot borrows the engine's int64 slices (demand vectors, allocation
// and usage extras) instead of copying them: it must be encoded before
// the engine moves again, which Checkpoint does.
func (s *Simulator) snapshot() *checkpoint.Snapshot {
	snap := &checkpoint.Snapshot{
		Workload:      s.workload.Name,
		Method:        s.plugin.Method().Name(),
		Seed:          s.opt.seed,
		NumClasses:    int64(s.cl.Snapshot().NumClasses()),
		NumExtra:      int64(s.cl.NumExtra()),
		Now:           s.now,
		Invocations:   int64(s.invocations),
		DecideTotalNS: int64(s.decideTotal),
		DecideMaxNS:   int64(s.decideMax),
		WarmEnd:       s.warmEnd,
		CoolStart:     s.coolStart,
	}

	// Job table: every job still referenced by the engine, sorted by ID,
	// with the state its container holds of it. Each such job is in one
	// container: the queue, the running set, an arrival event or the
	// look-ahead buffer (the other events name running jobs). Jobs not yet
	// pulled are not state — restore re-reads them from the repositioned
	// source — and neither are finished ones, which finish has already
	// folded into stats.
	snap.QueueIDs = make([]int64, 0, s.q.Len())
	for j, age := range s.q.Waiting() {
		snap.Jobs = append(snap.Jobs, jobRecord(j, job.Queued, -1, -1, age))
		snap.QueueIDs = append(snap.QueueIDs, int64(j.ID))
	}
	slices.Sort(snap.QueueIDs)
	for _, r := range s.running {
		state := job.Running
		if r.staging {
			state = job.Finished // done but for its draining burst buffer (see finish)
		}
		snap.Jobs = append(snap.Jobs, jobRecord(r.j, state, r.start, r.end, r.age))
	}
	for _, ev := range s.events {
		if ev.kind == evArrive {
			snap.Jobs = append(snap.Jobs, jobRecord(ev.j, job.Queued, -1, -1, 0))
		}
	}
	for _, j := range s.pending[s.pendHead:] {
		snap.Jobs = append(snap.Jobs, jobRecord(j, job.Queued, -1, -1, 0))
	}
	slices.SortFunc(snap.Jobs, func(a, b checkpoint.JobRecord) int { return cmp.Compare(a.ID, b.ID) })

	// Event heap, serialized in total (time, kind, job ID) order. A
	// sorted array satisfies the heap property, so restore reloads it
	// without re-sifting and pops in the identical order.
	snap.Events = make([]checkpoint.EventRecord, 0, len(s.events))
	for _, ev := range s.events {
		snap.Events = append(snap.Events, checkpoint.EventRecord{
			T: ev.t, Kind: int64(ev.kind), JobID: int64(ev.j.ID),
		})
	}
	sort.Slice(snap.Events, func(a, b int) bool {
		return eventRecordLess(snap.Events[a], snap.Events[b])
	})

	runIDs := make([]int, 0, len(s.running))
	for id := range s.running {
		runIDs = append(runIDs, id)
	}
	sort.Ints(runIDs)
	snap.Running = make([]checkpoint.RunningRecord, 0, len(runIDs))
	for _, id := range runIDs {
		r := s.running[id]
		snap.Running = append(snap.Running, checkpoint.RunningRecord{
			JobID:     int64(id),
			Release:   r.release,
			Staging:   r.staging,
			BBRelease: r.bbRelease,
			Alloc: checkpoint.AllocRecord{
				NodesByClass: intsToI64(r.alloc.NodesByClass),
				BB:           r.alloc.BB,
				WastedSSD:    r.alloc.WastedSSD,
				Extra:        r.alloc.Extra,
			},
		})
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
	snap.PendingIDs = make([]int64, 0, len(s.pending)-s.pendHead)
	for _, j := range s.pending[s.pendHead:] {
		snap.PendingIDs = append(snap.PendingIDs, int64(j.ID))
	}
	snap.DoneLow = int64(s.doneLow)
	snap.DoneSparse = make([]int64, 0, len(s.doneSparse))
	for id := range s.doneSparse {
		snap.DoneSparse = append(snap.DoneSparse, int64(id))
	}
	sort.Slice(snap.DoneSparse, func(a, b int) bool { return snap.DoneSparse[a] < snap.DoneSparse[b] })
	return snap
}

// Restore builds a simulator over the same workload, method, and options
// as the checkpointed run and resumes it from the snapshot read from r.
// The resumed simulator continues with a byte-identical event stream and
// produces the exact Result of an uninterrupted run.
//
// The caller must pass the same workload, method, and options the
// original run was built with — Restore validates the snapshot's
// identity (workload and method names, seed, metrics mode, machine
// shape, measurement window) against them and refuses mismatches. How
// the jobs are supplied may differ as long as they are the same jobs: a
// snapshot of a run over a workload's own jobs restores under
// WithSource(trace.SourceOf(w)) on the job-less shell, and the reverse.
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
	}
	byID := make(map[int64]held, len(snap.Jobs))
	// ref resolves a job ID one of the snapshot's containers holds.
	ref := func(container string, id int64) (held, error) {
		if h, ok := byID[id]; ok {
			return h, nil
		}
		return held{}, fmt.Errorf("snapshot %s references unknown job %d", container, id)
	}
	for i := range snap.Jobs {
		rec := &snap.Jobs[i]
		if _, dup := byID[rec.ID]; dup {
			return fmt.Errorf("snapshot repeats job %d", rec.ID)
		}
		if rec.State < int64(job.Queued) || rec.State > int64(job.Finished) {
			return fmt.Errorf("snapshot job %d has unknown state %d", rec.ID, rec.State)
		}
		j, err := s.recordJob(rec, snap.Pulled)
		if err != nil {
			return err
		}
		byID[rec.ID] = held{j, rec}
	}

	// Event heap: records are stored in total order; verify and load
	// directly (a sorted array is a valid min-heap).
	for i, ev := range snap.Events {
		if ev.Kind < evEnd || ev.Kind > evArrive {
			return fmt.Errorf("snapshot event %d has unknown kind %d", i, ev.Kind)
		}
		if i > 0 && !eventRecordLess(snap.Events[i-1], ev) {
			return fmt.Errorf("snapshot events out of order at index %d", i)
		}
		h, err := ref("event", ev.JobID)
		if err != nil {
			return err
		}
		s.events = append(s.events, event{t: ev.T, kind: int(ev.Kind), j: h.j})
	}

	// The containers below must agree with each record's one State: a job
	// waits (queue, look-ahead buffer) until it starts, and from then on
	// is in the running set, where it stays past Finished while its burst
	// buffer drains. Holding each member to the state its container
	// implies also keeps an ID off both sides at once.

	// Queue: re-enter in ascending ID order, each job with its window age.
	// Window extraction depends only on the queue's priority total order,
	// so the rebuilt queue yields byte-identical windows regardless of the
	// original insertion order.
	for _, id := range snap.QueueIDs {
		h, err := ref("queue", id)
		if err != nil {
			return err
		}
		if st := job.State(h.rec.State); st >= job.Running {
			return fmt.Errorf("snapshot queue holds job %d, whose state is %s", id, st)
		}
		if err := s.q.AddAged(h.j, int(h.rec.WindowAge)); err != nil {
			return err
		}
	}

	// Running set: reinstall allocations through the cluster's validated
	// restore path and rebuild the release timeline exactly as start and
	// finish would have left it.
	var nodes []int // scratch: RestoreAllocation copies what it keeps
	for _, rr := range snap.Running {
		h, err := ref("running set", rr.JobID)
		if err != nil {
			return err
		}
		want := job.Running
		if rr.Staging {
			want = job.Finished // done but for its draining burst buffer (see finish)
		}
		if st := job.State(h.rec.State); st != want {
			return fmt.Errorf("snapshot running set (staging=%v) holds job %d, whose state is %s, not %s",
				rr.Staging, rr.JobID, st, want)
		}
		j := h.j
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
		r := &runningJob{j: j, alloc: stored, release: rr.Release, staging: rr.Staging, bbRelease: rr.BBRelease,
			start: h.rec.StartTime, end: h.rec.EndTime, age: int(h.rec.WindowAge)}
		s.running[j.ID] = r
		switch {
		case r.staging:
			// Nodes already released; only the draining burst buffer remains.
			s.timeline.Insert(backfill.Running{ReleaseTime: r.bbRelease, JobID: j.ID, BB: j.Demand.BB()})
		case j.StageOutSec > 0 && j.Demand.BB() > 0:
			s.timeline.Insert(backfill.Running{ReleaseTime: r.release, JobID: j.ID, NodesByClass: stored.NodesByClass, Extra: stored.Extra})
			s.timeline.Insert(backfill.Running{ReleaseTime: r.release + j.StageOutSec, JobID: j.ID, BB: j.Demand.BB()})
		default:
			s.timeline.Insert(backfill.Running{
				ReleaseTime:  r.release,
				JobID:        j.ID,
				NodesByClass: stored.NodesByClass,
				BB:           j.Demand.BB(),
				Extra:        stored.Extra,
			})
		}
	}

	// Finished-ID membership for dependency checks.
	s.doneLow = int(snap.DoneLow)
	for _, id := range snap.DoneSparse {
		s.doneSparse[int(id)] = struct{}{}
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

	// Source position: rebuild the look-ahead buffer from the job table
	// and skip the fresh source past the consumed prefix.
	for _, id := range snap.PendingIDs {
		h, err := ref("look-ahead buffer", id)
		if err != nil {
			return err
		}
		if st := job.State(h.rec.State); st >= job.Running {
			return fmt.Errorf("snapshot look-ahead buffer holds job %d, whose state is %s", id, st)
		}
		s.pending = append(s.pending, h.j)
	}
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
	if err := s.cl.CheckInvariants(); err != nil {
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

// jobRecord records job j with the state the run holds of it.
func jobRecord(j *job.Job, state job.State, start, end int64, age int) checkpoint.JobRecord {
	return checkpoint.JobRecord{
		ID:          int64(j.ID),
		User:        j.User,
		SubmitTime:  j.SubmitTime,
		Runtime:     j.Runtime,
		WalltimeEst: j.WalltimeEst,
		Res:         j.Demand.Res,
		StageOutSec: j.StageOutSec,
		Deps:        intsToI64(j.Deps),
		State:       int64(state),
		StartTime:   start,
		EndTime:     end,
		WindowAge:   int64(age),
	}
}

// recordJob returns the job a snapshot record names, one of the pulled
// jobs. A run over a workload's own jobs takes the workload's, once the
// record matches it in every static field. A run fed by a source builds
// it from the record, which carries the full static description (the job
// takes over the record's demand vector), and holds it to what the
// source's contract asks of a pulled job.
func (s *Simulator) recordJob(rec *checkpoint.JobRecord, pulled int64) (*job.Job, error) {
	if rec.ID < 0 || rec.ID >= pulled {
		return nil, fmt.Errorf("snapshot job %d is not one of the %d jobs pulled", rec.ID, pulled)
	}
	if base := s.workload.Jobs; len(base) > 0 {
		if rec.ID >= int64(len(base)) {
			return nil, fmt.Errorf("snapshot job %d is not in the workload", rec.ID)
		}
		j := base[rec.ID]
		if j.User != rec.User || j.SubmitTime != rec.SubmitTime || j.Runtime != rec.Runtime ||
			j.WalltimeEst != rec.WalltimeEst || !j.Demand.Equal(job.Demand{Res: rec.Res}) ||
			j.StageOutSec != rec.StageOutSec || !slices.EqualFunc(j.Deps, rec.Deps, func(d int, r int64) bool { return int64(d) == r }) {
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

func eventRecordLess(a, b checkpoint.EventRecord) bool {
	if a.T != b.T {
		return a.T < b.T
	}
	if a.Kind != b.Kind {
		return a.Kind < b.Kind
	}
	return a.JobID < b.JobID
}

func intsToI64(xs []int) []int64 {
	if xs == nil {
		return nil
	}
	out := make([]int64, len(xs))
	for i, x := range xs {
		out[i] = int64(x)
	}
	return out
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
