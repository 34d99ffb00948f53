package trace

import (
	"fmt"
	"io"

	"bbsched/internal/job"
	"bbsched/internal/rng"
)

// JobSource is the streaming workload contract: a pull-based iterator over
// jobs in non-decreasing submit-time order with dense IDs (0, 1, 2, … in
// submission order), terminated by io.EOF. It exists so month- or
// year-scale archive logs (millions of jobs) can drive the simulator
// without ever being materialized: the event loop pulls arrivals lazily
// and memory stays bounded by queue depth plus a small look-ahead window.
//
// Sources are single-use. A drained (or failed) source stays drained;
// callers that need to replay open a fresh source.
//
// Returned jobs are read-only: a source may hand the same job to every
// run that reads it (SliceSource hands out its slice's own jobs), and a
// transform (StageOutSource, ExpandBBSource, AddSSDSource) hands on a
// changed copy instead of writing the job it pulled.
type JobSource interface {
	// Next returns the next job in submit order, or io.EOF when the
	// stream is exhausted.
	Next() (*job.Job, error)
}

// sequence checks the order JobSource promises, one job at a time: IDs
// dense from 0, submit times non-decreasing, deps on earlier jobs only.
type sequence struct {
	next       int
	lastSubmit int64
}

func (q *sequence) check(j *job.Job) error {
	if j.ID != q.next {
		return fmt.Errorf("job ID %d breaks the dense submit-order sequence (want %d)", j.ID, q.next)
	}
	if j.SubmitTime < q.lastSubmit {
		return fmt.Errorf("job %d submits at %d, before previous job's %d", j.ID, j.SubmitTime, q.lastSubmit)
	}
	for _, d := range j.Deps {
		if d < 0 || d >= j.ID {
			return fmt.Errorf("job %d dep %d does not reference an earlier job", j.ID, d)
		}
	}
	q.next++
	q.lastSubmit = j.SubmitTime
	return nil
}

// Horizoner is an optional JobSource refinement for sources that know
// their last submission time up front (e.g. SliceSource over a
// materialized workload). The simulator uses it to resolve fractional
// warmup/cooldown measurement windows; sources without a known horizon
// require an absolute window (sim.WithMeasureWindow) or none.
type Horizoner interface {
	// Horizon returns the last submission time and true, or (0, false)
	// when the horizon is unknown until the stream drains.
	Horizon() (int64, bool)
}

// Closer is implemented by file-backed sources (OpenSWF/OpenCSV). Sources
// close themselves when drained; Close exists for early abandonment.
type Closer interface {
	Close() error
}

// SliceSource adapts a materialized job slice to the JobSource contract,
// so any Workload that validates can be replayed through WithSource. Next
// hands out the slice's own jobs, which no reader writes.
type SliceSource struct {
	jobs    []*job.Job
	i       int
	horizon int64
	haveHor bool
}

// NewSliceSource returns a source over jobs, which must already be in
// submit order with dense IDs (as every Workload constructor guarantees).
func NewSliceSource(jobs []*job.Job) *SliceSource {
	return &SliceSource{jobs: jobs}
}

// SourceOf returns a SliceSource over the workload's jobs.
func SourceOf(w Workload) *SliceSource { return NewSliceSource(w.Jobs) }

// Next implements JobSource.
func (s *SliceSource) Next() (*job.Job, error) {
	if s.i >= len(s.jobs) {
		return nil, io.EOF
	}
	j := s.jobs[s.i]
	s.i++
	return j, nil
}

// Horizon implements Horizoner: the backing slice's last submit time.
func (s *SliceSource) Horizon() (int64, bool) {
	if !s.haveHor {
		for _, j := range s.jobs {
			if j.SubmitTime > s.horizon {
				s.horizon = j.SubmitTime
			}
		}
		s.haveHor = true
	}
	return s.horizon, true
}

// Remaining returns the number of jobs not yet pulled.
func (s *SliceSource) Remaining() int { return len(s.jobs) - s.i }

// Skipper is an optional JobSource refinement for sources that can
// discard a prefix without materializing it. Only sources whose position
// is their sole state may implement it: a combinator whose per-job
// transform draws from an RNG (ExpandBBSource, AddSSDSource) must NOT —
// fast-forwarding past its draws would desynchronize the stream — so the
// generic Skip below pulls and discards through the full pipeline.
type Skipper interface {
	// Skip discards the next n jobs, or errors (io.EOF if the stream ends
	// first).
	Skip(n int) error
}

// Skip discards the next n jobs from src: via the Skipper fast path when
// src offers one, otherwise by pulling and discarding so every stateful
// combinator in the pipeline advances exactly as a real replay would.
// Restoring a checkpointed run uses it to reposition a freshly opened
// source at the consumed-jobs mark.
func Skip(src JobSource, n int) error {
	if n <= 0 {
		return nil
	}
	if sk, ok := src.(Skipper); ok {
		return sk.Skip(n)
	}
	for i := 0; i < n; i++ {
		if _, err := src.Next(); err != nil {
			if err == io.EOF {
				return fmt.Errorf("trace: skip %d: stream ended after %d jobs: %w", n, i, err)
			}
			return err
		}
	}
	return nil
}

// Skip implements Skipper: a slice source's position is its only state,
// so skipping is an index bump.
func (s *SliceSource) Skip(n int) error {
	if n < 0 {
		n = 0
	}
	if s.i+n > len(s.jobs) {
		skipped := len(s.jobs) - s.i
		s.i = len(s.jobs)
		return fmt.Errorf("trace: skip %d: stream ended after %d jobs: %w", n, skipped, io.EOF)
	}
	s.i += n
	return nil
}

// Collect drains src into a slice — the inverse of NewSliceSource, for
// tests and for callers that want a materialized workload after all.
func Collect(src JobSource) ([]*job.Job, error) {
	var jobs []*job.Job
	for {
		j, err := src.Next()
		if err == io.EOF {
			return jobs, nil
		}
		if err != nil {
			return nil, err
		}
		jobs = append(jobs, j)
	}
}

// wrapped is a combinator's source. Its Close forwards to that source:
// early abandonment of a capped or transformed file stream must release
// the file.
type wrapped struct{ src JobSource }

// Close implements Closer.
func (w wrapped) Close() error {
	if c, ok := w.src.(Closer); ok {
		return c.Close()
	}
	return nil
}

// limitSource caps a stream at n jobs.
type limitSource struct {
	wrapped
	left int
}

// LimitSource returns a source that yields at most n jobs from src (the
// streaming analogue of SWFOptions.MaxJobs / truncating a slice). The
// horizon, if src knows one, is discarded — truncation changes it.
func LimitSource(src JobSource, n int) JobSource {
	return &limitSource{wrapped: wrapped{src}, left: n}
}

func (l *limitSource) Next() (*job.Job, error) {
	if l.left <= 0 {
		l.Close()
		return nil, io.EOF
	}
	j, err := l.src.Next()
	if err != nil {
		return nil, err
	}
	l.left--
	return j, nil
}

// mapSource applies a per-job transform, which returns the job it was
// given when it changes nothing and a changed copy otherwise. Transforms
// never change submit times, so a known horizon passes through.
type mapSource struct {
	wrapped
	fn func(*job.Job) *job.Job
}

func (m *mapSource) Next() (*job.Job, error) {
	j, err := m.src.Next()
	if err != nil {
		return nil, err
	}
	return m.fn(j), nil
}

func (m *mapSource) Horizon() (int64, bool) {
	if h, ok := m.src.(Horizoner); ok {
		return h.Horizon()
	}
	return 0, false
}

// StageOutSource is the streaming counterpart of WithStageOut: every
// burst-buffer job is given a stage-out phase of bb_size / drainGBps
// seconds; non-BB jobs have stage-out cleared.
func StageOutSource(src JobSource, drainGBps float64) JobSource {
	if drainGBps <= 0 {
		return src
	}
	return &mapSource{wrapped: wrapped{src}, fn: func(j *job.Job) *job.Job {
		var sec int64
		if bb := j.Demand.BB(); bb > 0 {
			sec = int64(float64(bb) / drainGBps)
		}
		if sec == j.StageOutSec {
			return j
		}
		c := *j
		c.StageOutSec = sec
		return &c
	}}
}

// ExpandBBSource is the streaming counterpart of the paper's S1–S4
// expansion (ExpandBB): jobs without a burst-buffer request are converted
// with a per-job probability chosen so the expected BB-requesting
// fraction reaches frac, each converted job drawing a fresh heavy-tailed
// request in [floorGB, sys.MaxBBRequestGB].
//
// It is an approximation of the materialized ExpandBB, which hits frac
// exactly and resamples from the trace's own request pool — a stream has
// neither a known length nor a materialized pool. Distributionally the
// two match the same calibration targets; byte-for-byte they differ.
func ExpandBBSource(src JobSource, sys SystemModel, frac float64, floorGB int64, seed uint64) JobSource {
	base := sys.BBFraction
	p := 0.0
	if frac > base && base < 1 {
		p = (frac - base) / (1 - base)
	}
	s := rng.New(seed).Split("expand-stream:" + sys.Cluster.Name)
	return &mapSource{wrapped: wrapped{src}, fn: func(j *job.Job) *job.Job {
		if j.Demand.BB() == 0 && s.Bool(p) {
			return withDemand(j, job.BurstBufferGB, sampleBB(s, floorGB, sys.MaxBBRequestGB))
		}
		return j
	}}
}

// AddSSDSource is the streaming counterpart of AddSSD: per-job local-SSD
// demands drawn per mix against the SSD-equipped variant of sys, which is
// returned alongside the source (jobs wider than the big-SSD node class
// receive small requests, as in AddSSD).
func AddSSDSource(src JobSource, sys SystemModel, mix SSDMix, seed uint64) (JobSource, SystemModel) {
	return addSSD(src, sys, mix, rng.New(seed).Split("ssd-stream:"+sys.Cluster.Name))
}

// addSSD is AddSSD and AddSSDSource, drawing from s.
func addSSD(src JobSource, sys SystemModel, mix SSDMix, s *rng.Stream) (JobSource, SystemModel) {
	out := WithSSD(sys)
	bigNodes := 0
	for _, cl := range out.Cluster.SSDClasses {
		if cl.CapacityGB > 128 {
			bigNodes += cl.Count
		}
	}
	return &mapSource{wrapped: wrapped{src}, fn: func(j *job.Job) *job.Job {
		var ssd int64
		if s.Bool(mix.SmallFrac) || j.Demand.NodeCount() > bigNodes {
			ssd = s.Int63n(128) + 1 // (0,128]
		} else {
			ssd = 128 + s.Int63n(128) + 1 // (128,256]
		}
		return withDemand(j, job.LocalSSDGBPerNode, ssd)
	}}, out
}

// withDemand returns a copy of j whose demand in dimension r is v.
func withDemand(j *job.Job, r job.Resource, v int64) *job.Job {
	c := *j
	c.Demand = j.Demand.Clone()
	c.Demand.Set(r, v)
	return &c
}

// EstimateBBFloors returns S1/S2 and S3/S4 resample floors for streams
// over sys, where BBFloors' input workload does not exist. It calibrates
// exactly like BBFloors but estimates the mean job size from a small
// pilot workload generated for sys — deterministic in (sys, seed) and
// independent of the stream's length.
func EstimateBBFloors(sys SystemModel, seed uint64) (moderate, heavy int64) {
	pilot := Generate(GenConfig{System: sys, Jobs: 512, Seed: seed})
	return BBFloors(pilot)
}

// ApplyVariantSource derives the named workload variant (see Variants) as
// a source combinator — the streaming counterpart of ApplyVariant. It
// returns the wrapped source, the system the variant targets (SSD
// variants switch to the SSD-equipped machine), and the conventional
// "<cluster>-<variant>" workload name. Expansion floors come from
// EstimateBBFloors; fractions and seed offsets are ApplyVariant's.
func ApplyVariantSource(src JobSource, sys SystemModel, variant string, seed uint64) (JobSource, SystemModel, string, error) {
	spec, err := lookupVariant(variant)
	if err != nil {
		return nil, SystemModel{}, "", err
	}
	name := sys.Cluster.Name + "-" + spec.name
	switch {
	case spec.mix != nil:
		s2, _, _, _ := ApplyVariantSource(src, sys, "S2", seed)
		src, sys = AddSSDSource(s2, sys, *spec.mix, seed+spec.off)
	case spec.frac > 0:
		src = ExpandBBSource(src, sys, spec.frac, spec.floor(EstimateBBFloors(sys, seed)), seed+spec.off)
	}
	return src, sys, name, nil
}
