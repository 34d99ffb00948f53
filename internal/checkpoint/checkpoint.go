// Package checkpoint defines the versioned binary snapshot format for the
// simulator's complete state — clock, event heap, queue membership,
// running set with allocations, collector integrals, P² sketches, RNG
// streams, and source position — so a run can pause on one
// worker and resume bit-identically on another (the farm subsystem's
// migration primitive).
//
// The format is deterministic: encoding the same Snapshot always yields
// the same bytes (every collection is stored in a canonical order chosen
// by the producer, internal/sim). The decoder is defensive: it never
// panics on truncated or corrupted input, never preallocates from an
// attacker-controlled length, and rejects unknown format versions up
// front, returning errors for everything else it can detect structurally.
// Semantic validity (allocations fitting the machine, event-heap order,
// job-state consistency) is enforced by sim.Restore, which re-plays the
// snapshot into a live engine through the same invariant-checked APIs the
// original run used.
//
// The package deliberately has no dependencies on the engine packages:
// records mirror engine state as plain integers, floats, and strings, so
// the wire format cannot drift when an engine type gains a field without
// a deliberate Version bump here.
package checkpoint

import (
	"fmt"
	"io"
	"math"
)

// magic identifies a BBSched checkpoint stream.
const magic = "BBCP"

// Version is the snapshot format version this build reads and writes.
// Any incompatible change to Snapshot or the field order below must bump
// it; Decode rejects other versions with ErrVersion.
//
// Version 2 dropped the materialized/streaming split: every run records
// its source position and watermark done-set, so the Streaming flag and
// the DoneIDs list of version 1 are gone.
const Version = 2

// ErrVersion reports a snapshot written by an incompatible format version.
var ErrVersion = fmt.Errorf("checkpoint: incompatible snapshot version")

// maxString bounds decoded string lengths (names only — nothing longer
// belongs in a snapshot).
const maxString = 1 << 16

// prealloc caps speculative slice preallocation so a corrupted length
// cannot OOM the decoder; longer slices grow element-by-element and fail
// fast on truncation instead.
const prealloc = 4096

// JobRecord is one job's full state: the static submission fields (so
// restore can reconstruct the job without a materialized workload to look
// it up in) plus the simulator-owned mutable fields.
type JobRecord struct {
	ID          int64
	User        string
	SubmitTime  int64
	Runtime     int64
	WalltimeEst int64
	Res         []int64 // demand vector, canonical + extra dimensions
	StageOutSec int64
	Deps        []int64

	State     int64
	StartTime int64
	EndTime   int64
	WindowAge int64
}

// AllocRecord mirrors a cluster allocation's held resources.
type AllocRecord struct {
	NodesByClass []int64
	BB           int64
	WastedSSD    int64
	Extra        []int64
}

// RunningRecord is one entry of the running set: the job, its expected
// node-release time, the stage-out drain state, and the live allocation.
type RunningRecord struct {
	JobID     int64
	Release   int64
	Staging   bool
	BBRelease int64
	Alloc     AllocRecord
}

// EventRecord is one pending event as its total-order key (time, kind,
// job ID). Events are stored sorted by that key; a sorted array is a
// valid binary min-heap, so restore reloads the heap with no re-sift.
type EventRecord struct {
	T     int64
	Kind  int64
	JobID int64
}

// RNGRecord is one rng.Stream's state: seed plus xoshiro256** words.
type RNGRecord struct {
	Seed uint64
	Src  [4]uint64
}

// UsageRecord mirrors metrics.Usage.
type UsageRecord struct {
	Nodes          int64
	BBGB           int64
	SSDAssignedGB  int64
	SSDRequestedGB int64
	Extra          []int64
}

// CollectorRecord mirrors metrics.CollectorState.
type CollectorRecord struct {
	LastT   int64
	Started bool
	Cur     UsageRecord

	NodeSec         float64
	BBSec           float64
	SSDAssignedSec  float64
	SSDRequestedSec float64
	ExtraSec        []float64

	FirstT int64
	LastTs int64

	Windowed bool
	WinStart int64
	WinEnd   int64
}

// QuantileRecord mirrors metrics.QuantileState (one P² sketch).
type QuantileRecord struct {
	P     float64
	Count int64
	Q     [5]float64
	N     [5]float64
	NP    [5]float64
	DN    [5]float64
}

// JobStatsRecord mirrors metrics.JobStatsState (the bounded-memory
// streaming accumulator).
type JobStatsRecord struct {
	N       int64
	WaitSum float64
	SdSum   float64

	SizeSums   []float64
	SizeCounts []int64
	BBSums     []float64
	BBCounts   []int64
	RTSums     []float64
	RTCounts   []int64

	P50, P90, P99 QuantileRecord
}

// Snapshot is the complete serialized state of a Simulator at an event
// boundary. internal/sim produces and consumes it; the farm ships it as
// opaque bytes.
type Snapshot struct {
	// Identity — Restore refuses a snapshot whose identity does not match
	// the run it is being restored into.
	Workload    string
	Method      string
	Seed        uint64
	StreamStats bool // bounded-memory metrics (WithStreamingMetrics)
	NumClasses  int64
	NumExtra    int64

	// Clock and counters.
	Now           int64
	Invocations   int64
	DecideTotalNS int64
	DecideMaxNS   int64
	WarmEnd       int64
	CoolStart     int64

	// Jobs holds every job still referenced by the engine (events, queue,
	// running set, look-ahead buffer, retained finished list), sorted by
	// ID. The collections below reference entries by ID.
	Jobs []JobRecord
	// Events is the pending event set sorted by (T, Kind, JobID).
	Events []EventRecord
	// QueueIDs is the waiting set, ascending. Restore re-Adds the jobs in
	// this order; queue behavior depends only on its priority total order,
	// so any insertion order reproduces identical windows.
	QueueIDs []int64
	// Running is the running set sorted by job ID.
	Running []RunningRecord
	// FinishedIDs is the retained finished list in completion order —
	// metric sums are accumulated in this order, so it is order-critical.
	// Empty under StreamStats, which retains sums instead of jobs.
	FinishedIDs []int64

	// Metric state.
	Usage     UsageRecord
	Collector CollectorRecord
	HaveStats bool
	Stats     JobStatsRecord

	// RNG streams.
	Rand          RNGRecord
	HaveInvStream bool
	InvStream     RNGRecord

	// Source position: jobs consumed off the source, the last admitted
	// submit time, whether the source has drained, the look-ahead buffer
	// (job IDs in pull order), and the finished-ID watermark + sparse
	// overflow.
	Pulled     int64
	LastSubmit int64
	SrcDone    bool
	PendingIDs []int64
	DoneLow    int64
	DoneSparse []int64 // ascending
}

// Encode writes the snapshot to w in format Version.
func Encode(w io.Writer, s *Snapshot) error {
	e := &encoder{w: w}
	e.bytes([]byte(magic))
	e.u32(Version)

	e.str(s.Workload)
	e.str(s.Method)
	e.u64(s.Seed)
	e.bool(s.StreamStats)
	e.i64(s.NumClasses)
	e.i64(s.NumExtra)

	e.i64(s.Now)
	e.i64(s.Invocations)
	e.i64(s.DecideTotalNS)
	e.i64(s.DecideMaxNS)
	e.i64(s.WarmEnd)
	e.i64(s.CoolStart)

	e.u32(uint32(len(s.Jobs)))
	for i := range s.Jobs {
		e.job(&s.Jobs[i])
	}
	e.u32(uint32(len(s.Events)))
	for _, ev := range s.Events {
		e.i64(ev.T)
		e.i64(ev.Kind)
		e.i64(ev.JobID)
	}
	e.i64s(s.QueueIDs)
	e.u32(uint32(len(s.Running)))
	for i := range s.Running {
		e.running(&s.Running[i])
	}
	e.i64s(s.FinishedIDs)

	e.usage(&s.Usage)
	e.collector(&s.Collector)
	e.bool(s.HaveStats)
	if s.HaveStats {
		e.stats(&s.Stats)
	}

	e.rng(&s.Rand)
	e.bool(s.HaveInvStream)
	if s.HaveInvStream {
		e.rng(&s.InvStream)
	}

	e.i64(s.Pulled)
	e.i64(s.LastSubmit)
	e.bool(s.SrcDone)
	e.i64s(s.PendingIDs)
	e.i64(s.DoneLow)
	e.i64s(s.DoneSparse)
	return e.err
}

// Decode reads a snapshot from r. It errors (never panics) on truncated,
// corrupted, or version-skewed input.
func Decode(r io.Reader) (*Snapshot, error) {
	d := &decoder{r: r}
	var m [4]byte
	d.bytes(m[:])
	if d.err == nil && string(m[:]) != magic {
		return nil, fmt.Errorf("checkpoint: bad magic %q", m[:])
	}
	v := d.u32()
	if d.err == nil && v != Version {
		return nil, fmt.Errorf("%w: snapshot has version %d, this build reads %d", ErrVersion, v, Version)
	}

	s := &Snapshot{}
	s.Workload = d.str()
	s.Method = d.str()
	s.Seed = d.u64()
	s.StreamStats = d.bool()
	s.NumClasses = d.i64()
	s.NumExtra = d.i64()

	s.Now = d.i64()
	s.Invocations = d.i64()
	s.DecideTotalNS = d.i64()
	s.DecideMaxNS = d.i64()
	s.WarmEnd = d.i64()
	s.CoolStart = d.i64()

	n := d.u32()
	s.Jobs = make([]JobRecord, 0, minInt(int(n), prealloc))
	for i := uint32(0); i < n && d.err == nil; i++ {
		s.Jobs = append(s.Jobs, d.job())
	}
	n = d.u32()
	s.Events = make([]EventRecord, 0, minInt(int(n), prealloc))
	for i := uint32(0); i < n && d.err == nil; i++ {
		s.Events = append(s.Events, EventRecord{T: d.i64(), Kind: d.i64(), JobID: d.i64()})
	}
	s.QueueIDs = d.i64s()
	n = d.u32()
	s.Running = make([]RunningRecord, 0, minInt(int(n), prealloc))
	for i := uint32(0); i < n && d.err == nil; i++ {
		s.Running = append(s.Running, d.running())
	}
	s.FinishedIDs = d.i64s()

	s.Usage = d.usage()
	s.Collector = d.collector()
	s.HaveStats = d.bool()
	if s.HaveStats {
		s.Stats = d.stats()
	}

	s.Rand = d.rng()
	s.HaveInvStream = d.bool()
	if s.HaveInvStream {
		s.InvStream = d.rng()
	}

	s.Pulled = d.i64()
	s.LastSubmit = d.i64()
	s.SrcDone = d.bool()
	s.PendingIDs = d.i64s()
	s.DoneLow = d.i64()
	s.DoneSparse = d.i64s()

	if d.err != nil {
		return nil, d.err
	}
	return s, nil
}

func minInt(a, b int) int {
	if a < b {
		return a
	}
	return b
}

// encoder writes little-endian fixed-width values with a latched error.
type encoder struct {
	w   io.Writer
	err error
	buf [8]byte
}

func (e *encoder) bytes(b []byte) {
	if e.err != nil {
		return
	}
	_, e.err = e.w.Write(b)
}

func (e *encoder) u64(v uint64) {
	for i := 0; i < 8; i++ {
		e.buf[i] = byte(v >> (8 * i))
	}
	e.bytes(e.buf[:8])
}

func (e *encoder) u32(v uint32) {
	for i := 0; i < 4; i++ {
		e.buf[i] = byte(v >> (8 * i))
	}
	e.bytes(e.buf[:4])
}

func (e *encoder) i64(v int64)   { e.u64(uint64(v)) }
func (e *encoder) f64(v float64) { e.u64(math.Float64bits(v)) }

func (e *encoder) bool(v bool) {
	b := byte(0)
	if v {
		b = 1
	}
	e.bytes([]byte{b})
}

func (e *encoder) str(s string) {
	if len(s) > maxString {
		if e.err == nil {
			e.err = fmt.Errorf("checkpoint: string length %d exceeds %d", len(s), maxString)
		}
		return
	}
	e.u32(uint32(len(s)))
	e.bytes([]byte(s))
}

func (e *encoder) i64s(v []int64) {
	e.u32(uint32(len(v)))
	for _, x := range v {
		e.i64(x)
	}
}

func (e *encoder) f64s(v []float64) {
	e.u32(uint32(len(v)))
	for _, x := range v {
		e.f64(x)
	}
}

func (e *encoder) f64x5(v [5]float64) {
	for _, x := range v {
		e.f64(x)
	}
}

func (e *encoder) job(j *JobRecord) {
	e.i64(j.ID)
	e.str(j.User)
	e.i64(j.SubmitTime)
	e.i64(j.Runtime)
	e.i64(j.WalltimeEst)
	e.i64s(j.Res)
	e.i64(j.StageOutSec)
	e.i64s(j.Deps)
	e.i64(j.State)
	e.i64(j.StartTime)
	e.i64(j.EndTime)
	e.i64(j.WindowAge)
}

func (e *encoder) running(r *RunningRecord) {
	e.i64(r.JobID)
	e.i64(r.Release)
	e.bool(r.Staging)
	e.i64(r.BBRelease)
	e.i64s(r.Alloc.NodesByClass)
	e.i64(r.Alloc.BB)
	e.i64(r.Alloc.WastedSSD)
	e.i64s(r.Alloc.Extra)
}

func (e *encoder) usage(u *UsageRecord) {
	e.i64(u.Nodes)
	e.i64(u.BBGB)
	e.i64(u.SSDAssignedGB)
	e.i64(u.SSDRequestedGB)
	e.i64s(u.Extra)
}

func (e *encoder) collector(c *CollectorRecord) {
	e.i64(c.LastT)
	e.bool(c.Started)
	e.usage(&c.Cur)
	e.f64(c.NodeSec)
	e.f64(c.BBSec)
	e.f64(c.SSDAssignedSec)
	e.f64(c.SSDRequestedSec)
	e.f64s(c.ExtraSec)
	e.i64(c.FirstT)
	e.i64(c.LastTs)
	e.bool(c.Windowed)
	e.i64(c.WinStart)
	e.i64(c.WinEnd)
}

func (e *encoder) quantile(q *QuantileRecord) {
	e.f64(q.P)
	e.i64(q.Count)
	e.f64x5(q.Q)
	e.f64x5(q.N)
	e.f64x5(q.NP)
	e.f64x5(q.DN)
}

func (e *encoder) stats(s *JobStatsRecord) {
	e.i64(s.N)
	e.f64(s.WaitSum)
	e.f64(s.SdSum)
	e.f64s(s.SizeSums)
	e.i64s(s.SizeCounts)
	e.f64s(s.BBSums)
	e.i64s(s.BBCounts)
	e.f64s(s.RTSums)
	e.i64s(s.RTCounts)
	e.quantile(&s.P50)
	e.quantile(&s.P90)
	e.quantile(&s.P99)
}

func (e *encoder) rng(r *RNGRecord) {
	e.u64(r.Seed)
	for _, w := range r.Src {
		e.u64(w)
	}
}

// decoder reads little-endian fixed-width values with a latched error.
type decoder struct {
	r   io.Reader
	err error
	buf [8]byte
}

func (d *decoder) bytes(b []byte) {
	if d.err != nil {
		for i := range b {
			b[i] = 0
		}
		return
	}
	if _, err := io.ReadFull(d.r, b); err != nil {
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		d.err = fmt.Errorf("checkpoint: truncated snapshot: %w", err)
		for i := range b {
			b[i] = 0
		}
	}
}

func (d *decoder) u64() uint64 {
	d.bytes(d.buf[:8])
	var v uint64
	for i := 0; i < 8; i++ {
		v |= uint64(d.buf[i]) << (8 * i)
	}
	return v
}

func (d *decoder) u32() uint32 {
	d.bytes(d.buf[:4])
	var v uint32
	for i := 0; i < 4; i++ {
		v |= uint32(d.buf[i]) << (8 * i)
	}
	return v
}

func (d *decoder) i64() int64   { return int64(d.u64()) }
func (d *decoder) f64() float64 { return math.Float64frombits(d.u64()) }

func (d *decoder) bool() bool {
	var b [1]byte
	d.bytes(b[:])
	if d.err == nil && b[0] > 1 {
		d.err = fmt.Errorf("checkpoint: corrupt bool byte %d", b[0])
	}
	return b[0] == 1
}

func (d *decoder) str() string {
	n := d.u32()
	if d.err != nil {
		return ""
	}
	if n > maxString {
		d.err = fmt.Errorf("checkpoint: string length %d exceeds %d", n, maxString)
		return ""
	}
	b := make([]byte, n)
	d.bytes(b)
	if d.err != nil {
		return ""
	}
	return string(b)
}

func (d *decoder) i64s() []int64 {
	n := d.u32()
	if d.err != nil || n == 0 {
		return nil
	}
	out := make([]int64, 0, minInt(int(n), prealloc))
	for i := uint32(0); i < n && d.err == nil; i++ {
		out = append(out, d.i64())
	}
	if d.err != nil {
		return nil
	}
	return out
}

func (d *decoder) f64s() []float64 {
	n := d.u32()
	if d.err != nil || n == 0 {
		return nil
	}
	out := make([]float64, 0, minInt(int(n), prealloc))
	for i := uint32(0); i < n && d.err == nil; i++ {
		out = append(out, d.f64())
	}
	if d.err != nil {
		return nil
	}
	return out
}

func (d *decoder) f64x5() [5]float64 {
	var v [5]float64
	for i := range v {
		v[i] = d.f64()
	}
	return v
}

func (d *decoder) job() JobRecord {
	return JobRecord{
		ID:          d.i64(),
		User:        d.str(),
		SubmitTime:  d.i64(),
		Runtime:     d.i64(),
		WalltimeEst: d.i64(),
		Res:         d.i64s(),
		StageOutSec: d.i64(),
		Deps:        d.i64s(),
		State:       d.i64(),
		StartTime:   d.i64(),
		EndTime:     d.i64(),
		WindowAge:   d.i64(),
	}
}

func (d *decoder) running() RunningRecord {
	return RunningRecord{
		JobID:     d.i64(),
		Release:   d.i64(),
		Staging:   d.bool(),
		BBRelease: d.i64(),
		Alloc: AllocRecord{
			NodesByClass: d.i64s(),
			BB:           d.i64(),
			WastedSSD:    d.i64(),
			Extra:        d.i64s(),
		},
	}
}

func (d *decoder) usage() UsageRecord {
	return UsageRecord{
		Nodes:          d.i64(),
		BBGB:           d.i64(),
		SSDAssignedGB:  d.i64(),
		SSDRequestedGB: d.i64(),
		Extra:          d.i64s(),
	}
}

func (d *decoder) collector() CollectorRecord {
	return CollectorRecord{
		LastT:           d.i64(),
		Started:         d.bool(),
		Cur:             d.usage(),
		NodeSec:         d.f64(),
		BBSec:           d.f64(),
		SSDAssignedSec:  d.f64(),
		SSDRequestedSec: d.f64(),
		ExtraSec:        d.f64s(),
		FirstT:          d.i64(),
		LastTs:          d.i64(),
		Windowed:        d.bool(),
		WinStart:        d.i64(),
		WinEnd:          d.i64(),
	}
}

func (d *decoder) quantile() QuantileRecord {
	return QuantileRecord{
		P:     d.f64(),
		Count: d.i64(),
		Q:     d.f64x5(),
		N:     d.f64x5(),
		NP:    d.f64x5(),
		DN:    d.f64x5(),
	}
}

func (d *decoder) stats() JobStatsRecord {
	return JobStatsRecord{
		N:          d.i64(),
		WaitSum:    d.f64(),
		SdSum:      d.f64(),
		SizeSums:   d.f64s(),
		SizeCounts: d.i64s(),
		BBSums:     d.f64s(),
		BBCounts:   d.i64s(),
		RTSums:     d.f64s(),
		RTCounts:   d.i64s(),
		P50:        d.quantile(),
		P90:        d.quantile(),
		P99:        d.quantile(),
	}
}

func (d *decoder) rng() RNGRecord {
	var r RNGRecord
	r.Seed = d.u64()
	for i := range r.Src {
		r.Src[i] = d.u64()
	}
	return r
}
