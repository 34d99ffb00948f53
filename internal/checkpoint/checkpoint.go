// Package checkpoint defines the versioned binary snapshot format for the
// simulator's complete state — clock, event heap, queue membership,
// running set with allocations, collector integrals, per-job metric
// accumulators, RNG streams, and source position — so a run can pause on
// one worker and resume bit-identically on another (the farm subsystem's
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
// The walk defines the wire. Snapshot.walk, and one codec method per
// record and state type below it, hand every serialized field to a codec
// in wire order, each in exactly one statement; the codec writes the
// field when encoding and reads it when decoding, so the two directions
// cannot disagree. Component state travels as the component's own state
// type (metrics.Usage, metrics.CollectorState, metrics.JobStatsState,
// rng.State) rather than as a mirror of it. The format still cannot drift
// when one of those types gains a field: the walk, not the struct, decides
// what is written, and a field it does not name stays off the wire. To
// add a field: add it to the state type, name it in that type's walk,
// bump Version, and update the hash pinned by TestWireFormatPinned.
package checkpoint

import (
	"encoding/binary"
	"fmt"
	"io"
	"math"

	"bbsched/internal/metrics"
	"bbsched/internal/rng"
)

// magic identifies a BBSched checkpoint stream.
const magic = "BBCP"

// Version is the snapshot format version this build reads and writes.
// Any incompatible change to a walk below must bump it; Decode rejects
// other versions with ErrVersion.
//
// Version 2 dropped the materialized/streaming split: every run records
// its source position and watermark done-set, so the Streaming flag and
// the DoneIDs list of version 1 are gone.
//
// Version 3 dropped the materialized/streaming split for metrics: every
// run folds a finished job into its JobStats and keeps the wait, not the
// job. Finished jobs left the job table, the metrics-mode identity flag,
// the stats-present flag and the finished-ID list of version 2 are gone,
// and Stats is always on the wire.
const Version = 3

// ErrVersion reports a snapshot written by an incompatible format version.
var ErrVersion = fmt.Errorf("checkpoint: incompatible snapshot version")

// maxString bounds string lengths in both directions (names only —
// nothing longer belongs in a snapshot).
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

// Snapshot is the complete serialized state of a Simulator at an event
// boundary. internal/sim produces and consumes it; the farm ships it as
// opaque bytes.
type Snapshot struct {
	// Identity — Restore refuses a snapshot whose identity does not match
	// the run it is being restored into.
	Workload   string
	Method     string
	Seed       uint64
	NumClasses int64
	NumExtra   int64

	// Clock and counters.
	Now           int64
	Invocations   int64
	DecideTotalNS int64
	DecideMaxNS   int64
	WarmEnd       int64
	CoolStart     int64

	// Jobs holds every job still referenced by the engine (events, queue,
	// running set, look-ahead buffer), sorted by ID. A finished job is not
	// among them unless its burst buffer is still draining: what the
	// metrics need of it is already in Stats. The collections below
	// reference entries by ID.
	Jobs []JobRecord
	// Events is the pending event set sorted by (T, Kind, JobID).
	Events []EventRecord
	// QueueIDs is the waiting set, ascending. Restore re-Adds the jobs in
	// this order; queue behavior depends only on its priority total order,
	// so any insertion order reproduces identical windows.
	QueueIDs []int64
	// Running is the running set sorted by job ID.
	Running []RunningRecord

	// Metric state. Stats says which percentile back-end it is of
	// (WithStreamingMetrics); restoring it into the other one is refused.
	Usage     metrics.Usage
	Collector metrics.CollectorState
	Stats     metrics.JobStatsState

	// RNG streams; InvStream is on the wire only when HaveInvStream.
	Rand          rng.State
	HaveInvStream bool
	InvStream     rng.State

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
	c := &codec{w: w}
	c.bytes([]byte(magic))
	v := uint32(Version)
	c.u32(&v)
	s.walk(c)
	return c.err
}

// Decode reads a snapshot from r. It errors (never panics) on truncated,
// corrupted, or version-skewed input, and never returns a partial
// snapshot with the error.
func Decode(r io.Reader) (*Snapshot, error) {
	c := &codec{r: r}
	var m [4]byte
	c.bytes(m[:])
	if c.err == nil && string(m[:]) != magic {
		return nil, fmt.Errorf("checkpoint: bad magic %q", m[:])
	}
	var v uint32
	c.u32(&v)
	if c.err == nil && v != Version {
		return nil, fmt.Errorf("%w: snapshot has version %d, this build reads %d", ErrVersion, v, Version)
	}
	s := &Snapshot{}
	s.walk(c)
	if c.err != nil {
		return nil, c.err
	}
	return s, nil
}

func (s *Snapshot) walk(c *codec) {
	c.str(&s.Workload)
	c.str(&s.Method)
	c.u64(&s.Seed)
	c.i64(&s.NumClasses)
	c.i64(&s.NumExtra)

	c.i64(&s.Now)
	c.i64(&s.Invocations)
	c.i64(&s.DecideTotalNS)
	c.i64(&s.DecideMaxNS)
	c.i64(&s.WarmEnd)
	c.i64(&s.CoolStart)

	list(c, &s.Jobs, (*codec).job)
	list(c, &s.Events, (*codec).event)
	c.i64s(&s.QueueIDs)
	list(c, &s.Running, (*codec).running)

	c.usage(&s.Usage)
	c.collector(&s.Collector)
	c.stats(&s.Stats)

	c.rng(&s.Rand)
	c.bool(&s.HaveInvStream)
	if s.HaveInvStream {
		c.rng(&s.InvStream)
	}

	c.i64(&s.Pulled)
	c.i64(&s.LastSubmit)
	c.bool(&s.SrcDone)
	c.i64s(&s.PendingIDs)
	c.i64(&s.DoneLow)
	c.i64s(&s.DoneSparse)
}

func (c *codec) job(j *JobRecord) {
	c.i64(&j.ID)
	c.str(&j.User)
	c.i64(&j.SubmitTime)
	c.i64(&j.Runtime)
	c.i64(&j.WalltimeEst)
	c.i64s(&j.Res)
	c.i64(&j.StageOutSec)
	c.i64s(&j.Deps)
	c.i64(&j.State)
	c.i64(&j.StartTime)
	c.i64(&j.EndTime)
	c.i64(&j.WindowAge)
}

func (c *codec) event(e *EventRecord) {
	c.i64(&e.T)
	c.i64(&e.Kind)
	c.i64(&e.JobID)
}

func (c *codec) running(r *RunningRecord) {
	c.i64(&r.JobID)
	c.i64(&r.Release)
	c.bool(&r.Staging)
	c.i64(&r.BBRelease)
	c.i64s(&r.Alloc.NodesByClass)
	c.i64(&r.Alloc.BB)
	c.i64(&r.Alloc.WastedSSD)
	c.i64s(&r.Alloc.Extra)
}

func (c *codec) usage(u *metrics.Usage) {
	c.int(&u.Nodes)
	c.i64(&u.BBGB)
	c.i64(&u.SSDAssignedGB)
	c.i64(&u.SSDRequestedGB)
	c.i64s(&u.Extra)
}

func (c *codec) collector(s *metrics.CollectorState) {
	c.i64(&s.LastT)
	c.bool(&s.Started)
	c.usage(&s.Cur)
	c.f64(&s.NodeSec)
	c.f64(&s.BBSec)
	c.f64(&s.SSDAssignedSec)
	c.f64(&s.SSDRequestedSec)
	c.f64s(&s.ExtraSec)
	c.i64(&s.FirstT)
	c.i64(&s.LastTs)
	c.bool(&s.Windowed)
	c.i64(&s.WinStart)
	c.i64(&s.WinEnd)
}

func (c *codec) quantile(q *metrics.QuantileState) {
	c.f64(&q.P)
	c.int(&q.Count)
	c.f64x5(&q.Q)
	c.f64x5(&q.N)
	c.f64x5(&q.NP)
	c.f64x5(&q.DN)
}

func (c *codec) stats(s *metrics.JobStatsState) {
	c.int(&s.N)
	c.f64(&s.WaitSum)
	c.f64(&s.SdSum)
	c.f64s(&s.SizeSums)
	c.ints(&s.SizeCounts)
	c.f64s(&s.BBSums)
	c.ints(&s.BBCounts)
	c.f64s(&s.RTSums)
	c.ints(&s.RTCounts)
	c.bool(&s.Sketch)
	if s.Sketch {
		c.quantile(&s.P50)
		c.quantile(&s.P90)
		c.quantile(&s.P99)
	} else {
		c.f64s(&s.Waits)
	}
}

func (c *codec) rng(s *rng.State) {
	c.u64(&s.Seed)
	for i := range s.Src {
		c.u64(&s.Src[i])
	}
}

// codec moves little-endian fixed-width values between a stream and the
// variables a walk points it at: out of them when w is set (encoding),
// into them when r is set (decoding). Encoding only reads its variables.
// The first error latches; after it, encoding writes nothing more and
// decoding stores zero values.
type codec struct {
	w   io.Writer
	r   io.Reader
	err error
	buf [8]byte
}

func (c *codec) decoding() bool { return c.r != nil }

func (c *codec) fail(format string, args ...any) {
	if c.err == nil {
		c.err = fmt.Errorf("checkpoint: "+format, args...)
	}
}

// bytes writes b, or fills it from the stream (with zeros on error).
func (c *codec) bytes(b []byte) {
	if !c.decoding() {
		if c.err == nil {
			_, c.err = c.w.Write(b)
		}
		return
	}
	if c.err == nil {
		_, err := io.ReadFull(c.r, b)
		if err == nil {
			return
		}
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		c.err = fmt.Errorf("checkpoint: truncated snapshot: %w", err)
	}
	clear(b)
}

// word carries the low n bytes of x and returns the value carried: x
// itself when encoding, what the stream held when decoding.
func (c *codec) word(x uint64, n int) uint64 {
	if !c.decoding() {
		binary.LittleEndian.PutUint64(c.buf[:], x)
		c.bytes(c.buf[:n])
		return x
	}
	c.buf = [8]byte{}
	c.bytes(c.buf[:n])
	return binary.LittleEndian.Uint64(c.buf[:])
}

func (c *codec) u64(v *uint64) {
	if x := c.word(*v, 8); c.decoding() {
		*v = x
	}
}

func (c *codec) u32(v *uint32) {
	if x := c.word(uint64(*v), 4); c.decoding() {
		*v = uint32(x)
	}
}

func (c *codec) i64(v *int64) {
	if x := c.word(uint64(*v), 8); c.decoding() {
		*v = int64(x)
	}
}

// int carries a platform int as 64 bits.
func (c *codec) int(v *int) {
	if x := c.word(uint64(*v), 8); c.decoding() {
		*v = int(x)
	}
}

func (c *codec) f64(v *float64) {
	if x := c.word(math.Float64bits(*v), 8); c.decoding() {
		*v = math.Float64frombits(x)
	}
}

func (c *codec) bool(v *bool) {
	var x uint64
	if *v {
		x = 1
	}
	if x = c.word(x, 1); x > 1 {
		c.fail("corrupt bool byte %d", x)
	}
	if c.decoding() {
		*v = x == 1
	}
}

func (c *codec) str(v *string) {
	if len(*v) > maxString { // encoding: a decode target starts empty
		c.fail("string length %d exceeds %d", len(*v), maxString)
		return
	}
	n := uint32(len(*v))
	c.u32(&n)
	if n > maxString {
		c.fail("string length %d exceeds %d", n, maxString)
	}
	if c.err != nil {
		return
	}
	b := make([]byte, n)
	copy(b, *v)
	c.bytes(b)
	if c.decoding() && c.err == nil {
		*v = string(b)
	}
}

// list carries a length-prefixed sequence, one elem call per element.
// Decoding never trusts the declared length: it preallocates at most
// prealloc elements and grows by append, so a huge length on a short
// stream fails on truncation after a bounded allocation. A decoded list
// is empty, not nil, when its length is zero.
func list[T any](c *codec, v *[]T, elem func(*codec, *T)) {
	n := uint32(len(*v))
	c.u32(&n)
	if !c.decoding() {
		for i := range *v {
			elem(c, &(*v)[i])
		}
		return
	}
	*v = make([]T, 0, min(n, prealloc))
	for i := uint32(0); i < n && c.err == nil; i++ {
		var zero T
		*v = append(*v, zero)
		elem(c, &(*v)[i])
	}
}

// scalars is list for slices of plain values, which decode to nil when
// empty or cut short.
func scalars[T any](c *codec, v *[]T, elem func(*codec, *T)) {
	list(c, v, elem)
	if c.decoding() && (c.err != nil || len(*v) == 0) {
		*v = nil
	}
}

func (c *codec) i64s(v *[]int64)   { scalars(c, v, (*codec).i64) }
func (c *codec) ints(v *[]int)     { scalars(c, v, (*codec).int) }
func (c *codec) f64s(v *[]float64) { scalars(c, v, (*codec).f64) }

func (c *codec) f64x5(v *[5]float64) {
	for i := range v {
		c.f64(&v[i])
	}
}
