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
// panics on truncated or corrupted input, never allocates for a declared
// length the bytes left could not hold, and rejects unknown format
// versions up front, returning errors for everything else it can detect
// structurally. Semantic validity (allocations fitting the machine,
// event-heap order, job-state consistency) is enforced by sim.Restore,
// which re-plays the snapshot into a live engine through the same
// invariant-checked APIs the original run used.
//
// The walk defines the wire. Snapshot.walk, and one codec method per
// record and state type below it, hand every serialized field to a codec
// in wire order, each in exactly one statement; the codec appends the
// field to the output when encoding and reads it off the input when
// decoding, so the two directions cannot disagree. Component state
// travels as the component's own state type (metrics.Usage,
// metrics.CollectorState, metrics.JobStatsState, rng.State) rather than as
// a mirror of it. The format still cannot drift when one of those types
// gains a field: the walk, not the struct, decides what is written, and a
// field it does not name stays off the wire. To add a field: add it to the
// state type, name it in that type's walk, bump Version, and update the
// hashes pinned by TestWireFormatPinned.
//
// Version 4 carries the run, not the trace. A run over a materialized
// workload names its jobs by trace.JobsHash, and its job records hold only
// the ID and the run's state of the job (state, start, end, window age);
// restore takes everything else from the workload, which must hash alike.
// A run fed by a source, which cannot be read again, keeps the trace
// fields in its records. The done set travels as a bitmap, the two
// wall-clock decision timings sit in a trailer after the body, so that the
// body (Body) is a function of the run's recipe and event instant alone,
// and a CRC-32C of everything before it closes the snapshot; Decode checks
// it before it parses the body.
package checkpoint

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"math/bits"
	"slices"

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
//
// Version 4 names a materialized workload's jobs by hash instead of
// carrying their trace fields, writes the done set as a bitmap, moves the
// wall-clock fields to a trailer and closes the snapshot with a CRC-32C
// (see the package doc).
const Version = 4

// ErrVersion reports a snapshot written by an incompatible format version.
var ErrVersion = fmt.Errorf("checkpoint: incompatible snapshot version")

// maxString bounds string lengths in both directions (names only —
// nothing longer belongs in a snapshot).
const maxString = 1 << 16

// Wire sizes: the header (magic, version), the trailer (the two
// wall-clock words and the CRC-32C), and the fewest bytes one element of
// each list can take, which bounds what a declared length may ask for.
const (
	headerLen   = 4 + 4
	trailerLen  = 8 + 8 + 4
	slimJobLen  = 5 * 8
	fullJobLen  = slimJobLen + 4 + 3*8 + 4 + 8 + 4
	eventLen    = 3 * 8
	runningLen  = 3*8 + 1 + 4 + 2*8 + 4
	scalarLen   = 8
	maxSetWords = math.MaxUint32 // an ID set's word count is a uint32
)

// castagnoli is the CRC-32C table; the checksum is hardware-assisted on
// the common platforms.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// JobRecord is one job's state in the run and, for a run fed by a source,
// its trace fields, so restore can rebuild the job without a workload to
// look it up in. In a snapshot of a run over a materialized workload
// (Snapshot.Hashed) only ID and the run fields are on the wire.
type JobRecord struct {
	ID int64

	// Trace fields: on the wire only when the snapshot is not Hashed.
	User        string
	SubmitTime  int64
	Runtime     int64
	WalltimeEst int64
	Res         []int64 // demand vector, canonical + extra dimensions
	StageOutSec int64
	Deps        []int64

	// Run fields.
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
	// Hashed says the run read a materialized workload whose jobs hash
	// (trace.JobsHash) to JobsHash, on the wire only when Hashed; the job
	// records then carry no trace fields.
	Hashed   bool
	JobsHash [32]byte

	// Clock and counters.
	Now         int64
	Invocations int64
	WarmEnd     int64
	CoolStart   int64

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
	// (job IDs in pull order), and the finished-ID watermark + the
	// finished IDs above it. DoneSparse decodes ascending and without
	// repeats; on the wire it is a bitmap from its lowest ID.
	Pulled     int64
	LastSubmit int64
	SrcDone    bool
	PendingIDs []int64
	DoneLow    int64
	DoneSparse []int64

	// Wall clock: the scheduling passes' total and longest decision time.
	// They differ between two runs of one recipe, so they travel in the
	// trailer, outside Body.
	DecideTotalNS int64
	DecideMaxNS   int64
}

// Encode writes the snapshot to w in format Version, in one Write.
func Encode(w io.Writer, s *Snapshot) error {
	b, err := Append(nil, s)
	if err != nil {
		return err
	}
	_, err = w.Write(b)
	return err
}

// Append appends the snapshot in format Version to dst and returns the
// extended buffer; on error it returns dst as it was. A caller that
// checkpoints repeatedly passes the last buffer back, truncated, and
// encodes without allocating once it has grown to a snapshot's size.
func Append(dst []byte, s *Snapshot) ([]byte, error) {
	start := len(dst)
	c := &codec{buf: append(dst, magic...)}
	v := uint32(Version)
	c.u32(&v)
	s.walk(c)
	s.wallClock(c)
	if c.err != nil {
		return dst, c.err
	}
	return binary.LittleEndian.AppendUint32(c.buf, crc32.Checksum(c.buf[start:], castagnoli)), nil
}

// Decode reads a snapshot from r. It errors (never panics) on truncated,
// corrupted, or version-skewed input, and never returns a partial
// snapshot with the error. After the header it checks the CRC-32C
// trailer, so a snapshot damaged in transit is refused before any of it
// is parsed.
func Decode(r io.Reader) (*Snapshot, error) {
	data, err := readAll(r)
	if err != nil {
		return nil, fmt.Errorf("checkpoint: reading snapshot: %w", err)
	}
	switch {
	case len(data) < headerLen:
		return nil, errTruncated
	case string(data[:4]) != magic:
		return nil, fmt.Errorf("checkpoint: bad magic %q", data[:4])
	}
	if v := binary.LittleEndian.Uint32(data[4:headerLen]); v != Version {
		return nil, fmt.Errorf("%w: snapshot has version %d, this build reads %d", ErrVersion, v, Version)
	}
	if len(data) < headerLen+trailerLen {
		return nil, errTruncated
	}
	n := len(data) - 4
	if sum := binary.LittleEndian.Uint32(data[n:]); sum != crc32.Checksum(data[:n], castagnoli) {
		return nil, fmt.Errorf("checkpoint: checksum mismatch: the snapshot is corrupt")
	}
	c := &codec{dec: true, buf: data[headerLen:n]}
	s := &Snapshot{}
	s.walk(c)
	s.wallClock(c)
	if c.err == nil && len(c.buf) > 0 {
		c.fail("%d bytes past the snapshot's end", len(c.buf))
	}
	if c.err != nil {
		return nil, c.err
	}
	return s, nil
}

// readAll reads r to its end, in one allocation when r tells how many
// bytes it holds, as a bytes.Reader or bytes.Buffer does.
func readAll(r io.Reader) ([]byte, error) {
	if l, ok := r.(interface{ Len() int }); ok {
		b := make([]byte, l.Len())
		_, err := io.ReadFull(r, b)
		return b, err
	}
	return io.ReadAll(r)
}

// Body returns the part of an encoded snapshot that is a function of the
// run alone — its recipe and the event instant it was taken at: all but
// the wall-clock trailer and checksum. Two runs of one recipe stepped to
// the same event write the same body. Body returns nil for data too short
// to hold a trailer; it checks nothing else.
func Body(data []byte) []byte {
	if len(data) < trailerLen {
		return nil
	}
	return data[:len(data)-trailerLen]
}

func (s *Snapshot) walk(c *codec) {
	c.str(&s.Workload)
	c.str(&s.Method)
	c.u64(&s.Seed)
	c.i64(&s.NumClasses)
	c.i64(&s.NumExtra)
	c.bool(&s.Hashed)
	if s.Hashed {
		c.bytes(s.JobsHash[:])
	}

	c.i64(&s.Now)
	c.i64(&s.Invocations)
	c.i64(&s.WarmEnd)
	c.i64(&s.CoolStart)

	if s.Hashed {
		list(c, &s.Jobs, slimJobLen, (*codec).slimJob)
	} else {
		list(c, &s.Jobs, fullJobLen, (*codec).job)
	}
	list(c, &s.Events, eventLen, (*codec).event)
	c.i64s(&s.QueueIDs)
	list(c, &s.Running, runningLen, (*codec).running)

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
	c.idSet(&s.DoneSparse)
}

// wallClock carries the trailer's wall-clock fields, after the body.
func (s *Snapshot) wallClock(c *codec) {
	c.i64(&s.DecideTotalNS)
	c.i64(&s.DecideMaxNS)
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
	c.runFields(j)
}

func (c *codec) slimJob(j *JobRecord) {
	c.i64(&j.ID)
	c.runFields(j)
}

func (c *codec) runFields(j *JobRecord) {
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

// codec moves little-endian fixed-width values between a byte slice and
// the variables a walk points it at: appended to buf from them when
// encoding, read off the front of buf into them when decoding (dec), buf
// then holding the bytes not yet read. Encoding only reads its variables.
// The first error latches; after it, decoding reads nothing more and
// stores zero values.
type codec struct {
	dec bool
	buf []byte
	err error
}

func (c *codec) fail(format string, args ...any) {
	if c.err == nil {
		c.err = fmt.Errorf("checkpoint: "+format, args...)
	}
}

// errTruncated reports input that ends before the snapshot does.
var errTruncated = fmt.Errorf("checkpoint: truncated snapshot: %w", io.ErrUnexpectedEOF)

func (c *codec) truncated() {
	if c.err == nil {
		c.err = errTruncated
	}
}

// take consumes the next n bytes of the input, or fails the decode and
// returns nil when fewer are left.
func (c *codec) take(n int) []byte {
	if c.err != nil {
		return nil
	}
	if n > len(c.buf) {
		c.truncated()
		return nil
	}
	b := c.buf[:n:n]
	c.buf = c.buf[n:]
	return b
}

// bytes writes b, or fills it from the input (with zeros on error).
func (c *codec) bytes(b []byte) {
	if !c.dec {
		c.buf = append(c.buf, b...)
		return
	}
	if in := c.take(len(b)); in != nil {
		copy(b, in)
		return
	}
	clear(b)
}

// word carries the low n (8, 4 or 1) bytes of x and returns the value
// carried: x itself when encoding, what the input held when decoding.
func (c *codec) word(x uint64, n int) uint64 {
	if !c.dec {
		switch n {
		case 8:
			c.buf = binary.LittleEndian.AppendUint64(c.buf, x)
		case 4:
			c.buf = binary.LittleEndian.AppendUint32(c.buf, uint32(x))
		default:
			c.buf = append(c.buf, byte(x))
		}
		return x
	}
	b := c.take(n)
	switch {
	case b == nil:
		return 0
	case n == 8:
		return binary.LittleEndian.Uint64(b)
	case n == 4:
		return uint64(binary.LittleEndian.Uint32(b))
	default:
		return uint64(b[0])
	}
}

func (c *codec) u64(v *uint64) {
	if x := c.word(*v, 8); c.dec {
		*v = x
	}
}

func (c *codec) u32(v *uint32) {
	if x := c.word(uint64(*v), 4); c.dec {
		*v = uint32(x)
	}
}

func (c *codec) i64(v *int64) {
	if x := c.word(uint64(*v), 8); c.dec {
		*v = int64(x)
	}
}

// int carries a platform int as 64 bits.
func (c *codec) int(v *int) {
	if x := c.word(uint64(*v), 8); c.dec {
		*v = int(x)
	}
}

func (c *codec) f64(v *float64) {
	if x := c.word(math.Float64bits(*v), 8); c.dec {
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
	if c.dec {
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
	if !c.dec {
		c.buf = append(c.buf, *v...)
		return
	}
	if n > maxString {
		c.fail("string length %d exceeds %d", n, maxString)
	}
	if b := c.take(int(n)); b != nil {
		*v = string(b)
	}
}

// list carries a length-prefixed sequence, one elem call per element,
// each of which takes at least size bytes on the wire. Decoding trusts a
// declared length only as far as the bytes left could hold it, so a huge
// length fails as truncation before anything is allocated for it. A
// decoded list is empty, not nil, when its length is zero.
func list[T any](c *codec, v *[]T, size int, elem func(*codec, *T)) {
	n := uint32(len(*v))
	c.u32(&n)
	if c.dec {
		if uint64(n)*uint64(size) > uint64(len(c.buf)) {
			c.truncated()
			n = 0
		}
		*v = make([]T, n)
	}
	for i := range *v {
		elem(c, &(*v)[i])
	}
}

// scalars is list for slices of plain values, which decode to nil when
// empty or cut short.
func scalars[T any](c *codec, v *[]T, elem func(*codec, *T)) {
	list(c, v, scalarLen, elem)
	if c.dec && (c.err != nil || len(*v) == 0) {
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

// idSet carries a set of IDs as a bitmap: the lowest ID, then a list of
// words in which bit i of word k says whether lowest+64k+i is in the set.
// Encoding takes the IDs in any order, a repeat counting once; decoding
// returns them ascending (nil for none).
func (c *codec) idSet(v *[]int64) {
	var lo int64
	var words []uint64
	if !c.dec && len(*v) > 0 {
		lo = slices.Min(*v)
		span := uint64(slices.Max(*v)) - uint64(lo)
		if span/64 >= maxSetWords {
			c.fail("ID set spans %d IDs, more than %d words hold", span+1, uint64(maxSetWords))
			return
		}
		words = make([]uint64, span/64+1)
		for _, id := range *v {
			k := uint64(id) - uint64(lo)
			words[k/64] |= 1 << (k % 64)
		}
	}
	c.i64(&lo)
	scalars(c, &words, (*codec).u64)
	if !c.dec {
		return
	}
	if n := int64(len(words)); n > 0 && lo > math.MaxInt64-64*n+1 {
		c.fail("ID set from %d over %d words passes the largest ID", lo, n)
	}
	*v = nil
	if c.err != nil {
		return
	}
	n := 0
	for _, w := range words {
		n += bits.OnesCount64(w)
	}
	if n > 0 {
		*v = make([]int64, 0, n)
	}
	for k, w := range words {
		for ; w != 0; w &= w - 1 {
			*v = append(*v, lo+int64(64*k+bits.TrailingZeros64(w)))
		}
	}
}
