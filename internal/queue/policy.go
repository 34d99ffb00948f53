package queue

// This file holds Policy, Overtaker, Riser and the built-in base-scheduler
// policies. A policy sees the queue's slots, not its jobs: Prioritize runs
// the formula in a plain loop over flat keys, Overtake bounds how long the
// order of two of them can last, and Rises promises one never falls.

import (
	"fmt"
	"math"
)

// Policy orders the waiting queue. Implementations must be deterministic.
type Policy interface {
	// Name identifies the policy in experiment output.
	Name() string
	// Prioritize sets every slot's Prio to its job's priority at time now,
	// computed from the slot's Key; higher runs earlier. Ties are broken
	// FCFS (submit time, then ID). It writes nothing but Prio. A pass calls
	// it once for its front and once per job behind the front that it
	// compares or gathers.
	Prioritize(slots []Slot, now int64)
}

// Overtaker is implemented by a Policy that can tell how long the order of
// two jobs lasts. The queue's tournament over the jobs behind its front
// re-decides a pair only once the instant Overtake returned has come; a
// policy without the method has every pair re-decided at the next second.
// The queue finds the method by type assertion, so a policy that embeds a
// built-in one and changes its Prioritize must override Overtake too, or
// hide it by embedding the Policy interface instead of the struct: an
// inherited Overtake certifies the built-in formula, not the new one. The
// same holds for Riser.
type Overtaker interface {
	// Overtake is asked about two slots whose Prio is their priority at
	// now, with a ordered before b there (priority descending, ties
	// FCFS). It returns an instant after now such that a stays ordered
	// before b, in the float priorities Prioritize computes, at every
	// instant from now until then: never later than the first flip. A
	// near tie answers now+1; math.MaxInt64 means never.
	Overtake(a, b *Slot, now int64) int64
}

// Riser is implemented by a Policy that can promise a job's priority never
// falls as the clock advances. The queue keeps a floor under its front
// while every front job carries the promise: the latest key, in base
// order, any of them held when its priority was last evaluated. A front
// job's key at a later instant can only be ahead of the floor, so a job
// behind the front that does not rank before the floor cannot displace
// any of them, and the pass skips evaluating the front to find its worst
// member. A policy without the method makes no promise for any job.
type Riser interface {
	// Rises reports whether the priority Prioritize computes for s, a NaN
	// read as 0 as the queue reads it, is at every instant at least what
	// it is at any earlier one. Like Overtake it speaks of instants at
	// which now − SubmitTime does not overflow.
	Rises(s *Slot) bool
}

// margin is the relative gap two jobs' priorities must keep, in real
// arithmetic, for Overtake to call their order safe. A policy's float
// priorities are a few roundings (≈ 1e-16 each) from the real ones, so a
// gap of 2^-30 cannot be closed by rounding. The gap is tested in float at
// the instants it bounds, rather than trusted from algebra.
const margin = 1.0 / (1 << 30)

// horizon caps how far ahead Overtake certifies an order (about 35 000
// years in seconds), so that instants never overflow.
const horizon = int64(1) << 40

// after returns now+d+1, the instant after a stretch of d safe seconds,
// without overflowing.
func after(now, d int64) int64 {
	if d >= math.MaxInt64-1-now {
		return math.MaxInt64
	}
	return now + d + 1
}

// FCFS orders jobs by arrival.
type FCFS struct{}

// Name implements Policy.
func (FCFS) Name() string { return "FCFS" }

// Prioritize implements Policy: all jobs are equal, so the FCFS tie-break
// (submit time) decides the order.
func (FCFS) Prioritize(slots []Slot, _ int64) {
	for i := range slots {
		slots[i].Prio = 0
	}
}

// Overtake implements Overtaker: the order of two FCFS jobs never changes.
func (FCFS) Overtake(_, _ *Slot, _ int64) int64 { return math.MaxInt64 }

// Rises implements Riser: every priority is 0 at every instant.
func (FCFS) Rises(*Slot) bool { return true }

// WFP is ALCF's utility policy: priority grows with job size and with the
// cube of waiting time relative to the requested walltime, so large jobs
// and long-waiting jobs climb the queue (§2.1, [10,42]).
type WFP struct{}

// Name implements Policy.
func (WFP) Name() string { return "WFP" }

// Prioritize implements Policy. A non-positive walltime estimate (rejected
// by job validation, but representable on a hand-built Job) is clamped to
// one second so the ratio is always finite — previously wait == 0 with
// WalltimeEst == 0 produced 0/0 → NaN and leaned on Sorted's NaN→0
// patch-up.
func (WFP) Prioritize(slots []Slot, now int64) {
	for i := range slots {
		k := &slots[i]
		wait := float64(now - k.SubmitTime)
		if wait < 0 {
			wait = 0
		}
		est := float64(k.WalltimeEst)
		if est <= 0 {
			est = 1
		}
		r := wait / est
		k.Prio = float64(k.Nodes) * r * r * r
	}
}

// Overtake implements Overtaker. Once both jobs have waited, each priority
// is the cube of a line, ∛nodes/est · (t − submit), so a, ahead now, stays
// ahead while its line keeps a margin over b's: for good if b's line is
// the slower, until they cross if it is the faster. Before b has waited
// its priority is 0, which a's, never falling, cannot drop below.
func (WFP) Overtake(a, b *Slot, now int64) int64 {
	ea, eb := max(a.WalltimeEst, 1), max(b.WalltimeEst, 1)
	switch {
	case a.Nodes == b.Nodes && ea == eb && a.SubmitTime == b.SubmitTime:
		return math.MaxInt64 // equal priorities forever: the tie-break holds
	case a.Nodes < 0:
		return now + 1
	case b.Nodes <= 0:
		return math.MaxInt64 // a's priority never falls, b's never rises
	case now < b.SubmitTime:
		return b.SubmitTime // b's priority is 0 until then
	case now < a.SubmitTime:
		return now + 1
	}
	// d seconds on, a is ahead with the margin while wait_a+d exceeds
	// rho·(wait_b+d), rho being b's line slope over a's with the margin
	// folded in, num/den its cube. The test compares cubes, multiplied
	// out, so that only aiming at the crossing divides or takes a root.
	ea3, eb3 := float64(ea)*float64(ea)*float64(ea), float64(eb)*float64(eb)*float64(eb)
	num := (1 + margin) * (1 + margin) * (1 + margin) * float64(b.Nodes) * ea3
	den := float64(a.Nodes) * eb3
	wa, wb := now-a.SubmitTime, now-b.SubmitTime
	switch {
	case !wfpAhead(wa+1, wb+1, num, den):
		return now + 1
	case num <= den:
		return math.MaxInt64 // b's line, the margin on it, is no faster
	}
	// b's line is the faster: aim a little short of the crossing.
	rho := math.Cbrt(num / den)
	if x := min((float64(wa)-rho*float64(wb))/(rho-1), float64(horizon)); x > 2 {
		if d := int64(x * (1 - 1.0/(1<<20))); wfpAhead(wa+d, wb+d, num, den) {
			return after(now, d)
		}
	}
	return now + 2
}

// Rises implements Riser. The wait, clamped at 0, never falls, nor does
// its ratio to a positive estimate, nor that ratio's cube: float division
// and products of non-negative numbers round monotonically. Scaled by a
// non-negative node count the priority never falls; by a negative one —
// a hand-built job, which validation rejects — it falls as the job waits.
func (WFP) Rises(s *Slot) bool { return s.Nodes >= 0 }

// wfpAhead reports whether waits wa and wb keep a ahead of b, their lines'
// slopes being in the ratio num/den cubed.
func wfpAhead(wa, wb int64, num, den float64) bool {
	x, y := float64(wa), float64(wb)
	return x*x*x*den > y*y*y*num
}

// Multifactor approximates Slurm's multifactor priority plugin with its
// two site-universal terms: an age factor (wait time saturating at
// MaxAge) and a job-size factor (nodes relative to the machine), combined
// with configurable weights. QOS/fair-share terms are deliberately out of
// scope — §2.3 argues fair-share is not an HPC scheduling goal.
type Multifactor struct {
	// AgeWeight and SizeWeight scale the two factors (Slurm defaults give
	// age the larger weight; zero values fall back to 1000 and 100).
	AgeWeight, SizeWeight float64
	// MaxAgeSec saturates the age factor (default 7 days).
	MaxAgeSec int64
	// MachineNodes normalizes the size factor (default: raw node count).
	MachineNodes int
}

// Name implements Policy.
func (Multifactor) Name() string { return "Multifactor" }

// weights returns m's weights and saturation age with the defaults
// applied.
func (m Multifactor) weights() (ageW, sizeW float64, maxAge int64) {
	ageW, sizeW, maxAge = m.AgeWeight, m.SizeWeight, m.MaxAgeSec
	if ageW == 0 {
		ageW = 1000
	}
	if sizeW == 0 {
		sizeW = 100
	}
	if maxAge <= 0 {
		maxAge = 7 * 24 * 3600
	}
	return ageW, sizeW, maxAge
}

// size is k's job-size factor.
func (m Multifactor) size(k *Slot) float64 {
	size := float64(k.Nodes)
	if m.MachineNodes > 0 {
		size /= float64(m.MachineNodes)
	}
	return size
}

// priority is k's priority at now.
func (m Multifactor) priority(k *Slot, now int64, ageW, sizeW float64, maxAge int64) float64 {
	wait := min(max(now-k.SubmitTime, 0), maxAge)
	age := float64(wait) / float64(maxAge)
	return ageW*age + sizeW*m.size(k)
}

// Prioritize implements Policy.
func (m Multifactor) Prioritize(slots []Slot, now int64) {
	ageW, sizeW, maxAge := m.weights()
	for i := range slots {
		slots[i].Prio = m.priority(&slots[i], now, ageW, sizeW, maxAge)
	}
}

// Rises implements Riser. The age factor, the wait clamped to [0, maxAge]
// over maxAge, never falls, so neither does the priority when the age
// weight is not negative: a product with a non-negative weight and a sum
// with the fixed size term round monotonically, and where they make a NaN
// (an infinite weight times a zero age, or opposite infinities), the 0 the
// queue reads it as is never above what the priority is later. A negative
// age weight makes every priority fall as its job waits, and a NaN one
// promises nothing.
func (m Multifactor) Rises(*Slot) bool {
	ageW, _, _ := m.weights()
	return ageW >= 0
}

// Overtake implements Overtaker. A job's age factor grows at one rate from
// its submit time until it saturates, so between those instants — the
// kinks — the gap between two priorities is linear, and constant while
// both jobs age or both have saturated: a, ahead now, stays ahead up to
// the next kink while the gap keeps a margin at both ends, and for good
// once both have saturated.
func (m Multifactor) Overtake(a, b *Slot, now int64) int64 {
	if a.Nodes == b.Nodes && a.SubmitTime == b.SubmitTime {
		return math.MaxInt64 // equal priorities forever: the tie-break holds
	}
	ageW, sizeW, maxAge := m.weights()
	tol := margin * (math.Abs(ageW) + math.Abs(sizeW)*(math.Abs(m.size(a))+math.Abs(m.size(b))))
	gap := func(d int64) float64 {
		return m.priority(a, now+d, ageW, sizeW, maxAge) - m.priority(b, now+d, ageW, sizeW, maxAge) - tol
	}
	safe := func(d int64) bool { return gap(d) > 0 }
	kink := int64(math.MaxInt64)
	rate := func(s int64) float64 { // the job's age slope up to the next kink
		for _, k := range [2]int64{s, s + maxAge} {
			if k > now {
				kink = min(kink, k)
			}
		}
		if s <= now && now < s+maxAge {
			return ageW / float64(maxAge)
		}
		return 0
	}
	k := rate(a.SubmitTime) - rate(b.SubmitTime)
	span := horizon
	if kink != math.MaxInt64 {
		span = min(kink-now, horizon)
	}
	switch {
	case !safe(1):
		return now + 1
	case safe(span):
		return after(now, span)
	}
	// The gap closes inside the span: aim a little short of the crossing.
	if x := 1 + gap(1)/-k; x > 2 && x < float64(span) {
		if d := int64(x * (1 - 1.0/(1<<20))); safe(d) {
			return after(now, d)
		}
	}
	return now + 2
}

// ByName returns the policy with the given name.
func ByName(name string) (Policy, error) {
	switch name {
	case "FCFS":
		return FCFS{}, nil
	case "WFP":
		return WFP{}, nil
	case "Multifactor":
		return Multifactor{}, nil
	default:
		return nil, fmt.Errorf("queue: unknown policy %q", name)
	}
}
