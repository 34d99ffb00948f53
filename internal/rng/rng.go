// Package rng provides deterministic, splittable random number streams and
// the statistical distributions used by the workload generators and the
// genetic MOO solver.
//
// Every stochastic component in this repository draws from an rng.Stream
// seeded from a single experiment seed, so whole simulations are exactly
// reproducible. Streams are split by label (SplitMix64 over a hash of the
// label), which keeps independent subsystems independent of each other's
// draw counts: adding a draw in the trace generator does not perturb the GA.
//
// The uniform draws (Float64, Intn, Int63n, Uint64, Bool, FillBools) step
// the stream's xoshiro256** source directly; they reproduce math/rand's
// value stream over that source draw for draw, which
// TestStreamMatchesMathRand pins. Perm, Shuffle and the ziggurat
// distributions (Exp, Normal, LogNormal) still go through a math/rand.Rand
// over the same source, so interleaving the two kinds of draw is one
// sequence.
package rng

import (
	"hash/fnv"
	"math"
	"math/bits"
	"math/rand"
)

// Stream is a deterministic random stream: a xoshiro256** source with
// seed-splitting helpers. A Stream is not safe for concurrent use; split
// one stream per goroutine instead.
type Stream struct {
	seed uint64
	src  *xoshiro   // every uniform draw steps this directly
	r    *rand.Rand // over src: Perm, Shuffle and the ziggurat distributions
}

// splitMix64 advances a SplitMix64 state and returns the next output.
// Used to derive well-distributed child seeds from (seed, label) pairs.
func splitMix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// xoshiro is a xoshiro256** PRNG implementing math/rand.Source64.
// Construction costs four SplitMix64 steps — the genetic solver splits a
// fresh stream per child per generation, and math/rand's default source
// would pay a ~600-step warm-up on every one of those splits (measured at
// >60% of whole-simulation CPU).
type xoshiro struct{ s [4]uint64 }

func newXoshiro(seed uint64) *xoshiro {
	var x xoshiro
	x.reseed(seed)
	return &x
}

// reseed resets the state in place (no allocation — Seed sits on the
// simulator's per-invocation stream reuse path).
func (x *xoshiro) reseed(seed uint64) {
	sm := seed
	for i := range x.s {
		sm = splitMix64(sm)
		x.s[i] = sm
	}
	if x.s[0]|x.s[1]|x.s[2]|x.s[3] == 0 {
		x.s[0] = 0x9e3779b97f4a7c15 // the all-zero state is a fixed point
	}
}

// step is one xoshiro256** transition over the state words by value, so
// a loop that draws many values can keep the state in registers.
func step(s0, s1, s2, s3 uint64) (r, n0, n1, n2, n3 uint64) {
	r = bits.RotateLeft64(s1*5, 7) * 9
	t := s1 << 17
	s2 ^= s0
	s3 ^= s1
	s1 ^= s2
	s0 ^= s3
	s2 ^= t
	return r, s0, s1, s2, bits.RotateLeft64(s3, 45)
}

// Uint64 implements rand.Source64.
func (x *xoshiro) Uint64() (r uint64) {
	r, x.s[0], x.s[1], x.s[2], x.s[3] = step(x.s[0], x.s[1], x.s[2], x.s[3])
	return r
}

// Int63 implements rand.Source.
func (x *xoshiro) Int63() int64 { return int64(x.Uint64() >> 1) }

// Seed implements rand.Source.
func (x *xoshiro) Seed(seed int64) { x.reseed(uint64(seed)) }

// New returns a Stream seeded with seed.
func New(seed uint64) *Stream {
	src := newXoshiro(seed)
	return &Stream{seed: seed, src: src, r: rand.New(src)}
}

// State is the complete serializable state of a Stream: the identifying
// seed plus the four xoshiro256** state words. Capturing and restoring it
// resumes the stream mid-sequence — the draw after SetState(State()) is
// the draw the original stream would have produced next. (The source is
// the only state: the uniform draws step it directly, and math/rand.Rand
// keeps no hidden state on the Perm/Shuffle/ziggurat paths that still go
// through it.)
type State struct {
	// Seed is the stream's identifying seed (what Seed() reports).
	Seed uint64
	// Src is the xoshiro256** state vector.
	Src [4]uint64
}

// State returns the stream's current state.
func (s *Stream) State() State { return State{Seed: s.seed, Src: s.src.s} }

// SetState restores a state captured by State, resuming the stream at the
// exact position it was captured. The all-zero source vector (a xoshiro
// fixed point that cannot arise from a real stream) is rejected the same
// way reseeding rejects it.
func (s *Stream) SetState(st State) {
	s.seed = st.Seed
	s.src.s = st.Src
	if s.src.s[0]|s.src.s[1]|s.src.s[2]|s.src.s[3] == 0 {
		s.src.s[0] = 0x9e3779b97f4a7c15
	}
}

// Split derives an independent child stream identified by label.
// Splitting is stable: the same (parent seed, label) always yields the same
// child stream, regardless of how many values the parent has produced.
func (s *Stream) Split(label string) *Stream {
	h := fnv.New64a()
	h.Write([]byte(label))
	return New(splitMix64(s.seed ^ h.Sum64()))
}

// SplitIndex derives an independent child stream identified by an integer,
// e.g. one stream per scheduling invocation or per generated job.
func (s *Stream) SplitIndex(i uint64) *Stream {
	return New(splitMix64(s.seed ^ splitMix64(i+0x51ed2701)))
}

// SplitIndexInto is SplitIndex reusing dst's storage: dst is reseeded in
// place to the exact state SplitIndex(i) would return, avoiding the
// per-split stream construction. A nil dst allocates a fresh stream. The
// genetic solver splits one stream per repaired child per generation;
// reseeding one scratch stream makes that allocation-free.
func (s *Stream) SplitIndexInto(dst *Stream, i uint64) *Stream {
	seed := splitMix64(s.seed ^ splitMix64(i+0x51ed2701))
	if dst == nil {
		return New(seed)
	}
	dst.Reseed(seed)
	return dst
}

// Reseed resets the stream in place to the state of New(seed).
func (s *Stream) Reseed(seed uint64) {
	s.seed = seed
	s.src.reseed(seed)
}

// Seed returns the seed this stream was created with.
func (s *Stream) Seed() uint64 { return s.seed }

// float64One is the smallest 63-bit draw v for which float64(v)/2⁶³
// rounds up to 1.0. math/rand resamples those (probability 2⁻⁵⁴) to keep
// Float64 inside [0,1), and so does every draw here that stands for one.
const float64One = 1<<63 - 512

// Float64 returns a uniform value in [0,1): math/rand's
// float64(Int63())/2⁶³, resampled when it rounds to 1.
func (s *Stream) Float64() float64 {
	for {
		if f := float64(s.src.Int63()) / (1 << 63); f != 1 {
			return f
		}
	}
}

// Intn returns a uniform value in [0,n). It panics if n <= 0.
func (s *Stream) Intn(n int) int {
	if n <= 0 {
		panic("rng: invalid argument to Intn")
	}
	if n > math.MaxInt32 {
		return int(s.Int63n(int64(n)))
	}
	// math/rand's Int31n over the top 31 bits of a draw: mask for a power
	// of two, else reject the draws above the last whole multiple of n.
	m := int32(n)
	if m&(m-1) == 0 {
		return int(int32(s.src.Int63()>>32) & (m - 1))
	}
	max := int32((1 << 31) - 1 - (1<<31)%uint32(m))
	v := int32(s.src.Int63() >> 32)
	for v > max {
		v = int32(s.src.Int63() >> 32)
	}
	return int(v % m)
}

// Int63n returns a uniform value in [0,n). It panics if n <= 0.
func (s *Stream) Int63n(n int64) int64 {
	if n <= 0 {
		panic("rng: invalid argument to Int63n")
	}
	if n&(n-1) == 0 {
		return s.src.Int63() & (n - 1)
	}
	max := int64((1 << 63) - 1 - (1<<63)%uint64(n))
	v := s.src.Int63()
	for v > max {
		v = s.src.Int63()
	}
	return v % n
}

// Uint64 returns a uniform 64-bit value.
func (s *Stream) Uint64() uint64 { return s.src.Uint64() }

// Bool returns true with probability p.
func (s *Stream) Bool(p float64) bool { return s.Float64() < p }

// Bernoulli is Bool(p) for a fixed p with the float compare done once:
// the predicate float64(v)/2⁶³ < p is monotone in the 63-bit draw v, so
// it holds exactly for the draws below one integer threshold.
type Bernoulli struct{ below uint64 }

// NewBernoulli returns the trial that succeeds with probability p. NaN
// and p <= 0 never succeed, p >= 1 always does.
func NewBernoulli(p float64) Bernoulli {
	if !(p > 0) {
		return Bernoulli{}
	}
	// The smallest k with float64(k) >= p·2⁶³, found by bisection on the
	// monotone conversion. Draws from float64One up are resampled before
	// they are compared, so the search stops there (which is also where it
	// lands for every p >= 1).
	x := p * (1 << 63)
	lo, hi := uint64(0), uint64(float64One)
	for lo < hi {
		if mid := lo + (hi-lo)/2; float64(mid) >= x {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	return Bernoulli{below: lo}
}

// outcome classifies one 63-bit draw: the trial's result, or resample
// when the draw is one Float64 would reject.
func (b Bernoulli) outcome(v uint64) (hit, resample bool) {
	return v < b.below, v >= float64One
}

// FillBools runs n trials of b, setting bit i%64 of dst[i/64] when trial
// i succeeds and clearing every other bit of dst's first ⌈n/64⌉ words, and
// reports whether any trial succeeded. It consumes exactly the draws that
// n calls of Bool(p) would and yields their results. The genetic solver
// draws a child's mutation mask this way: one compare per gene, with the
// source never leaving the loop.
func (s *Stream) FillBools(dst []uint64, n int, b Bernoulli) bool {
	clear(dst[:(n+63)/64])
	x := s.src
	s0, s1, s2, s3 := x.s[0], x.s[1], x.s[2], x.s[3]
	any := false
	for i := 0; i < n; {
		var r uint64
		r, s0, s1, s2, s3 = step(s0, s1, s2, s3)
		hit, resample := b.outcome(r >> 1)
		if resample {
			continue
		}
		if hit {
			dst[i/64] |= 1 << uint(i%64)
			any = true
		}
		i++
	}
	x.s = [4]uint64{s0, s1, s2, s3}
	return any
}

// Perm returns a random permutation of [0,n).
func (s *Stream) Perm(n int) []int { return s.r.Perm(n) }

// Shuffle pseudo-randomizes the order of n elements using swap.
func (s *Stream) Shuffle(n int, swap func(i, j int)) { s.r.Shuffle(n, swap) }

// Exp returns an exponentially distributed value with the given mean.
func (s *Stream) Exp(mean float64) float64 { return s.r.ExpFloat64() * mean }

// Normal returns a normally distributed value with mean mu and stddev sigma.
func (s *Stream) Normal(mu, sigma float64) float64 { return s.r.NormFloat64()*sigma + mu }

// LogNormal returns a log-normally distributed value where the underlying
// normal has mean mu and stddev sigma (i.e. median e^mu).
func (s *Stream) LogNormal(mu, sigma float64) float64 {
	return math.Exp(s.r.NormFloat64()*sigma + mu)
}

// Weibull returns a Weibull-distributed value with the given shape k and
// scale lambda. Weibull with k<1 models the heavy-tailed interarrival
// bursts typical of HPC submission logs.
func (s *Stream) Weibull(shape, scale float64) float64 {
	u := s.Float64()
	for u == 0 {
		u = s.Float64()
	}
	return scale * math.Pow(-math.Log(u), 1/shape)
}

// BoundedPareto returns a value from a bounded Pareto distribution on
// [lo, hi] with tail index alpha. Used for burst-buffer request sizes,
// which production logs show to be heavy-tailed over several decades.
func (s *Stream) BoundedPareto(alpha, lo, hi float64) float64 {
	if lo >= hi {
		return lo
	}
	u := s.Float64()
	la := math.Pow(lo, alpha)
	ha := math.Pow(hi, alpha)
	return math.Pow(-(u*ha-u*la-ha)/(ha*la), -1/alpha)
}

// TruncNormal returns a normally distributed value clipped to [lo, hi] by
// resampling (falling back to clamping after a bounded number of tries).
func (s *Stream) TruncNormal(mu, sigma, lo, hi float64) float64 {
	for i := 0; i < 64; i++ {
		v := s.Normal(mu, sigma)
		if v >= lo && v <= hi {
			return v
		}
	}
	return math.Min(hi, math.Max(lo, mu))
}

// PickWeighted returns an index in [0,len(weights)) with probability
// proportional to weights[i]. Zero or negative total weight picks uniformly.
func (s *Stream) PickWeighted(weights []float64) int {
	var total float64
	for _, w := range weights {
		if w > 0 {
			total += w
		}
	}
	if total <= 0 {
		return s.Intn(len(weights))
	}
	x := s.Float64() * total
	for i, w := range weights {
		if w <= 0 {
			continue
		}
		x -= w
		if x < 0 {
			return i
		}
	}
	return len(weights) - 1
}
