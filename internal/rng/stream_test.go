package rng

import (
	"math"
	"math/bits"
	"math/rand"
	"strconv"
	"testing"
)

// mathRandOver is the oracle: math/rand's own algorithms over a copy of
// the stream's source.
func mathRandOver(s *Stream) *rand.Rand {
	src := *s.src
	return rand.New(&src)
}

// TestStreamMatchesMathRand pins the value stream: the uniform draws step
// the xoshiro source directly, and must return what math/rand returns
// over the same source, draw for draw — across power-of-two masks,
// rejection loops, the n > 2³¹−1 switch to Int63n, and mid-sequence
// Reseed and SetState — with the draws that still go through math/rand
// (ziggurat, Perm) interleaved into the same sequence.
func TestStreamMatchesMathRand(t *testing.T) {
	s := New(20260928)
	ref := mathRandOver(s)
	pick := rand.New(rand.NewSource(1)) // chooses the operations only

	fixedN := []int{1, 2, 3, 7, 20, 1<<30 + 1, math.MaxInt32 - 1, math.MaxInt32}
	const draws = 200_000
	for i := 0; i < draws; i++ {
		switch op := pick.Intn(12); op {
		case 0: // power of two: the mask path
			n := 1 << pick.Intn(31)
			if got, want := s.Intn(n), ref.Intn(n); got != want {
				t.Fatalf("draw %d: Intn(%d) = %d, math/rand %d", i, n, got, want)
			}
		case 1: // not a power of two: the rejection loop (half the draws rejected at 2³⁰+1)
			n := fixedN[pick.Intn(len(fixedN))]
			if pick.Intn(2) == 0 {
				n = 1 + pick.Intn(math.MaxInt32)
			}
			if got, want := s.Intn(n), ref.Intn(n); got != want {
				t.Fatalf("draw %d: Intn(%d) = %d, math/rand %d", i, n, got, want)
			}
		case 2: // beyond int32: Intn hands over to Int63n
			if strconv.IntSize == 32 {
				continue
			}
			n := int(int64(math.MaxInt32) + 1 + pick.Int63n(1<<40))
			if got, want := s.Intn(n), ref.Intn(n); got != want {
				t.Fatalf("draw %d: Intn(%d) = %d, math/rand %d", i, n, got, want)
			}
		case 3:
			n := 1 + pick.Int63n(math.MaxInt64)
			if pick.Intn(4) == 0 {
				n = 1 << pick.Intn(63)
			}
			if got, want := s.Int63n(n), ref.Int63n(n); got != want {
				t.Fatalf("draw %d: Int63n(%d) = %d, math/rand %d", i, n, got, want)
			}
		case 4:
			if got, want := s.Float64(), ref.Float64(); got != want {
				t.Fatalf("draw %d: Float64 = %v, math/rand %v", i, got, want)
			}
		case 5:
			p := pick.Float64()
			if got, want := s.Bool(p), ref.Float64() < p; got != want {
				t.Fatalf("draw %d: Bool(%v) = %v, math/rand %v", i, p, got, want)
			}
		case 6:
			if got, want := s.Uint64(), ref.Uint64(); got != want {
				t.Fatalf("draw %d: Uint64 = %d, math/rand %d", i, got, want)
			}
		case 7: // the rand.Rand-backed draws share the one source
			if got, want := s.Exp(1), ref.ExpFloat64(); got != want {
				t.Fatalf("draw %d: Exp = %v, math/rand %v", i, got, want)
			}
			if got, want := s.Normal(0, 1), ref.NormFloat64(); got != want {
				t.Fatalf("draw %d: Normal = %v, math/rand %v", i, got, want)
			}
		case 8:
			got, want := s.Perm(6), ref.Perm(6)
			for k := range want {
				if got[k] != want[k] {
					t.Fatalf("draw %d: Perm = %v, math/rand %v", i, got, want)
				}
			}
		case 9: // a run of coin flips as one mask
			p, n := pick.Float64()*0.01, 1+pick.Intn(150)
			dst := []uint64{^uint64(0), ^uint64(0), ^uint64(0)}
			any := s.FillBools(dst, n, NewBernoulli(p))
			wantAny := false
			for k := 0; k < n; k++ {
				want := ref.Float64() < p
				wantAny = wantAny || want
				if got := dst[k/64]>>uint(k%64)&1 == 1; got != want {
					t.Fatalf("draw %d: FillBools(p=%v) bit %d = %v, math/rand %v", i, p, k, got, want)
				}
			}
			if any != wantAny {
				t.Fatalf("draw %d: FillBools reported %v, want %v", i, any, wantAny)
			}
			for k := n; k < 64*((n+63)/64); k++ {
				if dst[k/64]>>uint(k%64)&1 == 1 {
					t.Fatalf("draw %d: FillBools left bit %d set beyond n=%d", i, k, n)
				}
			}
		case 10:
			if pick.Intn(100) == 0 {
				seed := pick.Uint64()
				s.Reseed(seed)
				ref.Seed(int64(seed))
			}
		case 11:
			if pick.Intn(100) == 0 {
				resumed := New(0)
				resumed.SetState(s.State())
				s = resumed // ref carries on mid-sequence
			}
		}
	}
	if s.Uint64() != ref.Uint64() {
		t.Fatal("stream and math/rand ended at different positions")
	}
}

// TestBernoulliOutcome checks the integer form of Bool's predicate on the
// draws where it could differ from the float form: either side of the
// threshold, across 2⁵³ (above which float64(v) rounds), and through the
// band float64(v)/2⁶³ rounds up to 1.0 in. That band has probability 2⁻⁵⁴,
// so no random test reaches it.
func TestBernoulliOutcome(t *testing.T) {
	ps := []float64{0, 5e-4, 0.5, 1 - 0x1p-53, 1, math.NaN(), -1, 2, 0x1p-63, 0x1p-1074, 1.0 / 3}
	for _, p := range ps {
		b := NewBernoulli(p)
		vs := []uint64{0, 1, 1<<53 - 1, 1 << 53, 1<<53 + 1, 1<<53 + 2, 1<<53 + 3}
		for d := uint64(0); d <= 3; d++ {
			vs = append(vs, b.below-d, b.below+d) // wraps harmlessly below 0: filtered next
		}
		for v := uint64(1<<63 - 1026); v < 1<<63; v++ {
			vs = append(vs, v)
		}
		for _, v := range vs {
			if v >= 1<<63 {
				continue // not a 63-bit draw
			}
			f := float64(int64(v)) / (1 << 63)
			hit, resample := b.outcome(v)
			if want := f == 1; resample != want {
				t.Fatalf("p=%v draw %d: resample = %v, math/rand resamples: %v", p, v, resample, want)
			}
			if want := f < p; !resample && hit != want {
				t.Fatalf("p=%v draw %d (threshold %d): hit = %v, float64(v)/2⁶³ < p is %v", p, v, b.below, hit, want)
			}
		}
	}
	if b := NewBernoulli(math.NaN()); b.below != 0 {
		t.Fatalf("NaN threshold %d, want never", b.below)
	}
	if b := NewBernoulli(1); b.below != float64One {
		t.Fatalf("p=1 threshold %d, want every accepted draw (%d)", b.below, uint64(float64One))
	}
}

// TestResampleBandMatchesMathRand starts streams on a crafted state whose
// next draw falls in the resample band and checks that every draw standing
// for a Float64 skips it exactly as math/rand does.
func TestResampleBandMatchesMathRand(t *testing.T) {
	inverse := func(a uint64) uint64 { // of an odd a modulo 2⁶⁴, by Newton's iteration
		x := a
		for i := 0; i < 6; i++ {
			x *= 2 - a*x
		}
		return x
	}
	for _, top := range []uint64{1<<64 - 1, 1<<64 - 1024, 1<<64 - 1025} { // first draw >> 1: in, in, just out
		// Invert the output function r = rotl(s1*5, 7) * 9 for s1.
		s1 := bits.RotateLeft64(top*inverse(9), -7) * inverse(5)
		st := State{Seed: 1, Src: [4]uint64{0x9e3779b97f4a7c15, s1, 3, 4}}
		if got := (&xoshiro{s: st.Src}).Uint64(); got != top {
			t.Fatalf("crafted state draws %#x, want %#x", got, top)
		}
		fresh := func() (*Stream, *rand.Rand) {
			s := New(0)
			s.SetState(st)
			return s, mathRandOver(s)
		}

		s, ref := fresh()
		if got, want := s.Float64(), ref.Float64(); got != want {
			t.Fatalf("first draw %d: Float64 = %v, math/rand %v", top>>1, got, want)
		}
		if s.Uint64() != ref.Uint64() {
			t.Fatalf("first draw %d: Float64 consumed a different number of draws than math/rand", top>>1)
		}

		for _, p := range []float64{0, 5e-4, 1} {
			s, ref = fresh()
			dst := make([]uint64, 1)
			s.FillBools(dst, 8, NewBernoulli(p))
			for k := 0; k < 8; k++ {
				if got, want := dst[0]>>uint(k)&1 == 1, ref.Float64() < p; got != want {
					t.Fatalf("first draw %d: FillBools(p=%v) bit %d = %v, math/rand %v", top>>1, p, k, got, want)
				}
			}
			if s.Uint64() != ref.Uint64() {
				t.Fatalf("first draw %d: FillBools(p=%v) consumed a different number of draws than math/rand", top>>1, p)
			}
		}
	}
}
