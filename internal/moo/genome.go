package moo

import (
	"encoding/binary"
	"math/bits"
	"strings"
)

// Genome is a fixed-length bit vector packed into uint64 words: gene i
// lives in word i/64 at bit i%64. The GA's hot loop is dominated by
// genome copies, comparisons and key digests, all of which run word-at-
// a-time here instead of byte-per-gene as with a []bool encoding.
//
// Invariant: bits at positions >= Len() in the last word are always zero,
// so word-level equality, digests and population counts need no masking.
// All mutating methods preserve it.
//
// A Genome stored in an evaluated Solution is immutable by convention
// (solutions share canonical genome storage via the Evaluator cache);
// mutate only genomes you own, e.g. breeding scratch buffers.
type Genome struct {
	w []uint64
	n int
}

// NewGenome returns an all-zero genome of n bits.
func NewGenome(n int) Genome {
	if n <= 0 {
		return Genome{}
	}
	return Genome{w: make([]uint64, (n+63)/64), n: n}
}

// FromBools packs a []bool selection vector into a Genome.
func FromBools(bitvec []bool) Genome {
	g := NewGenome(len(bitvec))
	for i, v := range bitvec {
		if v {
			g.w[i/64] |= 1 << uint(i%64)
		}
	}
	return g
}

// Len returns the number of genes.
func (g Genome) Len() int { return g.n }

// Bit reports whether gene i is set.
func (g Genome) Bit(i int) bool { return g.w[i/64]&(1<<uint(i%64)) != 0 }

// SetBit sets gene i to v.
func (g Genome) SetBit(i int, v bool) {
	if v {
		g.w[i/64] |= 1 << uint(i%64)
	} else {
		g.w[i/64] &^= 1 << uint(i%64)
	}
}

// FlipBit inverts gene i.
func (g Genome) FlipBit(i int) { g.w[i/64] ^= 1 << uint(i%64) }

// Zero clears every gene.
func (g Genome) Zero() {
	for i := range g.w {
		g.w[i] = 0
	}
}

// Words exposes the packed words for word-at-a-time readers (objective
// accumulation over selected genes). Callers must not mutate them unless
// they own the genome.
func (g Genome) Words() []uint64 { return g.w }

// OnesCount returns the number of selected genes.
func (g Genome) OnesCount() int {
	c := 0
	for _, w := range g.w {
		c += bits.OnesCount64(w)
	}
	return c
}

// Ones returns the selected gene indices in ascending order; nil when
// nothing is selected.
func (g Genome) Ones() []int { return g.AppendOnes(nil) }

// AppendOnes appends the selected gene indices to dst in ascending order.
func (g Genome) AppendOnes(dst []int) []int {
	for wi, w := range g.w {
		base := wi * 64
		for w != 0 {
			dst = append(dst, base+bits.TrailingZeros64(w))
			w &= w - 1
		}
	}
	return dst
}

// Bools unpacks the genome into a fresh []bool.
func (g Genome) Bools() []bool {
	out := make([]bool, g.n)
	for i := range out {
		out[i] = g.Bit(i)
	}
	return out
}

// Clone returns an independent copy.
func (g Genome) Clone() Genome {
	c := Genome{n: g.n}
	c.w = append([]uint64(nil), g.w...)
	return c
}

// CopyFrom overwrites g with src's genes. Lengths must match.
func (g Genome) CopyFrom(src Genome) {
	if g.n != src.n {
		panic("moo: CopyFrom between genomes of different length")
	}
	copy(g.w, src.w)
}

// Equal reports whether two genomes have identical length and genes.
func (g Genome) Equal(h Genome) bool {
	if g.n != h.n {
		return false
	}
	for i, w := range g.w {
		if w != h.w[i] {
			return false
		}
	}
	return true
}

// String renders the genome as a '0'/'1' string, gene 0 first.
func (g Genome) String() string {
	var b strings.Builder
	b.Grow(g.n)
	for i := 0; i < g.n; i++ {
		if g.Bit(i) {
			b.WriteByte('1')
		} else {
			b.WriteByte('0')
		}
	}
	return b.String()
}

// appendKey appends the genome's digest to dst: the genes packed MSB-first
// per byte, followed by the uvarint length. MSB-first packing makes
// byte-wise key comparison order agree with comparing the genomes as
// '0'/'1' strings (the tie-break order SortLexicographic relies on); the
// length suffix distinguishes genomes whose bits agree but whose lengths
// differ.
func (g Genome) appendKey(dst []byte) []byte {
	for j := 0; j < (g.n+7)/8; j++ {
		dst = append(dst, bits.Reverse8(uint8(g.w[j/8]>>(8*uint(j%8)))))
	}
	return binary.AppendUvarint(dst, uint64(g.n))
}

// Key returns the genome's compact digest, for deduplication and the
// Evaluator's memoization cache. Empty genomes key to "".
func (g Genome) Key() string {
	if g.n == 0 {
		return ""
	}
	var arr [keyBufSize]byte
	return string(g.appendKey(arr[:0]))
}

// hash mixes the length and words for the Evaluator's table, which reads
// the top bits: a multiplication by 2⁶⁴/φ per word (Fibonacci hashing),
// after a rotation that brings the high bits so far down to be spread.
func (g Genome) hash() uint64 {
	h := uint64(g.n)
	for _, w := range g.w {
		h = (bits.RotateLeft64(h, 32) ^ w) * 0x9e3779b97f4a7c15
	}
	return h
}

// keyBufSize fits the stack-allocated key scratch for genomes up to 1024
// genes (128 digest bytes + 2 uvarint bytes) — the largest window a
// registered workload solves; longer genomes spill to the heap inside
// append.
const keyBufSize = 130

// crossoverInto writes single-point crossover a[:cut] + b[cut:] into dst,
// word-at-a-time. All three genomes must share dst's length; cut must be
// in [0, len].
func crossoverInto(dst, a, b Genome, cut int) {
	cw, cb := cut/64, uint(cut%64)
	copy(dst.w[:cw], a.w[:cw])
	if cw == len(dst.w) {
		return
	}
	if cb == 0 {
		copy(dst.w[cw:], b.w[cw:])
		return
	}
	mask := (uint64(1) << cb) - 1
	dst.w[cw] = a.w[cw]&mask | b.w[cw]&^mask
	copy(dst.w[cw+1:], b.w[cw+1:])
}
