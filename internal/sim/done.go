package sim

import (
	"math/bits"
	"slices"
)

// doneSet is the set of finished job IDs. Every ID below the watermark low
// is finished; above it, bit id-base of a ring of bit words says, base
// being the first ID of the ring's head word (low rounded down to a
// multiple of 64). IDs are dense in pull order and only pulled jobs
// finish, so the ring spans [low, pulled) — the jobs in flight and the
// ones that finished ahead of them — not the trace: low advances over a
// run of finished IDs a word at a time and retires each word it leaves.
type doneSet struct {
	low   int
	base  int
	words []uint64 // a ring from head; its length is 0 or a power of two
	head  int
}

// has reports whether job id has finished.
func (d *doneSet) has(id int) bool {
	if id < d.low {
		return true
	}
	k := (id - d.base) >> 6
	return k < len(d.words) && d.words[(d.head+k)&(len(d.words)-1)]&(1<<(id&63)) != 0
}

// add records that job id, at or above the watermark, has finished.
func (d *doneSet) add(id int) {
	if id != d.low {
		d.set(id)
		return
	}
	d.low++
	for {
		off := d.low - d.base
		if off == 64 {
			d.retire()
			off = 0
		}
		if len(d.words) == 0 {
			return
		}
		// The finished IDs from low on in the head word, as a run of ones.
		d.low += bits.TrailingZeros64(^(d.words[d.head] >> off))
		if d.low-d.base < 64 {
			return
		}
	}
}

// set marks id, above the watermark, without moving the watermark.
func (d *doneSet) set(id int) {
	k := (id - d.base) >> 6
	if k >= len(d.words) {
		d.grow(k + 1)
	}
	d.words[(d.head+k)&(len(d.words)-1)] |= 1 << (id & 63)
}

// retire drops the head word, which the watermark has passed.
func (d *doneSet) retire() {
	if len(d.words) > 0 {
		d.words[d.head] = 0
		d.head = (d.head + 1) & (len(d.words) - 1)
	}
	d.base += 64
}

// grow makes the ring at least n words long, unrolling it from head.
func (d *doneSet) grow(n int) {
	size := max(len(d.words), 4)
	for size < n {
		size *= 2
	}
	words := make([]uint64, size)
	k := copy(words, d.words[d.head:])
	copy(words[k:], d.words[:d.head])
	d.words, d.head = words, 0
}

// appendAbove appends the finished IDs above the watermark to dst in
// ascending order, growing dst at most once.
func (d *doneSet) appendAbove(dst []int64) []int64 {
	n := 0
	for k := range d.words {
		n += bits.OnesCount64(d.word(k))
	}
	dst = slices.Grow(dst, n)
	for k := range d.words {
		for w := d.word(k); w != 0; w &= w - 1 {
			dst = append(dst, int64(d.base+64*k+bits.TrailingZeros64(w)))
		}
	}
	return dst
}

// word returns the ring's kth word from head, the head word without the
// bits below the watermark.
func (d *doneSet) word(k int) uint64 {
	w := d.words[(d.head+k)&(len(d.words)-1)]
	if k == 0 {
		w &= ^uint64(0) << (d.low - d.base)
	}
	return w
}
