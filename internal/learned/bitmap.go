// Package learned implements the learned-index machinery of LearnedFTL and
// LeaFTL: a greedy piecewise linear regression (PLR) fitter, the
// in-place-update linear model with its bitmap filter (paper §III-B), and
// LeaFTL's learned segments organized in a log-structured mapping table
// (LSMT).
package learned

import "math/bits"

// Bitmap is the bitmap filter attached to each in-place-update linear model
// (paper Fig. 8). Bit i states whether the model's prediction for LPN offset
// i is exact (1) or must fall back to the demand-paging double-read path (0).
type Bitmap struct {
	words []uint64
	n     int
}

// NewBitmap returns an all-zero bitmap of n bits.
func NewBitmap(n int) *Bitmap {
	return &Bitmap{words: make([]uint64, (n+63)/64), n: n}
}

// Set sets bit i to 1.
func (b *Bitmap) Set(i int) { b.words[i>>6] |= 1 << (uint(i) & 63) }

// Clear sets bit i to 0.
func (b *Bitmap) Clear(i int) { b.words[i>>6] &^= 1 << (uint(i) & 63) }

// Get reports bit i.
func (b *Bitmap) Get(i int) bool { return b.words[i>>6]&(1<<(uint(i)&63)) != 0 }

// Count returns the number of set bits.
func (b *Bitmap) Count() int {
	c := 0
	for _, w := range b.words {
		c += bits.OnesCount64(w)
	}
	return c
}

// wordMask returns the bits of word w that fall inside [lo, hi); zero when
// none do, so the range operations need no case for empty ranges.
func wordMask(w, lo, hi int) uint64 {
	m := ^uint64(0)
	if base := w << 6; base < lo {
		m <<= uint(lo - base)
	}
	if end := w<<6 + 64; end > hi {
		m &= ^uint64(0) >> uint(end-hi)
	}
	return m
}

// CountRange returns the number of set bits in [lo, hi), a word at a time.
func (b *Bitmap) CountRange(lo, hi int) int {
	c := 0
	for w := lo >> 6; w<<6 < hi; w++ {
		c += bits.OnesCount64(b.words[w] & wordMask(w, lo, hi))
	}
	return c
}

// AnyRange reports whether any bit in [lo, hi) is set, stopping at the first
// word that holds one. Only the first and last words need masks.
func (b *Bitmap) AnyRange(lo, hi int) bool {
	if lo >= hi {
		return false
	}
	w, last := lo>>6, (hi-1)>>6
	m := ^uint64(0) << (uint(lo) & 63)
	for ; w < last; w++ {
		if b.words[w]&m != 0 {
			return true
		}
		m = ^uint64(0)
	}
	return b.words[last]&m&(^uint64(0)>>(63-uint(hi-1)&63)) != 0
}

// SetRange sets bits [lo, hi).
func (b *Bitmap) SetRange(lo, hi int) {
	for w := lo >> 6; w<<6 < hi; w++ {
		b.words[w] |= wordMask(w, lo, hi)
	}
}

// Reset zeroes the whole bitmap.
func (b *Bitmap) Reset() {
	for i := range b.words {
		b.words[i] = 0
	}
}

// SizeBytes returns the memory footprint of the bitmap payload.
func (b *Bitmap) SizeBytes() int { return len(b.words) * 8 }
