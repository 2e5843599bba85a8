package leaftl

import "math/bits"

// lpnSet is the membership side of LeaFTL's DRAM data buffer: one bit per
// logical page plus a count. A write, a read probe and a trim each touch
// one word, and walking the set bits yields the buffered LPNs in ascending
// order — the order the flush programs and trains in — with no sort.
type lpnSet struct {
	words []uint64
	n     int
}

func newLPNSet(pages int64) lpnSet {
	return lpnSet{words: make([]uint64, (pages+63)/64)}
}

func (s *lpnSet) len() int { return s.n }

func (s *lpnSet) has(lpn int64) bool { return s.words[lpn>>6]&(1<<(uint(lpn)&63)) != 0 }

func (s *lpnSet) add(lpn int64) {
	w, bit := &s.words[lpn>>6], uint64(1)<<(uint(lpn)&63)
	if *w&bit == 0 {
		*w |= bit
		s.n++
	}
}

func (s *lpnSet) remove(lpn int64) {
	w, bit := &s.words[lpn>>6], uint64(1)<<(uint(lpn)&63)
	if *w&bit != 0 {
		*w &^= bit
		s.n--
	}
}

// next returns the smallest member >= from, or -1.
func (s *lpnSet) next(from int64) int64 {
	for w := from >> 6; w < int64(len(s.words)); w++ {
		word := s.words[w]
		if w == from>>6 {
			word &= ^uint64(0) << (uint(from) & 63)
		}
		if word != 0 {
			return w<<6 + int64(bits.TrailingZeros64(word))
		}
	}
	return -1
}
