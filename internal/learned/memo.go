package learned

import "math/bits"

// Memo remembers recent answers of a device's learned lookups: for an LPN,
// the page its table or model answered while that table or model carried a
// stamp. It is direct-mapped, slot lpn&(len−1), and an answer is a pure
// function of the stamp, so a slot that holds the LPN under the current
// stamp gives what a fresh lookup would, and nothing ever clears the memo.
// It is host scratch: it saves the simulator a lookup and changes no
// simulated number.
type Memo []memoSlot

// memoSlot is one answer: the page ppn for lpn under stamp. An empty slot
// holds LPN −1, which no lookup asks for. Every LPN and page is below
// 2^31−1.
type memoSlot struct {
	stamp    uint64
	lpn, ppn int32
}

// NewMemo returns an empty memo of at least n slots, n rounded up to a power
// of two.
func NewMemo(n int) Memo {
	m := make(Memo, 1<<bits.Len(uint(max(n, 1)-1)))
	for i := range m {
		m[i].lpn = -1
	}
	return m
}

// Get returns the page lpn's slot remembers for it and the stamp it was
// remembered under; ok is false when the slot holds another LPN or none.
// The page is lpn's current answer only if the stamp is the current one.
func (m Memo) Get(lpn int64) (ppn int64, stamp uint64, ok bool) {
	s := &m[int(lpn)&(len(m)-1)]
	return int64(s.ppn), s.stamp, s.lpn == int32(lpn)
}

// Put remembers ppn as lpn's page under stamp, in place of whatever its
// slot held. ppn may be −1, an answer that declines.
func (m Memo) Put(lpn int64, stamp uint64, ppn int64) {
	m[int(lpn)&(len(m)-1)] = memoSlot{stamp: stamp, lpn: int32(lpn), ppn: int32(ppn)}
}
