// Package sched is the simulator's one tournament tree: a loser tree that
// orders a fixed set of entrants by (time, entrant index). The engine
// (internal/sim) keys request sources by their next event, and the block
// manager (internal/ftl) keys chips, in allocation scan order, by their
// busy-until time.
package sched

import (
	"math"
	"math/bits"

	"learnedftl/internal/nand"
)

// Never is the time of an entrant with no further event: a retired one, and
// the padding leaves that square the tree off to a power of two.
const Never = nand.Time(math.MaxInt64)

// entry is one entrant of the tournament: an index and its time. The time
// is kept as an unsigned key — the sign bit flipped, so unsigned order is
// time order, negative times and Never included.
type entry struct {
	key uint64
	src uint32
}

func timeKey(t nand.Time) uint64 { return uint64(t) ^ 1<<63 }

func (e entry) at() nand.Time { return nand.Time(e.key ^ 1<<63) }

// before orders entries by (time, index).
func (e entry) before(m entry) bool {
	return e.key < m.key || (e.key == m.key && e.src < m.src)
}

// Tree orders n entrants by (time, entrant index). The secondary index
// ordering is the deterministic tie-break: among entrants at the same time,
// the lowest-indexed one wins.
//
// It is a loser tree of fixed shape. The entrants are the leaves, padded
// with Never-timed ones to a power of two; node[i], i >= 1, holds the loser
// of the match played at internal node i, and node[0] the overall winner.
// Only the winner is ever re-keyed, and re-keying it replays exactly the
// matches on its leaf-to-root path — log2(leaves) comparisons against the
// stored losers, one node each. A single entrant has no internal node, so a
// one-generator warm-up schedules for free. Nothing allocates after
// construction.
type Tree struct {
	node []entry
	n    int // entrants, padding excluded
	live int // entrants that have not retired
}

// New returns a tree over n entrants, entrant i at time at(i).
func New(n int, at func(i int) nand.Time) *Tree {
	leaves := 1
	for leaves < n {
		leaves *= 2
	}
	s := &Tree{node: make([]entry, leaves), n: n}
	s.Reset(at)
	return s
}

// Reset puts every entrant i back in the tournament at time at(i) and
// replays every match.
func (s *Tree) Reset(at func(i int) nand.Time) {
	s.live = s.n
	s.node[0] = s.play(1, at)
}

// play plays the subtree under node i bottom-up, storing each match's loser
// at its node, and returns the subtree's winner. The leaves sit at
// node indices len(node) and up.
func (s *Tree) play(i int, at func(i int) nand.Time) entry {
	leaves := len(s.node)
	if i >= leaves {
		e := entry{key: timeKey(Never), src: uint32(i - leaves)}
		if int(e.src) < s.n {
			e.key = timeKey(at(int(e.src)))
		}
		return e
	}
	a, b := s.play(2*i, at), s.play(2*i+1, at)
	if b.before(a) {
		a, b = b, a
	}
	s.node[i] = b
	return a
}

// Len returns the number of entrants that have not retired.
func (s *Tree) Len() int { return s.live }

// Min returns the winner — the entrant with the least (time, index) — and
// its time.
func (s *Tree) Min() (entrant int, at nand.Time) {
	return int(s.node[0].src), s.node[0].at()
}

// Advance moves the winner to time t.
//
// Which way each match goes is close to a coin toss, so the replay is
// written without a branch on it. The loser stored at a node on the
// climber's path came from the other subtree, so the index tie-break is the
// side the climber came from: the stored loser wins a tie exactly when the
// climber comes up from a right child c (c odd: the higher indices), and
// the subtraction loser − climber − (c&1) borrows exactly when the stored
// loser comes first. The borrow, spread to a mask, swaps the two or leaves
// them.
func (s *Tree) Advance(t nand.Time) {
	node := s.node
	wk, ws := timeKey(t), uint64(node[0].src)
	for c := len(node) + int(ws); c > 1; c >>= 1 {
		n := &node[c>>1]
		lk, ls := n.key, uint64(n.src)
		_, borrow := bits.Sub64(lk, wk, uint64(c&1))
		swap := -borrow
		dk, ds := (lk^wk)&swap, (ls^ws)&swap
		n.key, n.src = lk^dk, uint32(ls^ds)
		wk, ws = wk^dk, ws^ds
	}
	node[0] = entry{key: wk, src: uint32(ws)}
}

// Retire removes the winner from the tournament.
func (s *Tree) Retire() {
	s.Advance(Never)
	s.live--
}
