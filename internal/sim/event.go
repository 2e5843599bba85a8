package sim

import (
	"math"
	"math/bits"

	"learnedftl/internal/ftl"
	"learnedftl/internal/nand"
)

// This file is the event core under the engine loop (run, engine.go): a
// tournament tree (sched) orders request sources by their next event time,
// and issue() executes one request against an FTL at a virtual timestamp.
// A source's next event is the later of its next arrival and its previous
// completion; a closed-loop thread's arrivals are unbounded, so its next
// event is simply its previous completion.

// issue executes one host request against f at virtual time now and returns
// the completion time plus the normalized page count. The completion is
// clamped to now *before* the caller records any latency, so a backwards
// completion time from an FTL can never surface as a negative latency (see
// TestIssueClampsBackwardsCompletion).
func issue(f ftl.FTL, req Request, now nand.Time) (done nand.Time, pages int) {
	pages = req.Pages
	switch {
	case req.Trim:
		// A non-positive page count must NOT normalize to 1 here: a
		// malformed zero-page trim would then silently discard one page's
		// live mapping. Trims cover exactly what they say or nothing.
		if pages <= 0 {
			return now, 0
		}
		done = f.TrimPages(req.LPN, pages, now)
	case req.Write:
		if pages <= 0 {
			pages = 1
		}
		done = f.WritePages(req.LPN, pages, now)
	default:
		if pages <= 0 {
			pages = 1
		}
		done = f.ReadPages(req.LPN, pages, now)
	}
	if done < now {
		done = now
	}
	return done, pages
}

// never is the event time of a source with no further event: a retired
// source, and the padding leaves that square the tree off to a power of two.
const never = nand.Time(math.MaxInt64)

// schedNode is one entrant of the tournament: a source and its event time.
// The time is kept as an unsigned key — the sign bit flipped, so unsigned
// order is time order — which lets (key, src) be compared as one 128-bit
// number.
type schedNode struct {
	key uint64
	src uint32
}

func timeKey(t nand.Time) uint64 { return uint64(t) ^ 1<<63 }

func (n schedNode) at() nand.Time { return nand.Time(n.key ^ 1<<63) }

// before orders nodes by (event time, source index).
func (n schedNode) before(m schedNode) bool {
	return n.key < m.key || (n.key == m.key && n.src < m.src)
}

// sched orders request sources (closed-loop threads and open-loop streams)
// by (event time, source index). The secondary index ordering is the
// engine's deterministic tie-break: among sources eventing at the same
// virtual time, the lowest-indexed one goes first.
//
// It is a loser tree of fixed shape. The sources are the leaves, padded
// with never-eventing ones to a power of two; node[i], i >= 1, holds the
// loser of the match played at internal node i, and node[0] the overall
// winner. The engine only ever re-keys the source it just ran, and
// re-keying the winner replays exactly the matches on its leaf-to-root
// path — log2(leaves) comparisons against the stored losers, one node
// each. A single source has no internal node, so a one-generator warm-up
// schedules for free. Nothing allocates after construction.
type sched struct {
	node []schedNode
	live int // sources that have not retired
}

// newSched returns a scheduler over n sources, all eventing at t.
func newSched(n int, t nand.Time) *sched {
	leaves := 1
	for leaves < n {
		leaves *= 2
	}
	s := &sched{node: make([]schedNode, leaves), live: n}
	// Play the tournament bottom-up: win[i] is the winner of the subtree
	// under node i, the leaves sitting at win[leaves:].
	win := make([]schedNode, 2*leaves)
	for i := 0; i < leaves; i++ {
		win[leaves+i] = schedNode{key: timeKey(never), src: uint32(i)}
		if i < n {
			win[leaves+i].key = timeKey(t)
		}
	}
	for i := leaves - 1; i >= 1; i-- {
		a, b := win[2*i], win[2*i+1]
		if b.before(a) {
			a, b = b, a
		}
		win[i], s.node[i] = a, b
	}
	s.node[0] = win[1]
	return s
}

// len returns the number of sources still scheduled.
func (s *sched) len() int { return s.live }

// min returns the earliest-eventing source and its event time. Only call
// with len() > 0.
func (s *sched) min() (source int, at nand.Time) {
	return int(s.node[0].src), s.node[0].at()
}

// advance moves the current minimum's next event to t.
//
// Which way each match goes is close to a coin toss, so the replay is
// written without a branch on it: the 128-bit subtraction (loser − climber)
// borrows exactly when the stored loser comes before the climber, and the
// borrow, spread to a mask, swaps the two or leaves them.
func (s *sched) advance(t nand.Time) {
	node := s.node
	wk, ws := timeKey(t), uint64(node[0].src)
	for i := (len(node) + int(ws)) >> 1; i >= 1; i >>= 1 {
		n := &node[i]
		lk, ls := n.key, uint64(n.src)
		_, borrow := bits.Sub64(ls, ws, 0)
		_, borrow = bits.Sub64(lk, wk, borrow)
		swap := -borrow
		dk, ds := (lk^wk)&swap, (ls^ws)&swap
		n.key, n.src = lk^dk, uint32(ls^ds)
		wk, ws = wk^dk, ws^ds
	}
	node[0] = schedNode{key: wk, src: uint32(ws)}
}

// retire removes the current minimum from the schedule.
func (s *sched) retire() {
	s.advance(never)
	s.live--
}
