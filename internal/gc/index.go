package gc

import (
	"math"

	"learnedftl/internal/nand"
)

// victimIndex is the incremental victim-selection index: a policy-aware
// tournament tree over all blocks that replaces the per-collection
// O(TotalBlocks) linear scan with an O(log B)-per-update, pruned-descent
// query, while choosing victims byte-identically to the scan under every
// policy.
//
// Why not the textbook lazy-deletion heap? Greedy's score (−valid) is
// time-independent, so a stale-key heap would be exact for it — but
// cost-benefit and cost-age scores grow with the query time `now` at a
// per-candidate rate (the candidate's benefit slope), so keys computed at
// insertion time underestimate by different amounts and the heap top is not
// the argmax at query time. Exactness instead comes from a branch-and-bound
// descent over subtree aggregates chosen so each node's bound provably
// dominates every leaf score beneath it *in float arithmetic*:
//
//   - greedy:       bound = −minValid                      (time-free)
//   - cost-benefit: bound = maxSlope · (maxAge+1),         maxAge from minLastMod
//   - cost-age:     bound = maxSlope · (maxAge+1)/(minErases+1)
//
// Leaf slopes are computed with the same float expressions Policy.Score
// uses, and IEEE-754 correctly-rounded ·, / and int→float conversion are
// monotone, so bound ≥ score holds exactly, not just approximately. Leaves
// are visited in ascending block id (left-first descent) with the scan's
// strict-greater comparison, reproducing its lowest-id tie-break.
//
// The index is fed by the invalidation hooks: nand.Flash reports every
// program/invalidate/erase/import at block granularity, the block manager
// reports active-block transitions, and dirty leaves are re-read from the
// flash array lazily at the next selection. Marking dirty is two array
// writes and never allocates, keeping the write hot path allocation-free.
type victimIndex struct {
	fl    *nand.Flash
	alloc Allocator
	pol   Policy
	kind  Kind
	cap   int // page capacity per block (Candidate.Capacity)

	nBlocks int
	size    int      // smallest power of two >= nBlocks
	nodes   []ixNode // implicit tree; root at 1, leaf b at size+b

	// active mirrors the allocator's active-block set, maintained through
	// ActiveChanged notifications (seeded by a full probe at construction
	// and resynced wholesale after snapshot restores / crash rebuilds).
	active []bool

	dirty []bool
	queue []int // dirty blocks awaiting a leaf reload; cap nBlocks, no growth
	// pulled marks the internal nodes a flush has already queued for one
	// level's pull; each is cleared as the node is pulled.
	pulled []bool

	selections int64 // victim queries answered
	examined   int64 // candidate leaves scored across all queries
}

// ixNode is one tree node. Internal nodes hold the subtree aggregates the
// bounds are computed from; leaves additionally hold the block's candidate
// state (wp, valid) so selection never re-reads the flash array.
type ixNode struct {
	count int32 // eligible candidates in the subtree (0, 1 for leaves)
	wp    int32 // leaves only: write pointer
	valid int32 // leaves: valid pages; internal: min over subtree
	slope float64
	minM  nand.Time
	minE  int64
}

// newVictimIndex builds the index over fl's blocks with every leaf dirty.
func newVictimIndex(fl *nand.Flash, alloc Allocator, pol Policy) *victimIndex {
	n := fl.Geometry().TotalBlocks()
	size := 1
	for size < n {
		size *= 2
	}
	x := &victimIndex{
		fl:      fl,
		alloc:   alloc,
		pol:     pol,
		kind:    pol.Kind(),
		cap:     fl.Geometry().PagesPerBlock,
		nBlocks: n,
		size:    size,
		nodes:   make([]ixNode, 2*size),
		active:  make([]bool, n),
		dirty:   make([]bool, n),
		queue:   make([]int, 0, n),
		pulled:  make([]bool, size),
	}
	for b := 0; b < n; b++ {
		x.active[b] = alloc.IsActive(b)
		x.markDirty(b)
	}
	return x
}

// BlockDirty implements nand.BlockObserver: the block's page states, write
// pointer, erase count or recency changed. Runs on the program/invalidate
// hot paths — two array writes, no allocation (queue capacity is fixed at
// construction).
func (x *victimIndex) BlockDirty(blockID int) { x.markDirty(blockID) }

func (x *victimIndex) markDirty(blockID int) {
	if x.dirty[blockID] {
		return
	}
	x.dirty[blockID] = true
	x.queue = append(x.queue, blockID)
}

// activeChanged re-reads the block's active status from the allocator and
// schedules a leaf reload. Fired by the block manager on every active-block
// transition.
func (x *victimIndex) activeChanged(blockID int) {
	x.active[blockID] = x.alloc.IsActive(blockID)
	x.markDirty(blockID)
}

// resyncActive re-probes the allocator's active set wholesale — the recovery
// path for snapshot restores and crash rebuilds, where active blocks move
// without individual notifications.
func (x *victimIndex) resyncActive() {
	for b := 0; b < x.nBlocks; b++ {
		if na := x.alloc.IsActive(b); na != x.active[b] {
			x.active[b] = na
			x.markDirty(b)
		}
	}
}

// flush drains the dirty queue: each dirty block's leaf is re-read from the
// flash array, then the tree is re-aggregated one level at a time, bottom
// up, pulling each ancestor of a dirty leaf once. Dirty leaves share most
// of their ancestors near the root, so this is far fewer pulls than a root
// path per leaf. The queue is rewritten in place into the level's node
// indices.
func (x *victimIndex) flush() {
	q := x.queue
	for k, b := range q {
		x.dirty[b] = false
		x.reloadLeaf(b)
		q[k] = x.size + b
	}
	for len(q) > 0 && q[0] > 1 {
		n := 0
		for _, i := range q {
			if p := i >> 1; !x.pulled[p] {
				x.pulled[p] = true
				q[n] = p
				n++
			}
		}
		q = q[:n]
		for _, i := range q {
			x.pulled[i] = false
			x.pull(i)
		}
	}
	x.queue = x.queue[:0]
}

// reloadLeaf refreshes one block's leaf from the flash array. Eligibility
// matches the linear scan: something programmed, something reclaimable, not
// an active write block.
func (x *victimIndex) reloadLeaf(b int) {
	n := &x.nodes[x.size+b]
	wp := x.fl.BlockWritePtr(b)
	v := x.fl.BlockValid(b)
	if wp == 0 || v >= wp || x.active[b] || x.fl.BlockBad(b) {
		n.count = 0
		return
	}
	n.count = 1
	n.wp = int32(wp)
	n.valid = int32(v)
	n.minM = x.fl.BlockLastMod(b)
	n.minE = x.fl.BlockErases(b)
	switch x.kind {
	case CostBenefit:
		// The same expression costBenefit.Score factors its age term out
		// of, so a leaf's bound is bit-identical to its score.
		u := float64(v) / float64(x.cap)
		if u == 0 {
			n.slope = math.Inf(1)
		} else {
			n.slope = (1 - u) / (2 * u)
		}
	case CostAgeTimes:
		n.slope = float64(wp-v) / float64(v+1)
	default: // greedy is ordered by n.valid alone
		n.slope = 0
	}
}

// pull recomputes an internal node from its children. Aggregates combine
// only over children that still hold candidates.
func (x *victimIndex) pull(i int) {
	l, r := &x.nodes[2*i], &x.nodes[2*i+1]
	n := &x.nodes[i]
	n.count = l.count + r.count
	switch {
	case l.count == 0:
		n.valid, n.slope, n.minM, n.minE = r.valid, r.slope, r.minM, r.minE
	case r.count == 0:
		n.valid, n.slope, n.minM, n.minE = l.valid, l.slope, l.minM, l.minE
	default:
		n.valid = min(l.valid, r.valid)
		n.slope = max(l.slope, r.slope)
		n.minM = min(l.minM, r.minM)
		n.minE = min(l.minE, r.minE)
	}
}

// bound returns a score no leaf under node n can exceed at time now. The
// age clamp mirrors the scan's (BlockLastMod may sit past the trigger
// time); all arithmetic is monotone in the aggregated operands, so the
// dominance is exact in float64.
func (x *victimIndex) bound(n *ixNode, now nand.Time) float64 {
	switch x.kind {
	case CostBenefit:
		age := now - n.minM
		if age < 0 {
			age = 0
		}
		return n.slope * float64(age+1)
	case CostAgeTimes:
		age := now - n.minM
		if age < 0 {
			age = 0
		}
		return n.slope * float64(age+1) / float64(n.minE+1)
	default: // greedy
		return -float64(n.valid)
	}
}

// victim answers one selection: flush dirty leaves, then a left-first
// branch-and-bound descent. Identical result to the linear scan: leaves are
// visited in ascending block id, compared with strict >, and a subtree is
// pruned only when its bound cannot strictly beat the incumbent.
func (x *victimIndex) victim(now nand.Time) int {
	x.flush()
	x.selections++
	best := -1
	var bestScore float64
	x.descend(1, now, &best, &bestScore)
	return best
}

func (x *victimIndex) descend(i int, now nand.Time, best *int, bestScore *float64) {
	n := &x.nodes[i]
	if n.count == 0 {
		return
	}
	if *best >= 0 && !(x.bound(n, now) > *bestScore) {
		return
	}
	if i >= x.size {
		b := i - x.size
		// Belt over the notification braces: a block activated without an
		// ActiveChanged call must still never be selected.
		if x.alloc.IsActive(b) {
			return
		}
		x.examined++
		age := now - n.minM
		if age < 0 {
			age = 0
		}
		s := x.pol.Score(Candidate{
			ID:       b,
			Valid:    int(n.valid),
			Invalid:  int(n.wp - n.valid),
			Capacity: x.cap,
			Erases:   n.minE,
			Age:      age,
		})
		if *best == -1 || s > *bestScore {
			*best, *bestScore = b, s
		}
		return
	}
	x.descend(2*i, now, best, bestScore)
	x.descend(2*i+1, now, best, bestScore)
}
