package learned

import (
	"fmt"
	"math"
)

// LSMT is LeaFTL's log-structured mapping table (§II-C): learned segments
// organized in levels. New segments enter level 0; existing segments they
// overlap are pushed down one level so a top-down scan always meets the
// newest segment covering an LPN first.
//
// The segments live in one slab per table, packed into 24-byte records at
// stable slots: a freed slot is reused before the slab grows. A segment is
// named by its handle, its slot plus one, and a level is a list of handles
// sorted by S. Lookups do not scan the levels: the index holds, for every
// LPN of the table's key range, the handle of the newest segment covering
// it, or 0 when none does, so a lookup is a bounds check and two loads.
type LSMT struct {
	slab   []record   // segments at stable slots; freed ones chain from free
	free   uint16     // handle of the first freed slot, 0 when none
	levels [][]uint16 // handles, each level sorted by S, non-overlapping
	lo, hi int64      // the key range [lo, hi)
	index  []uint16   // per LPN from lo: handle of the newest segment covering it
	nseg   int
	sc     *Scratch
}

// record is a Segment packed for the slab. Every LPN is below
// nand.MaxPages, 2^31−1, and a segment spans at most a translation page,
// which ftl.Config.Validate keeps below 2^15 LPNs, as it keeps the error
// bound and so Err. A freed record has L 0 and holds the next freed handle
// in S.
type record struct {
	K, I   float64
	S      int32
	L, Err uint16
}

func (r *record) segment() Segment {
	return Segment{S: int64(r.S), K: r.K, I: r.I, L: int32(r.L), Err: int32(r.Err)}
}

func (r *record) end() int64 { return int64(r.S) + int64(r.L) }

// maxSegments is how many segments one table can hold: a handle is a
// uint16 and 0 means none.
const maxSegments = math.MaxUint16

// Scratch is the working memory of LSMT inserts and compactions. A device's
// tables share one, so it costs one set of buffers per device rather than one
// per table; tables sharing a Scratch must not be used concurrently.
type Scratch struct {
	run       []uint16 // the handles of the batch being inserted
	displaced []uint16 // a stack: each level's displaced run sits above its caller's
	merged    []uint16 // one level's window after the splice
	named     []bool   // by handle: whether the index names it, during a compaction
}

// NewLSMT returns an empty table with its own scratch over the LPNs
// [0, 2^31−1). Its index starts empty and grows to the largest segment end
// inserted.
func NewLSMT() *LSMT { return &LSMT{sc: new(Scratch), hi: math.MaxInt32} }

// NewLSMT returns an empty table working in sc over the LPNs [lo, hi), a
// range that must not reach past 2^31−1.
func (sc *Scratch) NewLSMT(lo, hi int64) *LSMT {
	return &LSMT{sc: sc, lo: lo, hi: hi, index: make([]uint16, hi-lo)}
}

// NumSegments returns the total number of live segments.
func (t *LSMT) NumSegments() int { return t.nseg }

// SizeBytes returns the memory footprint charged for the table.
func (t *LSMT) SizeBytes() int { return t.nseg * SegmentBytes }

// end returns the first LPN past s.
func end(s Segment) int64 { return s.S + int64(s.L) }

// Insert adds newly trained segments. Each must span [1, 2^16) LPNs inside
// the table's key range and carry an Err in [0, 2^16). A table holds at most
// 2^16−1 segments: an insert that would pass that first drops the shadowed
// ones as CompactShadowed does, which leaves at most one per LPN, and panics
// if that is not enough — it is, for a run over a key range below 2^15.
// The segments enter level 0; overlapped older segments migrate down (the
// paper's "if one layer has overlapped segment, LeaFTL will migrate the old
// segment to the next layer"). The result is that of inserting the segments
// one at a time, in order. A run sorted by S without overlaps — what
// FitSegments fits for one translation page — is merged into each level it
// reaches at once; any other batch is inserted as its maximal such runs.
func (t *LSMT) Insert(segs []Segment) {
	run := t.sc.run[:0]
	for len(segs) > 0 {
		n := 1
		for n < len(segs) && segs[n].S >= end(segs[n-1]) {
			n++
		}
		if t.nseg+n > maxSegments {
			// The compaction reads the index: paint what went in so far.
			t.paint(run)
			run = run[:0]
			t.CompactShadowed()
			if t.nseg+n > maxSegments {
				panic(fmt.Sprintf("learned: %d visible segments and %d new ones pass a table's %d", t.nseg, n, maxSegments))
			}
		}
		t.nseg += n // an insert only ever moves older segments down
		k := len(run)
		for _, s := range segs[:n] {
			run = append(run, t.put(s))
		}
		t.insertRun(0, run[k:])
		segs = segs[n:]
	}
	t.sc.run = run
	t.paint(run)
}

// levelGrowth is how many spare slots a level — or the slab — of n segments
// may carry: what a splice that finds the level full leaves behind, and
// what a compaction trims it back to. Enough that a level is not
// reallocated per insert, small enough that the thousands of short levels a
// device holds stay close to their length (append's doubling would cost
// them half again in slack).
func levelGrowth(n int) int { return 2 + n/8 }

// put packs s into a free slot, growing the slab by levelGrowth when none is
// left, and returns its handle.
func (t *LSMT) put(s Segment) uint16 {
	r := record{K: s.K, I: s.I, S: int32(s.S), L: uint16(s.L), Err: uint16(s.Err)}
	if h := t.free; h != 0 {
		t.free = uint16(t.slab[h-1].S)
		t.slab[h-1] = r
		return h
	}
	if n := len(t.slab) + 1; n > cap(t.slab) {
		grown := make([]record, len(t.slab), min(n+levelGrowth(n), maxSegments))
		copy(grown, t.slab)
		t.slab = grown
	}
	t.slab = append(t.slab, r)
	return uint16(len(t.slab))
}

// release returns h's slot to the free chain.
func (t *LSMT) release(h uint16) {
	t.slab[h-1] = record{S: int32(t.free)}
	t.free = h
}

// paint makes each segment of hs, in order, the newest of every LPN it
// covers — a later one wins where two overlap — growing the index of a
// table made by NewLSMT to reach them.
func (t *LSMT) paint(hs []uint16) {
	for _, h := range hs {
		r := &t.slab[h-1]
		lo, hi := int64(r.S)-t.lo, r.end()-t.lo
		if n := int(hi); n > len(t.index) {
			t.index = append(t.index, make([]uint16, n-len(t.index))...)
		}
		idx := t.index[lo:hi]
		for i := range idx {
			idx[i] = h
		}
	}
}

// insertRun merges run — handles sorted by S, non-overlapping — into level,
// pushing the segments it overlaps down into the next level as one run.
// Since the run does not overlap itself, those are exactly the segments
// one-at-a-time inserts would push, in the same order.
func (t *LSMT) insertRun(level int, run []uint16) {
	if level == len(t.levels) {
		t.levels = append(t.levels, nil)
	}
	lv := t.levels[level]
	slab := t.slab
	// The window [i, k) of segments the run reaches starts at the last
	// segment that begins at or before the run if that one reaches into it,
	// else right after. Each run segment is preceded by the window segments
	// that end before it, which stay, and displaces those it overlaps.
	first := int64(slab[run[0]-1].S)
	i := t.lastStartingBy(lv, first)
	if i < 0 || slab[lv[i]-1].end() <= first {
		i++
	}
	sc := t.sc
	base := len(sc.displaced)
	merged := sc.merged[:0]
	k := i
	c := cap(lv)
	for r, h := range run {
		s := &slab[h-1]
		for k < len(lv) && slab[lv[k]-1].end() <= int64(s.S) {
			merged = append(merged, lv[k])
			k++
		}
		for k < len(lv) && int64(slab[lv[k]-1].S) < s.end() {
			sc.displaced = append(sc.displaced, lv[k])
			k++
		}
		merged = append(merged, h)
		// Capacity is what splicing the run in one segment at a time
		// leaves: a splice that finds the level full grows it to its new
		// length plus levelGrowth.
		if m := len(lv) + r + 1 - (len(sc.displaced) - base); m > c {
			c = m + levelGrowth(m)
		}
	}
	sc.merged = merged
	// Splice the merged window in place: the tail shifts once.
	n := len(lv) + len(merged) - (k - i)
	tail := lv[k:]
	if c > cap(lv) {
		grown := make([]uint16, n, c)
		copy(grown, lv[:i])
		lv = grown
	} else {
		lv = lv[:n]
	}
	copy(lv[i+len(merged):], tail)
	copy(lv[i:], merged)
	t.levels[level] = lv
	// The displaced run moves down from the stack; a deeper level never
	// touches this one, so the order against the splice does not matter.
	if len(sc.displaced) > base {
		t.insertRun(level+1, sc.displaced[base:])
		sc.displaced = sc.displaced[:base]
	}
}

// lastStartingBy returns the index of the last segment of lv — handles
// sorted by S — with S <= x, or -1 when every segment starts after x.
// Within a level segments do not overlap, so it is the only one that can
// cover x.
func (t *LSMT) lastStartingBy(lv []uint16, x int64) int {
	lo, hi := 0, len(lv) // lv[:lo] start at or before x, lv[hi:] after it
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if int64(t.slab[lv[mid]-1].S) <= x {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo - 1
}

// Lookup returns the newest segment covering lpn.
func (t *LSMT) Lookup(lpn int64) (Segment, bool) {
	if i := uint64(lpn - t.lo); i < uint64(len(t.index)) {
		if h := t.index[i]; h != 0 {
			return t.slab[h-1].segment(), true
		}
	}
	return Segment{}, false
}

// ExportLevels returns a copy of the table's levels, newest first (device
// snapshots).
func (t *LSMT) ExportLevels() [][]Segment {
	out := make([][]Segment, len(t.levels))
	for i, lv := range t.levels {
		out[i] = make([]Segment, len(lv))
		for j, h := range lv {
			out[i][j] = t.slab[h-1].segment()
		}
	}
	return out
}

// ImportLevels replaces the table's contents with the given levels,
// verbatim. Level structure matters — inserts push down level by level — so
// the import preserves it instead of re-inserting segment by segment, and
// names each LPN's newest segment by painting the levels bottom-up. It
// returns an error, leaving the table unchanged, unless every segment spans
// [1, 2^16) LPNs inside the table's key range with an Err in [0, 2^16),
// every level is sorted by S without overlaps, and the table holds at most
// 2^16−1 segments: the packed slab, inserts and lookups rely on all of it.
func (t *LSMT) ImportLevels(levels [][]Segment) error {
	n := 0
	for li, lv := range levels {
		for si, s := range lv {
			switch {
			case s.L < 1 || s.L > math.MaxUint16:
				return fmt.Errorf("learned: level %d segment %d spans %d LPNs", li, si, s.L)
			case s.Err < 0 || s.Err > math.MaxUint16:
				return fmt.Errorf("learned: level %d segment %d has error %d", li, si, s.Err)
			case s.S < t.lo || s.S >= t.hi || int64(s.L) > t.hi-s.S:
				return fmt.Errorf("learned: level %d segment [%d, +%d) outside [%d, %d)", li, s.S, s.L, t.lo, t.hi)
			case si > 0 && s.S < lv[si-1].S:
				return fmt.Errorf("learned: level %d not sorted at segment %d", li, si)
			case si > 0 && s.S < end(lv[si-1]):
				return fmt.Errorf("learned: level %d segments %d and %d overlap", li, si-1, si)
			}
		}
		if n += len(lv); n > maxSegments {
			return fmt.Errorf("learned: %d segments pass a table's %d", n, maxSegments)
		}
	}
	t.slab, t.free, t.nseg = make([]record, 0, n), 0, n
	t.levels = make([][]uint16, len(levels))
	handles := make([]uint16, n) // one array, each level capped at its end
	for li, lv := range levels {
		t.levels[li], handles = handles[:len(lv):len(lv)], handles[len(lv):]
		for si, s := range lv {
			t.levels[li][si] = t.put(s)
		}
	}
	clear(t.index)
	for li := len(t.levels) - 1; li >= 0; li-- {
		t.paint(t.levels[li])
	}
	return nil
}

// CompactShadowed drops lower-level segments whose whole key range is
// covered by segments in upper levels (they can never win a lookup). This is
// the space-reclamation role of LeaFTL's compaction; returns the number of
// segments dropped.
//
// A segment below level 0 is shadowed exactly when no LPN names it in the
// index: it wins an LPN it covers unless a level above covers that LPN too.
// So one pass over the index marks the handles to keep, and one pass over
// the levels frees the rest.
func (t *LSMT) CompactShadowed() int {
	dropped := 0
	if len(t.levels) > 1 {
		named := t.sc.named
		if len(named) <= len(t.slab) {
			named = make([]bool, cap(t.slab)+1)
			t.sc.named = named
		}
		for _, h := range t.index {
			named[h] = true
		}
		for li := 1; li < len(t.levels); li++ {
			lv := t.levels[li]
			keep := lv[:0] // filtered in place
			for _, h := range lv {
				if named[h] {
					keep = append(keep, h)
				} else {
					t.release(h)
					dropped++
				}
			}
			if spare := levelGrowth(len(keep)); cap(keep)-len(keep) > spare {
				keep = append(make([]uint16, 0, len(keep)+spare), keep...)
			}
			t.levels[li] = keep
		}
		clear(named[:len(t.slab)+1])
		t.nseg -= dropped
	}
	// Trim empty tail levels.
	for len(t.levels) > 0 && len(t.levels[len(t.levels)-1]) == 0 {
		t.levels = t.levels[:len(t.levels)-1]
	}
	return dropped
}
