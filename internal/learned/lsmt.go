package learned

import "fmt"

// LSMT is LeaFTL's log-structured mapping table (§II-C): learned segments
// organized in levels. New segments enter level 0; existing segments they
// overlap are pushed down one level so a top-down lookup always sees the
// newest segment covering an LPN first.
type LSMT struct {
	levels [][]Segment // each level sorted by S, non-overlapping
	nseg   int
	sc     *Scratch
}

// Scratch is the working memory of LSMT inserts and compactions. A device's
// tables share one, so it costs one set of buffers per device rather than one
// per table; tables sharing a Scratch must not be used concurrently.
type Scratch struct {
	displaced []Segment // a stack: each level's displaced run sits above its caller's
	merged    []Segment // one level's window after the splice
	cover     []span    // coalesced coverage of the levels above the one compacted
	next      []span    // that coverage with the compacted level added
}

// span is the LPN interval [lo, hi).
type span struct{ lo, hi int64 }

// NewLSMT returns an empty log-structured mapping table with its own scratch.
func NewLSMT() *LSMT { return new(Scratch).NewLSMT() }

// NewLSMT returns an empty log-structured mapping table working in sc.
func (sc *Scratch) NewLSMT() *LSMT { return &LSMT{sc: sc} }

// NumSegments returns the total number of live segments.
func (t *LSMT) NumSegments() int { return t.nseg }

// SizeBytes returns the memory footprint charged for the table.
func (t *LSMT) SizeBytes() int { return t.nseg * SegmentBytes }

// end returns the first LPN past s.
func end(s Segment) int64 { return s.S + int64(s.L) }

// Insert adds newly trained segments, each spanning at least one LPN. They
// enter level 0; overlapped older segments migrate down (the paper's "if one
// layer has overlapped segment, LeaFTL will migrate the old segment to the
// next layer"). The result is that of inserting the segments one at a time,
// in order. A run sorted by S without overlaps — what FitSegments fits for
// one translation page — is merged into each level it reaches at once; any
// other batch is inserted as its maximal such runs.
func (t *LSMT) Insert(segs []Segment) {
	t.nseg += len(segs) // an insert only ever moves older segments down
	for len(segs) > 0 {
		n := 1
		for n < len(segs) && segs[n].S >= end(segs[n-1]) {
			n++
		}
		t.insertRun(0, segs[:n])
		segs = segs[n:]
	}
}

// levelGrowth is how many spare slots a level of n segments may carry: what
// a splice that finds the level full leaves behind, and what a compaction
// trims it back to. Enough that a level is not reallocated per insert, small
// enough that the thousands of short levels a device holds stay close to
// their length (append's doubling would cost them half again in slack).
func levelGrowth(n int) int { return 2 + n/8 }

// insertRun merges run — sorted by S, non-overlapping — into level, pushing
// the segments it overlaps down into the next level as one run. Since the run
// does not overlap itself, those are exactly the segments one-at-a-time
// inserts would push, in the same order.
func (t *LSMT) insertRun(level int, run []Segment) {
	if level == len(t.levels) {
		t.levels = append(t.levels, nil)
	}
	lv := t.levels[level]
	// The window [i, k) of segments the run reaches starts at the last
	// segment that begins at or before the run if that one reaches into it,
	// else right after. Each run segment is preceded by the window segments
	// that end before it, which stay, and displaces those it overlaps.
	i := lastStartingBy(lv, run[0].S)
	if i < 0 || end(lv[i]) <= run[0].S {
		i++
	}
	sc := t.sc
	base := len(sc.displaced)
	merged := sc.merged[:0]
	k := i
	c := cap(lv)
	for r, s := range run {
		for k < len(lv) && end(lv[k]) <= s.S {
			merged = append(merged, lv[k])
			k++
		}
		for k < len(lv) && lv[k].S < end(s) {
			sc.displaced = append(sc.displaced, lv[k])
			k++
		}
		merged = append(merged, s)
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
		grown := make([]Segment, n, c)
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

// lastStartingBy returns the index of the last segment of lv — sorted by S —
// with S <= x, or -1 when every segment starts after x. Within a level
// segments do not overlap, so it is the only one that can cover x.
func lastStartingBy(lv []Segment, x int64) int {
	lo, hi := 0, len(lv) // lv[:lo] start at or before x, lv[hi:] after it
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if lv[mid].S <= x {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo - 1
}

// Lookup returns the newest segment covering lpn, scanning levels top-down.
func (t *LSMT) Lookup(lpn int64) (Segment, bool) {
	for _, lv := range t.levels {
		if i := lastStartingBy(lv, lpn); i >= 0 && lv[i].Contains(lpn) {
			return lv[i], true
		}
	}
	return Segment{}, false
}

// ExportLevels returns a deep copy of the table's levels, newest first
// (device snapshots).
func (t *LSMT) ExportLevels() [][]Segment {
	out := make([][]Segment, len(t.levels))
	for i, lv := range t.levels {
		out[i] = append([]Segment(nil), lv...)
	}
	return out
}

// ImportLevels replaces the table's contents with the given levels,
// verbatim. Level structure matters — lookups scan top-down — so the
// import preserves it instead of re-inserting segment by segment. It
// returns an error, leaving the table unchanged, unless every segment spans
// at least one LPN inside [lo, hi) and every level is sorted by S without
// overlaps: inserts and lookups rely on both.
func (t *LSMT) ImportLevels(levels [][]Segment, lo, hi int64) error {
	for li, lv := range levels {
		for si, s := range lv {
			switch {
			case s.L < 1:
				return fmt.Errorf("learned: level %d segment %d spans %d LPNs", li, si, s.L)
			case s.S < lo || s.S >= hi || int64(s.L) > hi-s.S:
				return fmt.Errorf("learned: level %d segment [%d, +%d) outside [%d, %d)", li, s.S, s.L, lo, hi)
			case si > 0 && s.S < lv[si-1].S:
				return fmt.Errorf("learned: level %d not sorted at segment %d", li, si)
			case si > 0 && s.S < end(lv[si-1]):
				return fmt.Errorf("learned: level %d segments %d and %d overlap", li, si-1, si)
			}
		}
	}
	t.levels = make([][]Segment, len(levels))
	t.nseg = 0
	for i, lv := range levels {
		t.levels[i] = append([]Segment(nil), lv...)
		t.nseg += len(lv)
	}
	return nil
}

// CompactShadowed drops lower-level segments whose whole key range is
// covered by segments in upper levels (they can never win a lookup). This is
// the space-reclamation role of LeaFTL's compaction; returns the number of
// segments dropped.
//
// One sweep, top down: the coalesced union of the levels above is kept as
// sorted disjoint intervals, so a segment is shadowed iff one interval holds
// it, and each level is filtered against the union in one two-pointer pass
// before its survivors join it.
func (t *LSMT) CompactShadowed() int {
	dropped := 0
	if len(t.levels) > 1 {
		sc := t.sc
		cover := appendUnion(sc.cover[:0], nil, t.levels[0])
		next := sc.next
		for li := 1; li < len(t.levels); li++ {
			lv := t.levels[li]
			keep := lv[:0] // filtered in place: the union holds what it needs of the levels above
			c := 0
			for _, s := range lv {
				for c < len(cover) && cover[c].hi <= s.S {
					c++
				}
				if c < len(cover) && cover[c].lo <= s.S && end(s) <= cover[c].hi {
					dropped++
					t.nseg--
				} else {
					keep = append(keep, s)
				}
			}
			if spare := levelGrowth(len(keep)); cap(keep)-len(keep) > spare {
				keep = append(make([]Segment, 0, len(keep)+spare), keep...)
			}
			t.levels[li] = keep
			if li+1 < len(t.levels) {
				next = appendUnion(next[:0], cover, keep)
				cover, next = next, cover
			}
		}
		sc.cover, sc.next = cover, next
	}
	// Trim empty tail levels.
	for len(t.levels) > 0 && len(t.levels[len(t.levels)-1]) == 0 {
		t.levels = t.levels[:len(t.levels)-1]
	}
	return dropped
}

// appendUnion appends to dst the coalesced union of a — sorted, disjoint,
// non-adjacent intervals — and segs — sorted by S, non-overlapping — with
// intervals that overlap or touch merged into one.
func appendUnion(dst, a []span, segs []Segment) []span {
	i, j := 0, 0
	for i < len(a) || j < len(segs) {
		var s span
		if j == len(segs) || i < len(a) && a[i].lo <= segs[j].S {
			s = a[i]
			i++
		} else {
			s = span{segs[j].S, end(segs[j])}
			j++
		}
		if n := len(dst); n > 0 && s.lo <= dst[n-1].hi {
			dst[n-1].hi = max(dst[n-1].hi, s.hi)
		} else {
			dst = append(dst, s)
		}
	}
	return dst
}
