package learned

// LSMT is LeaFTL's log-structured mapping table (§II-C): learned segments
// organized in levels. New segments enter level 0; existing segments they
// overlap are pushed down one level so a top-down lookup always sees the
// newest segment covering an LPN first.
type LSMT struct {
	levels [][]Segment // each level sorted by S, non-overlapping
	nseg   int
}

// NewLSMT returns an empty log-structured mapping table.
func NewLSMT() *LSMT { return &LSMT{} }

// NumSegments returns the total number of live segments.
func (t *LSMT) NumSegments() int { return t.nseg }

// NumLevels returns the current number of levels.
func (t *LSMT) NumLevels() int { return len(t.levels) }

// SizeBytes returns the memory footprint charged for the table.
func (t *LSMT) SizeBytes() int { return t.nseg * SegmentBytes }

// Insert adds newly trained segments. Each enters level 0; overlapped older
// segments migrate down (the paper's "if one layer has overlapped segment,
// LeaFTL will migrate the old segment to the next layer").
func (t *LSMT) Insert(segs []Segment) {
	for _, s := range segs {
		t.insertAt(0, s)
	}
	t.nseg += len(segs) // an insert only ever moves older segments down
}

// levelGrowth is how many spare slots a level of n segments may carry: what
// a splice that finds the level full leaves behind, and what a compaction
// trims it back to. Enough that a level is not reallocated per inserted
// segment, small enough that the thousands of short levels a device holds
// stay close to their length (append's doubling would cost them half again
// in slack).
func levelGrowth(n int) int { return 2 + n/8 }

func (t *LSMT) insertAt(level int, seg Segment) {
	if level == len(t.levels) {
		t.levels = append(t.levels, nil)
	}
	lv := t.levels[level]
	lo := seg.S
	hi := seg.S + int64(seg.L)
	// Find overlapping run [i, j): it starts at the last segment that
	// begins at or before lo if that one reaches past lo, else right after.
	i := lastStartingBy(lv, lo)
	if i < 0 || lv[i].S+int64(lv[i].L) <= lo {
		i++
	}
	j := i
	for j < len(lv) && lv[j].S < hi {
		j++
	}
	// The overlapped run moves down first, while it still sits intact in
	// lv: an insert into a deeper level never touches this one, so it
	// commutes with the splice below and needs no copy of the run.
	for k := i; k < j; k++ {
		t.insertAt(level+1, lv[k])
	}
	// Splice seg over the run in place: the tail shifts by 1-(j-i) slots.
	n := len(lv) + 1 - (j - i)
	tail := lv[j:]
	if n > cap(lv) {
		grown := make([]Segment, n, n+levelGrowth(n))
		copy(grown, lv[:i])
		lv = grown
	} else {
		lv = lv[:n]
	}
	copy(lv[i+1:], tail)
	lv[i] = seg
	t.levels[level] = lv
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
// import preserves it instead of re-inserting segment by segment.
func (t *LSMT) ImportLevels(levels [][]Segment) {
	t.levels = make([][]Segment, len(levels))
	t.nseg = 0
	for i, lv := range levels {
		t.levels[i] = append([]Segment(nil), lv...)
		t.nseg += len(lv)
	}
}

// CompactShadowed drops lower-level segments whose whole key range is
// covered by segments in upper levels (they can never win a lookup). This is
// the space-reclamation role of LeaFTL's compaction; returns the number of
// segments dropped.
func (t *LSMT) CompactShadowed() int {
	dropped := 0
	for li := 1; li < len(t.levels); li++ {
		keep := t.levels[li][:0] // filtered in place: shadowed reads only the levels above
		for _, s := range t.levels[li] {
			if t.shadowed(s, li) {
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
	}
	// Trim empty tail levels.
	for len(t.levels) > 0 && len(t.levels[len(t.levels)-1]) == 0 {
		t.levels = t.levels[:len(t.levels)-1]
	}
	return dropped
}

// shadowed reports whether every LPN of s is covered by levels above `below`.
// Instead of probing each LPN of the segment, it walks the covered interval
// greedily: at each uncovered position it binary-searches every upper level
// (sorted by Segment.S) for the segment containing that position and jumps
// to the farthest covered end, so the check costs O(k · levels · log n) for
// k covering segments rather than O(L · levels · log n) for L spanned LPNs.
func (t *LSMT) shadowed(s Segment, below int) bool {
	pos := s.S
	hi := s.S + int64(s.L)
	for pos < hi {
		next := pos
		for li := 0; li < below; li++ {
			lv := t.levels[li]
			if i := lastStartingBy(lv, pos); i >= 0 {
				if end := lv[i].S + int64(lv[i].L); end > next {
					next = end
				}
			}
		}
		if next == pos {
			return false // pos is covered by no upper level
		}
		pos = next
	}
	return true
}
