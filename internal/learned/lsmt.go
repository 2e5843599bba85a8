package learned

import (
	"fmt"
	"math"
)

// LSMT is LeaFTL's log-structured mapping table (§II-C): learned segments
// kept in insertion order, where the newest segment covering an LPN is the
// one that answers for it. The paper's levels — new segments enter level 0
// and push the ones they overlap down — order the segments of one LPN by
// age, which is all a lookup or a compaction reads of them; the table keeps
// that order directly.
//
// The segments live in one slab per table, packed into 24-byte records at
// stable slots: a freed slot is reused before the slab grows. A segment is
// named by its handle, its slot plus one, and the live handles are listed
// oldest first. Lookups do not scan the list: the index holds, for every
// LPN of the table's key range, the handle of the newest segment covering
// it, or 0 when none does, so a lookup is a bounds check and two loads.
type LSMT struct {
	slab   []record // segments at stable slots; freed ones chain from free
	free   uint16   // handle of the first freed slot, 0 when none
	order  []uint16 // live handles, oldest first
	lo, hi int64    // the key range [lo, hi)
	index  []uint16 // per LPN from lo: handle of the newest segment covering it
	sc     *Scratch
	stamp  uint64 // names the index's contents; see Stamp
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

// maxSegments is how many segments one table can hold: a handle is a
// uint16 and 0 means none.
const maxSegments = math.MaxUint16

// Scratch is what a device's learned tables and models share: the working
// memory of LSMT compactions, so it costs one buffer per device rather than
// one per table, and the counter their stamps come from. Tables and models
// sharing a Scratch must not be used concurrently.
type Scratch struct {
	named  []bool // by handle: whether the index names it, during a compaction
	stamps uint64 // the last stamp handed out
}

// nextStamp returns a stamp sc never handed out before.
func (sc *Scratch) nextStamp() uint64 {
	sc.stamps++
	return sc.stamps
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
func (t *LSMT) NumSegments() int { return len(t.order) }

// Stamp names the answers the table gives: every Insert and Import hands it
// a stamp no table sharing its Scratch ever had, and a compaction, which
// changes no answer, keeps it. So two lookups of one LPN under one stamp
// return the same segment. A table no Insert or Import reached has stamp 0
// and answers no lookup.
func (t *LSMT) Stamp() uint64 { return t.stamp }

// restamp hands the table the next stamp of its Scratch.
func (t *LSMT) restamp() { t.stamp = t.sc.nextStamp() }

// SizeBytes returns the memory footprint charged for the table.
func (t *LSMT) SizeBytes() int { return len(t.order) * SegmentBytes }

// end returns the first LPN past s.
func end(s Segment) int64 { return s.S + int64(s.L) }

// Insert adds newly trained segments, in order: each becomes the newest
// segment of every LPN it covers (the paper's "if one layer has overlapped
// segment, LeaFTL will migrate the old segment to the next layer"). Each
// must span [1, 2^16) LPNs inside the table's key range and carry an Err in
// [0, 2^16). A table holds at most 2^16−1 segments: a run of the batch
// sorted by S without overlaps — what FitSegments fits for one translation
// page — that would pass that first drops the shadowed ones as
// CompactShadowed does, which leaves at most one per LPN, and panics if
// that is not enough — it is, for a run over a key range below 2^15.
func (t *LSMT) Insert(segs []Segment) {
	for len(segs) > 0 {
		n := 1
		for n < len(segs) && segs[n].S >= end(segs[n-1]) {
			n++
		}
		if len(t.order)+n > maxSegments {
			t.CompactShadowed()
			if len(t.order)+n > maxSegments {
				panic(fmt.Sprintf("learned: %d visible segments and %d new ones pass a table's %d", len(t.order), n, maxSegments))
			}
		}
		for _, s := range segs[:n] {
			h := t.put(s)
			t.order = append(grow(t.order), h)
			t.paint(h)
		}
		segs = segs[n:]
	}
}

// growth is how many spare slots the slab or the handle list of n segments
// gets when it is full: enough that it is not reallocated per insert, small
// enough that the thousands of short tables a device holds stay close to
// their length (append's doubling would cost them half again in slack).
func growth(n int) int { return 2 + n/8 }

// grow returns s with room for one more element, copied into an array of
// its new length plus growth when it is full.
func grow[E any](s []E) []E {
	if n := len(s) + 1; n > cap(s) {
		grown := make([]E, len(s), min(n+growth(n), maxSegments))
		copy(grown, s)
		return grown
	}
	return s
}

// put packs s into a free slot, growing the slab when none is left, and
// returns its handle.
func (t *LSMT) put(s Segment) uint16 {
	r := record{K: s.K, I: s.I, S: int32(s.S), L: uint16(s.L), Err: uint16(s.Err)}
	if h := t.free; h != 0 {
		t.free = uint16(t.slab[h-1].S)
		t.slab[h-1] = r
		return h
	}
	t.slab = append(grow(t.slab), r)
	return uint16(len(t.slab))
}

// release returns h's slot to the free chain.
func (t *LSMT) release(h uint16) {
	t.slab[h-1] = record{S: int32(t.free)}
	t.free = h
}

// paint makes h the newest segment of every LPN it covers, growing the
// index of a table made by NewLSMT to reach them, and restamps the table.
func (t *LSMT) paint(h uint16) {
	t.restamp()
	r := &t.slab[h-1]
	lo, hi := int64(r.S)-t.lo, int64(r.S)+int64(r.L)-t.lo
	if n := int(hi); n > len(t.index) {
		t.index = append(t.index, make([]uint16, n-len(t.index))...)
	}
	idx := t.index[lo:hi]
	for i := range idx {
		idx[i] = h
	}
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

// Export appends a copy of the table's live segments, oldest first, to dst
// (device snapshots, which reuse one slice across tables).
func (t *LSMT) Export(dst []Segment) []Segment {
	for _, h := range t.order {
		dst = append(dst, t.slab[h-1].segment())
	}
	return dst
}

// Import replaces the table's contents with segs, oldest first, as if they
// had been inserted in that order into an empty table that never compacted.
// It returns an error, leaving the table unchanged, unless every segment
// spans [1, 2^16) LPNs inside the table's key range with an Err in
// [0, 2^16), and there are at most 2^16−1 of them: the packed slab and the
// index rely on all of it. Segments may overlap in any way.
func (t *LSMT) Import(segs []Segment) error {
	if len(segs) > maxSegments {
		return fmt.Errorf("learned: %d segments pass a table's %d", len(segs), maxSegments)
	}
	for i, s := range segs {
		switch {
		case s.L < 1 || s.L > math.MaxUint16:
			return fmt.Errorf("learned: segment %d spans %d LPNs", i, s.L)
		case s.Err < 0 || s.Err > math.MaxUint16:
			return fmt.Errorf("learned: segment %d has error %d", i, s.Err)
		case s.S < t.lo || s.S >= t.hi || int64(s.L) > t.hi-s.S:
			return fmt.Errorf("learned: segment %d [%d, +%d) outside [%d, %d)", i, s.S, s.L, t.lo, t.hi)
		}
	}
	t.slab, t.free = make([]record, 0, len(segs)), 0
	t.order = make([]uint16, len(segs))
	clear(t.index)
	t.restamp()
	for i, s := range segs {
		t.order[i] = t.put(s)
		t.paint(t.order[i])
	}
	return nil
}

// CompactShadowed drops the segments whose whole key range is covered by
// newer ones (they can never win a lookup). This is the space-reclamation
// role of LeaFTL's compaction; returns the number of segments dropped.
//
// A segment is shadowed exactly when no LPN names it in the index, so one
// pass over the index marks the handles to keep, and one pass over the list
// frees the rest.
func (t *LSMT) CompactShadowed() int {
	named := t.sc.named
	if len(named) <= len(t.slab) {
		named = make([]bool, cap(t.slab)+1)
		t.sc.named = named
	}
	for _, h := range t.index {
		named[h] = true
	}
	keep := t.order[:0] // filtered in place
	for _, h := range t.order {
		if named[h] {
			keep = append(keep, h)
		} else {
			t.release(h)
		}
	}
	dropped := len(t.order) - len(keep)
	t.order = keep
	clear(named[:len(t.slab)+1])
	return dropped
}
