package core

import "learnedftl/internal/nand"

// Model training via rewrite (§III-E3). Modern SSDs periodically read,
// correct and reprogram flash to curb retention errors; the paper observes
// this rewrite traffic can carry model training for groups that rarely see
// GC, but could not implement it because FEMU lacks a rewrite path. This
// simulator has one: Rewrite relocates a group's pages exactly like a
// retention rewrite would — sorted by LPN into a fresh superblock — and
// retrains the group's models as a side effect.

// RewriteGroup performs a retention rewrite of one GTD entry group,
// returning the completion time. It is a no-op (returning now) when the
// group holds no data or no free superblock row is available.
func (f *LearnedFTL) RewriteGroup(gid int, now nand.Time) nand.Time {
	if gid < 0 || gid >= f.ngroups || f.inGC {
		return now
	}
	g := &f.groups[gid]
	if len(g.rows) == 0 || len(f.freeRows) == 0 {
		return now
	}
	// A rewrite is mechanically a group GC: read, sort, reprogram, retrain,
	// persist translation pages, erase the old rows. The distinction is the
	// trigger (reliability timer vs space pressure), which the caller owns.
	return f.gcGroup(gid, now)
}

// RewriteColdest rewrites the group whose models have the fewest accurate
// bits relative to its live data — the group that benefits most from
// training — and returns its id with the completion time. Returns -1 when
// nothing qualifies.
func (f *LearnedFTL) RewriteColdest(now nand.Time) (int, nand.Time) {
	worst, worstScore := -1, 1.1
	for gid := 0; gid < f.ngroups; gid++ {
		if len(f.groups[gid].rows) == 0 {
			continue
		}
		live, bits := 0, 0
		loTPN := gid * f.Cfg.GroupEntries
		for e := 0; e < f.Cfg.GroupEntries; e++ {
			tpn := loTPN + e
			bits += f.models[tpn].AccurateBits()
			lo, hi := f.Cfg.TPRange(tpn)
			for l := lo; l < hi; l++ {
				if f.Mapped(l) {
					live++
				}
			}
		}
		if live == 0 {
			continue
		}
		if score := float64(bits) / float64(live); score < worstScore {
			worst, worstScore = gid, score
		}
	}
	if worst < 0 {
		return -1, now
	}
	return worst, f.RewriteGroup(worst, now)
}
