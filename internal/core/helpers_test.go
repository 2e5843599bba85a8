package core

import (
	"learnedftl/internal/learned"
	"learnedftl/internal/nand"
)

// learnedModelPaperSize returns the model footprint at the paper's
// parameters (512-entry GTD entries, 8 pieces).
func learnedModelPaperSize() int {
	return learned.NewInPlaceModel(512, 8).SizeBytes()
}

// collectGroup forces a group GC of gid, whatever its invalid count, and
// returns the completion time. It returns now unchanged when a collection
// is already running, the group holds no rows or no free row is left.
func collectGroup(f *LearnedFTL, gid int, now nand.Time) nand.Time {
	if f.inGC || len(f.groups[gid].rows) == 0 || len(f.freeRows) == 0 {
		return now
	}
	return f.gcGroup(gid, now)
}

// ModelsBytes returns the DRAM footprint of all in-place models.
func (f *LearnedFTL) ModelsBytes() int {
	if len(f.models) == 0 {
		return 0
	}
	return len(f.models) * f.models[0].SizeBytes()
}
