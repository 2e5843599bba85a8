package core

import (
	"testing"

	"learnedftl/internal/persist"
)

// TestLoadStateRejectsOversizedCounts: a model's piece count and bitmap word
// count size allocations, so a snapshot claiming more than the stream can
// back is an error, not a makeslice panic. The streams start with a fresh
// device's own map-state and cache sections.
func TestLoadStateRejectsOversizedCounts(t *testing.T) {
	src := newFTL(t)
	tails := map[string]func(e *persist.Encoder){
		"piece count": func(e *persist.Encoder) {
			e.U64(1 << 62)
		},
		"bitmap word count": func(e *persist.Encoder) {
			e.U64(0)
			e.U64(1 << 62)
		},
	}
	for name, tail := range tails {
		e := persist.NewEncoder()
		src.SaveMapState(e)
		src.Save(e)
		e.U64(uint64(len(src.models)))
		e.I64(0) // first model's base
		tail(e)
		if err := newFTL(t).LoadState(persist.NewDecoder(e.Data())); err == nil {
			t.Errorf("%s past the stream: LoadState accepted it", name)
		}
	}
}

// TestLoadStateRejectsOutOfRangeAllocatorIDs: the group allocator and the
// translation pool index their tables by the rows, groups and blocks a
// snapshot lists, and program a free row or pool block next, so an id the
// configuration cannot hold, or a free row or block listed twice, active or
// programmed, is an error from LoadState, not a panic on the next write. An
// untouched snapshot still loads.
func TestLoadStateRejectsOutOfRangeAllocatorIDs(t *testing.T) {
	for name, c := range map[string]struct {
		edit func(f *LearnedFTL)
		ok   bool
	}{
		"untouched":                     {func(*LearnedFTL) {}, true},
		"row owner past the groups":     {func(f *LearnedFTL) { f.rowOwner[f.transRows] = len(f.groups) }, false},
		"row owner below -2":            {func(f *LearnedFTL) { f.rowOwner[0] = -3 }, false},
		"row invalid past the row":      {func(f *LearnedFTL) { f.rowInvalid[f.transRows] = f.sbPages + 1 }, false},
		"row invalid negative":          {func(f *LearnedFTL) { f.rowInvalid[f.transRows] = -1 }, false},
		"free row in the pool":          {func(f *LearnedFTL) { f.freeRows = append(f.freeRows, 0) }, false},
		"free row past the device":      {func(f *LearnedFTL) { f.freeRows = append(f.freeRows, len(f.rowOwner)) }, false},
		"pending group past the groups": {func(f *LearnedFTL) { f.pending = append(f.pending, len(f.groups)) }, false},
		"pool active block off pool":    {func(f *LearnedFTL) { f.tp.active[0] = f.transRows }, false},
		"pool active block below -1":    {func(f *LearnedFTL) { f.tp.active[0] = -2 }, false},
		"pool free block of unit 0":     {func(f *LearnedFTL) { f.tp.free[1] = append(f.tp.free[1], 0) }, false},
		"pool free block off device":    {func(f *LearnedFTL) { f.tp.free[0] = append(f.tp.free[0], 1<<20) }, false},
		"group row in the pool":         {func(f *LearnedFTL) { f.groups[0].rows = append(f.groups[0].rows, 0) }, false},
		"free row twice":                {func(f *LearnedFTL) { f.freeRows = append(f.freeRows, f.freeRows[0]) }, false},
		"programmed row free":           {func(f *LearnedFTL) { f.freeRows = append(f.freeRows, f.groups[0].rows[0]) }, false},
		"owned row free":                {func(f *LearnedFTL) { f.rowOwner[f.freeRows[0]] = 0 }, false},
		"pool free block twice":         {func(f *LearnedFTL) { f.tp.free[0] = append(f.tp.free[0], f.tp.free[0][0]) }, false},
		"pool active block also free":   {func(f *LearnedFTL) { f.tp.active[0] = f.tp.free[0][0] }, false},
	} {
		src := newFTL(t)
		fill(src, 0)
		c.edit(src)
		e := persist.NewEncoder()
		src.SaveState(e)
		if err := newFTL(t).LoadState(persist.NewDecoder(e.Data())); (err == nil) != c.ok {
			t.Errorf("%s: LoadState returned %v", name, err)
		}
	}
}
