package ftl

import (
	"fmt"

	"learnedftl/internal/gc"
	"learnedftl/internal/nand"
	"learnedftl/internal/persist"
)

// This file is the persistence side of the block-granular device: the
// snapshot hooks Base contributes to every scheme's SaveState/LoadState,
// and the allocator rebuild that follows State's mount scan (state.go).

// CrashRecoverer is implemented by devices that can drop their DRAM state
// and rebuild it from the flash array's out-of-band metadata, modeling the
// mount-time recovery scan. The returned time is the scan's completion —
// mount latency measured from the passed start time.
type CrashRecoverer interface {
	RecoverFromCrash(now nand.Time) nand.Time
}

// SaveBaseState appends the shared device state: the flash array, the L2P
// shadow map, the GTD, the block manager's allocator stacks (in exact pop
// order) and the GC controller's counters. Schemes append their own cache
// and model state after it.
func (b *Base) SaveBaseState(e *persist.Encoder) {
	b.SaveMapState(e)
	b.BM.save(e)
	st := b.GC.Stats()
	e.I64(st.Foreground)
	e.I64(st.Background)
	e.I64(st.PagesMoved)
	e.I64(st.Aborted)
	e.I64(st.Scrubbed)
}

// LoadBaseState restores a SaveBaseState section into a freshly
// constructed Base of the same configuration.
func (b *Base) LoadBaseState(d *persist.Decoder) error {
	if err := b.LoadMapState(d); err != nil {
		return err
	}
	if err := b.BM.load(d); err != nil {
		return err
	}
	// The allocator's active blocks moved wholesale; re-probe the victim
	// index's active set (the flash import already marked every block
	// dirty).
	b.GC.Resync()
	st := gc.Stats{
		Foreground: d.I64(),
		Background: d.I64(),
		PagesMoved: d.I64(),
		Aborted:    d.I64(),
		Scrubbed:   d.I64(),
	}
	b.GC.ImportStats(st)
	return d.Err()
}

// SaveState implements the persist.Device contract for schemes with no
// state beyond Base (the ideal FTL). Schemes with caches shadow it.
func (b *Base) SaveState(e *persist.Encoder) { b.SaveBaseState(e) }

// LoadState is SaveState's counterpart.
func (b *Base) LoadState(d *persist.Decoder) error { return b.LoadBaseState(d) }

// RecoverFromCrash implements CrashRecoverer for every Base-embedding
// scheme: the mount scan rebuilds L2P and GTD, then the allocator view and
// the victim index are re-derived from the flash array (a crash rebuild
// reopens active blocks without per-transition notifications). Schemes with
// DRAM caches shadow this to also drop them — a stale cache would serve
// pre-crash PPNs.
func (b *Base) RecoverFromCrash(now nand.Time) nand.Time {
	done := b.RecoverMappings(now)
	b.BM.RebuildFromFlash()
	b.GC.Resync()
	return done
}

// AllocInvariants cross-checks the allocator's view against the flash
// array and returns human-readable violations (empty means consistent).
// The crash verifier calls it right after RecoverFromCrash, when every
// erased non-bad block must sit in a free stack and every active block
// must be a partially programmed good block — free pages the allocator
// cannot see, or blocks it would hand out twice, are exactly the
// inconsistencies a botched rebuild produces.
func (b *Base) AllocInvariants() []string {
	var v []string
	g := b.Fl.Geometry()
	blocksPerChip := g.Planes * g.BlocksPerUnit
	inFree := make(map[int]bool)
	count := 0
	for chip := range b.BM.free {
		for _, blk := range b.BM.free[chip] {
			count++
			switch {
			case inFree[blk]:
				v = append(v, fmt.Sprintf("block %d appears twice in the free stacks", blk))
			case blk/blocksPerChip != chip:
				v = append(v, fmt.Sprintf("block %d filed under chip %d, belongs to chip %d", blk, chip, blk/blocksPerChip))
			case b.Fl.BlockBad(blk):
				v = append(v, fmt.Sprintf("grown-bad block %d in the free stacks", blk))
			case b.Fl.BlockWritePtr(blk) != 0:
				v = append(v, fmt.Sprintf("free-stack block %d has write pointer %d", blk, b.Fl.BlockWritePtr(blk)))
			}
			inFree[blk] = true
		}
	}
	if count != b.BM.freeCount {
		v = append(v, fmt.Sprintf("freeCount %d, free stacks hold %d", b.BM.freeCount, count))
	}
	active := make(map[int]bool)
	checkActive := func(stream string, chip, blk int) {
		if blk < 0 {
			return
		}
		active[blk] = true
		switch {
		case inFree[blk]:
			v = append(v, fmt.Sprintf("active %s block %d also in the free stacks", stream, blk))
		case b.Fl.BlockBad(blk):
			v = append(v, fmt.Sprintf("grown-bad block %d active for %s", blk, stream))
		case b.Fl.BlockWritePtr(blk) >= g.PagesPerBlock:
			v = append(v, fmt.Sprintf("full block %d active for %s", blk, stream))
		}
	}
	for chip := range b.BM.activeData {
		checkActive("data", chip, b.BM.activeData[chip])
		checkActive("trans", chip, b.BM.activeTrans[chip])
	}
	// Completeness: after a rebuild, every erased good block is allocatable.
	for blk := 0; blk < g.TotalBlocks(); blk++ {
		if b.Fl.BlockWritePtr(blk) == 0 && !b.Fl.BlockBad(blk) && !inFree[blk] && !active[blk] {
			v = append(v, fmt.Sprintf("erased block %d missing from the free stacks", blk))
		}
	}
	return v
}

// save appends the allocator's mutable state: per-chip free stacks in
// exact pop order plus the active block of each stream. freeCount derives
// from the stacks.
func (b *BlockMan) save(e *persist.Encoder) {
	e.Int(len(b.free))
	for chip := range b.free {
		e.Ints(b.free[chip])
	}
	e.Ints(b.activeData)
	e.Ints(b.activeTrans)
}

// load restores a save section into an allocator over the same geometry.
func (b *BlockMan) load(d *persist.Decoder) error {
	chips := d.Int()
	if d.Err() == nil && chips != len(b.free) {
		return fmt.Errorf("ftl: allocator snapshot of %d chips, want %d", chips, len(b.free))
	}
	b.freeCount = 0
	for chip := 0; chip < len(b.free); chip++ {
		b.free[chip] = d.Ints()
		b.freeCount += len(b.free[chip])
	}
	ad := d.Ints()
	at := d.Ints()
	if d.Err() == nil && (len(ad) != len(b.activeData) || len(at) != len(b.activeTrans)) {
		return fmt.Errorf("ftl: allocator active-block snapshot length mismatch")
	}
	if d.Err() != nil {
		return d.Err()
	}
	copy(b.activeData, ad)
	copy(b.activeTrans, at)
	b.resetStreams()
	return nil
}

// RebuildFromFlash reconstructs the allocator's view from the flash array
// after a crash: fully erased blocks form the free stacks (low ids pop
// first, the constructor's order), a partially programmed block reopens as
// its chip's active block for the stream its most recent program belongs
// to (data or translation, read from the page's OOB; the lowest-id
// candidate wins deterministically), and full blocks wait for GC.
func (b *BlockMan) RebuildFromFlash() {
	g := b.f.Geometry()
	blocksPerChip := g.Planes * g.BlocksPerUnit
	b.freeCount = 0
	for chip := range b.free {
		b.free[chip] = b.free[chip][:0]
		b.activeData[chip] = -1
		b.activeTrans[chip] = -1
		for i := blocksPerChip - 1; i >= 0; i-- {
			blk := chip*blocksPerChip + i
			if b.f.BlockBad(blk) {
				// Grown bad blocks stay out of circulation across a crash:
				// neither free nor active. Any stranded valid pages remain
				// readable and re-flag for scrub on their next read.
				continue
			}
			wp := b.f.BlockWritePtr(blk)
			switch {
			case wp == 0:
				b.free[chip] = append(b.free[chip], blk)
				b.freeCount++
			case wp < g.PagesPerBlock:
				// Descending iteration: a later (lower-id) candidate
				// overwrites, so the lowest id ends up active.
				last := nand.PPN(int64(blk)*int64(g.PagesPerBlock) + int64(wp-1))
				if b.f.PageOOB(last).Trans {
					b.activeTrans[chip] = blk
				} else {
					b.activeData[chip] = blk
				}
			}
		}
	}
	b.resetStreams()
}
