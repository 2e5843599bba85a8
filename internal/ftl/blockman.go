package ftl

import (
	"learnedftl/internal/nand"
	"learnedftl/internal/sched"
)

// gcReserve is the number of free blocks host allocations must leave in
// the device-wide pool: the last free block belongs to garbage collection.
// A victim block holds at most PagesPerBlock−1 valid pages (all-valid
// blocks are never victims), so one reserved block always covers a
// collection's relocation target, and the erase at the end restores the
// reserve — inductively, a collection can never strand the device. This is
// the invariant that makes GC allocation failure (formerly a panic deep
// inside gcOnce) unreachable while any victim exists; the controller
// returns gc.ErrNoSpace gracefully in the truly-overcommitted case.
//
// The reserve only binds when the free pool is down to its final block —
// a state the GC watermarks keep ordinary runs far away from — so default
// foreground behavior is bit-for-bit unchanged.
const gcReserve = 1

// BlockMan implements the dynamic allocation strategy used by DFTL, TPFTL,
// LeaFTL and the ideal FTL (and by every scheme for translation pages): each
// chip has an active block per stream; new pages go to the least-busy chip,
// maximizing write parallelism (paper §III-D: "dynamic allocation will
// select the least busy flash chip").
type BlockMan struct {
	f     *nand.Flash
	codec nand.AddrCodec

	free        [][]int // per chip, stack of free block ids
	activeData  []int   // per chip, current data block (-1 = none)
	activeTrans []int   // per chip, current translation block (-1 = none)
	freeCount   int

	// scanOrder enumerates chips channel-first (the paper's Fig. 11
	// allocation order), so equal-busy ties fall to the chip whose next
	// page has the smallest VPPN and striped writes get contiguous VPPNs.
	scanOrder []int

	// streams holds one tournament per stream (0 data, 1 translation)
	// over the chips: entrant r is chip scanOrder[r], keyed by
	// (busy-until, r), or by sched.Never once the chip was found without
	// room for the stream even counting the GC reserve. Keys refresh lazily and stay lower
	// bounds of the current ones: within a flash clock epoch busy times
	// only grow, and a chip keyed Never regains room only through Release,
	// which resets the trees. A winner whose key is its busy time and that
	// has room is therefore the least busy chip with room.
	streams [2]*sched.Tree
	epoch   uint64 // f.ClockEpoch() at the last reset

	// onActive fires for every block whose active-write status changes on
	// the allocation path (both the retiring and the newly opened block).
	// The GC controller's victim index rides on it; wholesale reshuffles
	// (snapshot load, crash rebuild) are covered by gc.Controller.Resync
	// instead of per-block notifications.
	onActive func(blockID int)
}

// SetActiveHook registers the active-block transition callback.
func (b *BlockMan) SetActiveHook(fn func(blockID int)) { b.onActive = fn }

// notifyActive fires the hook for a real block id.
func (b *BlockMan) notifyActive(blockID int) {
	if b.onActive != nil && blockID >= 0 {
		b.onActive(blockID)
	}
}

// NewBlockMan returns a manager over an erased flash array: every block
// starts free.
func NewBlockMan(f *nand.Flash) *BlockMan {
	g := f.Geometry()
	chips := g.Chips()
	b := &BlockMan{
		f:           f,
		codec:       f.Codec(),
		free:        make([][]int, chips),
		activeData:  make([]int, chips),
		activeTrans: make([]int, chips),
	}
	for w := 0; w < g.Ways; w++ {
		for ch := 0; ch < g.Channels; ch++ {
			b.scanOrder = append(b.scanOrder, ch*g.Ways+w)
		}
	}
	blocksPerChip := g.Planes * g.BlocksPerUnit
	for chip := 0; chip < chips; chip++ {
		b.activeData[chip] = -1
		b.activeTrans[chip] = -1
		// Push in reverse so low block ids pop first (determinism).
		for i := blocksPerChip - 1; i >= 0; i-- {
			b.free[chip] = append(b.free[chip], chip*blocksPerChip+i)
		}
		b.freeCount += blocksPerChip
	}
	b.epoch = f.ClockEpoch()
	for i := range b.streams {
		b.streams[i] = sched.New(chips, b.rankBusy)
	}
	return b
}

// FreeBlocks returns the device-wide count of free (fully erased, inactive)
// blocks.
func (b *BlockMan) FreeBlocks() int { return b.freeCount }

// active returns the active-block slice for the stream.
func (b *BlockMan) active(trans bool) []int {
	if trans {
		return b.activeTrans
	}
	return b.activeData
}

// chipHasSpace reports whether a chip can absorb one more page for a
// stream. Host allocations (gcAlloc false) may not open the device's
// reserved last free block — it belongs to GC relocation — but can always
// continue an active block that still has free pages.
func (b *BlockMan) chipHasSpace(chip int, trans, gcAlloc bool) bool {
	act := b.active(trans)[chip]
	if act >= 0 && b.f.BlockFreePages(act) > 0 {
		return true
	}
	if len(b.free[chip]) == 0 {
		return false
	}
	return gcAlloc || b.freeCount > gcReserve
}

// AllocPage reserves the next programmable page for the given stream on the
// least-busy chip, opening a fresh block when the active one is full.
// The caller must Program the returned PPN before the next AllocPage on the
// same chip (NAND in-order constraint). ok is false when no chip has space
// outside the GC reserve — the caller must garbage-collect first.
func (b *BlockMan) AllocPage(trans bool) (nand.PPN, bool) {
	return b.allocLeastBusy(trans, false)
}

// AllocGCPage is AllocPage for GC relocation: it may dip into the
// device-wide reserved last free block, which is what lets a collection
// complete on a device the host has written to the allocation limit.
func (b *BlockMan) AllocGCPage(trans bool) (nand.PPN, bool) {
	return b.allocLeastBusy(trans, true)
}

// rankBusy is the busy-until time of the chip of scan-order rank r.
func (b *BlockMan) rankBusy(r int) nand.Time { return b.f.ChipBusyUntil(b.scanOrder[r]) }

// resetStreams keys every chip of both tournaments at its busy time.
func (b *BlockMan) resetStreams() {
	b.epoch = b.f.ClockEpoch()
	for _, t := range b.streams {
		t.Reset(b.rankBusy)
	}
}

// allocLeastBusy allocates on the least busy chip with space, the first in
// scanOrder on ties. A winner of the stream's tournament whose busy time
// moved on is re-keyed at it, one leaf-to-root replay — typically the chip
// the previous allocation programmed — and one without room at Never, so
// a chip's room is checked only when it comes up with a current key. Only
// a host allocation the device-wide GC reserve turns away from the winner
// falls back to the full scan.
func (b *BlockMan) allocLeastBusy(trans, gcAlloc bool) (nand.PPN, bool) {
	if b.f.ClockEpoch() != b.epoch {
		b.resetStreams()
	}
	t := b.streams[0]
	if trans {
		t = b.streams[1]
	}
	for {
		r, at := t.Min()
		if at == sched.Never {
			return nand.InvalidPPN, false
		}
		chip := b.scanOrder[r]
		key := b.f.ChipBusyUntil(chip)
		if key == at {
			if b.chipHasSpace(chip, trans, true) {
				// A host allocation may open the reserved block only when
				// it is not the device's last free one.
				if gcAlloc || b.freeCount > gcReserve || b.chipHasSpace(chip, trans, false) {
					return b.allocOn(chip, trans)
				}
				return b.allocScan(trans, gcAlloc)
			}
			key = sched.Never
		}
		t.Advance(key)
	}
}

// allocScan allocates on the least busy chip with space by scanning every
// chip, the first in scanOrder on ties. The busy time is one load, the
// space check several, so a chip is checked for space only when it would
// become the new best.
func (b *BlockMan) allocScan(trans, gcAlloc bool) (nand.PPN, bool) {
	best := -1
	var bestBusy nand.Time
	for _, chip := range b.scanOrder {
		busy := b.f.ChipBusyUntil(chip)
		if best != -1 && busy >= bestBusy || !b.chipHasSpace(chip, trans, gcAlloc) {
			continue
		}
		best, bestBusy = chip, busy
	}
	if best == -1 {
		return nand.InvalidPPN, false
	}
	return b.allocOn(best, trans)
}

// AllocGCPageOnChip reserves the next relocation page on a specific chip
// (GC keeps pages on the victim's chip when possible to bound
// interference). Falls back to AllocGCPage when the chip is out of space.
func (b *BlockMan) AllocGCPageOnChip(chip int, trans bool) (nand.PPN, bool) {
	if !b.chipHasSpace(chip, trans, true) {
		return b.AllocGCPage(trans)
	}
	return b.allocOn(chip, trans)
}

func (b *BlockMan) allocOn(chip int, trans bool) (nand.PPN, bool) {
	act := b.active(trans)
	blk := act[chip]
	if blk < 0 || b.f.BlockFreePages(blk) == 0 {
		n := len(b.free[chip])
		if n == 0 {
			return nand.InvalidPPN, false
		}
		blk = b.free[chip][n-1]
		b.free[chip] = b.free[chip][:n-1]
		b.freeCount--
		old := act[chip]
		act[chip] = blk
		b.notifyActive(old)
		b.notifyActive(blk)
	}
	pg := b.f.BlockWritePtr(blk)
	base := b.codec.BlockBase(blk)
	return base + nand.PPN(pg), true
}

// Retire removes a grown bad block from circulation: if it is an active
// write block the slot is closed (the next allocation opens a fresh block),
// and it never returns to the free pool — usable capacity degrades by one
// block. The caller is responsible for relocating any valid pages still in
// the block; free stacks never contain bad blocks because retired blocks
// are never Released.
func (b *BlockMan) Retire(blockID int) {
	chip := b.codec.Chip(b.codec.BlockBase(blockID))
	if b.activeData[chip] == blockID {
		b.activeData[chip] = -1
		b.notifyActive(blockID)
	}
	if b.activeTrans[chip] == blockID {
		b.activeTrans[chip] = -1
		b.notifyActive(blockID)
	}
}

// Release returns an erased block to the free pool. A chip that had no
// room for a stream has room again, a key the lazy tournaments cannot
// lower in place, so they are reset.
func (b *BlockMan) Release(blockID int) {
	chip := b.codec.Chip(b.codec.BlockBase(blockID))
	full := !b.chipHasSpace(chip, false, true) || !b.chipHasSpace(chip, true, true)
	b.free[chip] = append(b.free[chip], blockID)
	b.freeCount++
	if full {
		b.resetStreams()
	}
}

// IsActive reports whether blockID is currently an active write block of
// either stream (active blocks are not GC victims).
func (b *BlockMan) IsActive(blockID int) bool {
	chip := b.codec.Chip(b.codec.BlockBase(blockID))
	return b.activeData[chip] == blockID || b.activeTrans[chip] == blockID
}
