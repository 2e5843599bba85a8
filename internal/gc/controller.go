package gc

import (
	"cmp"
	"errors"
	"fmt"
	"slices"

	"learnedftl/internal/nand"
	"learnedftl/internal/stats"
)

// ErrNoSpace reports that a collection could not claim a relocation target:
// every chip's free pool and active blocks are exhausted. With the block
// manager's per-chip GC reserve in force this is unreachable in normal
// operation; it surfaces (instead of a panic) when a caller overcommits the
// device far past its over-provisioning.
var ErrNoSpace = errors.New("gc: no relocation target (free pool exhausted)")

// Allocator is the slice of the block manager the controller relocates
// through. The *GC allocation variants may dip into the device-wide
// reserved last free block that host allocations must leave alone, which
// is what guarantees a collection can always complete.
//
// Implementations must report every active-block transition (a block
// becoming or ceasing to be an active write block) to the controller via
// ActiveChanged, so the incremental victim index tracks eligibility without
// rescanning; the controller seeds the active set itself at construction
// and after Resync.
type Allocator interface {
	// AllocGCPage reserves the next relocation page on the least-busy chip.
	AllocGCPage(trans bool) (nand.PPN, bool)
	// AllocGCPageOnChip reserves the next relocation page on a specific
	// chip, falling back to the least-busy chip when it is out of space.
	AllocGCPageOnChip(chip int, trans bool) (nand.PPN, bool)
	// Release returns an erased block to the free pool.
	Release(blockID int)
	// Retire removes a grown bad block from circulation: closed if active,
	// never freed. The controller calls it instead of Release when a victim
	// goes bad, and for relocation targets that fail mid-collection.
	Retire(blockID int)
	// FreeBlocks is the device-wide free-block count the watermarks gate on.
	FreeBlocks() int
	// IsActive reports whether a block is an active write block (active
	// blocks are never victims).
	IsActive(blockID int) bool
}

// Host is the mapping-maintenance side of a collection: the FTL keeps its
// translation structures coherent as the controller moves pages.
type Host interface {
	// PageRelocated fires for every valid page the controller moved —
	// translation pages and data pages alike.
	PageRelocated(oob nand.OOB, old, new nand.PPN)
	// Finalize fires once per collection with the moved data LPNs (sorted
	// when SortByLPN) and the virtual time after relocation; it performs
	// the scheme's translation-page maintenance and returns the advanced
	// time.
	Finalize(moved []int64, t nand.Time) nand.Time
	// SortByLPN makes the controller relocate valid pages in ascending LPN
	// order through least-busy allocation (LeaFTL trains segments over the
	// sorted result; the default keeps victim-chip locality).
	SortByLPN() bool
}

// Stats are the controller's per-policy counters.
type Stats struct {
	// Foreground counts watermark-triggered collections on the write path.
	Foreground int64
	// Background counts idle-gap collections from the open-loop engine.
	Background int64
	// PagesMoved counts relocated valid pages across all modes.
	PagesMoved int64
	// Aborted counts collections that stopped early on ErrNoSpace.
	Aborted int64
	// Scrubbed counts background scrub collections (at-risk block
	// rewrites driven by the fault model's risk queue).
	Scrubbed int64
}

// Controller owns garbage collection for one device: the victim-selection
// policy, the trigger watermarks, the relocation mechanics and the
// statistics. It is driven from two sides — Foreground by the FTL's write
// path, Background by the open-loop host model during idle gaps.
type Controller struct {
	fl    *nand.Flash
	codec nand.AddrCodec
	alloc Allocator
	host  Host
	col   *stats.Collector
	pol   Policy

	// lowWater is the foreground trigger: collect while FreeBlocks() is at
	// or below it. bgWater is the background target: idle-gap collection
	// tops the free pool up to it (bgWater > lowWater, so background
	// collection runs ahead of need and the write path rarely triggers).
	lowWater, bgWater int

	// idx is the incremental victim index Victim selects through; it is
	// registered as the flash array's block observer and kept in sync with
	// the allocator's active set through ActiveChanged/Resync.
	idx *victimIndex

	// Relocation scratch, reused across collections so the overwrite+GC
	// hot path stays allocation-free.
	ppnBuf   []nand.PPN
	pagesBuf []vp
	movedBuf []int64

	inGC    bool
	lastErr error
	stats   Stats
}

// vp pairs a valid page with its OOB for relocation.
type vp struct {
	ppn nand.PPN
	oob nand.OOB
}

// NewController wires a controller. bgWater <= lowWater is raised to
// 2×lowWater so background collection always has headroom over the
// foreground trigger.
func NewController(fl *nand.Flash, alloc Allocator, host Host,
	col *stats.Collector, pol Policy, lowWater, bgWater int) *Controller {
	if bgWater <= lowWater {
		bgWater = 2 * lowWater
	}
	c := &Controller{
		fl:       fl,
		codec:    fl.Codec(),
		alloc:    alloc,
		host:     host,
		col:      col,
		pol:      pol,
		lowWater: lowWater,
		bgWater:  bgWater,
		idx:      newVictimIndex(fl, alloc, pol),
	}
	// The index lives on the flash array's block-dirty feed. One observer
	// slot exists; a device must route victim selection through exactly one
	// controller (the last one constructed wins the feed).
	fl.SetBlockObserver(c.idx)
	return c
}

// ActiveChanged tells the victim index a block's active-write status
// flipped. The block manager calls it on every active-block transition;
// allocators that fail to do so would leave stale candidates in the index.
func (c *Controller) ActiveChanged(blockID int) { c.idx.activeChanged(blockID) }

// Resync re-probes the allocator's whole active set — required after a
// snapshot restore or crash rebuild, where active blocks move without
// per-transition notifications. (The flash array's own import already
// reports every block dirty.)
func (c *Controller) Resync() { c.idx.resyncActive() }

// IndexStats summarizes the victim index's work: how many selections ran
// and how many candidate blocks they scored in total. examined/selections
// staying far below TotalBlocks is the proof the scan is no longer linear.
type IndexStats struct {
	Selections int64
	Examined   int64
}

// IndexStats returns the victim index's selection counters.
func (c *Controller) IndexStats() IndexStats {
	return IndexStats{Selections: c.idx.selections, Examined: c.idx.examined}
}

// InGC reports whether a collection is in flight. Translation maintenance
// that runs inside a collection (relocation hooks) allocates through the
// GC-reserve-bypassing paths based on this.
func (c *Controller) InGC() bool { return c.inGC }

// Stats returns a copy of the per-policy counters.
func (c *Controller) Stats() Stats { return c.stats }

// ImportStats replaces the per-policy counters (device snapshot restore).
func (c *Controller) ImportStats(s Stats) { c.stats = s }

// LastErr returns the most recent collection error (nil when healthy);
// Foreground and Background stop collecting on error rather than panic,
// and the allocation failure that follows upstream reports this cause.
func (c *Controller) LastErr() error { return c.lastErr }

// Foreground collects until the free pool is above the low watermark,
// returning the advanced virtual time. The triggering request absorbs the
// full latency. Re-entrant calls (collection maintenance paths run back
// through the write path) are no-ops.
func (c *Controller) Foreground(now nand.Time) nand.Time {
	if c.inGC {
		return now
	}
	for c.alloc.FreeBlocks() <= c.lowWater {
		done, ok := c.collectOnce(now, false)
		if !ok {
			break
		}
		now = done
	}
	return now
}

// Background collects during a device-idle gap [now, deadline): it keeps
// launching collections while the free pool is below the background
// watermark and the next collection still starts before the deadline. A
// collection already running when the deadline passes completes — host
// requests arriving meanwhile queue behind it on the chips it occupies —
// but no new one starts.
func (c *Controller) Background(now, deadline nand.Time) nand.Time {
	if c.inGC {
		return now
	}
	for now < deadline && c.alloc.FreeBlocks() < c.bgWater {
		done, ok := c.collectOnce(now, true)
		if !ok {
			break
		}
		now = done
	}
	return now
}

// Victim picks the collection victim under the policy: the highest-scoring
// non-active block that has something invalid to reclaim (collecting an
// all-valid block costs a block's worth of relocation for zero gain and
// can livelock the trigger loop). Returns -1 when no candidate qualifies.
//
// Selection runs through the incremental victim index — O(log B)-ish
// pruned descent instead of the historical full-device scan — and is
// pinned byte-identical to the frozen linear scan (VictimLinearScan in
// linearscan_test.go) under every policy.
func (c *Controller) Victim(now nand.Time) int {
	return c.idx.victim(now)
}

// CollectOnce runs a single foreground collection regardless of the
// watermarks (tests, manual compaction). ok is false when no victim
// qualifies or the collection aborted on ErrNoSpace.
func (c *Controller) CollectOnce(now nand.Time) (nand.Time, bool) {
	if c.inGC {
		return now, false
	}
	return c.collectOnce(now, false)
}

// collectMode classifies a collection for accounting: foreground and
// background follow the watermark triggers; scrub collections come from
// the fault model's at-risk queue and are tallied separately so refresh
// traffic is distinguishable from reclamation.
type collectMode uint8

const (
	modeForeground collectMode = iota
	modeBackground
	modeScrub
)

// CollectBlock collects one explicitly chosen block, bypassing policy
// selection: relocate every valid page, erase, and release — or retire, if
// the block is (or goes) bad. The FTL uses it to drain a freshly retired
// bad block's surviving valid pages. ok is false when a collection is
// already running, the block is an active write block, or it holds nothing
// (an erased block needs no collection and must not be double-released).
func (c *Controller) CollectBlock(blockID int, now nand.Time) (nand.Time, bool) {
	return c.collectTarget(blockID, now, modeForeground)
}

// ScrubBlock is CollectBlock with scrub accounting: the rewrite resets the
// block's read-disturb count and retention age, which is the refresh that
// prevents uncorrectable errors.
func (c *Controller) ScrubBlock(blockID int, now nand.Time) (nand.Time, bool) {
	return c.collectTarget(blockID, now, modeScrub)
}

func (c *Controller) collectTarget(blockID int, now nand.Time, mode collectMode) (nand.Time, bool) {
	if c.inGC || blockID < 0 || c.alloc.IsActive(blockID) ||
		c.fl.BlockWritePtr(blockID) == 0 {
		return now, false
	}
	return c.collect(blockID, now, mode)
}

// collectOnce collects one policy-selected victim block. ok is false when
// no victim qualifies or the collection aborted on ErrNoSpace (the pages
// moved before the abort remain fully coherent; the victim is simply not
// erased).
func (c *Controller) collectOnce(now nand.Time, background bool) (nand.Time, bool) {
	victim := c.Victim(now)
	if victim < 0 {
		return now, false
	}
	mode := modeForeground
	if background {
		mode = modeBackground
	}
	return c.collect(victim, now, mode)
}

// collect relocates every valid page out of victim, erases it and returns
// it to circulation (free pool, or the bad-block list if it went bad),
// then runs host finalize and accounting.
func (c *Controller) collect(victim int, now nand.Time, mode collectMode) (nand.Time, bool) {
	c.inGC = true
	defer func() { c.inGC = false }()

	// The whole collection — relocation, erase, host finalize — is one
	// attribution window: a request stalled behind it sees its full span as
	// GC (or scrub) time, and the per-op hooks inside the window stay quiet.
	tr := c.col.Tracer()
	if tr != nil {
		tr.EnterGC(mode == modeScrub, now)
	}

	base := c.codec.BlockBase(victim)
	t := now

	// The block's valid bitmap walks straight to the pages that must move —
	// no per-page state probing — and the controller-owned scratch keeps
	// the relocation loop allocation-free across collections.
	c.ppnBuf = c.fl.AppendValidPages(victim, c.ppnBuf[:0])
	pages := c.pagesBuf[:0]
	for _, p := range c.ppnBuf {
		pages = append(pages, vp{p, c.fl.PageOOB(p)})
	}
	c.pagesBuf = pages[:0]
	sorted := c.host.SortByLPN()
	if sorted {
		// A victim's valid pages carry distinct keys — a block holds one
		// stream, data or translation, and each LPN or TPN has one valid
		// copy — so any sort gives this one order.
		slices.SortFunc(pages, func(a, b vp) int { return cmp.Compare(a.oob.Key, b.oob.Key) })
	}

	// Relocation overlaps across chips, as FEMU's GC does: every page's
	// read issues against the collection start time (per-chip queueing
	// serializes same-chip reads), and its program depends only on its own
	// read. The collection ends when the slowest chain finishes.
	victimChip := c.codec.Chip(base)
	moved := c.movedBuf[:0]
	relocated := 0
	for _, p := range pages {
		readDone := c.fl.Read(p.ppn, now, nand.OpGC)
		var np nand.PPN
		var done nand.Time
		for {
			var ok bool
			if sorted {
				np, ok = c.alloc.AllocGCPage(p.oob.Trans)
			} else {
				np, ok = c.alloc.AllocGCPageOnChip(victimChip, p.oob.Trans)
			}
			if !ok {
				t = c.abort(victim, len(pages), relocated, moved, now, t, mode)
				if tr != nil {
					tr.ExitGC(t)
				}
				return t, false
			}
			var err error
			done, err = c.fl.Program(np, p.oob, readDone, nand.OpGC)
			if err == nil {
				break
			}
			if !errors.Is(err, nand.ErrProgramFailed) {
				// Not a device fault: a simulator invariant broke.
				panic(fmt.Sprintf("gc: %v", err))
			}
			// The relocation target grew a defect mid-collection. Retire
			// it and retry this page elsewhere; the target's already-moved
			// pages stay valid inside the now-bad block, so queue it for
			// the scrub source to drain once this collection is over (a
			// collection cannot nest).
			bad := c.codec.BlockID(np)
			c.alloc.Retire(bad)
			c.fl.QueueScrub(bad)
			if done > t {
				t = done
			}
		}
		if done > t {
			t = done
		}
		if err := c.fl.Invalidate(p.ppn); err != nil {
			panic(fmt.Sprintf("gc: %v", err))
		}
		c.host.PageRelocated(p.oob, p.ppn, np)
		relocated++
		if !p.oob.Trans {
			moved = append(moved, p.oob.Key)
		}
	}
	eraseDone, err := c.fl.Erase(victim, t)
	if err != nil {
		panic(fmt.Sprintf("gc: %v", err))
	}
	t = eraseDone
	if c.fl.BlockBad(victim) {
		// The erase failed (or the victim was a retired block being
		// drained): it never rejoins the free pool.
		c.alloc.Retire(victim)
	} else {
		c.alloc.Release(victim)
	}
	t = c.host.Finalize(moved, t)
	c.movedBuf = moved[:0]
	c.lastErr = nil
	c.stats.PagesMoved += int64(len(pages))
	switch mode {
	case modeScrub:
		c.stats.Scrubbed++
		c.col.RecordScrub(len(pages))
	case modeBackground:
		c.stats.Background++
		c.col.RecordBGGC()
		c.col.RecordGC(len(pages), t-now)
	default:
		c.stats.Foreground++
		c.col.RecordGC(len(pages), t-now)
	}
	if tr != nil {
		tr.ExitGC(t)
	}
	return t, true
}

// abort ends a collection that could not claim a relocation target: the
// pages moved so far are coherent, the victim keeps its remaining valid
// pages and is not erased. The partial relocation still did real work, so
// it is accounted like a collection (the flash OpGC counters already grew
// by `relocated` programs).
func (c *Controller) abort(victim, total, relocated int, moved []int64,
	now, t nand.Time, mode collectMode) nand.Time {
	c.lastErr = fmt.Errorf("%w (victim=%d valid=%d free=%d)",
		ErrNoSpace, victim, total, c.alloc.FreeBlocks())
	c.stats.Aborted++
	t = c.host.Finalize(moved, t)
	c.movedBuf = moved[:0]
	c.stats.PagesMoved += int64(relocated)
	if mode == modeScrub {
		c.col.RecordScrub(relocated)
	} else {
		c.col.RecordGC(relocated, t-now)
	}
	return t
}
