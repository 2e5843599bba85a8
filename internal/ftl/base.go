package ftl

import (
	"errors"
	"fmt"
	"sort"

	"learnedftl/internal/gc"
	"learnedftl/internal/nand"
)

// RelocHooks lets a concrete FTL keep its translation structures coherent
// while the shared garbage collector moves pages around.
type RelocHooks interface {
	// DataRelocated fires for every valid data page GC moved, after the
	// L2P shadow map has been updated.
	DataRelocated(lpn int64, old, new nand.PPN)
	// GCFinalize fires once per collected block with the moved LPNs
	// (sorted when Base.SortRelocate is set) and the virtual time after
	// relocation; it performs the scheme's translation-page maintenance
	// and returns the advanced time.
	GCFinalize(moved []int64, t nand.Time) nand.Time
	// DataTrimmed fires for every LPN a host TRIM covered, after the L2P
	// entry was dropped (old is InvalidPPN when the LPN held no flash
	// data); the scheme drops its cached state for the LPN.
	DataTrimmed(lpn int64, old nand.PPN)
}

// NopHooks is a RelocHooks with no translation structures (ideal FTL).
type NopHooks struct{}

// DataRelocated implements RelocHooks.
func (NopHooks) DataRelocated(int64, nand.PPN, nand.PPN) {}

// GCFinalize implements RelocHooks.
func (NopHooks) GCFinalize(_ []int64, t nand.Time) nand.Time { return t }

// DataTrimmed implements RelocHooks.
func (NopHooks) DataTrimmed(int64, nand.PPN) {}

// BackgroundCollector is the idle-gap part of the FTL contract, which
// embeds it: garbage collection during device-idle gaps, preempted by the
// next host arrival. Base (and so every block-granular scheme) and
// LearnedFTL implement it.
type BackgroundCollector interface {
	// BackgroundGC collects during the idle gap [start, deadline): new
	// collections launch only before the deadline; one already running
	// completes (arrivals queue behind it per chip). Returns the advanced
	// virtual time.
	BackgroundGC(start, deadline nand.Time) nand.Time
}

// Base is the block-granular device every dynamic-allocation FTL embeds:
// the shared translation State plus the block manager and the
// garbage-collection controller that allocate and reclaim single blocks.
type Base struct {
	State
	BM *BlockMan

	// GC owns victim selection (per Cfg.GCPolicy), the trigger watermarks
	// and the relocation mechanics.
	GC *gc.Controller

	// Hooks is set by the embedding FTL before the first write.
	Hooks RelocHooks

	// SortRelocate makes GC relocate valid pages in ascending LPN order
	// through least-busy allocation (LeaFTL needs sorted, striped
	// relocation to train segments; DFTL-family keeps victim-chip
	// locality).
	SortRelocate bool

	tpnBuf []int // AffectedTPNs' result, reused across collections
}

// NewBase builds the shared device state for cfg.
func NewBase(cfg Config) (*Base, error) {
	// Before LogicalPages and NumTPNs divide by its fields.
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	st, err := NewState(cfg, cfg.LogicalPages(), cfg.NumTPNs())
	if err != nil {
		return nil, err
	}
	pol, err := gc.NewPolicy(cfg.GCPolicy)
	if err != nil {
		return nil, err
	}
	b := &Base{State: st, BM: NewBlockMan(st.Fl), Hooks: NopHooks{}}
	b.GC = gc.NewController(b.Fl, b.BM, b, b.Col, pol, cfg.GCLowWater)
	// Active-block transitions feed the controller's incremental victim
	// index: active blocks are never victims, so the index must learn about
	// every open/retire without rescanning the device.
	b.BM.SetActiveHook(b.GC.ActiveChanged)
	return b, nil
}

// PageRelocated implements gc.Host: repoint the GTD for moved translation
// pages, the shadow map (plus the scheme's caches) for moved data pages.
func (b *Base) PageRelocated(oob nand.OOB, old, new nand.PPN) {
	if oob.Trans {
		b.GTD.Update(int(oob.Key), new)
		return
	}
	b.L2P.Set(oob.Key, new)
	b.Hooks.DataRelocated(oob.Key, old, new)
}

// Finalize implements gc.Host.
func (b *Base) Finalize(moved []int64, t nand.Time) nand.Time {
	return b.Hooks.GCFinalize(moved, t)
}

// SortByLPN implements gc.Host.
func (b *Base) SortByLPN() bool { return b.SortRelocate }

// AffectedTPNs returns the translation pages covering lpns, ascending and
// without repeats — the pages a GCFinalize must rewrite. The result lives
// in a buffer the next call overwrites.
func (b *Base) AffectedTPNs(lpns []int64) []int {
	out := b.tpnBuf[:0]
	for _, l := range lpns {
		out = append(out, b.Cfg.TPNOf(l))
	}
	sort.Ints(out)
	n := 0
	for _, tpn := range out {
		if n == 0 || tpn != out[n-1] {
			out[n] = tpn
			n++
		}
	}
	b.tpnBuf = out
	return out[:n]
}

// HostProgram writes one host data page: it reclaims space if needed,
// allocates on the least-busy chip, programs, and maintains the shadow map.
// It returns the new PPN and the completion time.
//
// Two failure modes degrade gracefully instead of panicking. A grown-defect
// program failure retires the bad block, drains its surviving valid pages
// and retries on another chip — each retry consumes one block, so the loop
// terminates. A true allocation failure (the device is overcommitted, or
// bad-block growth ate the over-provisioning) latches the device-failed
// state on the collector and drops the write: the returned PPN is
// InvalidPPN and the mapping is unchanged.
func (b *Base) HostProgram(lpn int64, after nand.Time) (nand.PPN, nand.Time) {
	now := b.RunGC(after)
	for {
		ppn, ok := b.BM.AllocPage(false)
		if !ok {
			b.Col.RecordDeviceFailure(fmt.Sprintf(
				"host allocation failed after GC (free=%d, bad=%d, gc err: %v)",
				b.BM.FreeBlocks(), b.Fl.BadBlocks(), b.GC.LastErr()))
			return nand.InvalidPPN, now
		}
		done, err := b.Fl.Program(ppn, nand.OOB{Key: lpn}, now, nand.OpHostData)
		if err != nil {
			now = b.retireFailed(ppn, done, err)
			continue
		}
		if old := b.L2P.Get(lpn); old != nand.InvalidPPN {
			if e := b.Fl.Invalidate(old); e != nil {
				panic(fmt.Sprintf("ftl: %v", e))
			}
		}
		b.L2P.Set(lpn, ppn)
		return ppn, done
	}
}

// retireFailed handles a grown-defect program failure at ppn: the block is
// retired from circulation and its surviving valid pages are drained by an
// immediate targeted collection — or, when the failure struck inside a
// collection's translation maintenance, by the background scrub source
// later (a collection cannot nest).
func (b *Base) retireFailed(p nand.PPN, done nand.Time, err error) nand.Time {
	if !errors.Is(err, nand.ErrProgramFailed) {
		panic(fmt.Sprintf("ftl: %v", err))
	}
	bid := b.Codec.BlockID(p)
	b.BM.Retire(bid)
	if t, ok := b.GC.CollectBlock(bid, done); ok {
		return t
	}
	b.Fl.QueueScrub(bid)
	return done
}

// TrimPages implements the FTL TRIM path for every Base-embedding scheme:
// each mapped LPN's flash page is invalidated and its mapping dropped; the
// scheme's DataTrimmed hook fires for every covered LPN (mapped or not) so
// cached mappings and write buffers forget it too. TRIM is a metadata
// operation — no flash I/O, no time advance.
func (b *Base) TrimPages(lpn int64, n int, now nand.Time) nand.Time {
	live := 0
	for k := 0; k < n; k++ {
		l := lpn + int64(k)
		old := b.L2P.Get(l)
		if old != nand.InvalidPPN {
			if err := b.Fl.Invalidate(old); err != nil {
				panic(fmt.Sprintf("ftl: %v", err))
			}
			b.L2P.Set(l, nand.InvalidPPN)
			live++
		}
		b.Hooks.DataTrimmed(l, old)
	}
	b.Col.RecordTrim(n, live)
	return now
}

// UpdateTrans persists the current mappings of translation page tpn: a
// read-modify-write when doRead is set and a prior version exists, then a
// program of the new version. The GTD is repointed and the old version
// invalidated.
func (b *Base) UpdateTrans(tpn int, doRead bool, after nand.Time) nand.Time {
	now := b.RunGC(after)
	old := nand.InvalidPPN
	if b.GTD.Written(tpn) {
		old = b.GTD.Lookup(tpn)
		if doRead {
			now = b.Fl.Read(old, now, nand.OpTranslation)
		}
	}
	// Translation maintenance fired from inside a collection (relocation
	// hooks) is part of GC and may use the reserved free block; ordinary
	// host-path updates must leave it for GC. Failure handling mirrors
	// HostProgram: grown-defect failures retire and retry, allocation
	// failure latches the device-failed state and leaves the old version
	// (still readable) in place.
	for {
		var ppn nand.PPN
		var ok bool
		if b.GC.InGC() {
			ppn, ok = b.BM.AllocGCPage(true)
		} else {
			ppn, ok = b.BM.AllocPage(true)
		}
		if !ok {
			b.Col.RecordDeviceFailure(fmt.Sprintf(
				"translation allocation failed after GC (free=%d, bad=%d, gc err: %v)",
				b.BM.FreeBlocks(), b.Fl.BadBlocks(), b.GC.LastErr()))
			return now
		}
		done, err := b.Fl.Program(ppn, nand.OOB{Key: int64(tpn), Trans: true}, now, nand.OpTranslation)
		if err != nil {
			now = b.retireFailed(ppn, done, err)
			continue
		}
		if old != nand.InvalidPPN {
			if e := b.Fl.Invalidate(old); e != nil {
				panic(fmt.Sprintf("ftl: %v", e))
			}
		}
		b.GTD.Update(tpn, ppn)
		return done
	}
}

// RunGC performs foreground garbage collection until the free-block pool is
// above the low watermark, returning the advanced virtual time. The
// triggering request absorbs the full latency, which is the paper's
// tail-latency mechanism.
func (b *Base) RunGC(now nand.Time) nand.Time {
	return b.GC.Foreground(now)
}

// BackgroundGC implements FTL by delegating to the controller's idle-gap
// collection, then draining the scrub queue — the at-risk blocks the fault
// model flagged — in whatever gap remains.
func (b *Base) BackgroundGC(start, deadline nand.Time) nand.Time {
	// Scrub first: the at-risk queue is bounded and drains, while the
	// free-pool top-up below can want every idle nanosecond the run has —
	// ordered the other way, refreshes would starve behind routine GC and
	// at-risk blocks would sit unscrubbed until they turn uncorrectable.
	now := start
	if b.Cfg.Fault.Enabled && b.Cfg.Fault.Scrub {
		now = b.scrub(now, deadline)
	}
	return b.GC.Background(now, deadline)
}

// scrub rewrites at-risk blocks during the idle gap: each popped block is
// collected (relocate valid pages, erase), which resets its read-disturb
// count and retention age. New scrubs launch only before the deadline;
// active write blocks are skipped and re-flag once they disturb further.
func (b *Base) scrub(now, deadline nand.Time) nand.Time {
	for now < deadline {
		blk := b.Fl.PopScrubBlock()
		if blk < 0 {
			break
		}
		if b.BM.IsActive(blk) {
			continue
		}
		if t, ok := b.GC.ScrubBlock(blk, now); ok {
			now = t
		}
	}
	return now
}
