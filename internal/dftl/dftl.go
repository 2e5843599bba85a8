// Package dftl implements DFTL (Gupta et al., ASPLOS'09), the original
// demand-based page-level FTL: the full mapping table lives in flash
// translation pages and a small DRAM cache (CMT) holds the recently used
// mappings. A CMT miss pays a translation-page flash read before the data
// read — the double read this paper attacks.
package dftl

import (
	"learnedftl/internal/ftl"
	"learnedftl/internal/mapping"
	"learnedftl/internal/nand"
	"learnedftl/internal/persist"
	"learnedftl/internal/stats"
)

// DFTL is the baseline demand-based FTL.
type DFTL struct {
	*ftl.Base
	cmt *mapping.CMT
}

// New builds a DFTL device.
func New(cfg ftl.Config) (*DFTL, error) {
	b, err := ftl.NewBase(cfg)
	if err != nil {
		return nil, err
	}
	d := &DFTL{
		Base: b,
		cmt:  mapping.NewCMTFor(cfg.CMTEntries(), cfg.EntriesPerTP),
	}
	b.Hooks = d
	return d, nil
}

// Name implements ftl.FTL.
func (d *DFTL) Name() string { return "DFTL" }

// CMT exposes the cache for tests.
func (d *DFTL) CMT() *mapping.CMT { return d.cmt }

// ReadPages implements ftl.FTL.
func (d *DFTL) ReadPages(lpn int64, n int, now nand.Time) nand.Time {
	end := now
	for k := 0; k < n; k++ {
		if done := d.readOne(lpn+int64(k), now); done > end {
			end = done
		}
	}
	return end
}

func (d *DFTL) readOne(lpn int64, now nand.Time) nand.Time {
	d.Col.CMTLookups++
	if ppn, ok := d.cmt.Lookup(lpn); ok {
		d.Col.CMTHits++
		d.Col.RecordClass(stats.ReadSingle)
		return d.Fl.Read(ppn, now, nand.OpHostData)
	}
	if !d.Mapped(lpn) {
		// Unwritten LPN: nothing to fetch, served from the zero page.
		d.Col.RecordClass(stats.ReadSingle)
		return now
	}
	// Miss: fetch the mapping from its translation page (first flash read
	// of the double read), cache it, then read the data.
	t := d.ReadTrans(d.Cfg.TPNOf(lpn), now)
	d.cmt.Insert(lpn, d.L2P[lpn], false)
	t = d.drainEvictions(t)
	d.Col.RecordClass(stats.ReadDouble)
	return d.Fl.Read(d.L2P[lpn], t, nand.OpHostData)
}

// WritePages implements ftl.FTL.
func (d *DFTL) WritePages(lpn int64, n int, now nand.Time) nand.Time {
	end := now
	for k := 0; k < n; k++ {
		l := lpn + int64(k)
		ppn, done := d.HostProgram(l, now)
		if ppn == nand.InvalidPPN {
			// Device failed (no space even after GC): drop the write.
			return done
		}
		d.cmt.Insert(l, ppn, true)
		done = d.drainEvictions(done)
		if done > end {
			end = done
		}
	}
	return end
}

// drainEvictions brings the CMT back to capacity. Evicting a dirty entry
// costs a read-modify-write of its translation page; DFTL writes back one
// entry at a time (TPFTL adds batching).
func (d *DFTL) drainEvictions(now nand.Time) nand.Time {
	for d.cmt.NeedsEviction() {
		e, ok := d.cmt.EvictLRU()
		if !ok {
			break
		}
		if e.Dirty {
			now = d.UpdateTrans(d.Cfg.TPNOf(e.LPN), true, now)
		}
	}
	return now
}

// DataRelocated implements ftl.RelocHooks: keep cached PPNs current.
func (d *DFTL) DataRelocated(lpn int64, _, newPPN nand.PPN) {
	d.cmt.UpdatePPN(lpn, newPPN)
}

// DataTrimmed implements ftl.RelocHooks: a trimmed LPN must not serve a
// stale PPN from the cache.
func (d *DFTL) DataTrimmed(lpn int64, _ nand.PPN) {
	d.cmt.Remove(lpn)
}

// GCFinalize implements ftl.RelocHooks: persist the new locations of every
// translation page GC touched. A greedy victim's pages usually scatter over
// many translation pages, so dynamic allocation pays one RMW per affected
// page — the extra write amplification the paper's §IV-B(2) attributes to
// DFTL-style allocation.
func (d *DFTL) GCFinalize(moved []int64, t nand.Time) nand.Time {
	for _, tpn := range d.AffectedTPNs(moved) {
		t = d.UpdateTrans(tpn, true, t)
		d.cmt.CleanRange(d.Cfg.TPRange(tpn))
	}
	return t
}

// SaveState implements the persist.Device contract: the shared base state
// plus the CMT in exact recency order.
func (d *DFTL) SaveState(e *persist.Encoder) {
	d.SaveBaseState(e)
	persist.SaveCMT(e, d.cmt)
}

// LoadState restores a snapshot into a freshly constructed DFTL of the
// same configuration.
func (d *DFTL) LoadState(dec *persist.Decoder) error {
	if err := d.LoadBaseState(dec); err != nil {
		return err
	}
	d.cmt = mapping.NewCMTFor(d.Cfg.CMTEntries(), d.Cfg.EntriesPerTP)
	return persist.LoadCMT(dec, d.cmt)
}

// RecoverFromCrash implements ftl.CrashRecoverer: the base OOB scan
// rebuilds L2P + GTD, and the CMT — DRAM, lost with power — restarts cold.
func (d *DFTL) RecoverFromCrash(now nand.Time) nand.Time {
	t := d.Base.RecoverFromCrash(now)
	d.cmt = mapping.NewCMTFor(d.Cfg.CMTEntries(), d.Cfg.EntriesPerTP)
	return t
}

// TryReadPages implements ftl.ShardReader. A DFTL read resolves in DRAM
// iff every page is a CMT hit or unwritten; the first page needing a
// translation-page fetch aborts the probe before any state changes, so the
// engine's barriered replay through ReadPages starts from the exact state
// a sequential run would see.
func (d *DFTL) TryReadPages(lpn int64, n int, emit ftl.EmitRead) bool {
	for k := 0; k < n; k++ {
		l := lpn + int64(k)
		if !d.cmt.Contains(l) && d.Mapped(l) {
			return false
		}
	}
	for k := 0; k < n; k++ {
		l := lpn + int64(k)
		d.Col.CMTLookups++
		if ppn, ok := d.cmt.Lookup(l); ok {
			d.Col.CMTHits++
			d.Col.RecordClass(stats.ReadSingle)
			emit(ppn, 0)
			continue
		}
		// Unwritten LPN: served from the zero page, no flash op.
		d.Col.RecordClass(stats.ReadSingle)
	}
	return true
}
