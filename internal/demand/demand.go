// Package demand implements the two demand-based page-level FTLs the paper
// measures against, as one type over the shared ftl.Base device and
// ftl.Demand mapping cache.
//
// DFTL (Gupta et al., ASPLOS'09) keeps the full mapping table in flash
// translation pages and a small DRAM cache (CMT) of recently used mappings;
// a CMT miss pays a translation-page flash read before the data read — the
// double read this paper attacks.
//
// TPFTL (Zhou et al., EuroSys'15), the scheme the paper builds LearnedFTL
// on, is DFTL plus a workload-adaptive loading policy that prefetches the
// mappings a request is about to touch from the same translation page, and
// translation-page-level batched write-back of dirty mappings. Both live in
// ftl.Demand; the constructors below only switch them.
package demand

import (
	"learnedftl/internal/ftl"
	"learnedftl/internal/nand"
	"learnedftl/internal/persist"
	"learnedftl/internal/stats"
)

// FTL is a demand-based page-level FTL: DFTL or TPFTL.
type FTL struct {
	*ftl.Base
	ftl.Demand
	name string
}

// NewDFTL builds a DFTL device.
func NewDFTL(cfg ftl.Config) (*FTL, error) { return newFTL(cfg, "DFTL", false) }

// NewTPFTL builds a TPFTL device.
func NewTPFTL(cfg ftl.Config) (*FTL, error) { return newFTL(cfg, "TPFTL", true) }

func newFTL(cfg ftl.Config, name string, tp bool) (*FTL, error) {
	b, err := ftl.NewBase(cfg)
	if err != nil {
		return nil, err
	}
	d := &FTL{Base: b, name: name}
	d.Demand = ftl.NewDemand(cfg.CMTEntries(), cfg.EntriesPerTP, tp, func(tpn int, now nand.Time) nand.Time {
		return b.UpdateTrans(tpn, true, now)
	})
	b.Hooks = d
	return d, nil
}

// Name implements ftl.FTL.
func (d *FTL) Name() string { return d.name }

// ReadPages implements ftl.FTL.
func (d *FTL) ReadPages(lpn int64, n int, now nand.Time) nand.Time {
	d.Observe(n)
	end := now
	for k := 0; k < n; k++ {
		if done := d.readOne(lpn+int64(k), n-k, now); done > end {
			end = done
		}
	}
	return end
}

func (d *FTL) readOne(lpn int64, remaining int, now nand.Time) nand.Time {
	d.Col.CMTLookups++
	if ppn, ok := d.CMT.Lookup(lpn); ok {
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
	d.Fill(lpn, remaining, d.L2P)
	t = d.Drain(t)
	d.Col.RecordClass(stats.ReadDouble)
	return d.Fl.Read(d.L2P.Get(lpn), t, nand.OpHostData)
}

// WritePages implements ftl.FTL.
func (d *FTL) WritePages(lpn int64, n int, now nand.Time) nand.Time {
	d.Observe(n)
	end := now
	for k := 0; k < n; k++ {
		l := lpn + int64(k)
		ppn, done := d.HostProgram(l, now)
		if ppn == nand.InvalidPPN {
			// Device failed (no space even after GC): drop the write.
			return done
		}
		d.CMT.Insert(l, ppn, true)
		done = d.Drain(done)
		if done > end {
			end = done
		}
	}
	return end
}

// GCFinalize implements ftl.RelocHooks: persist the new locations of every
// translation page GC touched. A greedy victim's pages usually scatter over
// many translation pages, so dynamic allocation pays one RMW per affected
// page — the extra write amplification the paper's §IV-B(2) attributes to
// DFTL-style allocation.
func (d *FTL) GCFinalize(moved []int64, t nand.Time) nand.Time {
	for _, tpn := range d.AffectedTPNs(moved) {
		t = d.UpdateTrans(tpn, true, t)
		d.CMT.CleanRange(d.Cfg.TPRange(tpn))
	}
	return t
}

// SaveState implements the persist.Device contract: the shared base state,
// the CMT in exact recency order and, for TPFTL, the request-length EMA.
func (d *FTL) SaveState(e *persist.Encoder) {
	d.SaveBaseState(e)
	d.Save(e)
	d.SaveEMA(e)
}

// LoadState restores a snapshot into a freshly constructed device of the
// same scheme and configuration.
func (d *FTL) LoadState(dec *persist.Decoder) error {
	if err := d.LoadBaseState(dec); err != nil {
		return err
	}
	if err := d.Load(dec, d.L2P.Len()); err != nil {
		return err
	}
	d.LoadEMA(dec)
	return dec.Err()
}

// RecoverFromCrash implements ftl.CrashRecoverer: the base OOB scan
// rebuilds L2P + GTD, and the cache — DRAM, lost with power — restarts cold.
func (d *FTL) RecoverFromCrash(now nand.Time) nand.Time {
	d.Reset()
	return d.Base.RecoverFromCrash(now)
}
