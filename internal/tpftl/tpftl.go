// Package tpftl implements TPFTL (Zhou et al., EuroSys'15), the
// state-of-the-art demand-based FTL the paper builds LearnedFTL on. Over
// DFTL it adds (1) a workload-adaptive loading policy that prefetches the
// mappings a multi-page request is about to touch from the same translation
// page, exploiting spatial locality, and (2) translation-page-level batched
// write-back: evicting one dirty mapping persists every dirty mapping of
// that translation page in a single read-modify-write.
package tpftl

import (
	"learnedftl/internal/ftl"
	"learnedftl/internal/mapping"
	"learnedftl/internal/nand"
	"learnedftl/internal/persist"
	"learnedftl/internal/stats"
)

// TPFTL is the locality-optimized demand-based FTL.
type TPFTL struct {
	*ftl.Base
	cmt *mapping.CMT

	// emaLen is an exponential moving average of recent request lengths in
	// pages; the loading policy prefetches about this many mappings on a
	// miss even when the current request is short, adapting to the
	// workload as §II-A describes.
	emaLen float64
}

// New builds a TPFTL device.
func New(cfg ftl.Config) (*TPFTL, error) {
	b, err := ftl.NewBase(cfg)
	if err != nil {
		return nil, err
	}
	t := &TPFTL{
		Base:   b,
		cmt:    mapping.NewCMTFor(cfg.CMTEntries(), cfg.EntriesPerTP),
		emaLen: 1,
	}
	b.Hooks = t
	return t, nil
}

// Name implements ftl.FTL.
func (t *TPFTL) Name() string { return "TPFTL" }

// CMT exposes the cache for tests.
func (t *TPFTL) CMT() *mapping.CMT { return t.cmt }

// observe updates the request-length EMA.
func (t *TPFTL) observe(n int) {
	const alpha = 0.2
	t.emaLen = (1-alpha)*t.emaLen + alpha*float64(n)
}

// prefetchSpan returns how many mappings to load on a miss at lpn during a
// request with `remaining` pages left, clipped to the translation page.
func (t *TPFTL) prefetchSpan(lpn int64, remaining int) int64 {
	want := int64(remaining)
	if ema := int64(t.emaLen + 0.5); ema > want {
		want = ema
	}
	if want < 1 {
		want = 1
	}
	_, hi := t.Cfg.TPRange(t.Cfg.TPNOf(lpn))
	if lpn+want > hi {
		want = hi - lpn
	}
	return want
}

// ReadPages implements ftl.FTL.
func (t *TPFTL) ReadPages(lpn int64, n int, now nand.Time) nand.Time {
	t.observe(n)
	end := now
	for k := 0; k < n; k++ {
		if done := t.readOne(lpn+int64(k), n-k, now); done > end {
			end = done
		}
	}
	return end
}

func (t *TPFTL) readOne(lpn int64, remaining int, now nand.Time) nand.Time {
	t.Col.CMTLookups++
	if ppn, ok := t.cmt.Lookup(lpn); ok {
		t.Col.CMTHits++
		t.Col.RecordClass(stats.ReadSingle)
		return t.Fl.Read(ppn, now, nand.OpHostData)
	}
	if !t.Mapped(lpn) {
		t.Col.RecordClass(stats.ReadSingle)
		return now
	}
	// Miss: one translation-page read loads the missing mapping plus the
	// prefetch span (they share the same flash page, so the extra mappings
	// are free in flash ops but consume cache space).
	tt := t.ReadTrans(t.Cfg.TPNOf(lpn), now)
	span := t.prefetchSpan(lpn, remaining)
	for o := int64(0); o < span; o++ {
		l := lpn + o
		if t.Mapped(l) && !t.cmt.Contains(l) {
			t.cmt.Insert(l, t.L2P[l], false)
		}
	}
	t.cmt.Insert(lpn, t.L2P[lpn], false) // ensure requested lpn is MRU
	tt = t.drainEvictions(tt)
	t.Col.RecordClass(stats.ReadDouble)
	return t.Fl.Read(t.L2P[lpn], tt, nand.OpHostData)
}

// WritePages implements ftl.FTL.
func (t *TPFTL) WritePages(lpn int64, n int, now nand.Time) nand.Time {
	t.observe(n)
	end := now
	for k := 0; k < n; k++ {
		l := lpn + int64(k)
		ppn, done := t.HostProgram(l, now)
		if ppn == nand.InvalidPPN {
			// Device failed (no space even after GC): drop the write.
			return done
		}
		t.cmt.Insert(l, ppn, true)
		done = t.drainEvictions(done)
		if done > end {
			end = done
		}
	}
	return end
}

// drainEvictions brings the CMT back to capacity with translation-page-level
// batching: one RMW per victim translation page flushes all its dirty
// entries.
func (t *TPFTL) drainEvictions(now nand.Time) nand.Time {
	for t.cmt.NeedsEviction() {
		e, ok := t.cmt.EvictLRU()
		if !ok {
			break
		}
		if !e.Dirty {
			continue
		}
		tpn := t.Cfg.TPNOf(e.LPN)
		now = t.UpdateTrans(tpn, true, now)
		t.cmt.CleanRange(t.Cfg.TPRange(tpn))
	}
	return now
}

// SaveState implements the persist.Device contract: the shared base state,
// the CMT in exact recency order, and the request-length EMA that steers
// the adaptive loading policy (its float bits round-trip exactly, so a
// restored device prefetches identically).
func (t *TPFTL) SaveState(e *persist.Encoder) {
	t.SaveBaseState(e)
	persist.SaveCMT(e, t.cmt)
	e.F64(t.emaLen)
}

// LoadState restores a snapshot into a freshly constructed TPFTL of the
// same configuration.
func (t *TPFTL) LoadState(d *persist.Decoder) error {
	if err := t.LoadBaseState(d); err != nil {
		return err
	}
	t.cmt = mapping.NewCMTFor(t.Cfg.CMTEntries(), t.Cfg.EntriesPerTP)
	if err := persist.LoadCMT(d, t.cmt); err != nil {
		return err
	}
	t.emaLen = d.F64()
	return d.Err()
}

// RecoverFromCrash implements ftl.CrashRecoverer: the base OOB scan
// rebuilds L2P + GTD; the CMT and the length EMA — DRAM — restart cold.
func (t *TPFTL) RecoverFromCrash(now nand.Time) nand.Time {
	tt := t.Base.RecoverFromCrash(now)
	t.cmt = mapping.NewCMTFor(t.Cfg.CMTEntries(), t.Cfg.EntriesPerTP)
	t.emaLen = 1
	return tt
}

// DataRelocated implements ftl.RelocHooks.
func (t *TPFTL) DataRelocated(lpn int64, _, newPPN nand.PPN) {
	t.cmt.UpdatePPN(lpn, newPPN)
}

// DataTrimmed implements ftl.RelocHooks: drop the cached mapping.
func (t *TPFTL) DataTrimmed(lpn int64, _ nand.PPN) {
	t.cmt.Remove(lpn)
}

// GCFinalize implements ftl.RelocHooks: same per-translation-page batch
// update as DFTL.
func (t *TPFTL) GCFinalize(moved []int64, tt nand.Time) nand.Time {
	for _, tpn := range t.AffectedTPNs(moved) {
		tt = t.UpdateTrans(tpn, true, tt)
		t.cmt.CleanRange(t.Cfg.TPRange(tpn))
	}
	return tt
}

// TryReadPages implements ftl.ShardReader: like DFTL's, with the request
// length fed to the prefetch-length EMA exactly where ReadPages would —
// after the pure resolvability probe, before the per-page bookkeeping.
func (t *TPFTL) TryReadPages(lpn int64, n int, emit ftl.EmitRead) bool {
	for k := 0; k < n; k++ {
		l := lpn + int64(k)
		if !t.cmt.Contains(l) && t.Mapped(l) {
			return false
		}
	}
	t.observe(n)
	for k := 0; k < n; k++ {
		l := lpn + int64(k)
		t.Col.CMTLookups++
		if ppn, ok := t.cmt.Lookup(l); ok {
			t.Col.CMTHits++
			t.Col.RecordClass(stats.ReadSingle)
			emit(ppn, 0)
			continue
		}
		t.Col.RecordClass(stats.ReadSingle)
	}
	return true
}
