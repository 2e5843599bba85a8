package ftl

import (
	"learnedftl/internal/mapping"
	"learnedftl/internal/nand"
	"learnedftl/internal/persist"
)

// Demand is the demand-paging mapping cache under DFTL, TPFTL and
// LearnedFTL: a CMT whose misses load mappings from a translation page and
// whose dirty evictions write one back. TPFTL's two techniques (§II-A) — the
// workload-adaptive loading policy that prefetches the mappings a request is
// about to touch from the same translation page, and translation-page-level
// batched write-back — are on or off together: off is DFTL, on is TPFTL and
// LearnedFTL, which the paper builds on TPFTL.
type Demand struct {
	// CMT is the cache itself; schemes hit it directly on the read path.
	CMT *mapping.CMT

	// emaLen is an exponential moving average of recent request lengths in
	// pages; the loading policy prefetches about this many mappings on a
	// miss even when the current request is short.
	emaLen float64
	tp     bool // TPFTL's loading policy and batched write-back

	entriesPerTP int64
	// writeBack persists translation page tpn (a read-modify-write through
	// the scheme's translation allocator) and returns the advanced time.
	writeBack func(tpn int, now nand.Time) nand.Time
}

// NewDemand builds a cache of capacity entries over translation pages of
// entriesPerTP mappings.
func NewDemand(capacity, entriesPerTP int, tp bool, writeBack func(tpn int, now nand.Time) nand.Time) Demand {
	return Demand{
		CMT:          mapping.NewCMTFor(capacity, entriesPerTP),
		emaLen:       1,
		tp:           tp,
		entriesPerTP: int64(entriesPerTP),
		writeBack:    writeBack,
	}
}

// Observe feeds one host request's length to the loading policy.
func (d *Demand) Observe(n int) {
	const alpha = 0.2
	d.emaLen = (1-alpha)*d.emaLen + alpha*float64(n)
}

// prefetchSpan returns how many mappings to load on a miss at lpn during a
// request with `remaining` pages left, clipped to the translation page.
func (d *Demand) prefetchSpan(lpn int64, remaining int) int64 {
	want := int64(remaining)
	if ema := int64(d.emaLen + 0.5); ema > want {
		want = ema
	}
	if want < 1 {
		want = 1
	}
	if hi := (lpn/d.entriesPerTP + 1) * d.entriesPerTP; lpn+want > hi {
		want = hi - lpn
	}
	return want
}

// Fill caches lpn's mapping after a miss fetched its translation page. With
// the loading policy on, the prefetch span rides along: those mappings share
// the fetched flash page, so they are free in flash ops but consume cache
// space. The caller drains evictions next.
func (d *Demand) Fill(lpn int64, remaining int, l2p mapping.L2P) {
	if d.tp {
		for l, hi := lpn, lpn+d.prefetchSpan(lpn, remaining); l < hi; l++ {
			if p := l2p.Get(l); p != nand.InvalidPPN && !d.CMT.Contains(l) {
				d.CMT.Insert(l, p, false)
			}
		}
	}
	d.CMT.Insert(lpn, l2p.Get(lpn), false) // the requested lpn ends up MRU
}

// Drain brings the CMT back to capacity. Evicting a dirty entry costs a
// read-modify-write of its translation page; with batching on, that one
// rewrite flushes every dirty entry of the page.
func (d *Demand) Drain(now nand.Time) nand.Time {
	for d.CMT.NeedsEviction() {
		e, ok := d.CMT.EvictLRU()
		if !ok {
			break
		}
		if !e.Dirty {
			continue
		}
		tpn := e.LPN / d.entriesPerTP
		now = d.writeBack(int(tpn), now)
		if d.tp {
			d.CMT.CleanRange(tpn*d.entriesPerTP, (tpn+1)*d.entriesPerTP)
		}
	}
	return now
}

// DataRelocated implements RelocHooks: keep a cached PPN current.
func (d *Demand) DataRelocated(lpn int64, _, newPPN nand.PPN) { d.CMT.UpdatePPN(lpn, newPPN) }

// DataTrimmed implements RelocHooks: a trimmed LPN must not serve a stale
// PPN from the cache.
func (d *Demand) DataTrimmed(lpn int64, _ nand.PPN) { d.CMT.Remove(lpn) }

// Reset restarts the cache cold — the crash path: the CMT and the length
// EMA are DRAM, lost with power.
func (d *Demand) Reset() {
	d.CMT = mapping.NewCMTFor(d.CMT.Cap(), int(d.entriesPerTP))
	d.emaLen = 1
}

// Save appends the CMT in exact recency order.
func (d *Demand) Save(e *persist.Encoder) { persist.SaveCMT(e, d.CMT) }

// Load restores a Save section into a fresh CMT, rejecting a cached LPN
// outside [0, logicalPages).
func (d *Demand) Load(dec *persist.Decoder, logicalPages int64) error {
	d.Reset()
	return persist.LoadCMT(dec, d.CMT, logicalPages)
}

// SaveEMA appends the request-length EMA that steers the loading policy (its
// float bits round-trip exactly, so a restored device prefetches
// identically). DFTL has no loading policy and saves nothing.
func (d *Demand) SaveEMA(e *persist.Encoder) {
	if d.tp {
		e.F64(d.emaLen)
	}
}

// LoadEMA is SaveEMA's counterpart.
func (d *Demand) LoadEMA(dec *persist.Decoder) {
	if d.tp {
		d.emaLen = dec.F64()
	}
}
