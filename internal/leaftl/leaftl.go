// Package leaftl implements LeaFTL (Sun et al., ASPLOS'23), the purely
// learned-index FTL the paper compares against. Writes collect in a DRAM
// data buffer; when full, the buffer is sorted by LPN and flushed to flash,
// and greedy error-bounded learned segments are trained over the resulting
// LPN→VPPN mapping and stored in log-structured form inside translation
// pages. Reads predict through segments: a model-cache hit with an accurate
// prediction is one flash read, a misprediction adds a wrong-page read (with
// the OOB error interval) plus the corrected read — the double and triple
// reads of the paper's Fig. 5/6.
package leaftl

import (
	"fmt"
	"math"
	"slices"

	"learnedftl/internal/ftl"
	"learnedftl/internal/learned"
	"learnedftl/internal/nand"
	"learnedftl/internal/persist"
	"learnedftl/internal/stats"
)

// maxSegmentLen is LeaFTL's cap on mappings per segment ("one learned
// segment can index up to 256 mappings").
const maxSegmentLen = 256

// LeaFTL is the learned-index baseline.
type LeaFTL struct {
	*ftl.Base

	// buffer is the DRAM data buffer: LPNs with unflushed host data.
	buffer lpnSet

	// models holds every trained segment per translation page (nil until
	// the page is first trained or fetched); this is the flash-resident
	// truth. The model cache tracks which of these are in DRAM.
	models []*learned.LSMT

	cache *modelCache

	// Training points of one flush and of one collection, reused. Two
	// buffers, not one: a flush's programs and translation updates can
	// trigger a collection, whose GCFinalize trains while the flush still
	// holds its points.
	flushPts, gcPts []learned.Point

	// fitSegs holds one translation page's fitted segments until they are
	// inserted, reused: the collection a translation update can trigger
	// trains only after the segments it would overwrite went in.
	fitSegs []learned.Segment

	// lsmtScratch is the working memory every table of the device shares.
	lsmtScratch learned.Scratch

	// memo remembers recent predictions under their tables' stamps, one
	// slot per CMT entry. It is host scratch, not modelled DRAM: no
	// snapshot, footprint or model-cache budget counts it.
	memo learned.Memo
}

// New builds a LeaFTL device.
func New(cfg ftl.Config) (*LeaFTL, error) {
	b, err := ftl.NewBase(cfg)
	if err != nil {
		return nil, err
	}
	l := &LeaFTL{
		Base:   b,
		buffer: newLPNSet(cfg.LogicalPages()),
		models: make([]*learned.LSMT, cfg.NumTPNs()),
		cache:  newModelCache(cfg.CMTEntries()*8, cfg.NumTPNs()), // same bytes as a CMT
		memo:   learned.NewMemo(cfg.CMTEntries()),
	}
	b.Hooks = l
	b.SortRelocate = true // GC relocates in LPN order for trainability
	return l, nil
}

// Name implements ftl.FTL.
func (l *LeaFTL) Name() string { return "LeaFTL" }

// BufferedLPNs returns the LPNs sitting in the volatile DRAM data buffer,
// in ascending order. LeaFTL acknowledges buffered writes before they
// reach flash (write-back caching), so these LPNs are acked-but-volatile:
// the crash verifier exempts them from the acked-write durability
// invariant, matching the documented buffer semantics.
func (l *LeaFTL) BufferedLPNs() []int64 {
	out := make([]int64, 0, l.buffer.len())
	for lpn := l.buffer.next(0); lpn >= 0; lpn = l.buffer.next(lpn + 1) {
		out = append(out, lpn)
	}
	return out
}

// WritePages implements ftl.FTL: writes land in the data buffer; a full
// buffer triggers the sorted flush + segment training on the critical path
// of the triggering request (the paper's Challenge #3).
func (l *LeaFTL) WritePages(lpn int64, n int, now nand.Time) nand.Time {
	end := now
	for k := 0; k < n; k++ {
		l.buffer.add(lpn + int64(k))
	}
	if l.buffer.len() >= l.Cfg.LeaBufferPages {
		if done := l.flush(now); done > end {
			end = done
		}
	}
	return end
}

// flush writes the buffered pages to flash in LPN order, trains segments per
// translation page, and persists them into translation pages.
func (l *LeaFTL) flush(now nand.Time) nand.Time {
	// Program the buffered pages across chips in LPN order — the order the
	// set walks in — and collect the training points. The buffer drains
	// page by page as each program lands — not wholesale up front — so a
	// power cut mid-flush leaves the not-yet-programmed remainder still
	// visible through BufferedLPNs: exactly the volatile acked writes a
	// write-back crash loses, which the crash verifier exempts from the
	// durability check. Nothing a program triggers (GC, translation
	// updates) adds to the buffer, so the walk sees each page once.
	end := now
	pts := l.flushPts[:0]
	for lpn := l.buffer.next(0); lpn >= 0; lpn = l.buffer.next(lpn + 1) {
		ppn, done := l.HostProgram(lpn, now)
		l.buffer.remove(lpn)
		if done > end {
			end = done
		}
		if ppn == nand.InvalidPPN {
			// Device failed (no space even after GC): skip the training
			// point — there is no physical page to learn.
			continue
		}
		pts = append(pts, learned.Point{X: lpn, Y: int64(l.Codec.ToVirtual(ppn))})
	}
	l.flushPts = pts
	return l.train(pts, false, end)
}

// train fits segments over pts — ascending by LPN, so each translation
// page's points are one run and the pages come up in ascending order — and
// persists them, one read-modify-write per affected translation page. After
// a collection the retrained table is also compacted.
func (l *LeaFTL) train(pts []learned.Point, afterGC bool, t nand.Time) nand.Time {
	for len(pts) > 0 {
		tpn := l.Cfg.TPNOf(pts[0].X)
		n := 1
		for n < len(pts) && l.Cfg.TPNOf(pts[n].X) == tpn {
			n++
		}
		l.fitSegs = learned.AppendFitSegments(l.fitSegs[:0], pts[:n], l.Cfg.LeaGamma, maxSegmentLen)
		pts = pts[n:]
		lt := l.lsmt(tpn)
		lt.Insert(l.fitSegs)
		l.Col.ModelTrainings++
		if afterGC {
			lt.CompactShadowed()
			l.cache.Resize(tpn, lt.SizeBytes())
		} else {
			l.cache.Insert(tpn, lt.SizeBytes()) // fresh models are hot
		}
		t = l.UpdateTrans(tpn, true, t)
	}
	return t
}

func (l *LeaFTL) lsmt(tpn int) *learned.LSMT {
	lt := l.models[tpn]
	if lt == nil {
		lt = l.lsmtScratch.NewLSMT(l.Cfg.TPRange(tpn))
		l.models[tpn] = lt
	}
	return lt
}

// ReadPages implements ftl.FTL.
func (l *LeaFTL) ReadPages(lpn int64, n int, now nand.Time) nand.Time {
	end := now
	for k := 0; k < n; k++ {
		if done := l.readOne(lpn+int64(k), now); done > end {
			end = done
		}
	}
	return end
}

func (l *LeaFTL) readOne(lpn int64, now nand.Time) nand.Time {
	l.Col.CMTLookups++
	if l.buffer.has(lpn) {
		// Served straight from the DRAM data buffer.
		l.Col.CMTHits++
		l.Col.RecordClass(stats.ReadSingle)
		return now
	}
	if !l.Mapped(lpn) {
		l.Col.RecordClass(stats.ReadSingle)
		return now
	}
	tpn := l.Cfg.TPNOf(lpn)
	inCache := l.cache.Contains(tpn)
	t := now
	if !inCache {
		// Translation read to fetch the model from flash (Fig. 5 step ②).
		t = l.ReadTrans(tpn, t)
		lt := l.lsmt(tpn)
		l.cache.Insert(tpn, lt.SizeBytes())
	} else {
		l.Col.CMTHits++
	}
	truth := l.L2P.Get(lpn)
	pred := l.predict(tpn, lpn)
	if pred == truth {
		if inCache {
			// Cache hit + accurate prediction: the single-read fast path.
			l.Col.ModelHits++
			l.Col.RecordClass(stats.ReadSingle)
		} else {
			l.Col.RecordClass(stats.ReadDouble)
		}
		return l.Fl.Read(truth, t, nand.OpHostData)
	}
	// Misprediction: read the wrong page (its OOB carries the error
	// interval), then the corrected page — two extra serialized reads.
	t = l.Fl.Read(pred, t, nand.OpHostData)
	if inCache {
		l.Col.RecordClass(stats.ReadDouble)
	} else {
		l.Col.RecordClass(stats.ReadTriple)
	}
	return l.Fl.Read(truth, t, nand.OpHostData)
}

// predict returns the physical page to probe for lpn: the memo's answer
// under the table's current stamp, otherwise lookup's, which then fills the
// slot.
func (l *LeaFTL) predict(tpn int, lpn int64) nand.PPN {
	lt := l.models[tpn]
	if lt == nil {
		return 0
	}
	ppn, stamp, ok := l.memo.Get(lpn)
	if !ok || stamp != lt.Stamp() {
		ppn = int64(l.lookup(lt, lpn))
		l.memo.Put(lpn, lt.Stamp(), ppn)
	}
	return nand.PPN(ppn)
}

// lookup runs the learned lookup for lpn in its table lt. Failed lookups or
// out-of-range predictions probe a clamped page and take the misprediction
// path naturally.
func (l *LeaFTL) lookup(lt *learned.LSMT, lpn int64) nand.PPN {
	seg, ok := lt.Lookup(lpn)
	if !ok {
		return 0
	}
	v := seg.Predict(lpn)
	total := int64(l.Cfg.Geometry.TotalPages())
	if v < 0 {
		v = 0
	}
	if v >= total {
		v = total - 1
	}
	return l.Codec.ToPhysical(nand.VPPN(v))
}

// segLayout is a learned segment's record in a snapshot: its start, span,
// slope, intercept and error bound.
const segLayout persist.Layout = "vvffv"

// SaveState implements ftl.FTL: the shared base state, the data buffer in
// ascending LPN order, every translation page's learned segments (ascending
// page number), oldest first, and the model cache in exact recency order.
func (l *LeaFTL) SaveState(e *persist.Encoder) {
	l.SaveBaseState(e)
	lpns := make([]int64, 0, l.buffer.len())
	for lpn := l.buffer.next(0); lpn >= 0; lpn = l.buffer.next(lpn + 1) {
		lpns = append(lpns, lpn)
	}
	e.U64(uint64(len(lpns)))
	persist.PutRun(e, persist.Varints, lpns)
	trained := 0
	for _, lt := range l.models {
		if lt != nil {
			trained++
		}
	}
	e.U64(uint64(trained))
	var segs []learned.Segment
	var cells []int64
	for tpn, lt := range l.models {
		if lt == nil {
			continue
		}
		e.Int(tpn)
		segs = lt.Export(segs[:0])
		e.U64(uint64(len(segs)))
		cells = cells[:0]
		for _, s := range segs {
			cells = append(cells, s.S, int64(s.L), int64(math.Float64bits(s.K)), int64(math.Float64bits(s.I)), int64(s.Err))
		}
		persist.PutRun(e, segLayout, cells)
	}
	ents := l.cache.exportLRU()
	e.U64(uint64(len(ents)))
	cells = cells[:0]
	for _, en := range ents {
		cells = append(cells, int64(en.tpn), int64(en.size))
	}
	persist.PutRun(e, persist.Varints, cells)
}

// LoadState restores a snapshot into a freshly constructed LeaFTL of the
// same configuration.
func (l *LeaFTL) LoadState(d *persist.Decoder) error {
	if err := l.LoadBaseState(d); err != nil {
		return err
	}
	l.buffer = newLPNSet(l.Cfg.LogicalPages())
	lpns := make([]int64, d.Count())
	if i, lpn := persist.GetRun(d, persist.Varints, lpns, 0, l.Cfg.LogicalPages()-1); i >= 0 {
		return fmt.Errorf("leaftl: snapshot buffers LPN %d of %d", lpn, l.Cfg.LogicalPages())
	}
	for _, lpn := range lpns {
		l.buffer.add(lpn)
	}
	l.models = make([]*learned.LSMT, l.Cfg.NumTPNs())
	var segs []learned.Segment
	var cells []int64
	for i, n := 0, d.Count(); i < n && d.Err() == nil; i++ {
		tpn := d.Int()
		if tpn < 0 || tpn >= len(l.models) {
			return fmt.Errorf("leaftl: snapshot trains translation page %d of %d", tpn, len(l.models))
		}
		ns := d.Count()
		cells = slices.Grow(cells[:0], len(segLayout)*ns)[:len(segLayout)*ns]
		persist.GetRun(d, segLayout, cells, math.MinInt64, math.MaxInt64)
		if err := d.Err(); err != nil {
			return err
		}
		segs = segs[:0]
		for si := 0; si < ns; si++ {
			c := cells[len(segLayout)*si:]
			start, span, slope, icpt, bound := c[0], c[1], math.Float64frombits(uint64(c[2])), math.Float64frombits(uint64(c[3])), c[4]
			if span != int64(int32(span)) || bound != int64(int32(bound)) {
				return fmt.Errorf("leaftl: snapshot translation page %d: segment %d spans %d LPNs with error %d", tpn, si, span, bound)
			}
			segs = append(segs, learned.Segment{S: start, L: int32(span), K: slope, I: icpt, Err: int32(bound)})
		}
		lt := l.lsmtScratch.NewLSMT(l.Cfg.TPRange(tpn))
		if err := lt.Import(segs); err != nil {
			return fmt.Errorf("leaftl: snapshot translation page %d: %w", tpn, err)
		}
		l.models[tpn] = lt
	}
	l.cache = newModelCache(l.Cfg.CMTEntries()*8, l.Cfg.NumTPNs())
	cells = make([]int64, 2*d.Count())
	persist.GetRun(d, persist.Varints, cells, math.MinInt64, math.MaxInt64)
	if err := d.Err(); err != nil {
		return err
	}
	for i := 0; i < len(cells); i += 2 {
		tpn, size := cells[i], cells[i+1]
		if tpn < 0 || tpn >= int64(len(l.models)) {
			return fmt.Errorf("leaftl: snapshot caches translation page %d of %d", tpn, len(l.models))
		}
		l.cache.Insert(int(tpn), int(size))
	}
	return nil
}

// RecoverFromCrash implements ftl.FTL: the base OOB scan rebuilds L2P +
// GTD. The DRAM data buffer is lost — buffered writes that
// never reached flash are gone, exactly as on real hardware — and the
// model cache restarts cold. The trained segments themselves survive:
// LeaFTL persists them inside translation pages at flush time, so they are
// flash-resident state located by the rebuilt GTD (a stale segment only
// costs the misprediction path, never a wrong result — reads check the
// shadow map before trusting a prediction).
func (l *LeaFTL) RecoverFromCrash(now nand.Time) nand.Time {
	t := l.Base.RecoverFromCrash(now)
	l.buffer = newLPNSet(l.Cfg.LogicalPages())
	l.cache = newModelCache(l.Cfg.CMTEntries()*8, l.Cfg.NumTPNs())
	return t
}

// DataRelocated implements ftl.RelocHooks.
func (l *LeaFTL) DataRelocated(int64, nand.PPN, nand.PPN) {}

// DataTrimmed implements ftl.RelocHooks: a buffered-but-unflushed page that
// is trimmed must never reach flash. Stale learned segments are harmless —
// reads check the shadow map's Mapped state before predicting.
func (l *LeaFTL) DataTrimmed(lpn int64, _ nand.PPN) {
	l.buffer.remove(lpn)
}

// GCFinalize implements ftl.RelocHooks: GC moved pages in sorted LPN order,
// so retrain segments over their new locations and persist them.
func (l *LeaFTL) GCFinalize(moved []int64, t nand.Time) nand.Time {
	pts := l.gcPts[:0]
	for _, lpn := range moved { // already sorted by Base.SortRelocate
		pts = append(pts, learned.Point{X: lpn, Y: int64(l.Codec.ToVirtual(l.L2P.Get(lpn)))})
	}
	l.gcPts = pts
	return l.train(pts, true, t)
}
