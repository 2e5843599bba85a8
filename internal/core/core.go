// Package core implements LearnedFTL, the paper's contribution (§III): a
// demand-based page-level FTL (TPFTL base) augmented with per-GTD-entry
// in-place-update linear models gated by bitmap filters, the virtual-PPN
// representation, group-based allocation over superblock stripes with
// opportunistic cross-group borrowing, and model training during GC plus
// computation-free sequential initialization on the write path.
//
// The read path tries, in order: CMT hit (single read), accurate model
// prediction (single read — the double read is eliminated), then the demand
// double-read fallback.
package core

import (
	"fmt"

	"learnedftl/internal/ftl"
	"learnedftl/internal/gc"
	"learnedftl/internal/learned"
	"learnedftl/internal/nand"
	"learnedftl/internal/obs"
	"learnedftl/internal/stats"
)

const (
	// groupSuperblocks is the number of superblocks a GTD entry group may
	// accumulate before group GC triggers.
	groupSuperblocks = 3
	// sortTrainCost is the virtual CPU time per GTD entry for GC-time
	// sorting + training (paper: ~50µs on ARM Cortex-A72), charged while
	// Config.Learned.ChargeTraining is set.
	sortTrainCost = 50 * nand.Microsecond
)

// group tracks one GTD entry group's allocation state (§III-D).
type group struct {
	rows      []int // owned superblock rows; last is active
	wp        int   // next slot in the active row, in [0, sbPages]
	encroach  int   // pages other groups borrowed from our active row
	pendingGC bool  // borrow threshold crossed; GC when convenient
}

// LearnedFTL is the paper's FTL: the shared translation state and TPFTL's
// demand-paging cache, plus the in-place models and the group allocator.
type LearnedFTL struct {
	ftl.State
	ftl.Demand
	models []learned.InPlaceModel // one per GTD entry (= per TPN)
	// stamps is the counter the models' stamps come from. memo remembers
	// their recent predictions, declines included, under those stamps, one
	// slot per CMT entry. It is host scratch, not modelled DRAM: no
	// snapshot, footprint or CMT budget counts it.
	stamps learned.Scratch
	memo   learned.Memo

	// Group-based allocation.
	span       int // logical pages per group
	sbPages    int // physical pages per superblock row
	ngroups    int
	groups     []group
	rowOwner   []int // row -> group id, -1 free, -2 translation pool
	rowInvalid []int // invalid data pages per row
	freeRows   []int // stack of free rows (descending, so low rows pop first)
	transRows  int
	reserve    int // rows kept free for GC relocation targets

	// Flat per-group views of groups/rowInvalid, kept in step with them so
	// that picking a GC victim or a donor reads one array, not every group's
	// rows: a group's invalid pages across its rows (written by setInvalid),
	// the free slots of its active row (0 without one), and how many groups
	// hold a whole row's worth of invalid pages — the idle-gap probe's
	// answer. rowListed marks the rows in their owner's list: a victim's old
	// rows stay owned, unlisted, until their erase, and credit no group.
	grpInvalid  []int32
	grpFree     []int32
	reclaimable int
	rowListed   []bool

	// Cached picks over the views, kept by setInvalid and setFree so that
	// a write does not rescan every group: victim is grpInvalid's lowest-id
	// argmax, leader grpFree's, and runnerUp bounds every other group's
	// grpFree from above. A stale flag defers a rescan to the next query;
	// the zero value is exact for all-zero views.
	victim      int
	victimStale bool
	leader      int
	runnerUp    int32
	leaderStale bool

	tp      *transPool
	pending []int // FIFO of groups whose encroachment crossed the GC threshold

	// gcPol scores group victims for the non-default GC policies; nil for
	// greedy, which keeps the paper's §III-D most-invalid-group rule.
	gcPol gc.Policy

	inGC bool
	// collections counts group collections, the only moves of data pages:
	// a write whose pages saw none since they were placed knows where they
	// are without asking the mapping again.
	collections int64

	// Scratch of one group collection — collections never nest (inGC), so one
	// set per device serves them all: the group's valid LPNs, one GTD entry's
	// training VPPNs, the rows still waiting to be erased, the valid pages
	// of the row being evacuated: one block's, and the row's slots, and the
	// first page of the relocation row on each unit.
	gcLPNs  []int64
	gcVPPNs []int64
	gcRows  []int
	gcPPNs  []nand.PPN
	gcSlots []uint64
	gcUnits []nand.PPN
}

// rowPlan is the superblock-row budget of a configuration: how the
// geometry's per-unit rows split between the translation pool, the groups
// and the GC reserve. New and the scale experiment's feasibility probe
// (SpareRows) derive it from the same arithmetic so they cannot diverge.
type rowPlan struct {
	span      int // logical pages per group
	sbPages   int // physical pages per superblock row
	ngroups   int
	numTPNs   int
	transRows int
	reserve   int
	dataRows  int
}

// planRows computes the row budget. The translation pool holds 2.5x the
// live translation pages, at least one block per unit row and at least 2
// rows; 2 further rows are reserved as GC relocation targets.
func planRows(cfg ftl.Config) (rowPlan, error) {
	p := rowPlan{
		span:    cfg.GroupEntries * cfg.EntriesPerTP,
		sbPages: nand.NewAddrCodec(cfg.Geometry).SuperblockPages(),
		reserve: 2,
	}
	if p.span > p.sbPages {
		return p, fmt.Errorf("core: group span %d exceeds superblock capacity %d; lower GroupEntries", p.span, p.sbPages)
	}
	// Config.LogicalPages is a whole number of group spans, at least one.
	p.ngroups = int(cfg.LogicalPages() / int64(p.span))
	p.numTPNs = cfg.NumTPNs()
	tpPages := 5 * p.numTPNs / 2
	p.transRows = (tpPages + p.sbPages - 1) / p.sbPages
	if p.transRows < 2 {
		p.transRows = 2
	}
	p.dataRows = cfg.Geometry.BlocksPerUnit - p.transRows
	return p, nil
}

// SpareRows reports how many superblock rows cfg leaves free beyond the
// groups' one-row minimum, the translation pool and the GC reserve — the
// slack the group allocator grows groups into. Negative means New rejects
// the configuration outright; zero constructs but degenerates into
// GC-per-write (every group is pinned to a single row). The scale
// experiment requires at least 2.
func SpareRows(cfg ftl.Config) int {
	p, err := planRows(cfg)
	if err != nil {
		return -1 << 30
	}
	return p.dataRows - p.ngroups - p.reserve
}

// New builds a LearnedFTL device. The geometry must leave enough superblock
// rows for the groups plus GC reserve; DefaultConfig at paper or
// paper-scaled geometry does. cfg.Learned selects the paper's design or an
// ablation.
func New(cfg ftl.Config) (*LearnedFTL, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	g := cfg.Geometry
	p, err := planRows(cfg)
	if err != nil {
		return nil, err
	}
	if p.ngroups+p.reserve > p.dataRows {
		return nil, fmt.Errorf("core: need %d data rows (%d groups + %d reserve) but geometry has %d; raise OPRatio",
			p.ngroups+p.reserve, p.ngroups, p.reserve, p.dataRows)
	}
	// The group-granular FTL relocates whole superblock rows and has no
	// per-block retirement path, so grown program/erase defects cannot be
	// remapped here; only the read-path model (BER, ECC retry, UBER
	// accounting) is supported. Scrub flags still accumulate in the flash
	// array's queue but no background scrubber drains them.
	if cfg.Fault.Enabled && (cfg.Fault.ProgramFailProb > 0 || cfg.Fault.EraseFailProb > 0) {
		return nil, fmt.Errorf("core: program/erase fault injection is not supported by the group-granular FTL (read-path faults only)")
	}
	st, err := ftl.NewState(cfg, cfg.LogicalPages(), p.numTPNs)
	if err != nil {
		return nil, err
	}
	f := &LearnedFTL{
		State:      st,
		models:     make([]learned.InPlaceModel, p.numTPNs),
		span:       p.span,
		sbPages:    p.sbPages,
		ngroups:    p.ngroups,
		groups:     make([]group, p.ngroups),
		rowOwner:   make([]int, g.BlocksPerUnit),
		rowInvalid: make([]int, g.BlocksPerUnit),
		grpInvalid: make([]int32, p.ngroups),
		grpFree:    make([]int32, p.ngroups),
		rowListed:  make([]bool, g.BlocksPerUnit),
		transRows:  p.transRows,
		reserve:    p.reserve,
		tp:         newTransPool(st.Fl, p.transRows),
		gcVPPNs:    make([]int64, cfg.EntriesPerTP),
		gcSlots:    make([]uint64, (p.sbPages+63)/64),
		gcUnits:    make([]nand.PPN, g.Units()),
	}
	// The mapping cache gets half the configured budget; the in-place
	// models take the other half (§IV-A).
	f.Demand = ftl.NewDemand(cfg.CMTEntriesFor(cfg.CMTRatio/2), cfg.EntriesPerTP, true,
		func(tpn int, now nand.Time) nand.Time { return f.updateTrans(tpn, true, now) })
	for i := range f.models {
		f.models[i] = *f.stamps.NewInPlaceModel(cfg.EntriesPerTP, cfg.MaxPieces)
	}
	f.memo = learned.NewMemo(f.CMT.Cap())
	// Every group's row list gets room for its groupSuperblocks rows up
	// front, out of one array, so a group growing into its rows late in a
	// run does not allocate.
	const gs = groupSuperblocks
	rows := make([]int, p.ngroups*gs)
	for i := range f.groups {
		f.groups[i].rows = rows[i*gs : i*gs : (i+1)*gs]
	}
	for r := range f.rowOwner {
		f.rowOwner[r] = -1
	}
	for r := 0; r < p.transRows; r++ {
		f.rowOwner[r] = -2
	}
	for r := g.BlocksPerUnit - 1; r >= p.transRows; r-- {
		f.freeRows = append(f.freeRows, r)
	}
	// Group victim selection follows cfg.GCPolicy. Greedy stays on the
	// paper's literal rule ("GC is performed on the GTD entry group with
	// the most invalid data pages"); the other policies score groups
	// through the shared gc.Policy implementations.
	if kind, _ := gc.ParseKind(string(cfg.GCPolicy)); kind != gc.Greedy {
		f.gcPol = gc.MustPolicy(kind)
	}
	return f, nil
}

// Name implements ftl.FTL.
func (f *LearnedFTL) Name() string { return "LearnedFTL" }

// TrimPages implements ftl.FTL: drop the mappings of n consecutive LPNs,
// invalidating their flash pages (free reclaim for group GC), clearing the
// cached mappings and the model bitmap bits. A metadata operation — no
// flash I/O, no time advance.
func (f *LearnedFTL) TrimPages(lpn int64, n int, now nand.Time) nand.Time {
	live := 0
	for k := 0; k < n; k++ {
		l := lpn + int64(k)
		tpn := f.Cfg.TPNOf(l)
		f.models[tpn].Invalidate(int(l - int64(tpn)*int64(f.Cfg.EntriesPerTP)))
		f.CMT.Remove(l)
		if old := f.L2P.Get(l); old != nand.InvalidPPN {
			f.invalidateData(old)
			f.L2P.Set(l, nand.InvalidPPN)
			live++
		}
	}
	f.Col.RecordTrim(n, live)
	return now
}

// BackgroundGC implements ftl.FTL: during a device-idle gap, collect
// groups whose reclaimable pages cover at least one whole superblock row,
// so the write path rarely has to collect in the foreground. New
// collections launch only before the deadline; a running one completes
// (arrivals queue behind it per chip).
func (f *LearnedFTL) BackgroundGC(start, deadline nand.Time) nand.Time {
	now := start
	for now < deadline && !f.inGC {
		if f.gcPol == nil && f.reclaimable == 0 {
			break // the paper rule's victim is the most-invalid group
		}
		victim, invalid := f.victimGroup(now)
		if invalid < f.sbPages {
			break
		}
		f.Col.RecordBGGC()
		now = f.gcGroup(victim, now)
	}
	return now
}

// ModelAccuracy returns the fraction of mapped LPNs whose bitmap bit
// guarantees an exact prediction — the paper's "55.5% accuracy" metric.
func (f *LearnedFTL) ModelAccuracy() (setBits, mappedLPNs int64) {
	for tpn := range f.models {
		setBits += int64(f.models[tpn].AccurateBits())
		lo, hi := f.Cfg.TPRange(tpn)
		for l := lo; l < hi; l++ {
			if f.Mapped(l) {
				mappedLPNs++
			}
		}
	}
	return setBits, mappedLPNs
}

// toVirtual maps physical→virtual for training, honoring the VPPN ablation.
func (f *LearnedFTL) toVirtual(p nand.PPN) int64 {
	if f.Cfg.Learned.DisableVPPN {
		return int64(p)
	}
	return int64(f.Codec.ToVirtual(p))
}

// fromVirtual maps a model prediction back to a physical page.
func (f *LearnedFTL) fromVirtual(v int64) nand.PPN {
	if f.Cfg.Learned.DisableVPPN {
		return nand.PPN(v)
	}
	return f.Codec.ToPhysical(nand.VPPN(v))
}

// predict returns the page lpn's model predicts, nand.InvalidPPN when its
// bitmap declines: the memo's answer under the model's current stamp,
// otherwise Predict's, which then fills the slot.
func (f *LearnedFTL) predict(tpn int, lpn int64) nand.PPN {
	m := &f.models[tpn]
	ppn, stamp, ok := f.memo.Get(lpn)
	if !ok || stamp != m.Stamp() {
		ppn = int64(nand.InvalidPPN)
		if v, hit := m.Predict(int(lpn - int64(tpn)*int64(f.Cfg.EntriesPerTP))); hit {
			ppn = int64(f.fromVirtual(v))
		}
		f.memo.Put(lpn, m.Stamp(), ppn)
	}
	return nand.PPN(ppn)
}

// ReadPages implements ftl.FTL.
func (f *LearnedFTL) ReadPages(lpn int64, n int, now nand.Time) nand.Time {
	f.Observe(n)
	end := now
	for k := 0; k < n; k++ {
		if done := f.readOne(lpn+int64(k), n-k, now); done > end {
			end = done
		}
	}
	return end
}

func (f *LearnedFTL) readOne(lpn int64, remaining int, now nand.Time) nand.Time {
	f.Col.CMTLookups++
	if ppn, ok := f.CMT.Lookup(lpn); ok {
		f.Col.CMTHits++
		f.Col.RecordClass(stats.ReadSingle)
		return f.Fl.Read(ppn, now, nand.OpHostData)
	}
	if !f.Mapped(lpn) {
		f.Col.RecordClass(stats.ReadSingle)
		return now
	}
	tpn := f.Cfg.TPNOf(lpn)
	// Bitmap check, then model prediction (§III-B): the bitmap guarantees
	// the prediction is exact, so this is a single flash read with zero
	// miss penalty.
	if ppn := f.predict(tpn, lpn); ppn != nand.InvalidPPN {
		if ppn != f.L2P.Get(lpn) {
			panic(fmt.Sprintf("core: model predicted %d for lpn %d but truth is %d (bitmap invariant broken)",
				ppn, lpn, f.L2P.Get(lpn)))
		}
		f.Col.ModelHits++
		f.Col.RecordClass(stats.ReadSingle)
		if tr := f.Col.Tracer(); tr != nil {
			tr.AddPhase(obs.PhaseLookup, f.Cfg.Learned.PredictCost)
		}
		// The prediction itself costs CPU time (bitmap check + y=kx+b +
		// VPPN→PPN translation) before the flash read can issue.
		return f.Fl.Read(ppn, now+f.Cfg.Learned.PredictCost, nand.OpHostData)
	}
	// Fallback: TPFTL demand path with prefetch — the double read.
	t := f.ReadTrans(tpn, now)
	f.Fill(lpn, remaining, f.L2P)
	t = f.Drain(t)
	f.Col.RecordClass(stats.ReadDouble)
	return f.Fl.Read(f.L2P.Get(lpn), t, nand.OpHostData)
}

// WritePages implements ftl.FTL.
func (f *LearnedFTL) WritePages(lpn int64, n int, now nand.Time) nand.Time {
	f.Observe(n)
	end := now
	type run struct {
		tpn         int
		startLPN    int64
		startOff    int
		length      int
		firstV      int64
		lastV       int64
		collections int64 // f.collections once the first page was placed
	}
	var cur run
	flushRun := func() {
		if cur.length > 0 && !f.Cfg.Learned.DisableSeqInit {
			// §III-E1: a consecutive-LPN write that landed on consecutive
			// VPPNs is itself a y=x model — install it in place. A group GC
			// triggered since the run's first page was placed may have
			// relocated part of the run: then re-derive the anchor from the
			// live mapping and only install when the run is still contiguous
			// (GC already retrained the moved part).
			firstV, lastV := cur.firstV, cur.lastV
			if f.collections != cur.collections {
				firstV = f.toVirtual(f.L2P.Get(cur.startLPN))
				lastV = f.toVirtual(f.L2P.Get(cur.startLPN + int64(cur.length-1)))
			}
			if lastV-firstV == int64(cur.length-1) {
				f.models[cur.tpn].SequentialInit(cur.startOff, cur.length, firstV)
			}
		}
		cur = run{}
	}
	for k := 0; k < n; k++ {
		l := lpn + int64(k)
		done, ppn := f.writeOne(l, now)
		if done > end {
			end = done
		}
		vppn := f.toVirtual(ppn)
		tpn := f.Cfg.TPNOf(l)
		off := int(l - int64(tpn)*int64(f.Cfg.EntriesPerTP))
		switch {
		case cur.length == 0:
			cur = run{tpn: tpn, startLPN: l, startOff: off, length: 1, firstV: vppn, lastV: vppn, collections: f.collections}
		case tpn == cur.tpn && off == cur.startOff+cur.length && vppn == cur.lastV+1:
			cur.length++
			cur.lastV = vppn
		default:
			flushRun()
			cur = run{tpn: tpn, startLPN: l, startOff: off, length: 1, firstV: vppn, lastV: vppn, collections: f.collections}
		}
	}
	flushRun()
	return end
}

// writeOne programs one host page through group-based allocation and keeps
// the CMT and model bitmap coherent. It returns the completion time and the
// page's physical location once the write is done (for sequential
// initialization).
func (f *LearnedFTL) writeOne(lpn int64, now nand.Time) (nand.Time, nand.PPN) {
	tpn := f.Cfg.TPNOf(lpn)
	off := int(lpn - int64(tpn)*int64(f.Cfg.EntriesPerTP))
	// Consistency first (§III-B): an overwritten LPN must not predict its
	// stale location.
	f.models[tpn].Invalidate(off)

	collections := f.collections
	vppn, t := f.allocSlot(int(lpn/int64(f.span)), now)
	ppn := f.Codec.ToPhysical(nand.VPPN(vppn))
	done, err := f.Fl.Program(ppn, nand.OOB{Key: lpn}, t, nand.OpHostData)
	if err != nil {
		panic(fmt.Sprintf("core: %v", err))
	}
	if old := f.L2P.Get(lpn); old != nand.InvalidPPN {
		f.invalidateData(old)
	}
	f.L2P.Set(lpn, ppn)
	// A group GC allocSlot ran may have retrained this entry's model
	// against the pre-write mapping; the bit for this LPN is stale again.
	if f.collections != collections {
		f.models[tpn].Invalidate(off)
	}
	f.CMT.Insert(lpn, ppn, true)
	done = f.Drain(done)
	done = f.runPendingGC(done)
	done = f.replenishReserve(done)
	// runPendingGC may have relocated the page just written; report the
	// page's current location so the sequential-init run tracker stays
	// truthful.
	return done, f.L2P.Get(lpn)
}

// invalidateData invalidates a data page and maintains per-row invalid
// counters used for GC victim selection.
func (f *LearnedFTL) invalidateData(p nand.PPN) {
	if err := f.Fl.Invalidate(p); err != nil {
		panic(fmt.Sprintf("core: %v", err))
	}
	row := f.Codec.Block(p)
	f.rowInvalid[row]++
	if f.rowListed[row] {
		gid := f.rowOwner[row]
		f.setInvalid(gid, f.grpInvalid[gid]+1)
	}
}

// setInvalid sets group gid's invalid-page count, reclaimable and the
// cached victim with it. A rise can only make gid the victim; a fall of the
// victim's own count leaves the next query to rescan.
func (f *LearnedFTL) setInvalid(gid int, n int32) {
	was := f.grpInvalid[gid]
	if wasR, isR := int(was) >= f.sbPages, int(n) >= f.sbPages; isR && !wasR {
		f.reclaimable++
	} else if wasR && !isR {
		f.reclaimable--
	}
	f.grpInvalid[gid] = n
	if f.victimStale {
		return
	}
	if gid == f.victim {
		f.victimStale = n < was
	} else if best := f.grpInvalid[f.victim]; n > best || n == best && gid < f.victim {
		f.victim = gid
	}
}

// setFree sets group gid's free-slot count and keeps the cached donor
// leader with it: a group rising past the leader takes its place, the old
// leader's count bounding the rest; a leader falling to the bound or below
// leaves the next query to rescan.
func (f *LearnedFTL) setFree(gid int, n int32) {
	f.grpFree[gid] = n
	if f.leaderStale {
		return
	}
	if gid == f.leader {
		f.leaderStale = n <= f.runnerUp
		return
	}
	if best := f.grpFree[f.leader]; n > best || n == best && gid < f.leader {
		f.leader, f.runnerUp = gid, max(f.runnerUp, best)
		return
	}
	f.runnerUp = max(f.runnerUp, n)
}

// gcTransTraced runs one translation-pool collection inside a GC
// attribution window, so a host request stalled behind pool GC sees the
// stall as GC time rather than translation time.
func (f *LearnedFTL) gcTransTraced(now nand.Time) (nand.Time, bool) {
	upd := func(movedTPN int, moved nand.PPN) { f.GTD.Update(movedTPN, moved) }
	tr := f.Col.Tracer()
	if tr == nil {
		return f.tp.gcTrans(now, upd)
	}
	tr.EnterGC(false, now)
	done, ok := f.tp.gcTrans(now, upd)
	tr.ExitGC(done)
	return done, ok
}

// updateTrans persists translation page tpn through the translation pool.
func (f *LearnedFTL) updateTrans(tpn int, doRead bool, now nand.Time) nand.Time {
	old := nand.InvalidPPN
	if f.GTD.Written(tpn) {
		old = f.GTD.Lookup(tpn)
		if doRead {
			now = f.Fl.Read(old, now, nand.OpTranslation)
		}
	}
	// Keep one block's worth of slack in the pool: pool GC relocates a
	// victim's live pages through the pool's own allocator, so a pool
	// allowed to fill completely wedges its own collection the moment
	// every full block still holds a live page (the historical panic the
	// larger scale-experiment rungs exposed). Collecting while the slack
	// is at or below one block keeps relocation targets available —
	// inductively, a collection can then always complete.
	ppb := f.Cfg.Geometry.PagesPerBlock
	for f.tp.freeSlots() <= ppb {
		var collected bool
		now, collected = f.gcTransTraced(now)
		if !collected {
			break
		}
	}
	np, ok := f.tp.alloc()
	for !ok {
		var collected bool
		now, collected = f.gcTransTraced(now)
		if !collected {
			panic("core: translation pool exhausted")
		}
		np, ok = f.tp.alloc()
	}
	// Pool GC above may have collected the block holding tpn's own live
	// page: gcTrans relocated it and repointed the GTD, so the location
	// captured before the collections would be stale — invalidate the
	// current one.
	if old != nand.InvalidPPN {
		old = f.GTD.Lookup(tpn)
	}
	done, err := f.Fl.Program(np, nand.OOB{Key: int64(tpn), Trans: true}, now, nand.OpTranslation)
	if err != nil {
		panic(fmt.Sprintf("core: %v", err))
	}
	if old != nand.InvalidPPN {
		if err := f.Fl.Invalidate(old); err != nil {
			panic(fmt.Sprintf("core: %v", err))
		}
	}
	f.GTD.Update(tpn, np)
	return done
}
