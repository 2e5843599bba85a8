package nand

import (
	"fmt"
	"math"
	"math/bits"
	"slices"
	"unsafe"
)

// PageState is the lifecycle state of a physical page.
type PageState uint8

const (
	// PageFree means the page is erased and programmable.
	PageFree PageState = iota
	// PageValid means the page holds live data (or a live translation page).
	PageValid
	// PageInvalid means the page holds stale data awaiting erase.
	PageInvalid
)

// String implements fmt.Stringer.
func (s PageState) String() string {
	switch s {
	case PageFree:
		return "free"
	case PageValid:
		return "valid"
	case PageInvalid:
		return "invalid"
	default:
		return "bad-state"
	}
}

// OOB models the out-of-band (spare) area of a flash page. Real SSDs store
// the reverse mapping there; LeaFTL additionally stores the error interval of
// the learned segment covering the page. The simulator keeps only the fields
// the reproduced FTLs consult.
//
// OOB is the API value type; the array itself stores each page's OOB as one
// tagged key (Key<<1 | Trans), packed at the device's own width: the bits
// that 2·TotalPages − 1 needs, 19 on a 262 144-page device (see keyArray).
// Keys are LPNs or TPNs, both in [0, MaxPages], so key and tag bit always
// fit 32 bits.
type OOB struct {
	// Key is the LPN for data pages or the translation-page number (TPN)
	// for translation pages.
	Key int64
	// Trans marks translation pages.
	Trans bool
}

// packOOB folds an OOB into its tagged-key storage form.
func packOOB(o OOB) uint64 {
	k := uint64(o.Key) << 1
	if o.Trans {
		k |= 1
	}
	return k
}

// unpackOOB is packOOB's inverse.
func unpackOOB(k uint64) OOB {
	return OOB{Key: int64(k >> 1), Trans: k&1 != 0}
}

type blockMeta struct {
	valid    int // pages in PageValid
	writePtr int // next programmable page index (NAND in-order constraint)
	erases   int64
	lastMod  Time // completion time of the most recent program into the block
	// reads counts page reads of this block since its last erase — the
	// read-disturb input of the fault model. Only maintained while a fault
	// model is attached, so the ideal-NAND fast path stays untouched.
	reads int64
	// bad marks a grown bad block: retired from circulation, never
	// allocated, never a GC victim.
	bad bool
}

// BlockObserver receives block-granularity dirty notifications: the observed
// block's page states, valid count, write pointer, erase count or program
// recency just changed. The GC victim index registers itself here so victim
// selection can stay incremental instead of rescanning every block. The
// callback runs on the flash hot paths (program/invalidate/erase) and must
// not allocate.
type BlockObserver interface {
	BlockDirty(blockID int)
}

// Flash is the flash array: page states, OOB metadata, per-chip operation
// serialization and operation/energy accounting. It is not safe for
// concurrent use; the simulation engine is single-threaded by design.
//
// Page metadata is stored packed: two parallel bitmaps (programmed, valid)
// give each page's 2-bit state, and one tagged key per page, at the
// device's own width, carries the OOB reverse mapping — 2.625 bytes per
// page on a 262 144-page device against the 17 bytes of the historical
// one-byte-state + 16-byte-OOB-struct layout. The valid bitmap
// doubles as the per-block valid-page index GC relocation and the mount
// scan iterate instead of probing every page.
type Flash struct {
	geo    Geometry
	codec  AddrCodec
	timing Timing

	programmed []uint64 // bit p set ⇔ page p programmed since its last erase
	valid      []uint64 // bit p set ⇔ page p holds live data
	keys       keyArray // packed OOB (packOOB); 0 for free pages
	blocks     []blockMeta

	chipBusy []Time // per parallel unit, next idle time
	// maxBusy is the running maximum of chipBusy: op only moves a clock
	// forward, so it only raises it; the writers that set clocks
	// wholesale (ImportState, AdvanceIdle, PowerCycle) set it with them.
	maxBusy Time

	counters OpCounters
	// lifetime accumulates counters folded in by ResetCounters, so the
	// total operation count since device construction survives the
	// per-phase resets experiments perform.
	lifetime OpCounters

	obs   BlockObserver
	opObs OpObserver
	// hooked is set exactly when an op observer, a fault model, an armed
	// cut or a torn page is present (rehook). While it is clear, a read or
	// a program is its bookkeeping and op, nothing else.
	hooked bool

	// fm, when non-nil, injects reliability outcomes into the read,
	// program and erase paths. rel tallies its events; badCount tracks the
	// grown bad-block population.
	fm       FaultModel
	rel      RelCounters
	badCount int
	// scrubQueue is the at-risk block queue the fault model feeds and the
	// background scrub source drains, FIFO with a lazy head. scrubQueued
	// deduplicates entries; a cleared flag (erase or retirement) voids the
	// queued entry, which PopScrubBlock skips.
	scrubQueue  []int
	scrubHead   int
	scrubQueued []bool

	// cut, when non-nil, is an armed power-loss trigger (see ArmCut); torn
	// is the roster of pages left half-programmed by fired cuts. Both are
	// nil/empty in normal operation, and either sets hooked.
	cut  *cutPlan
	torn []PPN

	// clockEpoch counts the wholesale clock writers: between two bumps
	// every chip's clock only grows, which lets an index over the clocks
	// refresh lazily (see ClockEpoch). It sits last so the hot fields
	// above keep their offsets.
	clockEpoch uint64
}

// NewFlash builds an erased flash array for geometry g with timing t.
func NewFlash(g Geometry, t Timing) (*Flash, error) {
	if err := g.Validate(); err != nil {
		return nil, err
	}
	words := (g.TotalPages() + 63) / 64
	f := &Flash{
		geo:        g,
		codec:      NewAddrCodec(g),
		timing:     t,
		programmed: make([]uint64, words),
		valid:      make([]uint64, words),
		keys:       newKeyArray(g.TotalPages(), keyWidth(int64(g.TotalPages()))),
		blocks:     make([]blockMeta, g.TotalBlocks()),
		chipBusy:   make([]Time, g.Chips()),
	}
	return f, nil
}

// SetFaultModel attaches the reliability model (nil detaches). Without one
// the read/program/erase paths are exactly the ideal-NAND paths: no
// per-block read counting, no retry latency, no failure draws, no
// allocations beyond construction.
func (f *Flash) SetFaultModel(m FaultModel) {
	f.fm = m
	if m != nil && f.scrubQueued == nil {
		f.scrubQueued = make([]bool, f.geo.TotalBlocks())
		f.scrubQueue = make([]int, 0, f.geo.TotalBlocks())
	}
	f.rehook()
}

// rehook recomputes hooked. Every writer of opObs, fm, cut or torn calls it.
func (f *Flash) rehook() {
	f.hooked = f.opObs != nil || f.fm != nil || f.cut != nil || len(f.torn) > 0
}

// FaultModel returns the attached reliability model, nil when none is.
func (f *Flash) FaultModel() FaultModel { return f.fm }

// SetBlockObserver registers the single block-dirty observer (nil to
// detach). The flash array supports one observer: the last registration
// wins, so exactly one GC controller should own victim selection for a
// device.
func (f *Flash) SetBlockObserver(o BlockObserver) { f.obs = o }

// notifyBlock fires the observer for one block.
func (f *Flash) notifyBlock(blockID int) {
	if f.obs != nil {
		f.obs.BlockDirty(blockID)
	}
}

// Geometry returns the device geometry.
func (f *Flash) Geometry() Geometry { return f.geo }

// Codec returns the address codec for this device.
func (f *Flash) Codec() AddrCodec { return f.codec }

// Timing returns the NAND timing parameters.
func (f *Flash) Timing() Timing { return f.timing }

// Counters returns the accumulated operation counters.
func (f *Flash) Counters() OpCounters { return f.counters }

// ResetCounters zeroes the operation counters (used between warm-up and
// measurement phases of an experiment), folding them into the lifetime
// totals first. Reliability tallies reset too — UBER is a per-window ratio
// against the same window's read count — but the per-block read-disturb
// counters and bad-block list persist: they are device state, not metrics.
func (f *Flash) ResetCounters() {
	f.lifetime.Add(f.counters)
	f.counters = OpCounters{}
	f.rel = RelCounters{}
}

// LifetimeCounters returns the cumulative operation counters since device
// construction, unaffected by ResetCounters. The warm-checkpoint machinery
// uses them to price how many simulated flash operations a restored
// checkpoint saves.
func (f *Flash) LifetimeCounters() OpCounters {
	t := f.lifetime
	t.Add(f.counters)
	return t
}

// op is the core every flash operation ends in, the one place that counts
// it and clocks it: it adds one to the counter n and serializes the
// operation on p's chip, not starting before after, for d — the type's
// latency plus any retry. It returns the completion time. op inlines into
// its callers (CI pins that on go1.24); an array with hooks reaches it
// through opSlow, which reports what it did.
func (f *Flash) op(n *int64, d Time, p PPN, after Time) (done Time) {
	*n++
	c := &f.chipBusy[f.codec.Chip(p)]
	done = max(after, *c) + d
	*c = done
	f.maxBusy = max(f.maxBusy, done)
	return
}

// opSlow is op for a hooked array: the paths that handle cuts, torn pages
// and faults end here instead. It picks the operation's counter and
// latency, runs op, and hands the operation to the op observer. A hook that
// must see every operation attaches here, so a bare array pays it nothing.
func (f *Flash) opSlow(t OpType, kind OpKind, p PPN, after, retry Time) Time {
	n, d := &f.counters.Erases, f.timing.EraseLatency
	switch t {
	case OpRead:
		n, d = &f.counters.Reads[kind], f.timing.ReadLatency
	case OpProgram:
		n, d = &f.counters.Programs[kind], f.timing.ProgramLatency
	}
	d += retry
	done := f.op(n, d, p, after)
	if f.opObs != nil {
		f.opObs.ObserveOp(FlashOp{Op: t, Kind: kind, PPN: p, Chip: int32(f.codec.Chip(p)),
			After: after, Start: done - d, Done: done, Retry: retry})
	}
	return done
}

// Read performs a page read. `after` is the earliest time the operation may
// start (its dependency); the return value is its completion time. Reads of
// free or invalid pages are permitted — mispredicted learned-index reads do
// exactly that. Read is ReadChecked without the verdict: it charges the
// same retries, tallies and latency, a torn page's full retry ladder too.
func (f *Flash) Read(p PPN, after Time, kind OpKind) Time {
	done, _ := f.ReadChecked(p, after, kind)
	return done
}

// ReadChecked is the one read path: Read is it without the verdict. It
// returns the fault model's verdict alongside the completion time, which
// the mount scan consults: an OOB read that exhausts the ECC retry ladder
// must surface as uncorrectable instead of silently yielding its mapping.
// With a model attached it keeps the block's read-disturb count, charges
// retry steps as extra chip occupancy, tallies retries and uncorrectable
// reads and flags at-risk blocks for scrub. A torn page — a program in
// flight when power died — reads uncorrectable regardless of the model: its
// cells hold a partial program no reference-voltage shift recovers, so ECC
// walks the model's whole retry ladder and never converges. Without a fault
// model, clean pages read clean (ideal NAND) and only torn pages fail. An
// array without hooks reads as ideal NAND does, through op alone.
func (f *Flash) ReadChecked(p PPN, after Time, kind OpKind) (Time, ReadOutcome) {
	if !f.hooked {
		return f.op(&f.counters.Reads[kind], f.timing.ReadLatency, p, after), ReadOutcome{}
	}
	if f.cut != nil && f.cut.due(after) {
		// Power died before the command reached the die: no state change,
		// no accounting — the operation never happened.
		panic(f.cutNow(OpRead, p, false, after))
	}
	torn := len(f.torn) > 0 && f.IsTorn(p)
	out := ReadOutcome{Uncorrectable: torn}
	var retry Time
	if f.fm != nil {
		bid := f.codec.BlockID(p)
		b := &f.blocks[bid]
		b.reads++
		if torn {
			// The tear is no charge decay a scrub could rescue: the block
			// is not flagged.
			out.Retries = f.fm.RetrySteps()
		} else {
			age := Time(0)
			if b.lastMod > 0 && after > b.lastMod {
				age = after - b.lastMod
			}
			out = f.fm.ReadFault(p, b.reads, b.erases, age)
			if (out.Scrub || out.Uncorrectable) && !b.bad {
				f.QueueScrub(bid)
			}
		}
		retry = Time(out.Retries) * f.timing.RetryLatency
		f.rel.Retries += int64(out.Retries)
		f.rel.RetryTime += retry
		if out.Uncorrectable {
			f.rel.Uncorrectable++
			if kind == OpHostData {
				f.rel.HostUncorrectable++
			}
		}
	}
	return f.opSlow(OpRead, kind, p, after, retry), out
}

// Program writes a page, setting it valid and recording its OOB. NAND
// requires in-order programming within a block; violating that, or
// programming a non-free page, is a simulator-usage bug and returns an
// error. OOB keys must lie in [0, 2³¹) (LPNs and TPNs do: Geometry.Validate
// caps the device at MaxPages), so key and tag bit fit 32 bits. A key past
// the device's own page count is stored too: it widens the key array once.
func (f *Flash) Program(p PPN, oob OOB, after Time, kind OpKind) (Time, error) {
	bid, page := f.codec.BlockPage(p)
	b := &f.blocks[bid]
	w, m := p>>6, uint64(1)<<(uint64(p)&63)
	if f.programmed[w]&m != 0 {
		return 0, fmt.Errorf("nand: program of non-free page %d (state %v)", p, f.State(p))
	}
	if page != b.writePtr {
		return 0, fmt.Errorf("nand: out-of-order program: block %d page %d, write pointer %d",
			bid, page, b.writePtr)
	}
	if oob.Key < 0 || oob.Key > MaxPages {
		return 0, fmt.Errorf("nand: program of page %d with OOB key %d outside [0, 2^31)", p, oob.Key)
	}
	key := packOOB(oob)
	if key > f.keys.mask {
		f.keys.widen(key) // a key past the device's page count
	}
	cutAfter := f.cut != nil && f.cut.due(after)
	// Whatever happens next, the page is consumed by the in-order write
	// pointer.
	f.programmed[w] |= m
	b.writePtr++
	if cutAfter && f.cut.torn {
		// Power died mid-program: the cells hold a half-finished program —
		// the page is never valid and its OOB reads uncorrectable. The
		// intended key is recorded for the simulator's omniscient loss
		// reporting; the recovery scan must never consume it (IsTorn
		// guards). The operation never completed, so it is not charged.
		f.keys.set(int(p), key)
		f.markTorn(p)
		f.notifyBlock(bid)
		panic(f.cutNow(OpProgram, p, true, after))
	}
	// A non-torn cut lets the program complete on the die, then power dies
	// before the FTL resumes — the caller's invalidate of the old copy and
	// its map update never run, so both copies stay visible to the mount
	// scan. The panic is deferred to after the operation.
	var err error
	if f.fm != nil && f.fm.ProgramFault(p, b.erases) {
		// Grown defect: the program op ran and failed verification. The
		// page is burned — holding nothing — and the block joins the
		// bad-block list. The op still occupies the chip for a full program
		// latency.
		f.rel.ProgramFails++
		f.markBad(bid)
		err = ErrProgramFailed
	} else {
		f.valid[w] |= m
		f.keys.set(int(p), key)
		b.valid++
	}
	var done Time
	if f.hooked {
		done = f.opSlow(OpProgram, kind, p, after, 0)
	} else {
		done = f.op(&f.counters.Programs[kind], f.timing.ProgramLatency, p, after)
	}
	if err == nil {
		b.lastMod = done
	}
	f.notifyBlock(bid)
	if cutAfter {
		panic(f.cutNow(OpProgram, p, false, done))
	}
	return done, err
}

// Invalidate marks a valid page stale. Invalidating a non-valid page is a
// usage bug.
func (f *Flash) Invalidate(p PPN) error {
	w, m := p>>6, uint64(1)<<(uint64(p)&63)
	if f.valid[w]&m == 0 {
		return fmt.Errorf("nand: invalidate of non-valid page %d (state %v)", p, f.State(p))
	}
	f.valid[w] &^= m
	bid := f.codec.BlockID(p)
	f.blocks[bid].valid--
	f.notifyBlock(bid)
	return nil
}

// Erase erases a whole block, returning the completion time. Erasing a block
// that still holds valid pages is a usage bug (data loss).
func (f *Flash) Erase(blockID int, after Time) (Time, error) {
	if f.cut != nil && f.cut.due(after) {
		// Power died before the erase pulse: the block keeps its contents.
		panic(f.cutNow(OpErase, PPN(int64(blockID)*int64(f.geo.PagesPerBlock)), false, after))
	}
	b := &f.blocks[blockID]
	if b.valid != 0 {
		return 0, fmt.Errorf("nand: erase of block %d with %d valid pages", blockID, b.valid)
	}
	// An erase failure still clears the block (the contents are gone either
	// way) but marks it bad: the caller sees success and must consult
	// BlockBad before recycling the block into the free pool.
	eraseFail := f.fm != nil && !b.bad && f.fm.EraseFault(blockID, b.erases)
	base := PPN(int64(blockID) * int64(f.geo.PagesPerBlock))
	clearBits(f.programmed, int64(base), int64(base)+int64(f.geo.PagesPerBlock))
	clearBits(f.valid, int64(base), int64(base)+int64(f.geo.PagesPerBlock))
	f.keys.clear(int(base), int(base)+f.geo.PagesPerBlock)
	b.writePtr = 0
	b.erases++
	// The block's program history died with its contents: age-aware GC
	// policies must not compute candidate age from a program of the
	// block's previous life. Read disturb likewise resets with the charge.
	b.lastMod = 0
	b.reads = 0
	if f.scrubQueued != nil {
		f.scrubQueued[blockID] = false
	}
	if len(f.torn) > 0 {
		f.clearTornBlock(blockID)
	}
	if eraseFail {
		f.rel.EraseFails++
		f.markBad(blockID)
	}
	f.notifyBlock(blockID)
	if f.hooked {
		return f.opSlow(OpErase, OpGC, base, after, 0), nil
	}
	return f.op(&f.counters.Erases, f.timing.EraseLatency, base, after), nil
}

// markBad retires a block into the grown bad-block list and voids any
// pending scrub entry for it.
func (f *Flash) markBad(blockID int) {
	b := &f.blocks[blockID]
	if !b.bad {
		b.bad = true
		f.badCount++
	}
	if f.scrubQueued != nil {
		f.scrubQueued[blockID] = false
	}
}

// BlockBad reports whether blockID is a grown bad block.
func (f *Flash) BlockBad(blockID int) bool { return f.blocks[blockID].bad }

// BadBlocks returns the grown bad-block count.
func (f *Flash) BadBlocks() int { return f.badCount }

// RelCounters returns the reliability event tallies since the last
// ResetCounters.
func (f *Flash) RelCounters() RelCounters { return f.rel }

// QueueScrub enqueues blockID for the background scrub source (no-op when
// no fault model is attached or the block is already queued). Bad blocks
// with stranded valid pages may also be queued, so the scrub source can
// drain them when a collection slot opens.
func (f *Flash) QueueScrub(blockID int) {
	if f.scrubQueued == nil || f.scrubQueued[blockID] {
		return
	}
	f.scrubQueued[blockID] = true
	f.scrubQueue = append(f.scrubQueue, blockID)
}

// PopScrubBlock dequeues the next at-risk block, skipping entries whose
// queued flag was voided by an erase or retirement in the meantime.
// Returns -1 when the queue is empty.
func (f *Flash) PopScrubBlock() int {
	for f.scrubHead < len(f.scrubQueue) {
		blk := f.scrubQueue[f.scrubHead]
		f.scrubHead++
		if f.scrubQueued[blk] {
			f.scrubQueued[blk] = false
			if f.scrubHead == len(f.scrubQueue) {
				f.scrubQueue = f.scrubQueue[:0]
				f.scrubHead = 0
			}
			return blk
		}
	}
	f.scrubQueue = f.scrubQueue[:0]
	f.scrubHead = 0
	return -1
}

// clearBits zeroes bits [lo, hi) of a bitmap, handling word-misaligned
// block boundaries (PagesPerBlock need not divide 64).
func clearBits(words []uint64, lo, hi int64) {
	if lo >= hi {
		return
	}
	loW, hiW := lo>>6, (hi-1)>>6
	loMask := ^uint64(0) << (uint64(lo) & 63)
	hiMask := ^uint64(0) >> (63 - (uint64(hi-1) & 63))
	if loW == hiW {
		words[loW] &^= loMask & hiMask
		return
	}
	words[loW] &^= loMask
	for w := loW + 1; w < hiW; w++ {
		words[w] = 0
	}
	words[hiW] &^= hiMask
}

// State returns the state of page p.
func (f *Flash) State(p PPN) PageState {
	w, m := p>>6, uint64(1)<<(uint64(p)&63)
	if f.valid[w]&m != 0 {
		return PageValid
	}
	if f.programmed[w]&m != 0 {
		return PageInvalid
	}
	return PageFree
}

// PageOOB returns the OOB metadata of page p.
func (f *Flash) PageOOB(p PPN) OOB { return unpackOOB(f.keys.get(int(p))) }

// AppendValidPages appends the PPNs of blockID's valid pages to dst in
// ascending order, iterating the block's valid bitmap word by word instead
// of probing the state of every page. GC relocation and the mount-time OOB
// scan use it; with a reused dst it does not allocate once dst's capacity
// has grown to the block's valid population.
func (f *Flash) AppendValidPages(blockID int, dst []PPN) []PPN {
	lo := int64(blockID) * int64(f.geo.PagesPerBlock)
	hi := lo + int64(f.geo.PagesPerBlock)
	for w := lo >> 6; w <= (hi-1)>>6; w++ {
		word := f.valid[w]
		if word == 0 {
			continue
		}
		base := w << 6
		// Mask off bits outside [lo, hi) in the boundary words.
		if base < lo {
			word &= ^uint64(0) << (uint64(lo) & 63)
		}
		if base+64 > hi {
			word &= ^uint64(0) >> (63 - (uint64(hi-1) & 63))
		}
		for word != 0 {
			dst = append(dst, PPN(base+int64(bits.TrailingZeros64(word))))
			word &= word - 1
		}
	}
	return dst
}

// BlockValid returns the number of valid pages in blockID.
func (f *Flash) BlockValid(blockID int) int { return f.blocks[blockID].valid }

// BlockWritePtr returns the next programmable page index of blockID
// (PagesPerBlock when the block is full).
func (f *Flash) BlockWritePtr(blockID int) int { return f.blocks[blockID].writePtr }

// BlockErases returns how many times blockID has been erased.
func (f *Flash) BlockErases(blockID int) int64 { return f.blocks[blockID].erases }

// BlockLastMod returns the completion time of the most recent program into
// blockID (zero for never-programmed blocks). Age-aware GC policies derive
// candidate age from it.
func (f *Flash) BlockLastMod(blockID int) Time { return f.blocks[blockID].lastMod }

// WearStats summarizes the per-block erase distribution of the device —
// the wear-leveling view GC policies are judged on.
type WearStats struct {
	TotalErases int64
	MaxErases   int64
	MeanErases  float64
	// CV is the coefficient of variation (stddev/mean) of per-block erase
	// counts: 0 means perfectly level wear, larger means hot spots. Zero
	// when no block has been erased.
	CV float64
}

// Wear computes the erase-distribution summary over all blocks.
func (f *Flash) Wear() WearStats {
	var w WearStats
	n := float64(len(f.blocks))
	for i := range f.blocks {
		e := f.blocks[i].erases
		w.TotalErases += e
		if e > w.MaxErases {
			w.MaxErases = e
		}
	}
	if w.TotalErases == 0 || n == 0 {
		return w
	}
	w.MeanErases = float64(w.TotalErases) / n
	var ss float64
	for i := range f.blocks {
		d := float64(f.blocks[i].erases) - w.MeanErases
		ss += d * d
	}
	w.CV = math.Sqrt(ss/n) / w.MeanErases
	return w
}

// BlockFreePages returns the number of still-programmable pages in blockID.
func (f *Flash) BlockFreePages(blockID int) int {
	return f.geo.PagesPerBlock - f.blocks[blockID].writePtr
}

// ChipBusyUntil returns the next idle time of the given parallel unit.
func (f *Flash) ChipBusyUntil(chip int) Time { return f.chipBusy[chip] }

// Footprint summarizes the resident bytes of the device model's metadata
// arrays — the memory the simulator spends per simulated flash page, which
// is what bounds how large a geometry a sweep can hold in RAM.
type Footprint struct {
	// PageMetaBytes covers the page-granular arrays: the programmed and
	// valid bitmaps (1 bit per page each) and the tagged OOB keys (the bits
	// 2·pages − 1 needs per page, plus the key array's 7-byte tail).
	PageMetaBytes int64 `json:"page_meta_bytes"`
	// BlockMetaBytes covers the per-block metadata structs.
	BlockMetaBytes int64 `json:"block_meta_bytes"`
	// ChipBytes covers the per-chip schedule.
	ChipBytes int64 `json:"chip_bytes"`
	// TotalBytes is the sum of the above.
	TotalBytes int64 `json:"total_bytes"`
	// BytesPerPage is PageMetaBytes divided by the physical page count.
	BytesPerPage float64 `json:"bytes_per_page"`
}

// FootprintFor computes the device-model footprint of a geometry without
// building the arrays.
func FootprintFor(g Geometry) Footprint {
	pages := int64(g.TotalPages())
	return footprint(g, keyBytes(pages, keyWidth(pages)))
}

// footprint is FootprintFor with a key array of keyLen bytes.
func footprint(g Geometry, keyLen int64) Footprint {
	pages := int64(g.TotalPages())
	words := (pages + 63) / 64
	fp := Footprint{
		PageMetaBytes:  2*8*words + keyLen,
		BlockMetaBytes: int64(g.TotalBlocks()) * int64(unsafe.Sizeof(blockMeta{})),
		ChipBytes:      int64(g.Chips()) * 8,
	}
	fp.TotalBytes = fp.PageMetaBytes + fp.BlockMetaBytes + fp.ChipBytes
	if pages > 0 {
		fp.BytesPerPage = float64(fp.PageMetaBytes) / float64(pages)
	}
	return fp
}

// Footprint returns the resident metadata footprint of this array: that of
// its geometry, unless a key past the device's page count widened the keys.
func (f *Flash) Footprint() Footprint { return footprint(f.geo, int64(len(f.keys.b))) }

// FlashState is the portable snapshot of a flash array's mutable state
// apart from the OOB keys, which move through ExportKeys and ImportKeys
// without leaving their packed array. Per-block valid counts and write
// pointers are not carried: NAND's in-order programming makes a block's
// programmed pages a prefix, so both derive from the bitmaps.
type FlashState struct {
	Programmed []uint64
	Valid      []uint64
	Erases     []int64
	LastMod    []Time
	ChipBusy   []Time
	Counters   OpCounters
	// Lifetime is the cumulative operation count including Counters.
	Lifetime OpCounters
	// Reliability state, per block.
	Reads []int64
	Bad   []bool
	Rel   RelCounters
	// Scrub is the scrub queue from its head: each entry the block id
	// while the block is flagged, and its complement (^id, negative) once
	// an erase or retirement voided the flag — a voided entry revives if
	// the block is queued again before PopScrubBlock passes it. It is nil
	// for an array without a fault model, which queues nothing.
	Scrub []int
}

// ExportState copies the array's mutable state, but for the OOB keys, into
// a FlashState.
func (f *Flash) ExportState() FlashState {
	s := FlashState{
		Programmed: append([]uint64(nil), f.programmed...),
		Valid:      append([]uint64(nil), f.valid...),
		Erases:     make([]int64, len(f.blocks)),
		LastMod:    make([]Time, len(f.blocks)),
		ChipBusy:   append([]Time(nil), f.chipBusy...),
		Counters:   f.counters,
		Lifetime:   f.LifetimeCounters(),
		Reads:      make([]int64, len(f.blocks)),
		Bad:        make([]bool, len(f.blocks)),
		Rel:        f.rel,
	}
	for i := range f.blocks {
		s.Erases[i] = f.blocks[i].erases
		s.LastMod[i] = f.blocks[i].lastMod
		s.Reads[i] = f.blocks[i].reads
		s.Bad[i] = f.blocks[i].bad
	}
	if f.fm != nil {
		s.Scrub = make([]int, 0, len(f.scrubQueue)-f.scrubHead)
		for _, blk := range f.scrubQueue[f.scrubHead:] {
			if !f.scrubQueued[blk] {
				blk = ^blk
			}
			s.Scrub = append(s.Scrub, blk)
		}
	}
	return s
}

// ExportKeys copies the packed OOB keys (packOOB) of pages [p, p+len(dst))
// into dst. A snapshot walks the array in runs through it, and a restore
// stores the runs back with ImportKeys.
func (f *Flash) ExportKeys(p int, dst []uint32) { f.keys.unpack(p, dst) }

// ImportKeys stores src as the packed OOB keys of pages [p, p+len(src)). p
// must be a multiple of 64, and so must len(src) unless the run ends the
// array. A key wider than the array widens it once, every key kept.
func (f *Flash) ImportKeys(p int, src []uint32) {
	if p%64 != 0 || len(src)%64 != 0 && p+len(src) != f.keys.n {
		panic(fmt.Sprintf("nand: key run [%d, +%d) not word-aligned", p, len(src)))
	}
	if all := f.keys.pack(p, src); uint64(all) > f.keys.mask {
		f.keys.widen(uint64(all))
		f.keys.pack(p, src)
	}
}

// ImportState replaces the array's mutable state, but for the OOB keys,
// with a previously exported snapshot of the same geometry, recomputing
// per-block valid counts and write pointers and validating the
// in-order-programming prefix invariant (and that no page is valid without
// being programmed). Every block is reported dirty to the observer.
func (f *Flash) ImportState(s FlashState) error {
	switch {
	case len(s.Programmed) != len(f.programmed), len(s.Valid) != len(f.valid):
		return fmt.Errorf("nand: import of %d- and %d-word page bitmaps into %d-page device", len(s.Programmed), len(s.Valid), f.keys.n)
	case len(s.Erases) != len(f.blocks), len(s.LastMod) != len(f.blocks):
		return fmt.Errorf("nand: import of %d blocks into %d-block device", len(s.Erases), len(f.blocks))
	case len(s.ChipBusy) != len(f.chipBusy):
		return fmt.Errorf("nand: import of %d chips into %d-chip device", len(s.ChipBusy), len(f.chipBusy))
	case len(s.Reads) != len(f.blocks):
		return fmt.Errorf("nand: import of %d block read counters into %d-block device", len(s.Reads), len(f.blocks))
	case len(s.Bad) != len(f.blocks):
		return fmt.Errorf("nand: import of %d bad-block flags into %d-block device", len(s.Bad), len(f.blocks))
	case len(s.Scrub) > 0 && f.scrubQueued == nil:
		return fmt.Errorf("nand: import of %d queued scrubs into a device without a fault model", len(s.Scrub))
	}
	for _, e := range s.Scrub {
		if blk := max(e, ^e); blk >= len(f.blocks) {
			return fmt.Errorf("nand: import of scrub-queued block %d into %d-block device", blk, len(f.blocks))
		}
	}
	ppb := f.geo.PagesPerBlock
	for b := range f.blocks {
		wp, valid, err := importBlock(s.Programmed, s.Valid, b*ppb, ppb)
		if err != nil {
			return fmt.Errorf("nand: import of block %d %w", b, err)
		}
		f.blocks[b] = blockMeta{
			valid:    valid,
			writePtr: wp,
			erases:   s.Erases[b],
			lastMod:  s.LastMod[b],
			reads:    s.Reads[b],
			bad:      s.Bad[b],
		}
	}
	f.badCount = 0
	for b := range f.blocks {
		if f.blocks[b].bad {
			f.badCount++
		}
	}
	copy(f.programmed, s.Programmed)
	copy(f.valid, s.Valid)
	copy(f.chipBusy, s.ChipBusy)
	f.maxBusy = max(0, slices.Max(f.chipBusy))
	f.clockEpoch++
	f.counters = s.Counters
	f.lifetime = s.Lifetime
	f.lifetime.subtract(s.Counters)
	f.rel = s.Rel
	// An imported snapshot is a clean image to the crash machinery, so any
	// armed cut and the torn roster reset.
	f.cut = nil
	f.torn = f.torn[:0]
	f.rehook()
	f.scrubQueue = f.scrubQueue[:0]
	f.scrubHead = 0
	for i := range f.scrubQueued {
		f.scrubQueued[i] = false
	}
	for _, e := range s.Scrub {
		blk := max(e, ^e)
		f.scrubQueue = append(f.scrubQueue, blk)
		f.scrubQueued[blk] = f.scrubQueued[blk] || e >= 0
	}
	for b := range f.blocks {
		f.notifyBlock(b)
	}
	return nil
}

// importBlock returns the write pointer and valid count of the ppb-page
// block starting at page lo of the programmed and valid bitmaps. It walks
// the block a word at a time, from any bit offset, and fails at the lowest
// page a per-page walk would: a programmed page above a free one (NAND
// programs a block in order, so its programmed pages are a prefix) or a
// valid page that is not programmed.
func importBlock(programmed, valid []uint64, lo, ppb int) (wp, nvalid int, err error) {
	wp = -1 // the first free page, once seen
	for pos, end := lo, lo+ppb; pos < end; {
		sh := uint(pos) & 63
		nb := min(64-int(sh), end-pos) // pages of the block in this word
		m := ^uint64(0) >> (64 - uint(nb))
		pr := programmed[pos>>6] >> sh & m
		va := valid[pos>>6] >> sh & m
		i := pos - lo      // page index of bit 0
		above := uint64(0) // programmed pages above the first free one
		if wp >= 0 {
			above = pr
		} else if free := ^pr & m; free != 0 {
			z := bits.TrailingZeros64(free)
			wp = i + z
			above = pr >> z << z
		}
		if s, a := bits.TrailingZeros64(va&^pr), bits.TrailingZeros64(above); s < a {
			return 0, 0, fmt.Errorf("has valid bit on unprogrammed page %d", i+s)
		} else if a < 64 {
			return 0, 0, fmt.Errorf("violates in-order programming (page %d programmed above free page %d)", i+a, wp)
		}
		nvalid += bits.OnesCount64(va)
		pos += nb
	}
	if wp < 0 {
		wp = ppb
	}
	return wp, nvalid, nil
}

// MaxChipBusy returns the latest busy-until across all chips; useful as a
// makespan estimate after a run.
func (f *Flash) MaxChipBusy() Time { return f.maxBusy }

// AdvanceIdle moves every chip's clock to MaxChipBusy()+d without
// performing any operation: the device sits idle (or powered off) for d,
// so every block's retention age grows by at least d. Retention
// experiments use it as a shelf bake between warm-up and measurement —
// data written before the bake is old, data rewritten after stays fresh
// on the timescale of the measured window.
func (f *Flash) AdvanceIdle(d Time) {
	f.setClocks(f.maxBusy + d)
}

// setClocks puts every chip's clock, and so their maximum, at t.
func (f *Flash) setClocks(t Time) {
	for i := range f.chipBusy {
		f.chipBusy[i] = t
	}
	f.maxBusy = max(0, t)
	f.clockEpoch++
}

// ClockEpoch changes whenever the chip clocks are set wholesale
// (ImportState, AdvanceIdle, PowerCycle), which may move one backwards.
// While it holds, ChipBusyUntil only grows: a busy time read under the
// same epoch is a lower bound on the chip's current one.
func (f *Flash) ClockEpoch() uint64 { return f.clockEpoch }
