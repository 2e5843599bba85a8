package core

import (
	"fmt"
	"math/bits"

	"learnedftl/internal/gc"
	"learnedftl/internal/nand"
)

// rowVPPNBase returns the first VPPN of superblock row r.
func (f *LearnedFTL) rowVPPNBase(r int) int64 { return int64(r) * int64(f.sbPages) }

// takeRow assigns a free superblock row to group gid as its new active row.
func (f *LearnedFTL) takeRow(gid int) {
	n := len(f.freeRows)
	row := f.freeRows[n-1]
	f.freeRows = f.freeRows[:n-1]
	f.rowOwner[row] = gid
	f.rowInvalid[row] = 0
	f.rowListed[row] = true
	g := &f.groups[gid]
	g.rows = append(g.rows, row)
	g.wp = 0
	f.grpFree[gid] = int32(f.sbPages)
}

// encroachThreshold is how many borrowed pages a donor group tolerates
// before GC collects donor and encroachers together (§III-D).
func (f *LearnedFTL) encroachThreshold() int {
	t := f.sbPages / 8
	if t < 1 {
		t = 1
	}
	return t
}

// donorFor picks the group gid borrows a slot from: the one with the most
// free slots in its active superblock — the coldest — lowest id first among
// equals, or -1 when no other group has a free slot.
func (f *LearnedFTL) donorFor(gid int) int {
	donor, bestFree := -1, int32(0)
	for id, free := range f.grpFree {
		if free > bestFree && id != gid {
			donor, bestFree = id, free
		}
	}
	return donor
}

// borrowSlot implements opportunistic cross-group allocation: the hot group
// gid takes one free page slot from the coldest group's active superblock,
// avoiding or delaying GC. Returns the VPPN of the borrowed slot.
func (f *LearnedFTL) borrowSlot(gid int) (int64, bool) {
	donor := f.donorFor(gid)
	if donor < 0 {
		return 0, false
	}
	g := &f.groups[donor]
	row := g.rows[len(g.rows)-1]
	v := f.rowVPPNBase(row) + int64(g.wp)
	g.wp++
	f.grpFree[donor]--
	g.encroach++
	if g.encroach >= f.encroachThreshold() && !g.pendingGC {
		g.pendingGC = true
		f.pending = append(f.pending, donor)
	}
	return v, true
}

// allocSlot returns the VPPN slot for the next page of group gid, running
// group GC when the device is out of easy space. The returned time accounts
// for any GC performed.
//
// Policy (§III-D): extend the group with a fresh superblock while the pool
// has slack; otherwise prefer borrowing a cold group's free slots; GC the
// most-invalid group when collecting it nets at least one whole superblock,
// and only fall back to a low-gain forced GC when nothing else can provide
// a slot.
func (f *LearnedFTL) allocSlot(gid int, now nand.Time) (int64, nand.Time) {
	g := &f.groups[gid]
	for attempt := 0; ; attempt++ {
		if len(g.rows) > 0 && g.wp < f.sbPages {
			row := g.rows[len(g.rows)-1]
			v := f.rowVPPNBase(row) + int64(g.wp)
			g.wp++
			f.grpFree[gid]--
			return v, now
		}
		if len(g.rows) < f.Cfg.GroupSuperblocks && len(f.freeRows) > f.reserve {
			f.takeRow(gid)
			continue
		}
		if f.inGC {
			// GC evacuation cannot recurse into another GC: borrow from
			// any group but the victim, then dip into the reserve.
			if !f.Cfg.Learned.DisableCrossGroup {
				if v, ok := f.borrowSlot(gid); ok {
					return v, now
				}
			}
			if len(f.freeRows) > 0 {
				f.takeRow(gid)
				continue
			}
			panic("core: reserve exhausted during GC evacuation")
		}
		victim, invalid := f.victimGroup(now)
		if invalid >= f.sbPages {
			now = f.gcGroup(victim, now)
			continue
		}
		if !f.Cfg.Learned.DisableCrossGroup {
			if v, ok := f.borrowSlot(gid); ok {
				return v, now
			}
		}
		switch attempt {
		case 0:
			now = f.gcGroup(victim, now) // forced, low gain
		case 1:
			now = f.gcGroup(gid, now)
		default:
			if len(f.freeRows) > 0 {
				f.takeRow(gid)
				continue
			}
			panic("core: group allocation wedged (device overcommitted)")
		}
	}
}

// mostInvalidGroup returns the group with the most invalid data pages in its
// rows and that count (§III-D: "GC is performed on the GTD entry group with
// the most invalid data pages").
func (f *LearnedFTL) mostInvalidGroup() (int, int) {
	victim, best := 0, int32(-1)
	for id, inv := range f.grpInvalid {
		if inv > best {
			victim, best = id, inv
		}
	}
	return victim, int(best)
}

// victimGroup picks the group-GC victim and returns it with its invalid
// count (the callers' reclaim-gain threshold input). Greedy — the default
// and the paper's configuration — is the literal §III-D rule via
// mostInvalidGroup; the other policies score group candidates through the
// shared gc.Policy implementations, with ties falling to the lowest group
// id (ascending enumeration, strict comparison). Zero-gain groups are
// never scored (cost-benefit would rank a freshly emptied group at +Inf
// forever, starving collection); when nothing is reclaimable the paper
// rule decides the forced-GC fallback.
func (f *LearnedFTL) victimGroup(now nand.Time) (int, int) {
	if f.gcPol == nil {
		return f.mostInvalidGroup()
	}
	victim, bestInv := -1, 0
	var bestScore float64
	for id := range f.groups {
		c := f.groupCandidate(id, now)
		if c.Invalid == 0 {
			continue
		}
		s := f.gcPol.Score(c)
		if victim == -1 || s > bestScore {
			victim, bestInv, bestScore = id, c.Invalid, s
		}
	}
	if victim == -1 {
		return f.mostInvalidGroup()
	}
	return victim, bestInv
}

// groupCandidate summarizes one group for policy scoring: live/invalid
// pages across its rows, wear as the max erase count of its blocks, age
// since the most recent program into any of them.
func (f *LearnedFTL) groupCandidate(gid int, now nand.Time) gc.Candidate {
	g := &f.groups[gid]
	geo := f.Fl.Geometry()
	written, invalid := 0, 0
	var erases int64
	var lastMod nand.Time
	for i, row := range g.rows {
		if i == len(g.rows)-1 {
			written += g.wp
		} else {
			written += f.sbPages
		}
		invalid += f.rowInvalid[row]
		for u := 0; u < geo.Units(); u++ {
			blk := u*geo.BlocksPerUnit + row
			if e := f.Fl.BlockErases(blk); e > erases {
				erases = e
			}
			if m := f.Fl.BlockLastMod(blk); m > lastMod {
				lastMod = m
			}
		}
	}
	// lastMod is a program *completion* time and may sit past the GC
	// trigger time on another chip; clamp so age never goes negative.
	age := now - lastMod
	if age < 0 {
		age = 0
	}
	return gc.Candidate{
		ID:       gid,
		Valid:    written - invalid,
		Invalid:  invalid,
		Capacity: len(g.rows) * f.sbPages,
		Erases:   erases,
		Age:      age,
	}
}

// runPendingGC collects donor groups whose encroachment crossed the
// threshold, outside the allocation fast path. A donor is only collected
// when doing so reclaims meaningful space; otherwise its trigger re-arms for
// later. The queue drains in FIFO order, including donors the collections
// below queue behind the others, and is then emptied in place, so its
// storage serves every later crossing.
func (f *LearnedFTL) runPendingGC(now nand.Time) nand.Time {
	if f.inGC {
		return now
	}
	for i := 0; i < len(f.pending); i++ {
		gid := f.pending[i]
		g := &f.groups[gid]
		if !g.pendingGC {
			continue
		}
		if int(f.grpInvalid[gid]) >= f.sbPages/2 {
			now = f.gcGroup(gid, now)
		} else {
			// Not worth collecting yet; keep the encroach count so the
			// donor stays retired until a real GC resets it.
			g.pendingGC = false
		}
	}
	f.pending = f.pending[:0]
	return now
}

// replenishReserve keeps the free-row pool at the GC reserve by proactively
// collecting the most-invalid group, so a collection can always claim its
// relocation target. It stops when a pass makes no progress (nothing
// reclaimable yet).
func (f *LearnedFTL) replenishReserve(now nand.Time) nand.Time {
	for !f.inGC && len(f.freeRows) < f.reserve {
		victim, invalid := f.victimGroup(now)
		if invalid == 0 {
			break
		}
		before := len(f.freeRows)
		now = f.gcGroup(victim, now)
		if len(f.freeRows) <= before {
			break
		}
	}
	return now
}

// gcGroup performs group-based GC with model training (§III-E2) on gid.
// Foreign pages that hot groups borrowed into gid's superblocks (§III-D) are
// evacuated individually back to their owner groups — never collected
// wholesale — so one collection cannot cascade across the device.
func (f *LearnedFTL) gcGroup(gid int, now nand.Time) nand.Time {
	if f.inGC {
		return now
	}
	f.inGC = true
	defer func() { f.inGC = false }()
	f.collections++

	// One attribution window covers the whole group collection, including
	// model training charged inside relocation.
	tr := f.Col.Tracer()
	if tr != nil {
		tr.EnterGC(false, now)
	}

	// Claim the relocation target before anything else can drain the pool.
	if len(f.freeRows) == 0 {
		panic("core: no free row for GC relocation target")
	}
	n := len(f.freeRows) - 1
	newRow := f.freeRows[n]
	f.freeRows = f.freeRows[:n]

	t := now
	moved := 0
	// Relocate the victim's own pages first: its fresh superblock then has
	// (sbPages − live) free slots, which the foreign-page evacuation below
	// can borrow — the collection never needs more than the one row it
	// claimed.
	oldRows := f.gcRows[:0]
	t = f.relocateGroup(gid, newRow, t, &moved, &oldRows)
	f.gcRows = oldRows
	// Rows already free of foreign pages erase immediately, replenishing
	// the pool before evacuation might need a row of its own.
	t = f.eraseFreeable(&oldRows, t)
	// If foreign pages remain but the compacted superblock is full (a fully
	// live group), open a scratch superblock for the victim: the evacuation
	// below borrows its slots, and each emptied old row erases right away,
	// so one bootstrap row always suffices.
	g := &f.groups[gid]
	if len(oldRows) > 0 && g.wp >= f.sbPages && len(f.freeRows) > 0 &&
		len(g.rows) < f.Cfg.GroupSuperblocks {
		f.takeRow(gid)
	}
	// Evacuate row by row, erasing each row as it empties.
	for len(oldRows) > 0 {
		row := oldRows[0]
		t = f.evacuateForeign(row, gid, t, &moved)
		before := len(oldRows)
		t = f.eraseFreeable(&oldRows, t)
		if len(oldRows) == before {
			panic(fmt.Sprintf("core: GC left row %d unerasable", row))
		}
	}
	f.Col.RecordGC(moved, t-now)
	if tr != nil {
		tr.ExitGC(t)
	}
	return t
}

// evacuateForeign moves every valid page that belongs to another group out
// of a collected row, into its owner group's current write position. The
// moved LPNs' model bits are cleared (their locations changed without
// retraining).
func (f *LearnedFTL) evacuateForeign(row, gid int, t nand.Time, moved *int) nand.Time {
	start := t
	base := f.rowVPPNBase(row)
	for w, word := range f.validSlots(row) {
		for ; word != 0; word &= word - 1 {
			ppn := f.Codec.ToPhysical(nand.VPPN(base + int64(w<<6+bits.TrailingZeros64(word))))
			oob := f.Fl.PageOOB(ppn)
			if oob.Trans {
				continue
			}
			lpn := oob.Key
			owner := int(lpn / int64(f.span))
			if owner == gid {
				continue
			}
			readDone := f.Fl.Read(ppn, start, nand.OpGC)
			v, t2 := f.allocSlot(owner, readDone)
			np := f.Codec.ToPhysical(nand.VPPN(v))
			done, err := f.Fl.Program(np, nand.OOB{Key: lpn}, t2, nand.OpGC)
			if err != nil {
				panic(fmt.Sprintf("core: %v", err))
			}
			if done > t {
				t = done
			}
			f.invalidateData(ppn)
			f.L2P.Set(lpn, np)
			f.CMT.UpdatePPN(lpn, np)
			tpn := f.Cfg.TPNOf(lpn)
			f.models[tpn].Invalidate(int(lpn - int64(tpn)*int64(f.Cfg.EntriesPerTP)))
			*moved++
		}
	}
	return t
}

// validSlots returns a bitmap of the slots of row that hold valid pages.
// Walked bit by bit it meets them in VPPN order, the order a slot-by-slot
// walk of the row does and so the order evacuation allocates their new
// slots in; it is built from the row's blocks' valid bitmaps rather than by
// probing every slot. Evacuation programs no page into the row it walks and
// invalidates only the page it moves, so the slots not yet walked stay
// exact while the walk runs.
func (f *LearnedFTL) validSlots(row int) []uint64 {
	geo := f.Fl.Geometry()
	base := f.rowVPPNBase(row)
	clear(f.gcSlots)
	for u := 0; u < geo.Units(); u++ {
		f.gcPPNs = f.Fl.AppendValidPages(u*geo.BlocksPerUnit+row, f.gcPPNs[:0])
		for _, p := range f.gcPPNs {
			s := int64(f.Codec.ToVirtual(p)) - base
			f.gcSlots[s>>6] |= 1 << (s & 63)
		}
	}
	return f.gcSlots
}

// relocateGroup executes §III-E2 for one group: read its translation pages,
// gather and sort the valid mappings, write them back to the pre-claimed
// fresh superblock `newRow` in VPPN order, retrain every GTD entry's
// in-place model, and persist the rewritten translation pages.
func (f *LearnedFTL) relocateGroup(id, newRow int, t nand.Time, moved *int, oldRows *[]int) nand.Time {
	g := &f.groups[id]
	loLPN := int64(id) * int64(f.span)
	hiLPN := loLPN + int64(f.span)

	// Step ①: regulate valid mappings — read the group's translation pages.
	// Reads on distinct chips overlap (FEMU-style GC parallelism).
	start := t
	loTPN := id * f.Cfg.GroupEntries
	for e := 0; e < f.Cfg.GroupEntries; e++ {
		if tpn := loTPN + e; f.GTD.Written(tpn) {
			if done := f.Fl.Read(f.GTD.Lookup(tpn), start, nand.OpGC); done > t {
				t = done
			}
		}
	}
	lpns := f.gcLPNs[:0]
	for l := loLPN; l < hiLPN; l++ {
		if f.L2P.Mapped(l) {
			lpns = append(lpns, l)
		}
	}
	f.gcLPNs = lpns

	// Step ②: write valid pages back to the fresh superblock → contiguous
	// VPPNs for sorted LPNs.
	*oldRows = append(*oldRows, g.rows...)
	for _, r := range g.rows {
		f.rowListed[r] = false
	}
	g.rows = append(g.rows[:0], newRow)
	g.wp = 0
	g.encroach = 0
	g.pendingGC = false
	f.rowOwner[newRow] = id
	f.rowInvalid[newRow] = 0
	f.rowListed[newRow] = true
	f.setInvalid(id, 0)
	row := newRow
	base := f.rowVPPNBase(row)
	relocStart := t
	for i, lpn := range lpns {
		old := f.L2P.Get(lpn)
		readDone := f.Fl.Read(old, relocStart, nand.OpGC)
		np := f.Codec.ToPhysical(nand.VPPN(base + int64(i)))
		done, err := f.Fl.Program(np, nand.OOB{Key: lpn}, readDone, nand.OpGC)
		if err != nil {
			panic(fmt.Sprintf("core: %v", err))
		}
		if done > t {
			t = done
		}
		f.invalidateData(old)
		f.L2P.Set(lpn, np)
		f.CMT.UpdatePPN(lpn, np)
	}
	g.wp = len(lpns)
	f.grpFree[id] = int32(f.sbPages - g.wp)
	*moved += len(lpns)

	// Steps ③/④: train each GTD entry's model and evaluate its bitmap,
	// then persist the group's translation pages. The locations are the
	// ones just assigned: sorted LPN lpns[j] went to VPPN base+j, so one
	// walk of lpns feeds every entry, the VPPN ablation training on the
	// page that was programmed.
	vppns := f.gcVPPNs
	j := 0
	for e := 0; e < f.Cfg.GroupEntries; e++ {
		tpn := loTPN + e
		lo, hi := f.Cfg.TPRange(tpn)
		baseV := int64(-1)
		for i := range vppns {
			vppns[i] = -1
		}
		for ; j < len(lpns) && lpns[j] < hi; j++ {
			v := base + int64(j)
			if f.Cfg.Learned.DisableVPPN {
				v = int64(f.Codec.ToPhysical(nand.VPPN(v)))
			}
			vppns[lpns[j]-lo] = v
			if baseV < 0 || v < baseV {
				baseV = v
			}
		}
		if baseV >= 0 {
			f.models[tpn].TrainFull(baseV, vppns)
			f.Col.ModelTrainings++
			if f.Cfg.Learned.ChargeTraining {
				t += f.Cfg.Learned.SortTrainCost
				f.Col.SortTrainOps++
				f.Col.SortTrainNS += int64(f.Cfg.Learned.SortTrainCost)
			}
		}
		t = f.updateTrans(tpn, false, t)
		f.CMT.CleanRange(lo, hi)
	}
	return t
}

// eraseFreeable erases and releases every collected row whose blocks hold no
// valid pages. Erases on distinct chips proceed in parallel.
func (f *LearnedFTL) eraseFreeable(oldRows *[]int, t nand.Time) nand.Time {
	g := f.Fl.Geometry()
	blocksPerUnit := g.BlocksPerUnit
	remaining := (*oldRows)[:0]
	end := t
	for _, row := range *oldRows {
		freeable := true
		for u := 0; u < g.Units(); u++ {
			if f.Fl.BlockValid(u*blocksPerUnit+row) != 0 {
				freeable = false
				break
			}
		}
		if !freeable {
			remaining = append(remaining, row)
			continue
		}
		for u := 0; u < g.Units(); u++ {
			blk := u*blocksPerUnit + row
			if f.Fl.BlockWritePtr(blk) == 0 {
				continue
			}
			done, err := f.Fl.Erase(blk, t)
			if err != nil {
				panic(fmt.Sprintf("core: %v", err))
			}
			if done > end {
				end = done
			}
		}
		f.rowOwner[row] = -1
		f.rowInvalid[row] = 0
		f.freeRows = append(f.freeRows, row)
	}
	*oldRows = remaining
	return end
}
