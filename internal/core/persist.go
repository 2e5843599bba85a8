package core

import (
	"fmt"
	"sort"

	"learnedftl/internal/learned"
	"learnedftl/internal/nand"
	"learnedftl/internal/persist"
)

// This file is LearnedFTL's side of the persistence subsystem: the full
// device snapshot (flash, L2P, GTD, CMT, in-place models, group-allocation
// state and the translation pool, all in deterministic order) and the
// crash-recovery path that, after the shared mount scan, re-derives the
// allocation state from the flash array alone.

// SaveState implements the persist.Device contract.
func (f *LearnedFTL) SaveState(e *persist.Encoder) {
	f.SaveMapState(e)
	f.Save(e)
	e.U64(uint64(len(f.models)))
	for _, m := range f.models {
		st := m.ExportState()
		e.I64(st.Base)
		e.U64(uint64(len(st.Pieces)))
		for _, p := range st.Pieces {
			e.I64(p.Off)
			e.F64(p.K)
			e.F64(p.B)
		}
		e.U64(uint64(len(st.Bits)))
		for _, w := range st.Bits {
			e.U64(w)
		}
	}
	e.U64(uint64(len(f.groups)))
	for i := range f.groups {
		g := &f.groups[i]
		e.Ints(g.rows)
		e.Int(g.wp)
		e.Int(g.encroach)
		e.Bool(g.pendingGC)
	}
	e.Ints(f.rowOwner)
	e.Ints(f.rowInvalid)
	e.Ints(f.freeRows)
	e.Ints(f.pending)
	f.SaveEMA(e)
	e.Ints(f.tp.active)
	e.U64(uint64(len(f.tp.free)))
	for u := range f.tp.free {
		e.Ints(f.tp.free[u])
	}
}

// LoadState restores a snapshot into a freshly constructed LearnedFTL of
// the same configuration.
func (f *LearnedFTL) LoadState(d *persist.Decoder) error {
	if err := f.LoadMapState(d); err != nil {
		return err
	}
	if err := f.Load(d, f.LogicalPages()); err != nil {
		return err
	}
	if n := d.U64(); d.Err() == nil && n != uint64(len(f.models)) {
		return fmt.Errorf("core: snapshot of %d models, want %d", n, len(f.models))
	}
	for i := range f.models {
		var st learned.ModelState
		st.Base = d.I64()
		st.Pieces = make([]learned.Piece, d.Count())
		for pi := range st.Pieces {
			st.Pieces[pi] = learned.Piece{Off: d.I64(), K: d.F64(), B: d.F64()}
		}
		st.Bits = make([]uint64, d.Count())
		for wi := range st.Bits {
			st.Bits[wi] = d.U64()
		}
		if err := d.Err(); err != nil {
			return err
		}
		if err := f.models[i].ImportState(st); err != nil {
			return err
		}
	}
	if n := d.U64(); d.Err() == nil && n != uint64(len(f.groups)) {
		return fmt.Errorf("core: snapshot of %d groups, want %d", n, len(f.groups))
	}
	for i := range f.groups {
		f.groups[i] = group{
			rows:      append(f.groups[i].rows[:0], d.Ints()...),
			wp:        d.Int(),
			encroach:  d.Int(),
			pendingGC: d.Bool(),
		}
		for _, r := range f.groups[i].rows {
			if r < 0 || r >= len(f.rowOwner) {
				return fmt.Errorf("core: snapshot gives group %d row %d of %d", i, r, len(f.rowOwner))
			}
		}
	}
	rowOwner := d.Ints()
	rowInvalid := d.Ints()
	f.freeRows = d.Ints()
	f.pending = d.Ints()
	f.LoadEMA(d)
	active := d.Ints()
	nf := d.U64()
	if d.Err() == nil &&
		(len(rowOwner) != len(f.rowOwner) || len(rowInvalid) != len(f.rowInvalid) ||
			len(active) != len(f.tp.active) || nf != uint64(len(f.tp.free))) {
		return fmt.Errorf("core: snapshot row/pool geometry mismatch")
	}
	if err := d.Err(); err != nil {
		return err
	}
	copy(f.rowOwner, rowOwner)
	copy(f.rowInvalid, rowInvalid)
	copy(f.tp.active, active)
	for u := range f.tp.free {
		f.tp.free[u] = d.Ints()
	}
	f.inGC = false
	f.rebuildViews()
	return d.Err()
}

// RecoverFromCrash implements ftl.CrashRecoverer: every DRAM structure —
// L2P, GTD, CMT, the in-place models with their bitmap filters, the group
// allocation table and the translation pool's view — is discarded, then
// the shared mount scan rebuilds the L2P (data pages) and GTD (translation
// pages), the superblock-row ownership is re-derived from the surviving
// pages' LPNs, and the allocator views are reconstructed from the write
// pointers. Models restart untrained: their bitmap filters are all-zero,
// so every read falls back to the demand path until GC retrains (§III-E2)
// — slower, never wrong.
func (f *LearnedFTL) RecoverFromCrash(now nand.Time) nand.Time {
	f.Reset()
	for i := range f.models {
		f.models[i] = learned.NewInPlaceModel(f.Cfg.EntriesPerTP, f.Cfg.MaxPieces)
	}
	f.pending = nil
	f.inGC = false
	done := f.RecoverMappings(now)
	// The scan's dedup settled the valid bitmaps; the row recounts below see
	// final per-page states.
	f.rebuildRows()
	f.tp.rebuild()
	return done
}

// AllocInvariants cross-checks the group-allocation table and translation
// pool against the flash array and returns human-readable violations
// (empty means consistent). The crash verifier calls it right after
// RecoverFromCrash.
func (f *LearnedFTL) AllocInvariants() []string {
	var v []string
	g := f.Fl.Geometry()
	for r := 0; r < f.transRows; r++ {
		if f.rowOwner[r] != -2 {
			v = append(v, fmt.Sprintf("translation row %d has owner %d, want -2", r, f.rowOwner[r]))
		}
	}
	inFree := make(map[int]bool)
	for _, r := range f.freeRows {
		switch {
		case inFree[r]:
			v = append(v, fmt.Sprintf("row %d appears twice in the free-row stack", r))
		case r < f.transRows || r >= g.BlocksPerUnit:
			v = append(v, fmt.Sprintf("row %d out of the data-row range [%d, %d)", r, f.transRows, g.BlocksPerUnit))
		case f.rowOwner[r] != -1:
			v = append(v, fmt.Sprintf("free row %d owned by group %d", r, f.rowOwner[r]))
		case f.rowProgrammed(r) != 0:
			v = append(v, fmt.Sprintf("free row %d has %d programmed pages", r, f.rowProgrammed(r)))
		}
		inFree[r] = true
	}
	for r := f.transRows; r < g.BlocksPerUnit; r++ {
		if f.rowOwner[r] == -1 && !inFree[r] {
			v = append(v, fmt.Sprintf("unowned row %d missing from the free-row stack", r))
		}
	}
	owned := make(map[int]int)
	reclaimable := 0
	for gid := range f.groups {
		grp := &f.groups[gid]
		invalid, free := 0, 0
		for _, r := range grp.rows {
			invalid += f.rowInvalid[r]
			if prev, dup := owned[r]; dup {
				v = append(v, fmt.Sprintf("row %d claimed by groups %d and %d", r, prev, gid))
			}
			owned[r] = gid
			if f.rowOwner[r] != gid {
				v = append(v, fmt.Sprintf("group %d lists row %d, rowOwner says %d", gid, r, f.rowOwner[r]))
			}
		}
		if n := len(grp.rows); n > 0 {
			if got := f.rowProgrammed(grp.rows[n-1]); grp.wp != got {
				v = append(v, fmt.Sprintf("group %d write position %d, active row %d holds %d", gid, grp.wp, grp.rows[n-1], got))
			}
			free = f.sbPages - grp.wp
		}
		if int(f.grpInvalid[gid]) != invalid || int(f.grpFree[gid]) != free {
			v = append(v, fmt.Sprintf("group %d views say %d invalid, %d free; its rows hold %d and %d", gid, f.grpInvalid[gid], f.grpFree[gid], invalid, free))
		}
		if invalid >= f.sbPages {
			reclaimable++
		}
	}
	for r := f.transRows; r < g.BlocksPerUnit; r++ {
		if gid := f.rowOwner[r]; gid >= 0 {
			if og, ok := owned[r]; !ok || og != gid {
				v = append(v, fmt.Sprintf("row %d owned by group %d but absent from its row list", r, gid))
			}
		}
	}
	for r, listed := range f.rowListed {
		if _, ok := owned[r]; ok != listed {
			v = append(v, fmt.Sprintf("row %d listed = %v but in a group's row list = %v", r, listed, ok))
		}
	}
	if reclaimable != f.reclaimable {
		v = append(v, fmt.Sprintf("%d groups counted reclaimable, %d are", f.reclaimable, reclaimable))
	}
	for u := range f.tp.active {
		if a := f.tp.active[u]; a >= 0 {
			if wp := f.Fl.BlockWritePtr(a); wp == 0 || wp >= g.PagesPerBlock {
				v = append(v, fmt.Sprintf("translation-pool active block %d has write pointer %d", a, wp))
			}
		}
		for _, blk := range f.tp.free[u] {
			if wp := f.Fl.BlockWritePtr(blk); wp != 0 {
				v = append(v, fmt.Sprintf("translation-pool free block %d has write pointer %d", blk, wp))
			}
		}
	}
	return v
}

// rowProgrammed returns the number of programmed slots in superblock row r
// (the row's write position: slots fill in VPPN order, so the programmed
// slots are a prefix).
func (f *LearnedFTL) rowProgrammed(r int) int {
	g := f.Fl.Geometry()
	n := 0
	for u := 0; u < g.Units(); u++ {
		n += f.Fl.BlockWritePtr(u*g.BlocksPerUnit + r)
	}
	return n
}

// rebuildRows re-derives the group-allocation state from the flash array:
// row ownership by majority vote over each row's valid pages' LPN→group
// mapping (ties to the lowest group id; a fully stale row falls to its
// first page's former owner so group GC can still reclaim it), per-row
// invalid counts by recount, free rows from empty write pointers, and each
// group's write position from its most recently opened — least filled —
// row.
func (f *LearnedFTL) rebuildRows() {
	g := f.Fl.Geometry()
	for r := range f.rowOwner {
		if r < f.transRows {
			f.rowOwner[r] = -2
		} else {
			f.rowOwner[r] = -1
		}
		f.rowInvalid[r] = 0
	}
	for i := range f.groups {
		f.groups[i] = group{}
	}
	rowsOf := make([][]int, f.ngroups)
	votes := make([]int, f.ngroups)
	for r := f.transRows; r < g.BlocksPerUnit; r++ {
		for i := range votes {
			votes[i] = 0
		}
		programmed, invalid, firstOwner := 0, 0, -1
		for u := 0; u < g.Units(); u++ {
			blk := u*g.BlocksPerUnit + r
			wp := f.Fl.BlockWritePtr(blk)
			programmed += wp
			base := nand.PPN(int64(blk) * int64(g.PagesPerBlock))
			for i := 0; i < wp; i++ {
				p := base + nand.PPN(i)
				oob := f.Fl.PageOOB(p)
				owner := int(oob.Key / int64(f.span))
				if owner < 0 || owner >= f.ngroups {
					continue
				}
				if firstOwner == -1 {
					firstOwner = owner
				}
				if f.Fl.State(p) == nand.PageValid {
					votes[owner]++
				} else {
					invalid++
				}
			}
		}
		if programmed == 0 {
			continue // stays free
		}
		owner, best := firstOwner, 0
		for id, v := range votes {
			if v > best {
				owner, best = id, v
			}
		}
		if owner < 0 {
			continue // OOB keys all out of range: unclaimable, stays free
		}
		f.rowOwner[r] = owner
		f.rowInvalid[r] = invalid
		rowsOf[owner] = append(rowsOf[owner], r)
	}
	// Free rows push in descending id order so low rows pop first — the
	// constructor's convention, kept for determinism.
	f.freeRows = f.freeRows[:0]
	for r := g.BlocksPerUnit - 1; r >= f.transRows; r-- {
		if f.rowOwner[r] == -1 {
			f.freeRows = append(f.freeRows, r)
		}
	}
	for gid := range f.groups {
		rows := rowsOf[gid]
		// Fully programmed rows first (ascending), then partial rows
		// (ascending): the last row is the group's active one, and its
		// programmed count is the group's write position.
		sort.SliceStable(rows, func(i, j int) bool {
			fi := f.rowProgrammed(rows[i]) == f.sbPages
			fj := f.rowProgrammed(rows[j]) == f.sbPages
			if fi != fj {
				return fi
			}
			return rows[i] < rows[j]
		})
		f.groups[gid].rows = rows
		if len(rows) > 0 {
			f.groups[gid].wp = f.rowProgrammed(rows[len(rows)-1])
		}
	}
	f.rebuildViews()
}

// rebuildViews recounts the flat per-group views from groups and rowInvalid.
func (f *LearnedFTL) rebuildViews() {
	clear(f.rowListed)
	for gid := range f.groups {
		g := &f.groups[gid]
		invalid := 0
		for _, r := range g.rows {
			f.rowListed[r] = true
			invalid += f.rowInvalid[r]
		}
		f.setInvalid(gid, int32(invalid))
		f.grpFree[gid] = 0
		if len(g.rows) > 0 {
			f.grpFree[gid] = int32(f.sbPages - g.wp)
		}
	}
}

// rebuild reconstructs the translation pool's allocator view from the
// flash array after a crash: empty pool blocks re-form the free lists in
// constructor order (low rows pop first), and a partially programmed pool
// block reopens as its unit's active block (lowest id wins).
func (p *transPool) rebuild() {
	g := p.fl.Geometry()
	for u := range p.active {
		p.active[u] = -1
		p.free[u] = p.free[u][:0]
	}
	for _, blk := range p.blocks { // per unit, descending row order
		u := blk / g.BlocksPerUnit
		wp := p.fl.BlockWritePtr(blk)
		switch {
		case wp == 0:
			p.free[u] = append(p.free[u], blk)
		case wp < g.PagesPerBlock:
			// blocks is ordered descending within a unit, so the final
			// assignment — the lowest id — wins deterministically.
			p.active[u] = blk
		}
	}
}
