package core

import (
	"fmt"

	"learnedftl/internal/nand"
)

// transPool manages the flash blocks reserved for translation pages.
// LearnedFTL's group-based allocator owns whole superblock rows for data, so
// translation pages get their own small pool (the first transRows block
// indexes of every chip) with DFTL-style dynamic allocation and greedy GC.
type transPool struct {
	fl    *nand.Flash
	codec nand.AddrCodec

	active []int   // per unit, current block (-1 = none)
	free   [][]int // per unit, free block ids
	blocks []int   // all block ids in the pool
}

func newTransPool(fl *nand.Flash, transRows int) *transPool {
	g := fl.Geometry()
	units := g.Units()
	p := &transPool{
		fl:     fl,
		codec:  fl.Codec(),
		active: make([]int, units),
		free:   make([][]int, units),
	}
	blocksPerUnit := g.BlocksPerUnit
	for u := 0; u < units; u++ {
		p.active[u] = -1
		for r := transRows - 1; r >= 0; r-- {
			id := u*blocksPerUnit + r
			p.free[u] = append(p.free[u], id)
			p.blocks = append(p.blocks, id)
		}
	}
	return p
}

// alloc reserves the next translation-page slot on the least-busy unit,
// returning ok=false when the pool is exhausted (caller must GC the pool).
func (p *transPool) alloc() (nand.PPN, bool) {
	g := p.fl.Geometry()
	best := -1
	var bestBusy nand.Time
	for u := range p.active {
		blk := p.active[u]
		if (blk < 0 || p.fl.BlockFreePages(blk) == 0) && len(p.free[u]) == 0 {
			continue
		}
		chip := u / g.Planes
		busy := p.fl.ChipBusyUntil(chip)
		if best == -1 || busy < bestBusy {
			best, bestBusy = u, busy
		}
	}
	if best == -1 {
		return nand.InvalidPPN, false
	}
	blk := p.active[best]
	if blk < 0 || p.fl.BlockFreePages(blk) == 0 {
		n := len(p.free[best])
		blk = p.free[best][n-1]
		p.free[best] = p.free[best][:n-1]
		p.active[best] = blk
	}
	base := p.codec.BlockBase(blk)
	return base + nand.PPN(p.fl.BlockWritePtr(blk)), true
}

// victim returns the written, non-active pool block with the fewest valid
// pages that has something invalid to reclaim, or -1. All-valid blocks are
// never victims: collecting one relocates a block's worth of live pages
// for a net slot gain of zero, which wastes an erase cycle and — under the
// proactive slack loop in updateTrans — could shuffle live pages forever
// without ever raising the free-slot count.
func (p *transPool) victim() int {
	best, bestValid := -1, 1<<30
	for _, blk := range p.blocks {
		wp := p.fl.BlockWritePtr(blk)
		if wp == 0 || p.isActive(blk) {
			continue
		}
		if v := p.fl.BlockValid(blk); v < wp && v < bestValid {
			best, bestValid = blk, v
		}
	}
	return best
}

func (p *transPool) isActive(blk int) bool {
	g := p.fl.Geometry()
	u := blk / g.BlocksPerUnit
	return p.active[u] == blk
}

// release returns an erased block to its unit's free list.
func (p *transPool) release(blk int) {
	g := p.fl.Geometry()
	u := blk / g.BlocksPerUnit
	p.free[u] = append(p.free[u], blk)
}

// freeSlots returns the total programmable pages left in the pool.
func (p *transPool) freeSlots() int {
	n := 0
	for u := range p.active {
		if blk := p.active[u]; blk >= 0 {
			n += p.fl.BlockFreePages(blk)
		}
		n += len(p.free[u]) * p.fl.Geometry().PagesPerBlock
	}
	return n
}

// gcTrans collects one victim block, relocating live translation pages.
// gtdFix repoints the GTD entry of each moved translation page.
func (p *transPool) gcTrans(now nand.Time, gtdFix func(tpn int, np nand.PPN)) (nand.Time, bool) {
	victim := p.victim()
	if victim < 0 {
		return now, false
	}
	g := p.fl.Geometry()
	base := p.codec.BlockBase(victim)
	t := now
	for i := 0; i < g.PagesPerBlock; i++ {
		ppn := base + nand.PPN(i)
		if p.fl.State(ppn) != nand.PageValid {
			continue
		}
		oob := p.fl.PageOOB(ppn)
		t = p.fl.Read(ppn, t, nand.OpGC)
		np, ok := p.alloc()
		if !ok {
			panic("core: translation pool wedged during GC")
		}
		var err error
		t, err = p.fl.Program(np, oob, t, nand.OpGC)
		if err != nil {
			panic(fmt.Sprintf("core: %v", err))
		}
		if err := p.fl.Invalidate(ppn); err != nil {
			panic(fmt.Sprintf("core: %v", err))
		}
		gtdFix(int(oob.Key), np)
	}
	done, err := p.fl.Erase(victim, t)
	if err != nil {
		panic(fmt.Sprintf("core: %v", err))
	}
	p.release(victim)
	return done, true
}
