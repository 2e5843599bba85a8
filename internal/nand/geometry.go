// Package nand implements the NAND flash substrate of the simulator: the
// physical geometry of an SSD (channels, ways, planes, blocks, pages), the
// physical page number (PPN) codec, the virtual PPN (VPPN) representation
// from LearnedFTL §III-C, the flash array state machine (free / valid /
// invalid pages, out-of-band metadata), and the per-chip timing model that
// serializes operations and accounts energy.
//
// Everything above this package (FTLs, allocators, workloads) deals in LPNs,
// PPNs and VPPNs; this package is the only one that knows how an address
// decomposes into parallel units.
package nand

import (
	"fmt"
	"math"
)

// Geometry describes the physical shape of the simulated SSD. The hierarchy
// is channel → way (chip/LUN) → plane → block → page, matching the paper's
// Fig. 11. A "chip" in the paper is one (channel, way) pair.
type Geometry struct {
	Channels      int // independent buses
	Ways          int // chips per channel
	Planes        int // planes per chip
	BlocksPerUnit int // blocks per plane
	PagesPerBlock int // pages per block
	PageSize      int // bytes per page
}

// PaperGeometry returns the configuration used in the paper's evaluation
// (§IV-A): 8 channels × 8 ways × 1 plane × 256 blocks × 512 pages × 4KB
// = 32 GiB of physical flash.
func PaperGeometry() Geometry {
	return Geometry{
		Channels:      8,
		Ways:          8,
		Planes:        1,
		BlocksPerUnit: 256,
		PagesPerBlock: 512,
		PageSize:      4096,
	}
}

// ScaledGeometry returns the paper geometry with the block count divided by
// scale, preserving the chip-level parallelism (64 chips) and the
// pages-per-block that the group-based allocation depends on. scale=1 is
// paper scale; scale=16 yields a 2 GiB device that runs in seconds.
func ScaledGeometry(scale int) Geometry {
	g := PaperGeometry()
	if scale > 1 {
		g.BlocksPerUnit /= scale
		if g.BlocksPerUnit < 4 {
			g.BlocksPerUnit = 4
		}
	}
	return g
}

// Chips returns the number of independently schedulable parallel units.
func (g Geometry) Chips() int { return g.Channels * g.Ways }

// Units returns the number of planes across the whole device.
func (g Geometry) Units() int { return g.Chips() * g.Planes }

// TotalBlocks returns the number of physical blocks in the device.
func (g Geometry) TotalBlocks() int { return g.Units() * g.BlocksPerUnit }

// TotalPages returns the number of physical pages in the device.
func (g Geometry) TotalPages() int { return g.TotalBlocks() * g.PagesPerBlock }

// TotalBytes returns the raw capacity in bytes.
func (g Geometry) TotalBytes() int64 {
	return int64(g.TotalPages()) * int64(g.PageSize)
}

// MaxPages is the largest device the model addresses, in pages: a flash
// page's tagged key (key<<1 | trans) must fit 32 bits, and the FTLs keep one
// 32-bit entry per LPN, so page numbers, LPNs and TPNs must all fit 31 bits
// (8 TiB of 4 KiB pages). Validate enforces it.
const MaxPages = math.MaxInt32

// Validate reports whether the geometry is usable: every field positive and
// the page count — computed without overflowing — at most MaxPages.
func (g Geometry) Validate() error {
	switch {
	case g.Channels <= 0, g.Ways <= 0, g.Planes <= 0,
		g.BlocksPerUnit <= 0, g.PagesPerBlock <= 0, g.PageSize <= 0:
		return fmt.Errorf("nand: geometry fields must be positive: %+v", g)
	}
	pages := int64(1)
	for _, n := range [...]int{g.Channels, g.Ways, g.Planes, g.BlocksPerUnit, g.PagesPerBlock} {
		if int64(n) > MaxPages/pages {
			return fmt.Errorf("nand: geometry exceeds the %d-page device limit: %+v", int64(MaxPages), g)
		}
		pages *= int64(n)
	}
	return nil
}

func (g Geometry) String() string {
	return fmt.Sprintf("%dch×%dway×%dpl×%dblk×%dpg×%dB (%d pages, %.1f GiB)",
		g.Channels, g.Ways, g.Planes, g.BlocksPerUnit, g.PagesPerBlock,
		g.PageSize, g.TotalPages(), float64(g.TotalBytes())/(1<<30))
}
