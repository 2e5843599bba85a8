package nand

import "math/bits"

// PPN is a physical page number. It encodes the hierarchical position of a
// flash page by concatenating the address fields from the highest level of
// the hierarchy (channel) to the lowest (page):
//
//	PPN = (((chn·Ways + way)·Planes + pl)·Blocks + blk)·Pages + pg
//
// Consecutive PPNs therefore stay inside one block of one chip, which is why
// pages striped across chips by a parallel allocator get PPNs that are far
// apart (the paper's Challenge #2).
type PPN int64

// VPPN is a virtual physical page number (paper §III-C, Figs. 11-12). It is
// a bijective re-ordering of the PPN address fields into the page allocation
// order channel → chip → plane → page → block, the fastest allocation order
// per Hu et al. (ICS'11):
//
//	VPPN = ((((blk·Pages + pg)·Planes + pl)·Ways + way)·Channels + chn
//
// Consecutive VPPNs walk across channels first, then ways, so a stripe
// written in parallel across all chips occupies *contiguous* VPPNs — exactly
// what a learned index needs to fit sorted LPNs with a linear model.
type VPPN int64

// InvalidPPN marks "no mapping". The zero PPN is a real page, so mapping
// tables must be initialized with InvalidPPN, not zero values.
const InvalidPPN PPN = -1

// InvalidVPPN is the VPPN analogue of InvalidPPN.
const InvalidVPPN VPPN = -1

// Addr is a fully decomposed flash page address.
type Addr struct {
	Channel int
	Way     int
	Plane   int
	Block   int
	Page    int
}

// divisor divides by one fixed positive integer without a divide
// instruction. A power of two is a plain shift; any other d takes a
// multiply-high and two shifts (Granlund & Montgomery, "Division by
// Invariant Integers using Multiplication", PLDI'94, Fig. 4.1 at N = 64),
// exact for every uint64 dividend. Every shipped geometry has only
// power-of-two fields, so the simulator's codec runs on shifts; the
// multiply-high serves the others.
type divisor struct {
	d, m     uint64 // m == 0: d is a power of two, 1 << sh2
	sh1, sh2 uint8
}

func newDivisor(d int) divisor {
	l := bits.Len64(uint64(d) - 1) // ⌈log2 d⌉
	if d&(d-1) == 0 {
		return divisor{d: uint64(d), sh2: uint8(l)}
	}
	// m = ⌊2^64·(2^l − d)/d⌋ + 1; 2^l < 2d keeps the quotient in 64 bits.
	m, _ := bits.Div64(uint64(1)<<l-uint64(d), 0, uint64(d))
	return divisor{d: uint64(d), m: m + 1, sh1: uint8(min(l, 1)), sh2: uint8(max(l-1, 0))}
}

// div returns n / d.
func (v divisor) div(n uint64) uint64 {
	if v.m != 0 {
		t, _ := bits.Mul64(v.m, n)
		n = t + (n-t)>>(v.sh1&63)
	}
	return n >> (v.sh2 & 63)
}

// divmod returns n / d and n % d.
func (v divisor) divmod(n uint64) (q, r uint64) {
	q = v.div(n)
	return q, n - q*v.d
}

// codecConsts is what NewAddrCodec works out once per geometry.
type codecConsts struct {
	g Geometry

	pages, blocks, planes, ways, channels divisor
	// chipPages divides by the pages of one chip (Planes·Blocks·Pages), so
	// a PPN's parallel unit is one step away instead of a full Decode.
	chipPages divisor

	// PPN ↔ VPPN. Both orders keep (block, page) together and differ only in
	// where the plane sits and how its (channel, way, plane) triple is
	// ranked: the PPN's unit index (chn·Ways + way)·Planes + pl against the
	// VPPN's (pl·Ways + way)·Channels + chn. The two rankings are tabulated
	// against each other, so a conversion is two divisions and a lookup.
	units          divisor
	unitToVirtual  []int32 // PPN unit index → VPPN unit index
	unitToPhysical []int32 // and back
}

// AddrCodec converts between Addr, PPN and VPPN for a fixed geometry. Every
// division is by a geometry constant, so NewAddrCodec works out each
// divisor once — a shift for a power of two, a reciprocal otherwise — and
// the conversions run on shifts, or multiplies and shifts; Chip, BlockID,
// Block and BlockPage extract a single field in one step. The codec is one
// pointer to those shared read-only constants: a value type, copy freely.
type AddrCodec struct {
	k *codecConsts
}

// NewAddrCodec returns a codec for geometry g, whose fields must be
// positive (Geometry.Validate).
func NewAddrCodec(g Geometry) AddrCodec {
	k := &codecConsts{
		g:              g,
		pages:          newDivisor(g.PagesPerBlock),
		blocks:         newDivisor(g.BlocksPerUnit),
		planes:         newDivisor(g.Planes),
		ways:           newDivisor(g.Ways),
		channels:       newDivisor(g.Channels),
		chipPages:      newDivisor(g.Planes * g.BlocksPerUnit * g.PagesPerBlock),
		units:          newDivisor(g.Units()),
		unitToVirtual:  make([]int32, g.Units()),
		unitToPhysical: make([]int32, g.Units()),
	}
	for chn := 0; chn < g.Channels; chn++ {
		for way := 0; way < g.Ways; way++ {
			for pl := 0; pl < g.Planes; pl++ {
				phys := (chn*g.Ways+way)*g.Planes + pl
				virt := (pl*g.Ways+way)*g.Channels + chn
				k.unitToVirtual[phys] = int32(virt)
				k.unitToPhysical[virt] = int32(phys)
			}
		}
	}
	return AddrCodec{k: k}
}

// Geometry returns the geometry the codec was built for.
func (c AddrCodec) Geometry() Geometry { return c.k.g }

// Encode packs an address into a PPN.
func (c AddrCodec) Encode(a Addr) PPN {
	g := &c.k.g
	v := ((int64(a.Channel)*int64(g.Ways)+int64(a.Way))*int64(g.Planes)+
		int64(a.Plane))*int64(g.BlocksPerUnit) + int64(a.Block)
	return PPN(v*int64(g.PagesPerBlock) + int64(a.Page))
}

// Decode unpacks a PPN into its address fields.
func (c AddrCodec) Decode(p PPN) Addr {
	k := c.k
	v, page := k.pages.divmod(uint64(p))
	v, block := k.blocks.divmod(v)
	v, plane := k.planes.divmod(v)
	channel, way := k.ways.divmod(v)
	return Addr{Channel: int(channel), Way: int(way), Plane: int(plane), Block: int(block), Page: int(page)}
}

// ToVirtual converts a PPN to the equivalent VPPN.
func (c AddrCodec) ToVirtual(p PPN) VPPN {
	if p == InvalidPPN {
		return InvalidVPPN
	}
	k := c.k
	q, page := k.pages.divmod(uint64(p))
	unit, block := k.blocks.divmod(q)
	return VPPN((block*k.pages.d+page)*k.units.d + uint64(k.unitToVirtual[unit]))
}

// ToPhysical converts a VPPN back to the PPN of the same physical page.
func (c AddrCodec) ToPhysical(v VPPN) PPN {
	if v == InvalidVPPN {
		return InvalidPPN
	}
	k := c.k
	q, unit := k.units.divmod(uint64(v))
	block, page := k.pages.divmod(q)
	return PPN((uint64(k.unitToPhysical[unit])*k.blocks.d+block)*k.pages.d + page)
}

// Chip returns the parallel-unit index (channel*Ways + way) of a PPN.
// Operations on the same chip serialize; different chips proceed in parallel.
func (c AddrCodec) Chip(p PPN) int { return int(c.k.chipPages.div(uint64(p))) }

// BlockID returns the device-wide block index of the block containing p.
func (c AddrCodec) BlockID(p PPN) int { return int(c.k.pages.div(uint64(p))) }

// BlockPage returns the device-wide block index of the block containing p
// and p's page index inside it.
func (c AddrCodec) BlockPage(p PPN) (blockID, page int) {
	b, pg := c.k.pages.divmod(uint64(p))
	return int(b), int(pg)
}

// Block returns the Addr.Block field of p — its block's index within the
// plane, which is also its superblock row — without the other four.
func (c AddrCodec) Block(p PPN) int {
	_, blk := c.k.blocks.divmod(c.k.pages.div(uint64(p)))
	return int(blk)
}

// BlockBase returns the PPN of page 0 of the device-wide block blockID.
func (c AddrCodec) BlockBase(blockID int) PPN {
	return PPN(int64(blockID) * int64(c.k.g.PagesPerBlock))
}

// BlockAddr returns the address of page 0 of the device-wide block blockID.
func (c AddrCodec) BlockAddr(blockID int) Addr { return c.Decode(c.BlockBase(blockID)) }

// SuperblockPages returns the number of pages in one superblock stripe.
func (c AddrCodec) SuperblockPages() int {
	g := &c.k.g
	return g.Chips() * g.Planes * g.PagesPerBlock
}
