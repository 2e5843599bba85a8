package mapping

import "learnedftl/internal/nand"

// L2P is a logical-to-physical map: one entry per LPN, nand.InvalidPPN for
// an LPN with no flash-resident data. It is the one place that knows how wide
// an entry is — 4 bytes, like the device's own mapping entries, so a random
// read's table miss touches half the cache lines an 8-byte nand.PPN slice
// would. PPNs fit because nand.Geometry.Validate caps a device at
// nand.MaxPages pages.
//
// The zero L2P is empty; copies share storage, like a slice.
type L2P struct {
	ppn []int32 // InvalidPPN is -1 at either width
}

// NewL2P returns a map of n LPNs, all unmapped.
func NewL2P(n int64) L2P {
	m := L2P{ppn: make([]int32, n)}
	m.Reset()
	return m
}

// Len returns the number of LPNs the map covers.
func (m L2P) Len() int64 { return int64(len(m.ppn)) }

// Get returns lpn's physical page, or nand.InvalidPPN.
func (m L2P) Get(lpn int64) nand.PPN { return nand.PPN(m.ppn[lpn]) }

// Set maps lpn to p, which is a page of the device or nand.InvalidPPN.
func (m L2P) Set(lpn int64, p nand.PPN) { m.ppn[lpn] = int32(p) }

// Mapped reports whether lpn has a physical page.
func (m L2P) Mapped(lpn int64) bool { return m.ppn[lpn] >= 0 }

// Reset unmaps every LPN.
func (m L2P) Reset() {
	for i := range m.ppn {
		m.ppn[i] = int32(nand.InvalidPPN)
	}
}

// Entries returns the map's entries in LPN order, InvalidPPN as -1: a view
// for bulk codecs, which store only InvalidPPN or pages of the device.
func (m L2P) Entries() []int32 { return m.ppn }

// PPNs returns the map widened to a fresh []nand.PPN.
func (m L2P) PPNs() []nand.PPN {
	out := make([]nand.PPN, len(m.ppn))
	for i, p := range m.ppn {
		out[i] = nand.PPN(p)
	}
	return out
}
