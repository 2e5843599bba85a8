package mapping

import "learnedftl/internal/nand"

// EntriesPerTransPage is the number of 8-byte LPN→PPN mappings in one 4KB
// translation page (paper §IV-A: "each translation page has 512 LPN-PPN
// mappings").
const EntriesPerTransPage = 512

// GTD is the global translation directory: for every translation-page
// number (TPN) it records the flash location of the current version of that
// translation page, or InvalidPPN when the page has never been written.
// The GTD itself always resides in DRAM (it is tiny).
type GTD struct {
	loc []nand.PPN
}

// NewGTD returns a directory for numTPNs translation pages, all unwritten.
func NewGTD(numTPNs int) *GTD {
	g := &GTD{loc: make([]nand.PPN, numTPNs)}
	for i := range g.loc {
		g.loc[i] = nand.InvalidPPN
	}
	return g
}

// NumTPNs returns the number of translation pages the directory tracks.
func (g *GTD) NumTPNs() int { return len(g.loc) }

// Lookup returns the flash location of translation page tpn.
func (g *GTD) Lookup(tpn int) nand.PPN { return g.loc[tpn] }

// Update records that translation page tpn now lives at ppn.
func (g *GTD) Update(tpn int, ppn nand.PPN) { g.loc[tpn] = ppn }

// Locations returns every translation page's location in TPN order: a view
// for bulk codecs, which store only InvalidPPN or pages of the device.
func (g *GTD) Locations() []nand.PPN { return g.loc }

// Written reports whether tpn has ever been written to flash.
func (g *GTD) Written(tpn int) bool { return g.loc[tpn] != nand.InvalidPPN }
