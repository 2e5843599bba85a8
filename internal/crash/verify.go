package crash

import (
	"fmt"

	"learnedftl/internal/nand"
)

// maxLostDetail bounds how many lost-acked LPNs get an individual
// violation message; the full count is always in Outcome.LostAcked.
const maxLostDetail = 4

// Verify checks the recovery invariants (see the package comment) on a
// freshly recovered device against the durability oracle, appending every
// breach to out. All walks are in deterministic (flash id, LPN) order, so
// two verifications of the same state report byte-identical violations.
//
// Grown-bad blocks are excluded from the flash walk: the mount scan cannot
// see them (their survivors were drained, or queued for scrub, at
// retirement), so the verifier holds recovery to the same visibility.
func Verify(dev Device, o *Oracle, exempt map[int64]struct{}, out *Outcome) {
	fl := dev.Flash()
	g := fl.Geometry()
	shadow := dev.ShadowL2P()
	locs := dev.GTDLocations()
	lp := int64(len(shadow))

	// Forward+reverse walk of the valid pages in flash order: uniqueness
	// (at most one valid page per key) and the reverse half of the
	// bijections (every valid page is reachable from the rebuilt maps).
	data := make([]nand.PPN, lp)
	for i := range data {
		data[i] = nand.InvalidPPN
	}
	var scratch []nand.PPN
	for blk := 0; blk < g.TotalBlocks(); blk++ {
		if fl.BlockBad(blk) {
			continue
		}
		scratch = fl.AppendValidPages(blk, scratch[:0])
		for _, p := range scratch {
			oob := fl.PageOOB(p)
			if oob.Trans {
				tpn := oob.Key
				if tpn < 0 || tpn >= int64(len(locs)) {
					out.violate("valid page %d holds out-of-range TPN %d", p, tpn)
					continue
				}
				if locs[tpn] != p {
					out.violate("valid translation page %d (TPN %d) unreachable: GTD points to %d", p, tpn, locs[tpn])
				}
				continue
			}
			lpn := oob.Key
			if lpn < 0 || lpn >= lp {
				out.violate("valid page %d holds out-of-range LPN %d", p, lpn)
				continue
			}
			if prev := data[lpn]; prev != nand.InvalidPPN {
				out.violate("two valid pages for LPN %d: %d and %d", lpn, prev, p)
			}
			data[lpn] = p
			if shadow[lpn] != p {
				out.violate("valid data page %d (LPN %d) unreachable: L2P points to %d", p, lpn, shadow[lpn])
			}
		}
	}
	// Forward half: everything the rebuilt maps claim must be a valid page
	// holding that key. The flash walk above already proved OOB agreement
	// for pages it visited, so a mismatch here means the map points at an
	// invalid page, a bad block's page, or the wrong page.
	for lpn := int64(0); lpn < lp; lpn++ {
		ppn := shadow[lpn]
		if ppn == nand.InvalidPPN {
			continue
		}
		if data[lpn] != ppn {
			out.violate("L2P maps LPN %d to page %d, which does not hold it validly", lpn, ppn)
		}
	}
	for tpn := range locs {
		ppn := locs[tpn]
		if ppn == nand.InvalidPPN {
			continue
		}
		if fl.State(ppn) != nand.PageValid {
			out.violate("GTD maps TPN %d to %v page %d", tpn, fl.State(ppn), ppn)
			continue
		}
		if oob := fl.PageOOB(ppn); !oob.Trans || oob.Key != int64(tpn) {
			out.violate("GTD maps TPN %d to page %d holding {key %d, trans %v}", tpn, ppn, oob.Key, oob.Trans)
		}
	}

	// Acked durability against the oracle, in LPN order.
	for i, want := range o.expect {
		lpn := int64(i)
		if _, ok := exempt[lpn]; ok || want == ackedNone {
			continue
		}
		if o.Indeterminate(lpn) {
			// A request to this LPN was in flight when power died: the host
			// can expect nothing for it, in either direction.
			continue
		}
		mapped := lpn < lp && shadow[lpn] != nand.InvalidPPN
		switch {
		case want == ackedWrite && !mapped:
			out.LostAcked++
			if out.LostAcked <= maxLostDetail {
				out.violate("acked write to LPN %d lost: unmapped after recovery", lpn)
			}
		case want == ackedTrim && mapped:
			out.violate("acked trim of LPN %d resurfaced: mapped to page %d", lpn, shadow[lpn])
		}
	}

	// Allocator view versus flash.
	out.Violations = append(out.Violations, dev.AllocInvariants()...)
}

// violate appends one formatted violation.
func (o *Outcome) violate(format string, args ...any) {
	o.Violations = append(o.Violations, fmt.Sprintf(format, args...))
}
