package mapping

// MarkClean clears the dirty flag of lpn if cached.
func (c *CMT) MarkClean(lpn int64) {
	if n := c.find(lpn); n != nilNode {
		c.setDirty(n, false)
	}
}

// RangeOf returns the [lo, hi) LPN range covered by tpn.
func RangeOf(tpn int) (lo, hi int64) {
	lo = int64(tpn) * EntriesPerTransPage
	return lo, lo + EntriesPerTransPage
}

// TPNOf returns the translation-page number covering lpn.
func TPNOf(lpn int64) int { return int(lpn / EntriesPerTransPage) }
