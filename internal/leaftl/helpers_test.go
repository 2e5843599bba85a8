package leaftl

// BufferedPages returns the current data-buffer occupancy.
func (l *LeaFTL) BufferedPages() int { return l.buffer.len() }

// SegmentsTotal returns the total live segments across all translation
// pages.
func (l *LeaFTL) SegmentsTotal() int {
	n := 0
	for _, t := range l.models {
		if t != nil {
			n += t.NumSegments()
		}
	}
	return n
}

// Used returns the bytes currently charged.
func (c *modelCache) Used() int { return c.used }

// Len returns the number of cached models.
func (c *modelCache) Len() int { return c.size }
